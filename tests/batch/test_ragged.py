"""Ragged CSR-packed class substrate: fill ≈ 1 with bit-identical rows.

The acceptance bar mirrors the stacked-dense suite, but against the
*stacked classes* reference: every row of a mixed-ν, mixed-N, even
mixed-schedule ragged batch must equal that instance's own
single-instance ``classes``-backend execution **bit for bit** —
fidelity, output distribution, class amplitudes, ledger and schedule.
A hypothesis grid drives the kernel-level invariants (``from_parts``
round-trip, count conservation under ``transfer_element``) on shapes
the fixed seeds rarely hit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import (
    RaggedClassVector,
    execute_sampling_batch,
    padded_fill_ratio,
)
from repro.batch.ragged import RaggedClassBackend
from repro.config import CONFIG, strict_mode
from repro.core import ParallelSampler, SequentialSampler
from repro.database import DistributedDatabase
from repro.database.fault import apply_fault_mask
from repro.errors import ValidationError
from repro.utils.rng import as_generator


def random_database(rng: np.random.Generator) -> DistributedDatabase:
    """Small random distributed database (mirrors test_batch_engine)."""
    n_machines = int(rng.integers(2, 5))
    universe = int(rng.integers(16, 193))
    nu = int(rng.integers(2, 9))
    total = int(rng.integers(1, max(2, universe // 4)))
    counts = np.zeros((n_machines, universe), dtype=np.int64)
    for _ in range(total):
        j = int(rng.integers(n_machines))
        i = int(rng.integers(universe))
        if counts[:, i].sum() < nu:
            counts[j, i] += 1
    if counts.sum() == 0:
        counts[0, 0] = 1
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def mixed_databases() -> list[DistributedDatabase]:
    """Six instances spanning several ν, N, n and schedule shapes."""
    from repro.analysis.sweep import InstanceSpec, WorkloadSpec

    def db(total, n, universe, seed):
        spec = InstanceSpec(
            workload=WorkloadSpec.of("zipf", universe=universe, total=total),
            n_machines=n,
            tag="t",
        )
        return spec.build(as_generator(seed))

    return [
        db(24, 2, 64, 0), db(6, 3, 32, 1), db(48, 2, 64, 2),
        db(30, 5, 16, 3), db(12, 2, 64, 4), db(24, 4, 32, 5),
    ]


def assert_row_bit_identical(result, reference):
    """Every float the row carries matches the reference with ==."""
    assert result.fidelity == reference.fidelity
    assert (result.output_probabilities == reference.output_probabilities).all()
    assert (
        result.final_state.class_amplitudes()
        == reference.final_state.class_amplitudes()
    ).all()
    assert result.ledger.summary() == reference.ledger.summary()
    assert result.ledger.per_machine() == reference.ledger.per_machine()
    assert result.schedule.fingerprint() == reference.schedule.fingerprint()
    assert result.plan == reference.plan


class TestBitIdentity:
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_grid_matches_per_instance_classes(self, model, seed):
        rng = as_generator(3000 * seed)
        dbs = [random_database(rng) for _ in range(9)]
        batched = execute_sampling_batch(
            dbs, model=model, backend="ragged", include_probabilities=True
        )
        for db, result in zip(dbs, batched):
            [reference] = execute_sampling_batch(
                [db], model=model, backend="classes", include_probabilities=True
            )
            assert result.backend == "ragged"
            assert_row_bit_identical(result, reference)

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_mixed_schedule_batch_matches_per_instance(self, model):
        """Mixed (reps, needs_final) shapes run as ONE masked-loop group."""
        dbs = mixed_databases()
        batched = execute_sampling_batch(
            dbs, model=model, backend="ragged", include_probabilities=True
        )
        for db, result in zip(dbs, batched):
            [reference] = execute_sampling_batch(
                [db], model=model, backend="classes", include_probabilities=True
            )
            assert_row_bit_identical(result, reference)

    def test_strict_mode_run_stays_exact(self):
        dbs = mixed_databases()[:3]
        with strict_mode():
            results = execute_sampling_batch(dbs, model="sequential", backend="ragged")
        assert all(r.exact for r in results)

    def test_auto_reroutes_heterogeneous_batches(self):
        """auto's default puts a mixed-ν class-bound batch on ragged — one
        unpadded group — with every row bit-identical to that instance's
        own classes run."""
        counts = np.zeros((2, CONFIG.classes_universe_threshold), dtype=np.int64)
        dbs = []
        for b, nu in enumerate((2, 8, 3, 6)):
            wide = counts.copy()
            wide[0, : 2 + b] = 1
            wide[1, 2 + b] = nu
            dbs.append(DistributedDatabase.from_count_matrix(wide, nu=nu))
        assert padded_fill_ratio([db.nu + 1 for db in dbs]) < 0.95
        ragged = execute_sampling_batch(
            dbs, model="sequential", backend="auto", include_probabilities=True
        )
        assert {r.backend for r in ragged} == {"ragged"}
        for db, ours in zip(dbs, ragged):
            [reference] = execute_sampling_batch(
                [db], model="sequential", backend="classes", include_probabilities=True
            )
            assert_row_bit_identical(ours, reference)


def masked_database(rng: np.random.Generator) -> DistributedDatabase:
    """A random database with one machine lost, when that leaves data."""
    db = random_database(rng)
    lost = int(rng.integers(db.n_machines))
    masked = apply_fault_mask(db, (lost,))
    return masked if masked.total_count > 0 else db


class TestPerInstanceContract:
    """The contract ``auto`` relies on: a row is the same float for float
    whether it runs alone on the per-instance ``classes`` sampler, as a
    one-instance ``classes`` stack, or inside a mixed-ν ``ragged`` batch
    — under the capacity-aware schedule and a fault mask too."""

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_three_paths_agree_bit_for_bit(self, model, seed):
        rng = as_generator(7000 * seed)
        dbs = [masked_database(rng) for _ in range(8)]
        assert len({db.nu for db in dbs}) > 1  # a genuinely mixed-ν batch
        sampler_cls = SequentialSampler if model == "sequential" else ParallelSampler
        mixed = execute_sampling_batch(
            dbs, model=model, backend="ragged", skip_zero_capacity=True
        )
        for db, in_batch in zip(dbs, mixed):
            reference = sampler_cls(
                db, backend="classes", skip_zero_capacity=True
            ).run()
            [alone] = execute_sampling_batch(
                [db], model=model, backend="classes", skip_zero_capacity=True
            )
            assert_row_bit_identical(alone, reference)
            assert_row_bit_identical(in_batch, reference)

    def test_served_classes_rows_equal_instance_rows(self):
        """A masked scenario trace: the served class plane and the
        per-instance classes sampler give the same fidelity, to the bit."""
        from repro import sample_many, serve
        from repro.scenarios import resolve_scenario

        requests = resolve_scenario("disjoint-loss").requests(
            4, seeds=[700 + i for i in range(4)]
        )
        served = serve(requests, batch_size=4)
        instance = sample_many(requests, strategy="instance")
        assert [r.backend for r in served] == ["ragged"] * 4
        assert [r.backend for r in instance] == ["classes"] * 4
        assert served.column("fidelity") == instance.column("fidelity")


#: One instance: (universe size, class count), kept tiny so the grid
#: explores shapes, not arithmetic.
instance_shapes = st.tuples(
    st.integers(min_value=1, max_value=9),   # N
    st.integers(min_value=1, max_value=6),   # ν + 1  (1 ⇒ a ν=0 instance)
)


def build_segment(rng: np.random.Generator, n: int, n_classes: int):
    element_classes = rng.integers(0, n_classes, size=n).astype(np.int64)
    amps = rng.normal(size=(n_classes, 2)) + 1j * rng.normal(size=(n_classes, 2))
    return element_classes, amps


@st.composite
def batches(draw):
    shapes = draw(st.lists(instance_shapes, min_size=1, max_size=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return shapes, seed


class TestPropertyGrid:
    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_from_parts_round_trip(self, batch):
        """extract → from_parts of the CSR pieces is the identity, at any
        mix of widths and universe sizes."""
        shapes, seed = batch
        rng = as_generator(seed)
        maps, planes = [], []
        for n, c in shapes:
            ec, amps = build_segment(rng, n, c)
            maps.append(ec)
            planes.append(amps)
        state = RaggedClassVector(
            maps, [c for _, c in shapes], values=np.concatenate(planes, axis=0)
        )
        rebuilt = RaggedClassVector.from_parts(
            maps, state.offsets, state.class_sizes, state.values()
        )
        assert (rebuilt.values() == state.values()).all()
        assert (rebuilt.offsets == state.offsets).all()
        assert (rebuilt.n_classes == state.n_classes).all()
        for b, (ec, amps) in enumerate(zip(maps, planes)):
            cell = rebuilt.extract(b)
            assert (cell.class_amplitudes() == amps).all()
            assert (cell.element_classes == ec).all()

    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_transfer_element_conserves_counts(self, batch):
        """Moving elements between classes never changes any instance's
        total multiplicity, and never touches sibling segments."""
        shapes, seed = batch
        rng = as_generator(seed)
        maps = []
        for n, c in shapes:
            ec, _ = build_segment(rng, n, c)
            maps.append(ec)
        state = RaggedClassVector.uniform(maps, [c for _, c in shapes])
        totals = [
            state.class_sizes[state.offsets[b]:state.offsets[b + 1]].sum()
            for b in range(state.batch_size)
        ]
        for _ in range(8):
            b = int(rng.integers(state.batch_size))
            n, c = shapes[b]
            state.transfer_element(b, int(rng.integers(n)), int(rng.integers(c)))
        for b in range(state.batch_size):
            seg = state.class_sizes[state.offsets[b]:state.offsets[b + 1]]
            assert seg.sum() == totals[b]
            assert (seg >= 0).all()
            # the class map and the multiplicity plane stay consistent
            rebuilt = np.bincount(
                state._element_classes[b], minlength=shapes[b][1]
            ).astype(np.float64)
            assert (seg == rebuilt).all()

    @given(batches())
    @settings(max_examples=40, deadline=None)
    def test_extract_matches_per_instance_operations(self, batch):
        """The π-projector phase — the only cross-cell reduction — agrees
        bit for bit with each instance's own B = 1 StackedClassVector run
        (the family's reference arithmetic, which the end-to-end engine
        gate compares against)."""
        from repro.batch import StackedClassVector
        from repro.qsim import ClassVector

        shapes, seed = batch
        rng = as_generator(seed)
        maps, singles = [], []
        for n, c in shapes:
            ec, amps = build_segment(rng, n, c)
            maps.append(ec)
            singles.append(ClassVector(ec, c, amps=amps))
        state = RaggedClassVector(
            maps,
            [c for _, c in shapes],
            values=np.concatenate([s.class_amplitudes() for s in singles], axis=0),
        )
        phases = np.exp(1j * rng.normal(size=len(shapes)))
        state.apply_pi_projector_phase(phases)
        for b, single in enumerate(singles):
            reference = StackedClassVector.stack([single])
            reference.apply_pi_projector_phase(phases[b:b + 1])
            assert (state.extract(b).class_amplitudes()
                    == reference.extract(0).class_amplitudes()).all()

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_padded_fill_ratio_bounds(self, widths):
        ratio = padded_fill_ratio(widths)
        assert 0.0 < ratio <= 1.0
        assert ratio == pytest.approx(sum(widths) / (len(widths) * max(widths)))
        if len(set(widths)) == 1:
            assert ratio == 1.0


class TestValidation:
    def test_rejects_out_of_range_classes(self):
        with pytest.raises(ValidationError, match="instance 1"):
            RaggedClassVector(
                [np.zeros(3, dtype=np.int64), np.array([0, 2], dtype=np.int64)],
                [1, 2],
            )

    def test_rejects_empty_batch(self):
        with pytest.raises(ValidationError):
            RaggedClassVector([], [])

    def test_rejects_wrong_values_shape(self):
        with pytest.raises(ValidationError, match="values"):
            RaggedClassVector(
                [np.zeros(3, dtype=np.int64)], [2],
                values=np.zeros((3, 2), dtype=np.complex128),
            )

    def test_rejects_element_register_phase_slice(self):
        state = RaggedClassVector.uniform([np.zeros(3, dtype=np.int64)], [2])
        with pytest.raises(ValidationError, match="'i'"):
            state.apply_phase_slice("i", 0, 1.0)

    def test_registered_for_both_models(self):
        assert RaggedClassBackend.name == "ragged"
        assert RaggedClassBackend.supports_mixed_schedules
        assert set(RaggedClassBackend.models) == {"sequential", "parallel"}

    def test_fill_ratio_reported(self):
        state = RaggedClassVector.uniform(
            [np.zeros(4, dtype=np.int64), np.zeros(2, dtype=np.int64)], [4, 2]
        )
        # the property reports the fill a PADDED stack of these widths
        # would get — the padding the CSR packing avoids.
        assert state.fill_ratio == padded_fill_ratio([4, 2]) == 0.75
