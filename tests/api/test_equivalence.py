"""The front door reproduces the legacy entry points, row for row.

The acceptance bar: a single :class:`SamplingRequest` round-trips
through all four strategies — per-instance, stacked batch, process
fan-out, served stream — with **bit-identical** rows to the legacy entry
points for the same seeds (the in-process strategies share the exact
code path, so equality is exact; the served path's batch composition is
timing-dependent, so fidelity is compared at the 1e-12 tolerance the
serving subsystem's own equivalence tests use, everything else exactly).
"""

import pytest

from repro import sample, sample_many
from repro.analysis import InstanceSpec
from repro.api import SamplingRequest, serve
from repro.batch import run_batched
from repro.core import ParallelSampler, SequentialSampler
from repro.database import WorkloadSpec
from repro.serve import SamplerService
from repro.utils.rng import as_generator, spawn_seed


def spec_of(total=24, n=2, universe=64, tag=""):
    return InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=universe, total=total),
        n_machines=n,
        tag=tag,
    )


def mixed_specs(count=6):
    return [
        spec_of(48, 2, tag=f"hi{k}") if k % 2 else spec_of(6, 3, tag=f"lo{k}")
        for k in range(count)
    ]


def assert_rows_identical(api_rows, legacy_rows):
    """Every legacy column matches exactly (fidelity included)."""
    assert len(api_rows) == len(legacy_rows)
    for mine, ref in zip(api_rows, legacy_rows):
        for key, value in ref.items():
            assert mine[key] == value, (key, mine[key], value)


def assert_rows_equivalent(api_rows, legacy_rows):
    """1e-12 on fidelity, exact elsewhere (timing-dependent batching)."""
    assert len(api_rows) == len(legacy_rows)
    for mine, ref in zip(api_rows, legacy_rows):
        assert mine["fidelity"] == pytest.approx(ref["fidelity"], abs=1e-12)
        for key, value in ref.items():
            if key != "fidelity":
                assert mine[key] == value, (key, mine[key], value)


class TestInstanceStrategy:
    """repro.sample vs SequentialSampler / ParallelSampler."""

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_database_request_matches_sampler(self, small_db, model):
        result = sample(
            SamplingRequest(database=small_db, model=model, backend="classes")
        )
        sampler_cls = SequentialSampler if model == "sequential" else ParallelSampler
        legacy = sampler_cls(small_db, backend="classes").run()
        assert result.strategy == "instance"
        assert result.fidelity == legacy.fidelity
        assert result.sampling.ledger.summary() == legacy.ledger.summary()
        assert (
            result.sampling.schedule.fingerprint() == legacy.schedule.fingerprint()
        )

    def test_spec_request_matches_sampler_for_same_seed(self):
        spec = spec_of()
        result = sample(SamplingRequest(spec=spec, seed=11, backend="subspace"))
        legacy = SequentialSampler(spec.build(rng=11), backend="subspace").run()
        assert result.fidelity == legacy.fidelity
        assert result.sampling.ledger.summary() == legacy.ledger.summary()

    def test_skip_zero_capacity_policy(self, mostly_empty_db):
        restricted = sample(
            SamplingRequest(
                database=mostly_empty_db, backend="subspace", capacity="skip_empty"
            )
        )
        legacy = SequentialSampler(
            mostly_empty_db, backend="subspace", skip_zero_capacity=True
        ).run()
        assert restricted.sequential_queries == legacy.sequential_queries
        assert restricted.sampling.ledger.per_machine() == legacy.ledger.per_machine()


class TestStackedStrategy:
    """repro.sample_many vs run_batched — bit-identical rows."""

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_rows_match_run_batched(self, model):
        specs = mixed_specs()
        requests = [
            SamplingRequest(spec=spec, model=model, batchable=True) for spec in specs
        ]
        results = sample_many(requests, rng=7, batch_size=4)
        assert set(results.strategies()) == {"stacked"}
        # backend="auto" applies the same stacked-substrate rule the
        # planner does (subspace for these small-N sequential specs,
        # synced for parallel), so rows stay bit-identical.
        legacy = run_batched(specs, model=model, rng=7, batch_size=4, backend="auto")
        assert_rows_identical(results.rows(), legacy.rows)

    def test_explicit_classes_backend_matches_run_batched_default(self):
        specs = mixed_specs()
        requests = [
            SamplingRequest(spec=spec, backend="classes", batchable=True)
            for spec in specs
        ]
        results = sample_many(requests, rng=7, batch_size=4)
        assert set(r.backend for r in results) == {"classes"}
        legacy = run_batched(specs, rng=7, batch_size=4)
        assert_rows_identical(results.rows(), legacy.rows)

    def test_explicit_seeds_override_rng(self):
        spec = spec_of()
        gen = as_generator(5)
        seeds = [spawn_seed(gen) for _ in range(3)]
        explicit = sample_many(
            [SamplingRequest(spec=spec, seed=seed, batchable=True) for seed in seeds]
        )
        drawn = sample_many(
            [SamplingRequest(spec=spec, batchable=True)] * 3, rng=5
        )
        for mine, ref in zip(explicit.rows(), drawn.rows()):
            assert {k: v for k, v in mine.items() if k != "wall_time_s"} == {
                k: v for k, v in ref.items() if k != "wall_time_s"
            }


class TestFanoutStrategy:
    """repro.sample_many(jobs=2) vs run_batched(jobs=2) — bit-identical."""

    def test_rows_match_run_batched_jobs(self):
        specs = mixed_specs()
        requests = [SamplingRequest(spec=spec, batchable=True) for spec in specs]
        results = sample_many(requests, rng=7, batch_size=2, jobs=2)
        assert set(results.strategies()) == {"fanout"}
        legacy = run_batched(specs, rng=7, batch_size=2, jobs=2, backend="auto")
        assert_rows_identical(results.rows(), legacy.rows)
        # Fan-out ships rows, not states: the run stayed worker-side.
        assert all(result.sampling is None for result in results)


class TestServedStrategy:
    """repro.serve vs SamplerService — same seeds, same rows."""

    def test_rows_match_sampler_service(self):
        specs = mixed_specs()
        results = serve(
            [SamplingRequest(spec=spec, include_probabilities=False) for spec in specs],
            rng=7,
            batch_size=4,
            flush_deadline=0.01,
        )
        with SamplerService(
            rng=7, batch_size=4, flush_deadline=0.01, backend="auto"
        ) as service:
            for spec in specs:
                service.submit(spec)
            legacy_rows = service.rows()
        assert set(results.strategies()) == {"served"}
        assert results.telemetry is not None
        assert results.telemetry["completed"] == len(specs)
        assert_rows_equivalent(results.rows(), legacy_rows)

    def test_empty_stream(self):
        results = serve(iter(()))
        assert len(results) == 0 and results.telemetry is None

    def test_served_requests_honor_max_dense_dimension(self):
        """serve() must apply the request's dense cap exactly like
        repro.sample does — auto falls back to the class plane when
        2N > cap, even for the sequential M > N shape it runs dense."""
        request = SamplingRequest(
            spec=spec_of(total=256), include_probabilities=False, max_dense_dimension=8
        )
        results = serve([request], rng=0)
        assert results[0].backend == "ragged"
        uncapped = SamplingRequest(spec=spec_of(total=256), include_probabilities=False)
        assert serve([uncapped], rng=0)[0].backend == "subspace"

    def test_served_streams_homogeneous_in_dense_cap(self):
        from repro.errors import PlanningError

        capped = SamplingRequest(
            spec=spec_of(), include_probabilities=False, max_dense_dimension=8
        )
        uncapped = SamplingRequest(spec=spec_of(), include_probabilities=False)
        with pytest.raises(PlanningError, match="max_dense_dimension"):
            serve([capped, uncapped], rng=0)

    def test_sharded_serve_matches_unsharded(self):
        """``shards=`` on the front door routes to the sharded tier and
        reproduces the single-process service at 1e-12."""
        specs = mixed_specs()
        requests = [
            SamplingRequest(spec=spec, include_probabilities=False, shards=2)
            for spec in specs
        ]
        sharded = serve(requests, rng=7, batch_size=4, flush_deadline=0.01)
        unsharded = serve(
            [SamplingRequest(spec=spec, include_probabilities=False) for spec in specs],
            rng=7,
            batch_size=4,
            flush_deadline=0.01,
        )
        assert sharded.telemetry is not None
        assert sharded.telemetry["shards"] == 2
        assert sharded.telemetry["completed"] == len(specs)
        rows, refs = sharded.rows(), unsharded.rows()
        assert len(rows) == len(refs)
        for mine, ref in zip(rows, refs):
            assert mine["fidelity"] == pytest.approx(ref["fidelity"], abs=1e-12)
            for key, value in ref.items():
                if key not in ("fidelity", "wall_time_s"):
                    assert mine[key] == value, (key, mine[key], value)

    def test_sample_many_served_strategy_carries_telemetry(self):
        results = sample_many(
            [SamplingRequest(spec=spec_of(), include_probabilities=False)] * 3,
            rng=0,
            strategy="served",
        )
        assert results.telemetry is not None
        assert results.telemetry["completed"] == 3


class TestFourStrategyRoundTrip:
    """One request, four strategies: identical audit, consistent physics."""

    def test_single_request_round_trips_every_strategy(self):
        spec = spec_of(total=48, n=3)
        request = SamplingRequest(spec=spec, include_probabilities=False)

        def run(strategy, **kwargs):
            if strategy == "served":
                return serve([request], rng=7, **kwargs)[0]
            return sample_many([request], rng=7, strategy=strategy, **kwargs)[0]

        results = {
            "instance": run("instance"),
            "stacked": run("stacked"),
            "fanout": run("fanout", jobs=2),
            "served": run("served"),
        }
        # The audit surface is identical everywhere: same seed, same
        # plan, same honest ledger totals, exact fidelity.
        reference = results["stacked"].row()
        for strategy, result in results.items():
            row = result.row()
            assert result.strategy == strategy
            assert row["strategy"] == strategy
            assert row["exact"] is True
            for key in ("label", "n", "N", "M", "nu", "model",
                        "sequential_queries", "parallel_rounds",
                        "grover_reps", "d_applications"):
                assert row[key] == reference[key], (strategy, key)
            assert row["fidelity"] == pytest.approx(
                reference["fidelity"], abs=1e-12
            )
        # Stacked and fanout share one substrate (the planner resolved
        # the same stacked backend for both): bit-for-bit agreement.
        assert results["fanout"].row()["fidelity"] == reference["fidelity"]

    def test_round_trip_matches_each_legacy_entry_point(self):
        spec = spec_of(total=48, n=3)
        request = SamplingRequest(spec=spec, include_probabilities=False)

        stacked = sample_many([request], rng=7, strategy="stacked")
        legacy_batched = run_batched(
            [spec], rng=7, include_probabilities=False, backend="auto"
        )
        assert_rows_identical(stacked.rows(), legacy_batched.rows)

        fanout = sample_many([request], rng=7, strategy="fanout", jobs=2)
        legacy_fanout = run_batched(
            [spec], rng=7, jobs=2, include_probabilities=False, backend="auto"
        )
        assert_rows_identical(fanout.rows(), legacy_fanout.rows)

        served = serve([request], rng=7)
        with SamplerService(rng=7, backend="auto") as service:
            service.submit(spec)
            legacy_served = service.rows()
        assert_rows_equivalent(served.rows(), legacy_served)

        instance = sample_many([request], rng=7, strategy="instance")
        seed = spawn_seed(as_generator(7))
        legacy_instance = SequentialSampler(
            spec.build(rng=seed), backend=instance[0].backend
        ).run()
        assert instance[0].fidelity == legacy_instance.fidelity
        assert (
            instance[0].sampling.ledger.summary()
            == legacy_instance.ledger.summary()
        )


class TestResultSurface:
    def test_unified_columns_present(self):
        result = sample(SamplingRequest(spec=spec_of(), seed=0))
        row = result.row()
        for column in ("label", "n", "N", "M", "nu", "backend", "model",
                       "batched", "fidelity", "exact", "grover_reps",
                       "d_applications", "sequential_queries",
                       "parallel_rounds", "strategy", "wall_time_s"):
            assert column in row
        assert row["batched"] is False and row["strategy"] == "instance"

    def test_result_set_to_sweep(self):
        results = sample_many(
            [SamplingRequest(spec=spec_of(), batchable=True)] * 3, rng=0
        )
        sweep = results.to_sweep()
        assert len(sweep) == 3
        assert sweep.column("strategy") == ["stacked"] * 3

    def test_wall_time_recorded(self):
        result = sample(SamplingRequest(spec=spec_of(), seed=0))
        assert result.wall_time > 0
        assert result.row()["wall_time_s"] == result.wall_time
