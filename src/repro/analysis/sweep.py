"""Parameter-sweep driver used by the experiment harness.

A sweep is a list of instance specs (workload × partition × parameters);
the driver materializes each instance with deterministic child seeds, runs
a caller-supplied measurement function, and collects rows ready for
:mod:`repro.analysis.report`.  Keeping this generic lets every benchmark
be ~20 lines of configuration instead of bespoke loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..database.distributed import DistributedDatabase
from ..database.partition import partition
from ..database.workloads import WorkloadSpec
from ..utils.pool import process_map_iter
from ..utils.rng import as_generator, spawn_seed


@dataclass(frozen=True)
class InstanceSpec:
    """One point of a sweep: dataset recipe + sharding + capacity.

    Attributes
    ----------
    workload:
        The dataset recipe.
    n_machines:
        Number of machines to shard over.
    strategy:
        Partition strategy name (see :data:`repro.database.STRATEGIES`).
    nu:
        Optional explicit capacity ``ν`` (defaults to the tightest valid).
    tag:
        Free-form label carried into result rows.
    backend:
        Optional sampler-backend name (see
        :func:`repro.core.backends.backend_names`); ``None`` leaves the
        choice to the measurement function.  Always injected as the
        ``backend`` column (``None`` when unset) and carried into row
        labels, so one sweep can compare representations on identical
        instances.
    """

    workload: WorkloadSpec
    n_machines: int
    strategy: str = "round_robin"
    nu: int | None = None
    tag: str = ""
    backend: str | None = None

    def build(self, rng: object = None) -> DistributedDatabase:
        """Materialize the database (workload seed ⊥ partition seed)."""
        gen = as_generator(rng)
        dataset = self.workload.build(rng=spawn_seed(gen))
        return partition(
            dataset, self.n_machines, strategy=self.strategy, nu=self.nu,
            rng=spawn_seed(gen),
        )

    def declared_shape(self) -> tuple[int | None, int | None]:
        """``(N, M)`` as the recipe declares them, without building.

        ``N`` is the workload's ``universe`` parameter and ``M`` its
        ``total``; either is ``None`` when the generator does not take it.
        """
        params = dict(self.workload.params)
        universe, total = params.get("universe"), params.get("total")
        return (
            None if universe is None else int(universe),  # type: ignore[call-overload]
            None if total is None else int(total),  # type: ignore[call-overload]
        )

    def label(self) -> str:
        """Row label: workload, sharding, machine count and backend."""
        suffix = f"/{self.tag}" if self.tag else ""
        if self.backend is not None:
            suffix += f"@{self.backend}"
        return f"{self.workload.label()}×{self.strategy}(n={self.n_machines}){suffix}"


@dataclass
class SweepResult:
    """Rows produced by a sweep, with convenience columns extraction."""

    rows: list[dict] = field(default_factory=list)

    def column(self, key: str) -> list:
        """All values of one column, in row order."""
        return [row[key] for row in self.rows]

    def append(self, row: Mapping[str, object]) -> None:
        """Add one row (copied to a plain dict)."""
        self.rows.append(dict(row))

    def extend(self, rows: Iterable[Mapping[str, object]]) -> "SweepResult":
        """Add many rows in order; returns self for chaining.

        This is how row producers outside the sweep drivers — the batch
        driver's streaming path, the serving loop's completed requests —
        feed :mod:`repro.analysis.report` tables: any mapping with the
        standard columns drops in next to ``run_sweep``/``run_batched``
        output.
        """
        for row in rows:
            self.append(row)
        return self

    def filter(self, **criteria: object) -> "SweepResult":
        """Rows matching all ``column=value`` criteria."""
        kept = [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in criteria.items())
        ]
        return SweepResult(rows=kept)

    def __len__(self) -> int:
        return len(self.rows)


def _measure_spec(
    payload: tuple[
        InstanceSpec,
        object,
        Callable[[DistributedDatabase, InstanceSpec], Mapping[str, object]],
    ],
) -> dict:
    """Build and measure one spec (module-level so worker processes can run it)."""
    spec, rng, measure = payload
    db = spec.build(rng=rng)
    row: dict = {
        "label": spec.label(),
        "n": db.n_machines,
        "N": db.universe,
        "M": db.total_count,
        "nu": db.nu,
    }
    row["backend"] = spec.backend
    row.update(measure(db, spec))
    return row


def run_sweep(
    specs: Iterable[InstanceSpec],
    measure: Callable[[DistributedDatabase, InstanceSpec], Mapping[str, object]],
    rng: object = None,
    jobs: int | None = None,
) -> SweepResult:
    """Materialize each spec and measure it; returns collected rows.

    The measurement function returns a mapping of column → value; the
    driver injects ``label``, ``n``, ``N``, ``M``, ``nu`` automatically.

    ``jobs > 1`` fans specs across a process pool (the same
    :func:`~repro.utils.pool.process_map_iter` path the batch driver
    uses): specs are consumed lazily with a bounded in-flight window —
    an unbounded generator streams — and child seeds are drawn one per
    spec *in spec order as the stream is consumed*, so rows are
    deterministic given ``rng`` and identical for every ``jobs ≥ 2``
    value, and they come back in spec order regardless of completion
    order.  ``measure`` must then be a module-level (picklable)
    function.  Per-worker config such as ``CONFIG.strict_checks`` is
    isolated by construction — it is ContextVar-backed and workers are
    separate processes (regression-tested).

    With ``jobs`` unset the legacy in-process path runs: one shared
    generator threaded through every build, bit-for-bit identical to
    previous releases.
    """
    # The fan-out decision is the repro.api planner's routing rule, so
    # this driver and the front door cannot drift apart (lazy import:
    # the api layer sits above analysis in the dependency order).
    from ..api.planner import Planner

    gen = as_generator(rng)
    fanout = Planner().fanout_jobs(jobs)
    if fanout is not None:
        # Lazy payloads: child seeds still come one per spec in spec
        # order, but an unbounded spec stream is consumed incrementally
        # (bounded in-flight window) instead of being materialized.
        payloads = ((spec, spawn_seed(gen), measure) for spec in specs)
        return SweepResult(rows=list(process_map_iter(_measure_spec, payloads, jobs=fanout)))
    result = SweepResult()
    for spec in specs:
        result.rows.append(_measure_spec((spec, gen, measure)))
    return result


def grid(
    workloads: Sequence[WorkloadSpec],
    machine_counts: Sequence[int],
    strategies: Sequence[str] = ("round_robin",),
    nu: int | None = None,
    backends: Sequence[str | None] = (None,),
) -> list[InstanceSpec]:
    """The Cartesian product of workloads × machines × strategies × backends."""
    specs = []
    for workload in workloads:
        for n in machine_counts:
            for strategy in strategies:
                for backend in backends:
                    specs.append(
                        InstanceSpec(
                            workload=workload,
                            n_machines=n,
                            strategy=strategy,
                            nu=nu,
                            backend=backend,
                        )
                    )
    return specs
