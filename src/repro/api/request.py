"""The unified request surface of the :mod:`repro.api` front door.

A :class:`SamplingRequest` says *what* to sample — a database (already
built), an :class:`~repro.analysis.sweep.InstanceSpec` recipe (built on
demand with a deterministic seed), or a live
:class:`~repro.database.dynamic.UpdateStream` snapshot — under which
query model, on which backend, with which capacity policy.  It says
nothing about *how* the run executes: that is the
:class:`~repro.api.planner.Planner`'s job, which routes requests to one
of the four execution strategies (per-instance, stacked batch, process
fan-out, served stream).

Every validation failure raises :class:`~repro.errors.RequestError`, a
:class:`~repro.errors.ReproError`, so callers of the front door catch
one base exception.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.sweep import InstanceSpec
from ..core.backends import MODELS
from ..database.distributed import DistributedDatabase
from ..database.dynamic import UpdateStream
from ..database.fault import apply_fault_mask, normalize_fault_mask
from ..errors import RequestError, ValidationError

#: Capacity policies: ``"all"`` queries every machine; ``"skip_empty"``
#: applies the capacity-aware restriction — machines whose *public*
#: capacity is ``κ_j = 0`` are provably empty, so the oblivious schedule
#: skips them (sequential) or leaves their flag down (parallel), exactly
#: the per-instance samplers' ``skip_zero_capacity=True``.
CAPACITY_POLICIES = ("all", "skip_empty")

#: The backend sentinel that delegates the choice to the planner.
AUTO_BACKEND = "auto"


@dataclass(frozen=True)
class SamplingRequest:
    """One sampling workload, ready for the planner.

    Parameters
    ----------
    database:
        An already-materialized :class:`DistributedDatabase` to sample.
    spec:
        An :class:`InstanceSpec` recipe; the executor materializes it
        with :attr:`seed` (or a seed drawn deterministically in request
        order from the run's ``rng``).
    stream:
        A live :class:`UpdateStream`; the executor snapshots its
        ``O(1)``-maintained count-class view at execution (or
        submission) time — no ``O(nN)`` rebuild — and runs on the
        ``classes`` substrate.
    model:
        ``"sequential"`` (Theorem 4.3) or ``"parallel"`` (Theorem 4.5).
    backend:
        A registered backend name, or ``"auto"`` (default) to let the
        planner choose from the declared ``(N, M)``: the ``O(ν)``
        count-class substrate (``classes`` per instance, ``ragged`` when
        batched or served) for every request except sequential ones with
        ``M > N`` below ``N = 10⁵``, which run dense on ``subspace``.
        Stream snapshots always run ``classes``.
    capacity:
        ``"all"`` or ``"skip_empty"`` (see :data:`CAPACITY_POLICIES`).
    seed:
        Explicit child seed for spec materialization; only meaningful
        with :attr:`spec`.
    include_probabilities:
        Whether the result carries the ``O(N)`` output distribution.
        Switch off for audit-only throughput runs (the serving layer's
        fast path).
    label:
        Row label override; defaults to ``spec.label()``, a compact
        database descriptor, or ``"live"`` for streams.
    batchable:
        Batching hint for the planner.  ``None`` (default) lets the
        group-size threshold decide; ``True`` prefers the stacked engine
        even for small groups; ``False`` pins the request to per-instance
        execution.
    scenario:
        A registered scenario name (or :class:`~repro.scenarios.Scenario`
        instance) — a fourth way to say *what* to sample.  Resolving it
        fills :attr:`spec` (the scenario's data shape and partition at
        trace position 0), the scenario's capacity policy, and its
        position-0 :attr:`fault_mask`; it cannot combine with an explicit
        ``database``/``spec``/``stream`` source.  Churn scenarios serve
        live snapshots and must go through
        :class:`~repro.scenarios.ScenarioMatrix` (or explicit stream
        requests) instead.
    fault_mask:
        Machine indices considered lost.  The executor applies the mask
        *after* the database is built
        (:func:`~repro.database.fault.apply_fault_mask`): each lost
        shard's data is dropped and its capacity republished as
        ``κ_j = 0``, so with ``capacity="skip_empty"`` the oblivious
        schedule provably never queries a dead machine.  Normalized
        (sorted, deduplicated) at validation; losing every machine is a
        :class:`~repro.errors.RequestError`.  Stream sources reject the
        mask — a live snapshot carries its own degraded state.
    shards:
        Served-strategy scale-out knob: route this request's stream
        through the sharded multi-process serving tier
        (:class:`~repro.serve.shard.ShardedSamplerService`) with this
        many worker processes.  ``None`` (default) serves in-process via
        the single dispatcher; must be positive when set, and served
        streams must agree on it (the tier is one homogeneous service).
        Ignored by the non-served strategies — like ``batch_size``, it
        describes *how* serving executes, not what is sampled.
    max_dense_dimension:
        Per-run *routing* override of the dense-stacking memory cap
        (:attr:`~repro.config.NumericsConfig.max_dense_dimension`): the
        planner's auto rule picks the dense ``subspace`` representation
        — per-instance or the ``(B, N, 2)`` stacked tensor — only while
        the per-instance dimension ``2N`` fits, so stacked memory stays
        under ``max_dense_dimension × B`` cells.  The global config cap
        still guards tensor construction, so this override can tighten
        routing below it but not lift it (raise the config field for
        that).  ``None`` (default) uses the global config value; must be
        positive.

    Exactly one of ``database``/``spec``/``stream`` must be set.
    """

    database: DistributedDatabase | None = None
    spec: InstanceSpec | None = None
    stream: UpdateStream | None = None
    model: str = "sequential"
    backend: str = AUTO_BACKEND
    capacity: str = "all"
    seed: int | None = None
    include_probabilities: bool = True
    label: str | None = None
    batchable: bool | None = None
    max_dense_dimension: int | None = None
    shards: int | None = None
    scenario: object | None = None
    fault_mask: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.scenario is not None:
            self._resolve_scenario()
        sources = [s for s in (self.database, self.spec, self.stream) if s is not None]
        if len(sources) != 1:
            raise RequestError(
                "a SamplingRequest needs exactly one of database=, spec= or "
                f"stream=, got {len(sources)}"
            )
        if self.model not in MODELS:
            raise RequestError(
                f"unknown model {self.model!r}; choose from {MODELS}"
            )
        if self.capacity not in CAPACITY_POLICIES:
            raise RequestError(
                f"unknown capacity policy {self.capacity!r}; choose from "
                f"{CAPACITY_POLICIES}"
            )
        if self.seed is not None and self.spec is None:
            raise RequestError(
                "seed= applies to spec-built requests only; database and "
                "stream sources are already materialized"
            )
        if not isinstance(self.backend, str) or not self.backend:
            raise RequestError("backend must be a non-empty string (or 'auto')")
        if self.max_dense_dimension is not None and self.max_dense_dimension <= 0:
            raise RequestError(
                "max_dense_dimension must be a positive dimension cap, got "
                f"{self.max_dense_dimension}"
            )
        if self.shards is not None and self.shards <= 0:
            raise RequestError(
                f"shards must be a positive worker count, got {self.shards}"
            )
        if self.fault_mask is not None:
            self._validate_fault_mask()

    def _resolve_scenario(self) -> None:
        """Expand ``scenario=`` into spec/capacity/fault_mask fields.

        Imported lazily: :mod:`repro.scenarios` sits above this module
        (its matrix drives the front door), so the registry cannot be a
        module-level import here.
        """
        from ..scenarios.registry import resolve_scenario

        if any(s is not None for s in (self.database, self.spec, self.stream)):
            raise RequestError(
                "scenario= is itself a request source; drop the explicit "
                "database=/spec=/stream="
            )
        try:
            scenario = resolve_scenario(self.scenario)
        except ValidationError as exc:
            raise RequestError(str(exc)) from None
        if scenario.is_churn:
            raise RequestError(
                f"churn scenario {scenario.name!r} serves live snapshots; "
                "drive it through repro.scenarios.ScenarioMatrix or submit "
                "stream requests directly"
            )
        object.__setattr__(self, "scenario", scenario.name)
        object.__setattr__(self, "spec", scenario.spec(0))
        if self.capacity == "all":
            object.__setattr__(self, "capacity", scenario.capacity)
        if self.fault_mask is None:
            object.__setattr__(self, "fault_mask", scenario.mask_at(0) or None)

    def _validate_fault_mask(self) -> None:
        if self.stream is not None:
            raise RequestError(
                "fault_mask applies to database/spec sources; a live stream "
                "snapshot carries its own degraded state"
            )
        mask = tuple(self.fault_mask)
        if not mask:
            object.__setattr__(self, "fault_mask", None)
            return
        if self.database is not None:
            n_machines = self.database.n_machines
        else:
            assert self.spec is not None
            n_machines = self.spec.n_machines
        try:
            normalized = normalize_fault_mask(mask, n_machines)
        except ValidationError as exc:
            raise RequestError(str(exc)) from None
        object.__setattr__(self, "fault_mask", normalized)

    # -- planner-facing views ----------------------------------------------------

    @property
    def source(self) -> str:
        """``"database"``, ``"spec"`` or ``"stream"``."""
        if self.database is not None:
            return "database"
        return "spec" if self.spec is not None else "stream"

    def declared_shape(self) -> tuple[int | None, int | None]:
        """``(N, M)`` as the request declares them, without building.

        The one input of the ``"auto"`` rule
        (:func:`~repro.batch.backends.auto_stacked_backend`).  Databases
        and streams know both; spec recipes declare them through the
        workload's ``universe`` and ``total`` parameters (``None`` when
        the generator does not take one).
        """
        if self.spec is not None:
            return self.spec.declared_shape()
        db = self.database if self.database is not None else self.stream.database
        return db.universe, db.total_count

    def planning_universe(self) -> int:
        """``N`` — the element-register size, without building anything.

        Databases and streams know it directly; spec recipes expose it
        through the workload's ``universe`` parameter (every registered
        generator takes one).
        """
        universe, _ = self.declared_shape()
        if universe is None:
            assert self.spec is not None
            raise RequestError(
                f"workload {self.spec.workload.name!r} declares no 'universe' "
                "parameter; pass an explicit backend= instead of 'auto'"
            )
        return universe

    def resolved_label(self) -> str:
        """The row label this request will carry."""
        if self.label is not None:
            return self.label
        if self.spec is not None:
            return self.spec.label()
        if self.database is not None:
            db = self.database
            return f"db(N={db.universe},M={db.total_count},n={db.n_machines})"
        return "live"

    def skip_zero_capacity(self) -> bool:
        """Whether the capacity policy restricts provably-empty machines."""
        return self.capacity == "skip_empty"

    def masked(self, db: DistributedDatabase) -> DistributedDatabase:
        """Apply this request's fault mask to a built database.

        The one hook every executor calls after materializing the
        source: lost shards are dropped, their capacities republished as
        ``κ_j = 0`` so ``skip_empty`` routing stays honest.  A maskless
        request returns ``db`` unchanged.
        """
        if self.fault_mask is None:
            return db
        return apply_fault_mask(db, self.fault_mask)
