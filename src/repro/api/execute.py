"""Executors for the four strategies, and the three front-door calls.

:func:`sample`, :func:`sample_many` and :func:`serve` are the public
entry points (re-exported as ``repro.sample``/``repro.sample_many``/
``repro.serve``).  Each call runs request → plan → execute:

1. the :class:`~repro.api.planner.Planner` resolves backends and routes
   every request onto a strategy (:class:`ExecutionPlan`);
2. child seeds are drawn **in request order** for spec requests without
   an explicit seed — the same ``spawn_seed`` sequence the legacy
   ``run_batched``/``SamplerService`` drivers draw, so rows reproduce
   theirs for the same ``rng``;
3. one executor per strategy runs its groups and the results reassemble
   in request order as a :class:`~repro.api.results.ResultSet`.

Strategy executors
------------------
``instance``:
    One sampler run per request (``SequentialSampler``/
    ``ParallelSampler`` on the resolved backend; stream snapshots run as
    a stacked batch of one).
``stacked``:
    The stacked batch engine
    (:func:`~repro.batch.engine.execute_class_batch`) on the group's
    resolved substrate — the ``(B, ν+1, 2)`` count-class tensor or the
    ``(B, N, 2)`` dense subspace tensor — chunked by ``batch_size`` in
    request order; rows are bit-identical to
    ``run_batched(backend=<same>)`` for the same seeds and batch size.
``fanout``:
    The same stacked chunks shipped to a
    :class:`~concurrent.futures.ProcessPoolExecutor` for build-dominated
    spec loads; workers return audit rows (states stay worker-side).
``served``:
    The long-lived :class:`~repro.serve.SamplerService` dispatcher —
    backend-and-shape-keyed re-packing with deadline flush, live
    telemetry on the returned :class:`ResultSet`.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Sequence

from ..batch.engine import ClassInstance, execute_class_batch
from ..core.parallel import ParallelSampler
from ..core.result import SamplingResult
from ..core.sequential import SequentialSampler
from ..database.distributed import DistributedDatabase
from ..errors import PlanningError
from ..obs.trace import Span, Tracer, get_tracer, span, stitch
from ..utils.pool import process_map_iter
from ..utils.rng import as_generator, spawn_seed
from .planner import ExecutionGroup, ExecutionPlan, Planner, ResolvedRequest
from .request import SamplingRequest
from .results import Result, ResultSet, unified_row

#: The planner the module-level entry points use when none is supplied.
DEFAULT_PLANNER = Planner()


# -- the front door ---------------------------------------------------------------


def sample(
    request: SamplingRequest,
    rng: object = None,
    strategy: str | None = None,
    planner: Planner | None = None,
) -> Result:
    """Run one request through the planner; returns its :class:`Result`.

    A single request routes to per-instance execution unless ``strategy``
    forces another path (or ``batchable=True`` asks for the stacked
    engine).  ``rng`` seeds spec materialization when the request carries
    no explicit ``seed``.
    """
    return sample_many([request], rng=rng, strategy=strategy, planner=planner)[0]


def sample_many(
    requests: Iterable[SamplingRequest],
    rng: object = None,
    batch_size: int | None = None,
    jobs: int | None = None,
    strategy: str | None = None,
    flush_deadline: float | None = None,
    workers: int = 2,
    shards: int | None = None,
    planner: Planner | None = None,
) -> ResultSet:
    """Plan and execute a request list; results come back in request order.

    Parameters
    ----------
    requests:
        The workloads.  Models, sources, backends and capacity policies
        may mix freely — the planner groups compatible requests and
        routes the rest per-instance.
    rng:
        Seed source for deterministic per-spec child seeds, drawn in
        request order (``run_batched``'s determinism contract).
    batch_size:
        Instances per stacked tensor / fan-out work unit (default:
        :data:`~repro.batch.driver.DEFAULT_BATCH_SIZE`).
    jobs:
        ``jobs > 1`` fans spec-built groups across worker processes
        (the build-dominated regime); otherwise everything runs
        in-process.
    strategy:
        Force every request onto one strategy (``"instance"``,
        ``"stacked"``, ``"fanout"``, ``"served"``); ``None`` lets the
        planner route.
    flush_deadline, workers:
        Serving knobs, used only when requests route to the dispatcher.
    shards:
        Served-strategy scale-out: run served groups on the sharded
        multi-process tier with this many workers (``None`` serves
        in-process; requests carrying their own ``shards=`` are honored
        when this is unset).
    planner:
        A configured :class:`Planner` (thresholds); defaults to
        :data:`DEFAULT_PLANNER`.
    """
    planner = planner or DEFAULT_PLANNER
    plan = planner.plan_many(
        requests,
        strategy=strategy,
        batch_size=batch_size,
        jobs=jobs,
        flush_deadline=flush_deadline,
        workers=workers,
        shards=shards,
    )
    return execute_plan(plan, rng=rng)


def serve(
    requests: Iterable[SamplingRequest],
    batch_size: int | None = None,
    flush_deadline: float | None = None,
    workers: int = 2,
    shards: int | None = None,
    rng: object = None,
    planner: Planner | None = None,
) -> ResultSet:
    """Stream requests through the serving dispatcher; block until drained.

    The iterable is consumed **lazily in the calling thread** — a
    generator that sleeps between yields replays a real arrival trace,
    and the dispatcher re-packs whatever is in flight into schedule-shape
    groups (full-batch or deadline flush) exactly as
    :class:`~repro.serve.SamplerService` does, because it *is* that
    service underneath.  All requests must share one model, capacity
    policy, ``include_probabilities`` setting and ``shards`` knob (the
    service is homogeneous in those); spec and stream sources may
    interleave.

    ``shards`` (or the requests' own ``shards=``) routes the stream
    through the sharded multi-process tier
    (:class:`~repro.serve.shard.ShardedSamplerService`) instead of the
    in-process dispatcher — same determinism contract, same rows, with
    build and execution fanned across worker processes and results
    returned zero-copy through shared memory.

    Returns a :class:`ResultSet` in submission order whose ``telemetry``
    carries the service's counters snapshot.
    """
    from ..serve.service import DEFAULT_FLUSH_DEADLINE, SamplerService
    from ..serve.shard import ShardedSamplerService

    planner = planner or DEFAULT_PLANNER
    gen = as_generator(rng)
    tracer = get_tracer()
    roots: dict[int, Span] = {}
    service: SamplerService | ShardedSamplerService | None = None
    first: ResolvedRequest | None = None
    submissions: list[tuple[ResolvedRequest, int | None, object]] = []
    try:
        for request in requests:
            res = planner.resolve_for_serving(request)
            if service is None:
                first = res
                effective_shards = shards if shards is not None else request.shards
                common = dict(
                    model=request.model,
                    batch_size=(
                        batch_size if batch_size is not None else _serve_batch_size()
                    ),
                    flush_deadline=(
                        DEFAULT_FLUSH_DEADLINE
                        if flush_deadline is None
                        else flush_deadline
                    ),
                    include_probabilities=request.include_probabilities,
                    capacity=request.capacity,
                    # "auto" passes through verbatim: the dispatcher then
                    # resolves the stacked substrate per request from its
                    # declared (N, M) — the planner's rule, so the labels
                    # agree — honoring the request's dense memory cap.
                    backend=request.backend,
                    max_dense_dimension=request.max_dense_dimension,
                )
                if effective_shards is not None:
                    service = ShardedSamplerService(
                        shards=effective_shards, **common
                    )
                else:
                    service = SamplerService(workers=workers, **common)
            else:
                assert first is not None
                for attr in ("model", "capacity", "include_probabilities",
                             "backend", "max_dense_dimension", "shards"):
                    if getattr(request, attr) != getattr(first.request, attr):
                        raise PlanningError(
                            f"served streams are homogeneous in {attr}: got "
                            f"{getattr(request, attr)!r} after "
                            f"{getattr(first.request, attr)!r}"
                        )
            root = None
            if tracer is not None:
                root = tracer.start(
                    "request",
                    label=res.label,
                    strategy="served",
                    backend=res.backend,
                    model=request.model,
                    index=len(submissions),
                )
                roots[len(submissions)] = root
            ctx = root.context if root is not None else None
            if request.source == "spec":
                seed = request.seed if request.seed is not None else spawn_seed(gen)
                future = service.submit(
                    request.spec,
                    seed=seed,
                    fault_mask=request.fault_mask,
                    trace_ctx=ctx,
                )
            else:
                seed = None
                future = service.submit_live(
                    request.stream, label=res.label, trace_ctx=ctx
                )
            submissions.append((res, seed, future))
    finally:
        if service is not None:
            service.close(drain=True)
    if service is None:
        return ResultSet(results=[])
    results = [
        _served_result(res, seed, future) for res, seed, future in submissions
    ]
    if tracer is not None:
        _attach_traces(tracer, roots, results)
    return ResultSet(results=results, telemetry=service.telemetry())


# -- plan execution ---------------------------------------------------------------


def execute_plan(plan: ExecutionPlan, rng: object = None) -> ResultSet:
    """Execute a planned routing; the low-level half of the front door.

    With tracing enabled (:func:`repro.obs.enable_tracing`), every
    request gets a root ``request`` span; the executors hang their phase
    spans (``build``/``execute``/``pack``/``dispatch``/``marshal``,
    wherever they ran) off it and the stitched trace is attached to each
    :class:`Result` before the set returns.
    """
    gen = as_generator(rng)
    seeds: list[int | None] = []
    for res in plan.resolved:
        if res.request.source == "spec" and res.request.seed is None:
            seeds.append(spawn_seed(gen))
        else:
            seeds.append(res.request.seed)
    tracer = get_tracer()
    roots = _trace_roots(tracer, plan.resolved) if tracer is not None else {}
    results: list[Result | None] = [None] * len(plan.resolved)
    snapshots: list[dict[str, object]] = []
    for group in plan.groups:
        executor = _EXECUTORS[group.strategy]
        context: dict[str, object] = {"trace_roots": roots}
        for index, result in executor(plan, group, seeds, context):
            results[index] = result
        if "telemetry" in context:
            snapshots.append(context["telemetry"])  # type: ignore[arg-type]
    assert all(result is not None for result in results)
    if tracer is not None:
        _attach_traces(tracer, roots, results)
    if len(snapshots) == 1:
        telemetry: dict[str, object] | None = snapshots[0]
    elif snapshots:
        # Several served groups (e.g. forced strategy over mixed models):
        # each ran its own service; keep every snapshot.
        telemetry = {"served_groups": snapshots}
    else:
        telemetry = None
    return ResultSet(results=list(results), plan=plan, telemetry=telemetry)  # type: ignore[arg-type]


def _chunked(indices: Sequence[int], size: int) -> Iterator[list[int]]:
    for start in range(0, len(indices), size):
        yield list(indices[start : start + size])


# -- tracing glue ------------------------------------------------------------------


def _trace_roots(tracer: Tracer, resolved) -> dict[int, Span]:
    """One root ``request`` span per resolved request (tracing-enabled runs)."""
    roots: dict[int, Span] = {}
    for res in resolved:
        attrs: dict[str, object] = {
            "label": res.label,
            "strategy": res.strategy,
            "backend": res.backend,
            "model": res.request.model,
            "index": res.index,
        }
        if res.fault_mask:
            attrs["fault_mask"] = list(res.fault_mask)
        roots[res.index] = tracer.start("request", **attrs)
    return roots


def _attach_traces(tracer: Tracer, roots: dict[int, Span], results) -> None:
    """Finish the roots, stitch the buffered spans, attach per-request traces."""
    for root in roots.values():
        tracer.finish(root)
    by_trace = stitch(tracer.drain())
    for index, root in roots.items():
        result = results[index]
        if result is not None:
            result.attach_trace(root.trace_id, by_trace.get(root.trace_id, []))


def _chunk_trace_ids(roots: dict[int, Span], chunk: Sequence[int]) -> list[str] | None:
    """The trace ids a batch-level span stitches into (``None`` untraced)."""
    if not roots:
        return None
    return [roots[i].trace_id for i in chunk if i in roots]


def _materialize(
    res: ResolvedRequest, seed: int | None
) -> tuple[DistributedDatabase | None, ClassInstance]:
    """Build one request's count-class instance (and database, if any)."""
    request = res.request
    if request.source == "stream":
        stream = request.stream
        assert stream is not None
        db = stream.database
        return None, ClassInstance.from_class_state(
            stream.class_state(), db.n_machines, capacities=db.capacities
        )
    db = request.database if request.database is not None else None
    if db is None:
        assert request.spec is not None
        db = request.spec.build(rng=seed)
    db = request.masked(db)
    return db, ClassInstance.from_db(db)


def _class_result(
    res: ResolvedRequest,
    seed: int | None,
    inst: ClassInstance,
    sampling: SamplingResult,
    strategy: str,
    wall: float,
) -> Result:
    row = unified_row(
        res.label,
        inst.n_machines,
        inst.universe,
        inst.total,
        inst.nu,
        sampling,
        strategy,
        wall,
    )
    return Result(
        request=res.request,
        strategy=strategy,
        backend=sampling.backend,
        seed=seed,
        wall_time=wall,
        sampling=sampling,
        _row=row,
    )


# -- per-instance -----------------------------------------------------------------


def _execute_instance(
    plan: ExecutionPlan,
    group: ExecutionGroup,
    seeds: list[int | None],
    context: dict[str, object],
) -> Iterator[tuple[int, Result]]:
    roots = context.get("trace_roots") or {}
    for index in group.indices:
        res = plan.resolved[index]
        request = res.request
        root = roots.get(index)
        start = time.perf_counter()
        if request.source == "stream":
            with span("build", parent=root, label=res.label):
                _, inst = _materialize(res, None)
            with span("execute", parent=root, backend=res.backend, batch=1):
                sampling = execute_class_batch(
                    [inst],
                    model=request.model,
                    include_probabilities=request.include_probabilities,
                    skip_zero_capacity=res.skip_zero_capacity,
                    backend=res.backend,
                )[0]
            wall = time.perf_counter() - start
            yield index, _class_result(res, None, inst, sampling, "instance", wall)
            continue
        with span("build", parent=root, label=res.label):
            db = request.database
            if db is None:
                assert request.spec is not None
                db = request.spec.build(rng=seeds[index])
            db = request.masked(db)
        sampler_cls = (
            SequentialSampler if request.model == "sequential" else ParallelSampler
        )
        sampler = sampler_cls(
            db, backend=res.backend, skip_zero_capacity=res.skip_zero_capacity
        )
        with span("execute", parent=root, backend=res.backend, batch=1):
            sampling = sampler.run()
        wall = time.perf_counter() - start
        row = unified_row(
            res.label,
            db.n_machines,
            db.universe,
            db.total_count,
            db.nu,
            sampling,
            "instance",
            wall,
        )
        yield index, Result(
            request=request,
            strategy="instance",
            backend=res.backend,
            seed=seeds[index],
            wall_time=wall,
            sampling=sampling,
            _row=row,
        )


# -- stacked batch ----------------------------------------------------------------


def _execute_stacked(
    plan: ExecutionPlan,
    group: ExecutionGroup,
    seeds: list[int | None],
    context: dict[str, object],
) -> Iterator[tuple[int, Result]]:
    first = plan.resolved[group.indices[0]].request
    roots = context.get("trace_roots") or {}
    for chunk in _chunked(group.indices, plan.batch_size):
        built = []
        for index in chunk:
            with span("build", parent=roots.get(index), label=plan.resolved[index].label):
                built.append((index, _materialize(plan.resolved[index], seeds[index])))
        start = time.perf_counter()
        with span(
            "execute",
            parent=roots.get(chunk[0]),
            backend=plan.resolved[chunk[0]].backend,
            batch=len(chunk),
            trace_ids=_chunk_trace_ids(roots, chunk),
        ):
            samplings = execute_class_batch(
                [inst for _, (_, inst) in built],
                model=first.model,
                include_probabilities=first.include_probabilities,
                skip_zero_capacity=plan.resolved[chunk[0]].skip_zero_capacity,
                backend=plan.resolved[chunk[0]].backend,
            )
        wall = time.perf_counter() - start
        for (index, (_, inst)), sampling in zip(built, samplings):
            yield index, _class_result(
                plan.resolved[index], seeds[index], inst, sampling, "stacked", wall
            )


# -- process fan-out --------------------------------------------------------------


def _fanout_worker(
    payload: tuple[
        str,
        list[tuple[object, int | None, str, tuple[int, ...] | None]],
        bool,
        bool,
        str,
        list | None,
    ],
) -> tuple[list[dict[str, object]], list[dict]]:
    """Build one chunk's databases, execute them stacked, return audit rows.

    Module-level (single-argument) so the process pool can pickle it; the
    heavyweight objects — databases, states, results — never cross the
    process boundary, only the plain-scalar rows and fault masks do.
    Masks apply worker-side, after the build, exactly as in-process.

    ``traces`` (the payload's last element) carries one parent
    :class:`~repro.obs.trace.SpanContext` per item when the dispatcher
    is tracing: the worker then runs a local tracer and ships its
    finished ``build``/``execute`` span dicts back alongside the rows,
    so child-process phases stitch into the per-request traces.
    """
    model, items, include_probabilities, skip_zero_capacity, backend, traces = payload
    from contextlib import nullcontext

    from ..batch.engine import execute_sampling_batch
    from ..database.fault import apply_fault_mask

    local = Tracer() if traces is not None else None
    parents = traces if traces is not None else [None] * len(items)
    dbs = []
    for (spec, seed, label, mask), parent in zip(items, parents):
        cm = (
            local.span("build", parent=parent, label=label)
            if local is not None
            else nullcontext()
        )
        with cm:
            db = spec.build(rng=seed)  # type: ignore[union-attr]
            if mask is not None:
                db = apply_fault_mask(db, mask)
        dbs.append(db)
    execute_cm = (
        local.span(
            "execute",
            parent=next((ctx for ctx in parents if ctx is not None), None),
            backend=backend,
            batch=len(items),
            trace_ids=[ctx.trace_id for ctx in parents if ctx is not None],
        )
        if local is not None
        else nullcontext()
    )
    with execute_cm:
        samplings = execute_sampling_batch(
            dbs,
            model=model,
            include_probabilities=include_probabilities,
            skip_zero_capacity=skip_zero_capacity,
            backend=backend,
        )
    rows = []
    for (_, _, label, _), db, sampling in zip(items, dbs, samplings):
        rows.append(
            unified_row(
                label,
                db.n_machines,
                db.universe,
                db.total_count,
                db.nu,
                sampling,
                "fanout",
                0.0,
            )
        )
    return rows, (local.drain() if local is not None else [])


def _execute_fanout(
    plan: ExecutionPlan,
    group: ExecutionGroup,
    seeds: list[int | None],
    context: dict[str, object],
) -> Iterator[tuple[int, Result]]:
    first = plan.resolved[group.indices[0]].request
    roots = context.get("trace_roots") or {}
    tracer = get_tracer()
    chunks = list(_chunked(group.indices, plan.batch_size))
    payloads = (
        (
            first.model,
            [
                (
                    plan.resolved[i].request.spec,
                    seeds[i],
                    plan.resolved[i].label,
                    plan.resolved[i].fault_mask,
                )
                for i in chunk
            ],
            first.include_probabilities,
            plan.resolved[chunk[0]].skip_zero_capacity,
            plan.resolved[chunk[0]].backend,
            (
                [roots[i].context if i in roots else None for i in chunk]
                if roots
                else None
            ),
        )
        for chunk in chunks
    )
    previous = time.perf_counter()
    for chunk, (rows, spans) in zip(
        chunks, process_map_iter(_fanout_worker, payloads, jobs=plan.jobs)
    ):
        if tracer is not None:
            for record in spans:
                tracer.record(record)
        now = time.perf_counter()
        wall = now - previous  # observed pipeline time for this chunk
        previous = now
        for index, row in zip(chunk, rows):
            row["wall_time_s"] = wall
            yield index, Result(
                request=plan.resolved[index].request,
                strategy="fanout",
                backend=str(row["backend"]),
                seed=seeds[index],
                wall_time=wall,
                sampling=None,
                _row=row,
            )


# -- served stream ----------------------------------------------------------------


def _serve_batch_size() -> int:
    from ..batch.driver import DEFAULT_BATCH_SIZE

    return DEFAULT_BATCH_SIZE


def _served_result(res: ResolvedRequest, seed: int | None, future) -> Result:
    sampling = future.result()
    wall = (
        future.completed_at - future.submitted_at
        if future.completed_at is not None
        else 0.0
    )
    row = future.row()
    row["label"] = res.label
    row["strategy"] = "served"
    row["wall_time_s"] = float(wall)
    return Result(
        request=res.request,
        strategy="served",
        backend=sampling.backend,
        seed=seed,
        wall_time=wall,
        sampling=sampling,
        _row=row,
    )


def _execute_served(
    plan: ExecutionPlan,
    group: ExecutionGroup,
    seeds: list[int | None],
    context: dict[str, object],
) -> Iterator[tuple[int, Result]]:
    from ..serve.service import DEFAULT_FLUSH_DEADLINE, SamplerService
    from ..serve.shard import ShardedSamplerService

    first = plan.resolved[group.indices[0]].request
    submissions: list[tuple[int, int | None, object]] = []
    shards = plan.shards if plan.shards is not None else first.shards
    common = dict(
        model=first.model,
        batch_size=plan.batch_size,
        flush_deadline=(
            DEFAULT_FLUSH_DEADLINE if plan.flush_deadline is None else plan.flush_deadline
        ),
        include_probabilities=first.include_probabilities,
        capacity=first.capacity,
        backend=plan.resolved[group.indices[0]].backend,
    )
    service = (
        ShardedSamplerService(shards=shards, **common)
        if shards is not None
        else SamplerService(workers=plan.workers, **common)
    )
    roots = context.get("trace_roots") or {}
    with service:
        for index in group.indices:
            res = plan.resolved[index]
            root = roots.get(index)
            ctx = root.context if root is not None else None
            if res.request.source == "spec":
                future = service.submit(
                    res.request.spec,
                    seed=seeds[index],
                    fault_mask=res.fault_mask,
                    trace_ctx=ctx,
                )
            else:
                future = service.submit_live(
                    res.request.stream, label=res.label, trace_ctx=ctx
                )
            submissions.append((index, seeds[index], future))
    context["telemetry"] = service.telemetry()
    for index, seed, future in submissions:
        yield index, _served_result(plan.resolved[index], seed, future)


_EXECUTORS = {
    "instance": _execute_instance,
    "stacked": _execute_stacked,
    "fanout": _execute_fanout,
    "served": _execute_served,
}
