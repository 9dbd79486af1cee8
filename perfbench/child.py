"""Run one workload in this process and print one JSON line.

``run.py`` starts this file in its own process group, under a watchdog::

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS [PART] SPAWNED_AT

``MODE`` is ``setup`` (time from process start to the first result),
``measure`` (the untraced end-to-end run; offline, part ``PART`` of it)
or ``trace`` (the traced run that yields the per-layer numbers).  ``SPAWNED_AT`` is the parent's
``time.monotonic()`` just before the spawn, so set-up time includes
interpreter start and imports; input generation is subtracted.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from pathlib import Path

from procs import import_program

HERE = Path(__file__).resolve().parent
BACKENDS = ("classes", "ragged", "subspace", "synced")

repro = import_program()

import workloads as W  # noqa: E402  (needs the program on sys.path)
from audit import KINDS, Audit  # noqa: E402
from spans import (  # noqa: E402
    PeakRss,
    SpanTap,
    cpu_seconds,
    percentile,
    self_times,
    tail_ok,
)

from repro.obs.metrics import METRICS  # noqa: E402
from repro.obs.trace import disable_tracing, enable_tracing, get_tracer  # noqa: E402

LAYER_NAMES = [
    entry["name"]
    for layer in json.loads((HERE / "layer_map.json").read_text())["layers"]
    for entry in layer["metrics"]
]


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _served_kwargs(workload: str, inputs) -> dict:
    shards = W.SERVED_SHARDS if workload == "served-sharded" else None
    return {"shards": shards, "rng": inputs.rng}


# -- set-up ------------------------------------------------------------------------


def run_setup(workload: str, seed: int, spawned_at: float) -> dict:
    audit = Audit()
    gen_start = time.monotonic()
    if workload == "offline-sweep":
        inputs = W.offline_inputs()
    elif workload == "live-churn":
        inputs = W.churn_inputs(seed, 1.0)
    else:
        inputs = W.served_inputs(seed, 0.0, count=0)
    gen_s = time.monotonic() - gen_start
    if workload == "offline-sweep":
        results = repro.sample_many(inputs.requests, rng=W.pass_seed(seed, 0))
        audit.check_results(results, inputs.expected)
    elif workload == "live-churn":
        stream = inputs.stream
        stream.class_state()  # priming is part of set-up
        db = stream.database
        want = [(db.universe, db.total_count, db.n_machines, "parallel")]
        results = repro.serve([W.churn_read_request(stream)])
        audit.check_results(results, want, nus=[db.nu])
    else:
        results = repro.serve(inputs.warmup, **_served_kwargs(workload, inputs))
        audit.check_results(results, inputs.warmup_expected)
    setup_s = time.monotonic() - spawned_at - gen_s
    return {"setup_s": setup_s, "attempted": len(results), "audit": audit.summary()}


# -- untraced end-to-end run ---------------------------------------------------------


def _offline_pass(inputs, seed: int, index: int, audit: Audit):
    """One ``sample_many`` pass: (wall s, CPU s, results, results passed)."""
    start, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        results = repro.sample_many(inputs.requests, rng=W.pass_seed(seed, index))
    except Exception:
        traceback.print_exc()
        audit.fail("exceptions", len(inputs.requests))
        return time.perf_counter() - start, cpu_seconds() - cpu0, None, 0
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
    return wall, cpu, results, audit.check_results(results, inputs.expected)


def _untraced_passes(inputs, seed: int, audit: Audit, seconds: float, first: int = 1):
    """The warm-up pass, then passes ``first``, ``first + 1``, ... until
    ``seconds`` elapse.

    Returns ``(index, wall, cpu, rows, passed)`` per measured pass and the
    ``time.monotonic()`` at which the warm-up pass ended.  Only the rows
    are kept: a pass's results hold its final states, and keeping them
    would grow the process by hundreds of MB per pass.
    """
    _offline_pass(inputs, seed, 0, audit)
    warmed_at = time.monotonic()
    passes, started = [], time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        index = first + len(passes)
        wall, cpu, results, passed = _offline_pass(inputs, seed, index, audit)
        rows = results.rows() if results is not None else None
        passes.append((index, wall, cpu, rows, passed))
    return passes, warmed_at


def measure_offline(seed: int, seconds: float, part: int, spawned_at: float) -> dict:
    """One part of the offline run: a set-up, then ``seconds`` of passes.

    ``run.py`` runs several parts one after another and takes medians
    over all their passes.  Each part's passes have their own seeds, and
    its warm-up pass ends the process's set-up, timed as a set-up probe
    times it (``own_setup_s``).
    """
    gen_start = time.monotonic()
    inputs = W.offline_inputs()
    gen_s = time.monotonic() - gen_start
    audit = Audit()
    passes, warmed_at = _untraced_passes(
        inputs, seed, audit, seconds, first=1 + part * W.PASSES_PER_PART
    )
    return {
        "attempted": len(inputs.requests) * (len(passes) + 1),
        "audit": audit.summary(),
        "pass_wall_s": [wall for _, wall, *_ in passes],
        "pass_cpu_s": [cpu for _, _, cpu, _, _ in passes],
        "pass_passed": [passed for *_, passed in passes],
        "own_setup_s": warmed_at - spawned_at - gen_s,
    }


def _open_loop_latencies(results, log, skip: int):
    """Per-request latency from due time, and each completion instant."""
    lat, done = [], []
    for result, due, yielded in zip(results[skip:], log.due, log.yielded):
        done.append(yielded + result.wall_time)
        lat.append(done[-1] - due)
    return lat, done


def _serve_trace(workload: str, inputs, audit: Audit):
    """One pass over the served trace.

    Returns ``(results, log, t0, trace results passed, CPU s)``; the CPU
    seconds are those of the ``repro.serve`` call alone (shard workers
    included: they are reaped before it returns), not of the audit.
    """
    log = W.OpenLoopLog()
    t0 = time.monotonic() + W.WARMUP_GAP[workload]
    cpu0 = cpu_seconds()
    try:
        results = repro.serve(
            W.served_generator(inputs, t0, log), **_served_kwargs(workload, inputs)
        )
    except Exception:
        traceback.print_exc()
        audit.fail("exceptions", len(inputs.requests) + len(inputs.warmup))
        return None, log, t0, 0, cpu_seconds() - cpu0
    cpu = cpu_seconds() - cpu0
    warm = len(inputs.warmup)
    audit.check_results(results[:warm], inputs.warmup_expected)
    passed = audit.check_results(results[warm:], inputs.expected)
    return results, log, t0, passed, cpu


def _churn_trace(inputs, audit: Audit, apply_write):
    """One pass over the churn trace, as :func:`_serve_trace` (reads passed)."""
    log = W.OpenLoopLog()
    db = inputs.stream.database
    warm = (db.universe, db.total_count, db.n_machines, "parallel"), db.nu
    t0 = time.monotonic() + W.WARMUP_GAP["live-churn"]
    cpu0 = cpu_seconds()
    try:
        results = repro.serve(W.churn_generator(inputs, t0, log, apply_write))
    except Exception:
        traceback.print_exc()
        audit.fail("exceptions", inputs.reads + 1)
        return None, log, t0, 0, cpu_seconds() - cpu0
    cpu = cpu_seconds() - cpu0
    audit.check_results(results[:1], [warm[0]], nus=[warm[1]])
    expected = [
        (db.universe, total, db.n_machines, "parallel") for total, _ in log.snapshots
    ]
    passed = audit.check_results(
        results[1:], expected, nus=[nu for _, nu in log.snapshots]
    )
    audit.fail("exceptions", log.write_failures)
    return results, log, t0, passed, cpu


def _cpu_fields(cpu: float, results: int) -> dict:
    """CPU seconds of the ``repro.serve`` call per exact result."""
    return {
        "cpu_ms_per_result": _ms(cpu / results) if results else None,
        "cpu_s": cpu,
        "results": results,
        "cpu_what": "the repro.serve call",
    }


def _latency_fields(lat: list[float]) -> dict:
    return {
        "latency_p50_ms": _ms(percentile(lat, 0.5)),
        "latency_p99_ms": _ms(percentile(lat, 0.99)) if tail_ok(len(lat)) else None,
        "latency_samples": len(lat),
        "latency_what": "request, from its due time",
    }


def measure_open_loop(workload: str, seed: int, seconds: float) -> dict:
    audit = Audit()
    if workload == "live-churn":
        inputs = W.churn_inputs(seed, seconds)
        inputs.stream.class_state()
        stream = inputs.stream
        results, log, t0, passed, cpu = _churn_trace(
            inputs, audit, lambda: stream.apply_next(1)
        )
        attempted = inputs.reads + inputs.writes + 1
    else:
        inputs = W.served_inputs(seed, seconds)
        results, log, t0, passed, cpu = _serve_trace(workload, inputs, audit)
        attempted = len(inputs.requests) + len(inputs.warmup)
    out = {"attempted": attempted, "audit": audit.summary()}
    out.update(_cpu_fields(cpu, passed))
    if results is None:
        return out
    lat, done = _open_loop_latencies(results, log, skip=len(results) - len(log.due))
    out.update(_latency_fields(lat))
    out["throughput_inst_s"] = passed / (max(done) - t0)
    out["gen_lag_p99_ms"] = _ms(
        percentile([y - d for y, d in zip(log.yielded, log.due)] + log.write_lag_s, 0.99)
    )
    if workload == "live-churn":
        out["write_p50_us"] = percentile(log.write_s, 0.5) * 1e6
        out["write_p99_us"] = (
            percentile(log.write_s, 0.99) * 1e6 if tail_ok(len(log.write_s)) else None
        )
        out["write_samples"] = len(log.write_s)
    return out


def run_measure(
    workload: str, seed: int, seconds: float, part: int, spawned_at: float
) -> dict:
    with PeakRss() as rss:
        if workload == "offline-sweep":
            out = measure_offline(seed, seconds, part, spawned_at)
        else:
            out = measure_open_loop(workload, seed, seconds)
    out["peak_rss_mb"] = rss.megabytes()
    return out


# -- traced run: per-layer numbers --------------------------------------------------------


def _metrics_delta(before: dict, after: dict) -> dict:
    """Counter deltas and histogram ``total``/``count`` deltas."""
    delta = {}
    for name, value in after.items():
        old = before.get(name)
        if isinstance(value, dict):
            old = old or {"total": 0.0, "count": 0}
            delta[name] = {
                "total": value["total"] - old["total"],
                "count": value["count"] - old["count"],
            }
        else:
            delta[name] = value - (old or 0)
    return delta


def _engine_layer(delta: dict, per_backend_instances: dict, passes: int) -> dict:
    """Engine numbers of the offline layer-by-layer passes, from ``METRICS``."""
    out = {}
    for backend in BACKENDS:
        hist = delta.get(f"engine.group_s.{backend}", {"total": 0.0})
        count = per_backend_instances.get(backend, 0)
        out[f"batch.engine.kernel_us_per_inst.{backend}"] = (
            hist["total"] / count * 1e6 if count else 0.0
        )
        out[f"engine.group_s.{backend}"] = hist["total"] / passes
    total = sum(
        delta.get(f"engine.group_s.{b}", {"total": 0.0})["total"] for b in BACKENDS
    )
    count = sum(per_backend_instances.values())
    out["batch.engine.kernel_us_per_inst"] = total / count * 1e6 if count else 0.0
    groups = delta.get("engine.groups", 0)
    out["batch.engine.groups"] = groups / passes
    out["batch.engine.instances_per_group"] = (
        delta.get("engine.instances", 0) / groups if groups else 0.0
    )
    return out


def _manual_pass(plan_requests, families, pass_rng, tracer, keep=None):
    """Drive the layers of one offline pass in the front door's order.

    ``Planner.plan_many`` -> child seeds in request order ->
    per chunk: ``InstanceSpec.build`` -> ``ClassInstance.from_db`` ->
    ``execute_class_batch`` -> ``unified_row``: the stacked strategy of
    ``repro.api.execute``, with a benchmark span around each call.
    """
    from repro.api import DEFAULT_PLANNER, unified_row
    from repro.batch.engine import ClassInstance, execute_class_batch
    from repro.utils.rng import as_generator, spawn_seed

    rows = [None] * len(plan_requests)
    backends = [None] * len(plan_requests)
    with tracer.span("bench.pass"):
        with tracer.span("api.planner"):
            plan = DEFAULT_PLANNER.plan_many(plan_requests)
        gen = as_generator(pass_rng)
        seeds = [
            spawn_seed(gen) if r.request.seed is None else r.request.seed
            for r in plan.resolved
        ]
        for group in plan.groups:
            if group.strategy != "stacked":
                raise RuntimeError(f"unexpected {group.strategy!r} group")
            for start in range(0, len(group.indices), plan.batch_size):
                chunk = group.indices[start : start + plan.batch_size]
                first = plan.resolved[chunk[0]]
                built = []
                for i in chunk:
                    res = plan.resolved[i]
                    with tracer.span("database.build", family=families[i]):
                        db = res.request.masked(res.request.spec.build(rng=seeds[i]))
                    with tracer.span("batch.engine.extract"):
                        built.append(ClassInstance.from_db(db))
                began = time.perf_counter()
                with tracer.span("batch.engine.execute", batch=len(chunk)):
                    samplings = execute_class_batch(
                        built,
                        model=first.request.model,
                        include_probabilities=first.request.include_probabilities,
                        skip_zero_capacity=first.skip_zero_capacity,
                        backend=first.backend,
                    )
                wall = time.perf_counter() - began
                for i, inst, sampling in zip(chunk, built, samplings):
                    rows[i] = unified_row(
                        plan.resolved[i].label, inst.n_machines, inst.universe,
                        inst.total, inst.nu, sampling, "stacked", wall,
                    )
                    backends[i] = sampling.backend
                    if keep is not None:
                        keep[i] = inst
    return rows, backends


def _backend_comparison(inputs, instances: dict, audit: Audit) -> dict:
    """Every valid stacked backend on the same F1 / F3 instances."""
    from repro.api import unified_row
    from repro.batch.backends import stacked_backend_names
    from repro.batch.engine import execute_class_batch

    def pick(family, model, limit):
        chosen = [
            i for i, (fam, want) in enumerate(zip(inputs.families, inputs.expected))
            if fam == family and want[3] == model
        ]
        if family == "F3":  # a few of each M, so nu stays mixed
            chosen = [i for j, i in enumerate(chosen) if j % 8 < limit // 3]
        return chosen[:limit]

    sets = {
        "F1seq": ("sequential", pick("F1", "sequential", 16)),
        "F1par": ("parallel", pick("F1", "parallel", 16)),
        "F3": ("sequential", pick("F3", "sequential", 6)),
    }
    out, auto_total, best_total = {}, 0.0, 0.0
    for name, (model, indices) in sets.items():
        batch = [instances[i] for i in indices]
        timings = {}
        for backend in ("auto",) + stacked_backend_names(model):
            execute_class_batch(batch[:1], model=model, include_probabilities=False,
                                backend=backend)  # warm the substrate's caches
            began = time.perf_counter()
            samplings = execute_class_batch(
                batch, model=model, include_probabilities=False, backend=backend
            )
            timings[backend] = time.perf_counter() - began
            for i, inst, sampling in zip(indices, batch, samplings):
                row = unified_row("cmp", inst.n_machines, inst.universe, inst.total,
                                  inst.nu, sampling, "stacked", 0.0)
                audit.check_row(row, inputs.expected[i])
        for backend, seconds in timings.items():
            if backend != "auto":
                out[f"batch.backends.kernel_us_per_inst.{name}.{backend}"] = (
                    seconds / len(batch) * 1e6
                )
        best = min(t for b, t in timings.items() if b != "auto")
        out[f"batch.backends.auto_vs_best_ratio.{name}"] = timings["auto"] / best
        auto_total += timings["auto"]
        best_total += best
    out["batch.backends.auto_vs_best_ratio"] = auto_total / best_total
    return out


def _traced_front_door(inputs, seed: int, untraced, tracer, tap, audit: Audit):
    """Phase B: the same passes through ``sample_many`` with tracing on.

    Returns per-pass ``(wall, wall - self time of the program's own
    plan/build/execute spans)``: the second is the front door's remainder
    (result assembly, chunking), measured inside one call.
    """
    out = []
    for index, _, _, reference, _ in untraced:
        first = len(tap.spans)
        began = time.perf_counter()
        try:
            with tracer.span("api.sample_many"):
                results = repro.sample_many(
                    inputs.requests, rng=W.pass_seed(seed, index)
                )
        except Exception:
            traceback.print_exc()
            audit.fail("exceptions", len(inputs.requests))
            continue
        wall = time.perf_counter() - began
        audit.check_results(results, inputs.expected)
        if reference is not None:
            audit.same_rows(results.rows(), reference)
        spans = tap.spans[first:]
        selfs = self_times(spans)
        layered = sum(
            selfs[r["span_id"]] for r in spans if r["name"] in ("plan", "build", "execute")
        )
        out.append((wall, wall - layered))
    return out


def _manual_layers(inputs, seed: int, untraced, tracer, tap, audit: Audit):
    """Phase C: drive the layers by hand; per-layer self time and counts."""
    first = len(tap.spans)
    before = METRICS.snapshot()
    walls, per_backend, instances = [], {}, {}
    for index, _, _, reference, _ in untraced:
        began = time.perf_counter()
        try:
            rows, backends = _manual_pass(
                inputs.requests, inputs.families, W.pass_seed(seed, index), tracer,
                keep=instances if not instances else None,
            )
        except Exception:
            traceback.print_exc()
            audit.fail("exceptions", len(inputs.requests))
            continue
        walls.append(time.perf_counter() - began)
        for backend in backends:
            per_backend[backend] = per_backend.get(backend, 0) + 1
        for row, want in zip(rows, inputs.expected):
            audit.check_row(row, want)
        if reference is not None:
            audit.same_rows(rows, reference)
    delta = _metrics_delta(before, METRICS.snapshot())
    passes = max(len(walls), 1)
    spans = tap.spans[first:]
    selfs = self_times(spans)
    layer = {}
    for record in spans:
        name = record["name"]
        key = "api.planner" if name == "plan" else name
        if name == "database.build":
            key = f"database.build.{record['attributes']['family']}"
        layer[key] = layer.get(key, 0.0) + selfs[record["span_id"]]
    spanned = sum(v for k, v in layer.items() if k != "bench.pass")
    builds = sum(v for k, v in layer.items() if k.startswith("database.build."))
    out = {
        "database.build_us_per_inst": builds / (len(inputs.requests) * passes) * 1e6,
        "api.planner.plan_ms": _ms(layer.get("api.planner", 0.0) / passes),
        "batch.engine.extract_us_per_inst": layer.get("batch.engine.extract", 0.0)
        / (len(inputs.requests) * passes) * 1e6,
        "bench.span_coverage": spanned / sum(walls) if walls else 0.0,
    }
    for fam in ("F1", "F2", "F3"):
        out[f"database.build_us_per_inst.{fam}"] = (
            layer.get(f"database.build.{fam}", 0.0)
            / (inputs.families.count(fam) * passes) * 1e6
        )
    out.update(_engine_layer(delta, per_backend, passes))
    return out, instances


def trace_offline(seed: int, seconds: float) -> dict:
    """Untraced passes (A), the same passes traced through the front door
    (B) and driven layer by layer (C), then the substrate comparison (D).
    Rows of B and C must equal A's for the same pass seeds."""
    inputs = W.offline_inputs()
    audit = Audit()
    untraced, _ = _untraced_passes(inputs, seed, audit, seconds / 3)
    tracer = enable_tracing()
    tap = SpanTap()
    tap.install(tracer)
    try:
        front = _traced_front_door(inputs, seed, untraced, tracer, tap, audit)
        out, instances = _manual_layers(inputs, seed, untraced, tracer, tap, audit)
    finally:
        disable_tracing()
    if front:
        out["api.execute.other_ms"] = _ms(statistics.median(o for _, o in front))
        out["obs.trace_overhead_ratio"] = statistics.median(
            w for w, _ in front
        ) / statistics.median(w for _, w, *_ in untraced)
    if instances:
        out.update(_backend_comparison(inputs, instances, audit))
    return {
        "attempted": len(inputs.requests) * (3 * len(untraced) + 1),
        "audit": audit.summary(),
        "layers": out,
    }


def _served_layers(spans: list[dict], results, skip: int) -> dict:
    """Per-request decomposition of a traced served run."""
    roots = {
        r["trace_id"]: r["attributes"]["index"] for r in spans if r["name"] == "request"
    }
    per = {}  # request index -> {phase: seconds}
    batches = {"execute": [], "marshal": []}
    for record in spans:
        name = record["name"]
        if name not in ("build", "execute", "dispatch", "marshal"):
            continue
        ids = record["attributes"].get("trace_ids") or [record["trace_id"]]
        if name in batches:
            batches[name].append(record)
        for tid in ids:
            if tid in roots:
                phases = per.setdefault(roots[tid], {})
                phases[name] = phases.get(name, 0.0) + record["duration_s"]
    waits, builds = [], []
    for index, result in enumerate(results):
        if index < skip:
            continue
        phases = per.get(index, {})
        builds.append(phases.get("build", 0.0))
        waits.append(result.wall_time - sum(phases.values()))
    dispatch = [r["duration_s"] for r in spans if r["name"] == "dispatch"]
    return {
        "serve.queue_wait_ms_p50": _ms(percentile(waits, 0.5)),
        "serve.queue_wait_ms_p99": _ms(percentile(waits, 0.99)),
        "serve.build_ms_p50": _ms(percentile(builds, 0.5)),
        "database.build_us_per_inst": statistics.fmean(
            [r["duration_s"] for r in spans if r["name"] == "build"] or [0.0]
        ) * 1e6,
        "serve.execute_ms_per_batch_p50": _ms(
            percentile([r["duration_s"] for r in batches["execute"]], 0.5)
        ),
        "serve.shard.dispatch_ms_p50": _ms(percentile(dispatch, 0.5)),
        "serve.shard.marshal_ms_p50": _ms(
            percentile([r["duration_s"] for r in batches["marshal"]], 0.5)
        ),
    }


def _span_engine_layer(spans: list[dict]) -> dict:
    """Engine numbers of a served run from its batches' ``execute`` spans.

    In-process services and shard workers both record one ``execute``
    span per batch with its backend and size, so both served tiers are
    measured the same way (the workers' metrics registries never reach
    the dispatcher).  ``engine.group_s.<backend>`` is the run's total.
    """
    executes = [r for r in spans if r["name"] == "execute"]
    per_backend, seconds = {}, {}
    for r in executes:
        backend = r["attributes"]["backend"]
        per_backend[backend] = per_backend.get(backend, 0) + r["attributes"]["batch"]
        seconds[backend] = seconds.get(backend, 0.0) + r["duration_s"]
    out = {}
    for backend in BACKENDS:
        count = per_backend.get(backend, 0)
        out[f"batch.engine.kernel_us_per_inst.{backend}"] = (
            seconds[backend] / count * 1e6 if count else 0.0
        )
        out[f"engine.group_s.{backend}"] = seconds.get(backend, 0.0)
    instances = sum(per_backend.values())
    out["batch.engine.kernel_us_per_inst"] = (
        sum(seconds.values()) / instances * 1e6 if instances else 0.0
    )
    out["batch.engine.groups"] = float(len(executes))
    out["batch.engine.instances_per_group"] = (
        instances / len(executes) if executes else 0.0
    )
    return out


def trace_open_loop(workload: str, seed: int, seconds: float) -> dict:
    audit = Audit()
    churn = workload == "live-churn"

    def one_pass(traced: bool):
        tap = SpanTap()
        if traced:
            tap.install(enable_tracing())
        try:
            if churn:
                inputs = W.churn_inputs(seed, seconds)
                inputs.stream.class_state()
                stream = inputs.stream
                tracer = get_tracer()

                def apply_write():
                    if tracer is None:
                        return stream.apply_next(1)
                    with tracer.span("database.dynamic.apply"):
                        return stream.apply_next(1)

                results, log, _, _, cpu = _churn_trace(inputs, audit, apply_write)
            else:
                inputs = W.served_inputs(seed, seconds)
                results, log, _, _, cpu = _serve_trace(workload, inputs, audit)
        finally:
            if traced:
                disable_tracing()
        return results, log, tap.spans, cpu

    _, _, _, cpu_plain = one_pass(traced=False)
    results, log, spans, cpu_traced = one_pass(traced=True)
    out = {}
    if results is not None:
        skip = len(results) - len(log.due)
        out.update(_served_layers(spans, results, skip))
        tel = results.telemetry or {}
        out["serve.batch_fill_p50"] = float(tel.get("fill_p50", 0.0))
        out["serve.batches"] = float(tel.get("batches_executed", 0))
        out["serve.padding_cells"] = float(tel.get("padding_cells", 0))
        for key in ("shm_batches", "shm_fallback_batches", "worker_restarts",
                    "requeued_batches"):
            out[f"serve.shard.{key}"] = float(tel.get(key, 0))
        out.update(_span_engine_layer(spans))
        selfs = self_times(spans)
        work = sum(
            selfs[r["span_id"]] for r in spans
            if r["name"] in ("build", "execute", "dispatch", "marshal",
                             "database.dynamic.apply")
        )
        out["bench.span_coverage"] = work / cpu_traced
        out["obs.trace_overhead_ratio"] = cpu_traced / cpu_plain
        lags = [y - d for y, d in zip(log.yielded, log.due)] + log.write_lag_s
        out["bench.gen_lag_p99_ms"] = _ms(percentile(lags, 0.99))
        if churn:
            applies = [r["duration_s"] for r in spans if r["name"] == "database.dynamic.apply"]
            out["database.dynamic.apply_us_p50"] = percentile(applies, 0.5) * 1e6
            out["database.dynamic.apply_us_p99"] = percentile(applies, 0.99) * 1e6
            gaps = [r - y for y, r in zip(log.yielded, log.resumed)]
            out["serve.submit_live_us_p50"] = percentile(gaps, 0.5) * 1e6
    if churn:
        attempted = 2 * (W.planned_operations(workload, seconds) + 1)
    else:
        attempted = 2 * (W.planned_operations(workload, seconds) + len(W.SERVED_UNIVERSES))
    return {"attempted": attempted, "audit": audit.summary(), "layers": out}


def run_trace(workload: str, seed: int, seconds: float) -> dict:
    if workload == "offline-sweep":
        out = trace_offline(seed, seconds)
    else:
        out = trace_open_loop(workload, seed, seconds)
    layers = dict.fromkeys(LAYER_NAMES, 0.0)
    layers.update(out["layers"])
    audit = out["audit"]
    for kind in KINDS:
        layers[f"audit.{kind}"] = float(audit[kind])
    out["layers"] = layers
    return out


def main(argv: list[str]) -> int:
    mode, workload, seed, seconds, *part, spawned_at = argv
    seed, seconds, spawned_at = int(seed), float(seconds), float(spawned_at)
    part = int(part[0]) if part else 0
    if mode == "setup":
        out = run_setup(workload, seed, spawned_at)
    elif mode == "measure":
        out = run_measure(workload, seed, seconds, part, spawned_at)
    else:
        out = run_trace(workload, seed, seconds)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
