"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the quickstart pipeline on a small Zipf instance and print the
    full report (plan, query bill, certificate).
``sample``
    Sample a synthetic database with chosen parameters; flags:
    ``--universe --total --machines --model --backend --strategy --seed
    --capacity``.  Routed through the :mod:`repro.api` front door
    (``repro.sample``); ``--backend`` defaults to the planner's ``auto``
    choice.  With ``--batch B`` the same front door
    (``repro.sample_many``) runs ``B`` independent instances of the
    recipe through the stacked engine, optionally fanned
    across ``--jobs`` worker processes, and reports aggregate
    fidelity/throughput.
``serve``
    Run the long-lived batching sampler service (``repro.serve`` — the
    front door's stream strategy) on a synthetic Poisson arrival trace
    and print its telemetry; flags:
    ``--max-requests --rate --batch-size --flush-deadline --workers
    --shards`` plus the ``sample`` instance flags.  ``--rate 0`` offers
    requests as fast as the submitter can (full-load mode);
    ``--shards S`` runs the multi-process sharded tier with zero-copy
    shared-memory result handoff instead of the in-process dispatcher.
``estimate``
    Quantum-counting demo: estimate M without reading it.
``stats``
    Render a ``--trace out.jsonl`` artifact: per-phase span aggregates
    (count, total, p50/p99/max) plus the final metrics snapshot.
``experiments``
    List the experiment benches and the paper claim each regenerates.
``lint``
    Run the project invariant analyzer (:mod:`repro.analysis.lint`)
    over source trees; flags: ``--format text|json --output PATH
    --select REPnnn [...] --list-rules``.  Exits 1 on any unsuppressed
    finding — the CI gate.

``sample`` and ``serve`` accept ``--trace PATH``: the run executes with
:mod:`repro.obs` tracing enabled, every finished span appended to PATH
as one JSON line, and a final ``{"kind": "metrics", ...}`` snapshot line
written at exit — the input ``stats`` reads.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.verify import certify_run
from .api import SamplingRequest, sample, sample_many
from .api import serve as api_serve
from .batch import stacked_backend_names
from .core import SequentialSampler, backend_names, estimate_overlap
from .database import partition, workload_names, workload_spec_for
from .errors import ReproError
from .utils import Table

_EXPERIMENTS = [
    ("E01", "Thm 4.3 — sequential queries Θ(n√(νN/M))", "bench_e01_sequential_scaling"),
    ("E02", "Thm 4.5 — parallel rounds Θ(√(νN/M)), n-free", "bench_e02_parallel_scaling"),
    ("E03", "Lemma 4.2 — D from exactly 2n oracle calls", "bench_e03_distributing_operator"),
    ("E04", "Lemma 4.4 — parallel D in 4 rounds, honest ancillas", "bench_e04_parallel_oracle"),
    ("E05", "Eq. (7) — initial good amplitude √(M/νN)", "bench_e05_initial_overlap"),
    ("E06", "BHMT Thm 4 — zero-error landing vs plain Grover", "bench_e06_exact_aa"),
    ("E07", "Lemma 5.6 — |T| = C(N, m_k)", "bench_e07_hard_input_counting"),
    ("E08", "Lemmas 5.7/5.8 — potential floor and t² ceiling", "bench_e08_potential_growth"),
    ("E09", "Thm 5.1 — sequential optimality ratio Θ(1)", "bench_e09_optimality_gap"),
    ("E10", "Thm 5.2 — parallel optimality ratio Θ(1)", "bench_e10_parallel_optimality"),
    ("E11", "Intro — classical nN vs quantum separation", "bench_e11_classical_separation"),
    ("E12", "Footnote 1 — no-go for sample combiners", "bench_e12_no_go_combiner"),
    ("E13", "§3 — dynamic updates at unit oracle cost", "bench_e13_dynamic_updates"),
    ("E14", "Grover recovered as a special case", "bench_e14_grover_special_case"),
    ("E15", "Fidelity vs query budget (Zalka-style)", "bench_e15_fidelity_vs_queries"),
    ("E16", "Simulator kernel throughput", "bench_e16_simulator_kernels"),
    ("E17", "Extension — unknown M via amplitude estimation", "bench_e17_amplitude_estimation"),
    ("E18", "Extension — capacity-aware schedule ablation", "bench_e18_capacity_aware_schedule"),
    ("E19", "Application — quantum mean estimation speedup", "bench_e19_mean_estimation"),
    ("E20", "Appendix B — the E/F decomposition of D_t", "bench_e20_appendix_b"),
    ("E21", "Intro motivation — fault tolerance via replication", "bench_e21_fault_tolerance"),
    ("E22", "Scaling — backend wall-time/memory up to N = 10⁶", "bench_e22_backend_scaling"),
    ("E23", "Scaling — batched engine ≥5× instances/sec at B = 256", "bench_e23_batched_throughput"),
    ("E24", "Serving — latency/throughput vs offered load & flush deadline", "bench_e24_serving"),
    ("E25", "API — one request through all four planner strategies", "bench_e25_api_pipeline"),
    ("E26", "Scaling — sharded serving tier, zero-copy shm handoff", "bench_e26_sharded_serving"),
    ("E27", "Scenarios — adversarial matrix: faults, skew & churn served, gated", "bench_e27_scenario_matrix"),
]


def _workload_spec(args: argparse.Namespace):
    """The ``--workload`` recipe (registry-routed; zipf keeps its classic
    exponent so default runs reproduce the pre-registry CLI)."""
    overrides = {"exponent": 1.2} if args.workload == "zipf" else {}
    return workload_spec_for(args.workload, args.universe, args.total, **overrides)


def _build_db(args: argparse.Namespace):
    dataset = _workload_spec(args).build(rng=args.seed)
    return partition(dataset, args.machines, strategy=args.strategy, rng=args.seed)


def _cmd_demo(_args: argparse.Namespace) -> int:
    parser = argparse.Namespace(
        universe=16, total=40, machines=3, strategy="round_robin", seed=7,
        workload="zipf",
    )
    db = _build_db(parser)
    print(f"database: {db}\n")
    result = SequentialSampler(db).run()
    print(f"plan: m = {result.plan.grover_reps} Grover iterates"
          f"{' + final partial' if result.plan.needs_final else ''}"
          f" at θ = {result.plan.theta:.4f}")
    print(f"queries: {result.sequential_queries} sequential "
          f"({result.ledger.per_machine()} per machine)\n")
    print(certify_run(result, db, rng=0).render())
    return 0


def _instance_spec(args: argparse.Namespace):
    from .analysis.sweep import InstanceSpec

    return InstanceSpec(
        workload=_workload_spec(args),
        n_machines=args.machines,
        strategy=args.strategy,
        backend="classes",
    )


def _cmd_sample_batch(args: argparse.Namespace) -> int:
    import time

    if args.batch < 1:
        print(f"error: --batch needs a positive instance count, got {args.batch}",
              file=sys.stderr)
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs needs a positive worker count, got {args.jobs}",
              file=sys.stderr)
        return 2
    spec = _instance_spec(args)
    # batchable=True asks the planner for the stacked engine at any
    # batch size (and for process fan-out when --jobs > 1); the
    # aggregate table reads audit columns only, so skip the O(N)
    # per-instance output-distribution gather (the engine's serving
    # fast path).
    start = time.perf_counter()
    try:
        request = SamplingRequest(
            spec=spec,
            model=args.model,
            backend=args.backend or "auto",
            capacity=args.capacity,
            include_probabilities=False,
            batchable=True,
            max_dense_dimension=args.max_dense_dim,
        )
        results = sample_many(
            [request] * args.batch, jobs=args.jobs, rng=args.seed
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    exact = sum(1 for flag in results.column("exact") if flag)
    table = Table(
        f"batched {args.model} sampling × {args.batch} instances", ["metric", "value"]
    )
    table.add_row(["instances", str(len(results))])
    table.add_row(["exact (F = 1)", f"{exact}/{len(results)}"])
    table.add_row(["mean fidelity",
                   f"{sum(results.column('fidelity')) / len(results):.9f}"])
    table.add_row(["sequential queries",
                   str(sum(results.column("sequential_queries")))])
    table.add_row(["parallel rounds", str(sum(results.column("parallel_rounds")))])
    table.add_row(["strategy", results.strategies()[0]])
    table.add_row(["jobs", str(args.jobs or 1)])
    table.add_row(["wall time", f"{elapsed:.3f} s"])
    table.add_row(["throughput", f"{len(results) / elapsed:.0f} instances/s"])
    print(table.render())
    return 0 if exact == len(results) else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.batch:
        return _cmd_sample_batch(args)
    try:
        if args.scenario:
            # A registered adversarial scenario is the whole recipe:
            # data shape, partition, capacity policy and fault mask.
            request = SamplingRequest(
                scenario=args.scenario,
                model=args.model,
                backend=args.backend or "auto",
                capacity=args.capacity,
                seed=args.seed,
                max_dense_dimension=args.max_dense_dim,
            )
            subject = f"scenario {args.scenario!r}"
        else:
            db = _build_db(args)
            request = SamplingRequest(
                database=db,
                model=args.model,
                backend=args.backend or "auto",
                capacity=args.capacity,
                max_dense_dimension=args.max_dense_dim,
            )
            subject = repr(db)
        result = sample(request)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    table = Table(
        f"{args.model} sampling of {subject}",
        ["metric", "value"],
    )
    assert result.sampling is not None
    for key, value in result.sampling.summary().items():
        if key == "public_parameters":
            continue
        table.add_row([key, str(value)])
    table.add_row(["strategy", result.strategy])
    if request.fault_mask:
        table.add_row(["fault mask (machines lost)", str(list(request.fault_mask))])
    print(table.render())
    return 0 if result.exact else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .utils.rng import as_generator

    if args.max_requests < 1:
        print(f"error: --max-requests needs a positive count, got {args.max_requests}",
              file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print(f"error: --shards needs a positive worker count, got {args.shards}",
              file=sys.stderr)
        return 2
    scenario = None
    if args.scenario:
        from .scenarios import resolve_scenario

        try:
            scenario = resolve_scenario(args.scenario)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    spec = None if scenario is not None else _instance_spec(args)
    arrivals = as_generator(args.seed)

    def request_trace():
        """Poisson arrivals, replayed by sleeping in the submit thread."""
        for index in range(args.max_requests):
            if args.rate > 0:
                time.sleep(float(arrivals.exponential(1.0 / args.rate)))
            if scenario is not None:
                # Per-index materialization: a FaultSchedule kills and
                # revives machines across the trace, topology steps
                # force mid-trace re-planning.
                yield scenario.request(
                    index=index, model=args.model, backend=args.backend
                )
            else:
                yield SamplingRequest(
                    spec=spec,
                    model=args.model,
                    backend=args.backend,
                    include_probabilities=False,
                )

    start = time.perf_counter()
    try:
        results = api_serve(
            request_trace(),
            batch_size=args.batch_size,
            flush_deadline=args.flush_deadline,
            workers=args.workers,
            shards=args.shards,
            rng=args.seed,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    telemetry = results.telemetry
    assert telemetry is not None
    table = Table(
        f"served {args.model} sampling × {args.max_requests} requests "
        f"(rate={'max' if args.rate <= 0 else f'{args.rate:g}/s'}, "
        f"deadline={args.flush_deadline:g}s)",
        ["metric", "value"],
    )
    table.add_row(["requests", str(telemetry["completed"])])
    table.add_row(["exact (F = 1)", f"{telemetry['exact']}/{telemetry['completed']}"])
    table.add_row(["batches", str(telemetry["batches_executed"])])
    table.add_row(["batch fill ratio", f"{telemetry['batch_fill_ratio']:.3f}"])
    table.add_row(["p50 latency", f"{telemetry['p50_latency'] * 1e3:.1f} ms"])
    table.add_row(["p99 latency", f"{telemetry['p99_latency'] * 1e3:.1f} ms"])
    table.add_row(["throughput", f"{telemetry['instances_per_sec']:.0f} instances/s"])
    table.add_row(["sequential queries", str(telemetry["sequential_queries"])])
    table.add_row(["parallel rounds", str(telemetry["parallel_rounds"])])
    if "shards" in telemetry:  # the sharded multi-process tier
        table.add_row(["shards", str(telemetry["shards"])])
        table.add_row(["shm batches", str(telemetry["shm_batches"])])
        table.add_row(["shm fallbacks", str(telemetry["shm_fallback_batches"])])
        table.add_row(["worker restarts", str(telemetry["worker_restarts"])])
        table.add_row(["requeued batches", str(telemetry["requeued_batches"])])
        table.add_row(["flight dumps", str(telemetry.get("flight_dumps", 0))])
    table.add_row(["wall time", f"{elapsed:.3f} s"])
    print(table.render())
    return 0 if telemetry["exact"] == telemetry["completed"] else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .obs.metrics import percentile

    spans: list[dict] = []
    metrics: dict | None = None
    try:
        with open(args.trace, encoding="utf-8") as lines:
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("kind") == "span":
                    spans.append(record)
                elif record.get("kind") == "metrics":
                    metrics = record  # the last snapshot wins
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not spans and metrics is None:
        print(f"error: {args.trace} holds no span or metrics records",
              file=sys.stderr)
        return 2

    if spans:
        durations: dict[str, list[float]] = {}
        for record in spans:
            durations.setdefault(record["name"], []).append(
                float(record["duration_s"])
            )
        traces = len({record["trace_id"] for record in spans})
        pids = len({record["pid"] for record in spans})
        table = Table(
            f"{args.trace}: {len(spans)} spans, {traces} traces, "
            f"{pids} process(es)",
            ["phase", "count", "total", "p50", "p99", "max"],
        )
        for name in sorted(durations):
            values = sorted(durations[name])
            table.add_row([
                name,
                str(len(values)),
                f"{sum(values) * 1e3:.1f} ms",
                f"{percentile(values, 0.50) * 1e3:.3f} ms",
                f"{percentile(values, 0.99) * 1e3:.3f} ms",
                f"{values[-1] * 1e3:.3f} ms",
            ])
        print(table.render())

    if metrics is not None:
        table = Table("metrics snapshot", ["metric", "value"])
        for name, value in sorted(metrics.get("metrics", {}).items()):
            if isinstance(value, dict):  # a histogram: show the tail
                rendered = (
                    f"n={value.get('count', 0)} mean={value.get('mean', 0.0):.6f} "
                    f"p99={value.get('p99', 0.0):.6f}"
                )
            else:
                rendered = str(value)
            table.add_row([name, rendered])
        print(table.render())
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    db = _build_db(args)
    estimate = estimate_overlap(db, precision_bits=args.bits, shots=9, rng=args.seed)
    print(f"true  M = {db.total_count}   (a = {db.initial_overlap():.6f})")
    print(f"est.  M̂ = {estimate.m_hat:.2f} → {estimate.m_hat_rounded()}"
          f"   (â = {estimate.a_hat:.6f} ± {estimate.error_bound:.6f})")
    print(f"cost: {estimate.sequential_queries} sequential oracle calls "
          f"({estimate.grover_applications} Grover iterates × {estimate.shots} shots)")
    return 0


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    from .scenarios import resolve_scenario, scenario_names

    table = Table(
        "registered adversarial scenarios (sample/serve --scenario <name>)",
        ["name", "machines", "axes", "description"],
    )
    for name in scenario_names():
        sc = resolve_scenario(name)
        axes = []
        if sc.fault_mask:
            axes.append(f"mask={list(sc.fault_mask)}")
        if sc.fault_schedule is not None:
            axes.append("fault-schedule")
        if sc.churn is not None:
            axes.append("churn")
        if sc.topology_steps:
            axes.append(f"topology={list(sc.topology_steps)}")
        table.add_row(
            [name, str(sc.n_machines), ",".join(axes) or "healthy", sc.description]
        )
    print(table.render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.lint import analyze_paths, render, resolve_rule, rule_names

    if args.list_rules:
        table = Table(
            "registered lint rules (silence one with "
            "`# repro: allow(<id>) -- <reason>`)",
            ["id", "name", "description"],
        )
        for rule_id in rule_names():
            cls = resolve_rule(rule_id)
            table.add_row([rule_id, cls.name, cls.description])
        print(table.render())
        return 0
    if args.paths:
        paths = list(args.paths)
    else:
        paths = [p for p in ("src", "tests", "benchmarks", "examples")
                 if Path(p).exists()]
        if not paths:
            print("error: no default lint paths found; pass paths explicitly",
                  file=sys.stderr)
            return 2
    try:
        report = analyze_paths(
            paths,
            rule_ids=tuple(args.select) if args.select else None,
            root=Path.cwd(),
        )
        rendered = render(report, args.format)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {out}: {report.total} finding(s) in "
              f"{report.files_checked} file(s)")
    else:
        print(rendered)
    return 0 if report.total == 0 and not report.parse_errors else 1


def _cmd_experiments(_args: argparse.Namespace) -> int:
    table = Table("experiment harness (pytest benchmarks/ --benchmark-only)",
                  ["id", "claim", "bench module"])
    for row in _EXPERIMENTS:
        table.add_row(list(row))
    print(table.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("demo", help="run the quickstart pipeline")

    sample = sub.add_parser("sample", help="sample a synthetic database")
    sample.add_argument("--universe", type=int, default=32)
    sample.add_argument("--total", type=int, default=48)
    sample.add_argument("--machines", type=int, default=3)
    sample.add_argument("--model", choices=["sequential", "parallel"], default="sequential")
    sample.add_argument(
        "--backend",
        choices=sorted(set(backend_names())),
        default=None,
        help="simulation backend (default: the planner's auto choice — "
        "'classes', or 'subspace' for sequential runs with M > N)",
    )
    sample.add_argument("--strategy", default="round_robin")
    sample.add_argument(
        "--workload",
        choices=workload_names(),
        default="zipf",
        help="named workload generator shaping the synthetic dataset "
        "(default: zipf with the classic 1.2 exponent)",
    )
    sample.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="run a registered adversarial scenario instead of the "
        "--workload flags (see 'python -m repro scenarios')",
    )
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument(
        "--capacity",
        choices=["all", "skip_empty"],
        default="all",
        help="capacity policy: skip_empty applies the capacity-aware "
        "flagged-round restriction (κ_j = 0 machines are never queried)",
    )
    sample.add_argument(
        "--batch",
        type=int,
        default=0,
        metavar="B",
        help="run B independent instances through the batched stacked-classes "
        "engine and report aggregate fidelity + throughput",
    )
    sample.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="J",
        help="fan batches across J worker processes (only with --batch)",
    )
    sample.add_argument(
        "--max-dense-dim",
        type=int,
        default=None,
        metavar="DIM",
        help="per-run override of the dense memory cap: auto routing picks "
        "the dense subspace representation (per-instance or the (B, N, 2) "
        "stacked batch tensor) only while the instance dimension 2N fits DIM",
    )
    sample.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable repro.obs tracing and append every finished span to "
        "PATH as JSON lines (plus a final metrics snapshot); render with "
        "'python -m repro stats PATH'",
    )

    serve = sub.add_parser(
        "serve", help="run the batching sampler service on a Poisson trace"
    )
    serve.add_argument("--universe", type=int, default=512)
    serve.add_argument("--total", type=int, default=128)
    serve.add_argument("--machines", type=int, default=3)
    serve.add_argument("--model", choices=["sequential", "parallel"], default="sequential")
    serve.add_argument(
        "--backend",
        choices=["auto", *stacked_backend_names()],
        default="auto",
        help="stacked substrate batches execute on; auto resolves per "
        "request from its declared (N, M) (the planner's rule)",
    )
    serve.add_argument("--strategy", default="round_robin")
    serve.add_argument(
        "--workload",
        choices=workload_names(),
        default="zipf",
        help="named workload generator for the served recipe",
    )
    serve.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="serve a registered adversarial scenario trace — per-index "
        "fault masks and topology steps included (see 'python -m repro "
        "scenarios')",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--max-requests", type=int, default=64, metavar="R",
        help="stop after serving R requests (the smoke/trace length)",
    )
    serve.add_argument(
        "--rate", type=float, default=0.0, metavar="HZ",
        help="Poisson arrival rate in requests/sec; 0 = full offered load",
    )
    serve.add_argument("--batch-size", type=int, default=32, metavar="B")
    serve.add_argument(
        "--flush-deadline", type=float, default=0.02, metavar="SEC",
        help="max seconds a request waits for co-batchable arrivals",
    )
    serve.add_argument("--workers", type=int, default=2, metavar="W")
    serve.add_argument(
        "--shards", type=int, default=None, metavar="S",
        help="fan the service across S shard worker processes (the "
        "multi-process tier with zero-copy shared-memory result handoff); "
        "default serves in-process",
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable repro.obs tracing and append every finished span "
        "(including shard-worker spans) to PATH as JSON lines; render "
        "with 'python -m repro stats PATH'",
    )

    stats = sub.add_parser(
        "stats", help="render a --trace JSONL artifact (spans + metrics)"
    )
    stats.add_argument("trace", metavar="TRACE.jsonl",
                       help="a trace file written by sample/serve --trace")

    estimate = sub.add_parser("estimate", help="estimate M by quantum counting")
    estimate.add_argument("--universe", type=int, default=64)
    estimate.add_argument("--total", type=int, default=6)
    estimate.add_argument("--machines", type=int, default=2)
    estimate.add_argument("--strategy", default="round_robin")
    estimate.add_argument("--workload", choices=workload_names(), default="zipf")
    estimate.add_argument("--bits", type=int, default=8)
    estimate.add_argument("--seed", type=int, default=0)

    sub.add_parser("experiments", help="list the experiment harness")
    sub.add_parser("scenarios", help="list the registered adversarial scenarios")

    lint = sub.add_parser(
        "lint", help="run the repro invariant analyzer over source trees"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyze "
        "(default: src tests benchmarks examples, those that exist)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (json is the stable analysis_report schema)",
    )
    lint.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout "
        "(CI archives benchmarks/_results/analysis_report.json)",
    )
    lint.add_argument(
        "--select", nargs="+", default=None, metavar="REPnnn",
        help="run only these rule ids (default: every registered rule)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )

    args = parser.parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "sample": _cmd_sample,
        "serve": _cmd_serve,
        "estimate": _cmd_estimate,
        "stats": _cmd_stats,
        "experiments": _cmd_experiments,
        "scenarios": _cmd_scenarios,
        "lint": _cmd_lint,
    }
    if args.command is None:
        parser.print_help()
        return 2
    trace_path = getattr(args, "trace", None)
    if args.command in ("sample", "serve") and trace_path:
        from .obs.metrics import METRICS
        from .obs.trace import disable_tracing, enable_tracing

        open(trace_path, "w", encoding="utf-8").close()  # fresh artifact
        tracer = enable_tracing(sink=trace_path)
        try:
            return handlers[args.command](args)
        finally:
            # The run's closing metrics snapshot rides in the same file,
            # one {"kind": "metrics"} line the stats command picks up.
            tracer.write(METRICS.record())
            disable_tracing()
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
