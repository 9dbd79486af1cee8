"""The repository benchmark: four workloads, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload served-poisson --seed 7 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``layer_map.json``):

``offline-sweep``   closed loop, one ``repro.sample_many`` call per pass
``served-poisson``  open loop, Poisson arrivals into ``repro.serve``
``served-sharded``  the same trace through ``repro.serve(..., shards=2)``
``live-churn``      Poisson writes (``UpdateStream.apply_next(1)``) and
                    live re-sample reads from one client thread

``--trace 0`` runs the untraced end-to-end measurement between two
rounds of separate set-up processes (offline: as several processes,
each a set-up and then a share of the passes) and reports the
end-to-end metrics;
``--trace 1`` runs the traced run and reports the per-layer metrics.
Which metrics go into the JSON result, and their units, is read from
``BENCHMARK.json`` (``end_to_end`` and ``per_layer``).
Each run happens in its own process group under a watchdog; on timeout
the whole group (shard workers included) is killed and every
unresolved operation counts as failed.  Every result is audited
(``audit.py``); any failure makes the command exit 1.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from procs import run_child  # noqa: E402
from workloads import WORKLOADS, planned_operations  # noqa: E402

#: Reported on the workloads they apply to (printed, not in the JSON).
WORKLOAD_SPECIFIC = (
    ("latency_p99_ms", "ms"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
)
#: Set-up processes run before and after the measured run of an
#: open-loop workload; ``setup_s`` is the median of all of them.  Set-up
#: is import-bound, so a single probe follows the host's CPU speed (+-20%
#: from one second to the next on a shared 2-core host): spreading the
#: probes over the whole run, not only its start, keeps one slow stretch
#: from deciding the median.  Two before and two after leave room in the
#: contract's time limit for 20-second measured runs, which halved the
#: offline spread of 15-second ones.
SETUP_PROBES = {
    "served-poisson": (2, 2),
    "served-sharded": (2, 2),
    "live-churn": (2, 2),
}
#: The offline run is this many processes in a row, each a set-up (its
#: warm-up pass, timed as a probe times it) followed by an equal share of
#: the measured passes.  The host's speed drifts by tens of percent over
#: tens of seconds, and one process measuring all passes in one stretch
#: caught a single phase of that drift: its median pass spread by 0.2 of
#: the median between runs.  Passes spread over the whole run, as the
#: set-ups are, sample the drift instead.
OFFLINE_PARTS = 4
#: The whole command stays under this many seconds.
BUDGET_S = 170.0


def recorded_metrics(kind: str) -> tuple[tuple[str, str], ...]:
    """(name, unit) of the ``BENCHMARK.json`` metrics of ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple((m["name"], m["unit"]) for m in spec[kind])


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) for every metric of ``layer_map.json``."""
    layers = json.loads((HERE / "layer_map.json").read_text())["layers"]
    return [(m["name"], m["unit"]) for layer in layers for m in layer["metrics"]]


def measure_offline(seed: int, seconds: float, remaining) -> tuple[dict | None, bool]:
    """Run the offline parts; the merged payload (None on a failure)."""
    walls, cpus, passed, setups, rss = [], [], [], [], []
    attempted, audit = 0, {}
    for part in range(OFFLINE_PARTS):
        payload, timed_out, *_ = run_child(
            HERE / "child.py", "measure", "offline-sweep", seed,
            seconds / OFFLINE_PARTS, part,
            timeout=min(seconds + 60, remaining() - 5),
        )
        if payload is None:
            return None, timed_out
        walls += payload["pass_wall_s"]
        cpus += payload["pass_cpu_s"]
        passed += payload["pass_passed"]
        setups.append(payload["own_setup_s"])
        rss.append(payload["peak_rss_mb"])
        attempted += payload["attempted"]
        for kind, count in payload["audit"].items():
            audit[kind] = audit.get(kind, 0) + count
    rates = [ok / wall for wall, ok in zip(walls, passed)]
    cpu_per = [cpu / ok for cpu, ok in zip(cpus, passed) if ok]
    return {
        "attempted": attempted,
        "audit": audit,
        "setup_samples": setups,
        "throughput_inst_s": statistics.median(rates),
        "cpu_ms_per_result": statistics.median(cpu_per) * 1e3 if cpu_per else None,
        "cpu_s": sum(cpus),
        "results": sum(passed),
        "cpu_what": "median pass",
        # Every request of a pass completes when the call returns.
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_samples": len(walls),
        "latency_what": f"one sample_many pass, in {OFFLINE_PARTS} processes;"
        f" fastest {min(walls) * 1e3:.0f} ms",
        "peak_rss_mb": max(rss),
    }, False


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()

    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - started)

    w, seed, seconds = args.workload, args.seed, args.seconds
    end_to_end = recorded_metrics("end_to_end")
    print(f"perfbench {w} seed={seed} seconds={seconds:g} trace={args.trace}")
    failures = 0
    metrics: dict[str, dict] = {}
    if args.trace:
        recorded = dict(recorded_metrics("per_layer"))
        payload, timed_out, *_ = run_child(
            HERE / "child.py", "trace", w, seed, seconds,
            timeout=min(4 * seconds + 60, remaining()),
        )
        attempted = payload["attempted"] if payload else 2 * planned_operations(w, seconds)
        if payload is None:
            failures = attempted
            print(f"  traced run {'timed out' if timed_out else 'failed'}", file=sys.stderr)
        else:
            failures = sum(v for k, v in payload["audit"].items() if k != "checked")
            for name, unit in per_layer_metrics():
                value = float(payload["layers"][name])
                if name in recorded:
                    metrics[name] = {"value": value, "unit": recorded[name]}
                print(f"  {name:<52} {_fmt(value):>12} {unit}")
    else:
        setups, attempted = [], 0

        def probe_setups(count: int, reserve: float) -> None:
            nonlocal attempted, failures
            for _ in range(count):
                probe, timed_out, *_ = run_child(
                    HERE / "child.py", "setup", w, seed, seconds,
                    timeout=min(30.0, remaining() - reserve),
                )
                attempted += probe["attempted"] if probe else 1
                if probe is None:
                    failures += 1
                    print(f"  set-up probe {'timed out' if timed_out else 'failed'}",
                          file=sys.stderr)
                    continue
                failures += sum(v for k, v in probe["audit"].items() if k != "checked")
                setups.append(probe["setup_s"])

        if w == "offline-sweep":
            payload, timed_out = measure_offline(seed, seconds, remaining)
        else:
            before, after = SETUP_PROBES[w]
            probe_setups(before, reserve=2 * seconds + 60)
            payload, timed_out, *_ = run_child(
                HERE / "child.py", "measure", w, seed, seconds,
                timeout=min(3 * seconds + 60, remaining() - 15),
            )
            probe_setups(after, reserve=2)
        if payload is None:
            attempted += planned_operations(w, seconds)
            failures = attempted
            print(f"  measured run {'timed out' if timed_out else 'failed'}",
                  file=sys.stderr)
        else:
            attempted += payload["attempted"]
            failures += sum(v for k, v in payload["audit"].items() if k != "checked")
            setups += payload.get("setup_samples", [])
            payload["setup_s"] = statistics.median(setups) if setups else None
            for name, unit in end_to_end:
                value = payload.get(name)
                if value is not None:
                    metrics[name] = {"value": float(value), "unit": unit}
            samples = payload.get("latency_samples")
            notes = {
                "setup_s": f"median of {len(setups)} set-ups: "
                + ", ".join(f"{s:.3f}" for s in setups),
                "cpu_ms_per_result": (payload.get("cpu_what", "") + ";")
                + f" {payload.get('cpu_s', 0.0):.2f} CPU s"
                f" over {payload.get('results')} results",
                "latency_p50_ms": f"n={samples}, {payload.get('latency_what')}",
                "latency_p99_ms": f"n={samples}",
                "write_p50_us": f"n={payload.get('write_samples')}",
                "write_p99_us": f"n={payload.get('write_samples')}",
            }
            for name, unit in end_to_end + WORKLOAD_SPECIFIC:
                value = payload.get(name)
                if value is None:
                    why = ("no writes in this workload" if name.startswith("write")
                           else "fewer than 10 samples beyond p99")
                    print(f"  {name:<20} {'n/a':>12} {unit:<7} ({why})")
                else:
                    note = f" ({notes[name]})" if name in notes else ""
                    print(f"  {name:<20} {_fmt(value):>12} {unit:<7}{note}")
            if "gen_lag_p99_ms" in payload:
                print(f"  {'(generator lag p99)':<20} {_fmt(payload['gen_lag_p99_ms']):>12} ms")
        print(f"  {'error_frac':<20} {_fmt(failures / max(attempted, 1)):>12} "
              f"        ({failures} of {attempted} operations failed)")
    correct = failures == 0 and (args.trace or len(metrics) == len(end_to_end))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
