"""Known program failures, pinned as strict expected failures.

    python3 perfbench/known_failures.py

``sharded-burst-deadlock``: submitting 1200 requests of the
``served-poisson`` mix as one burst to ``repro.serve(..., shards=2)``
hangs.  The submitting thread blocks in ``_Shard.send`` ->
``conn.send`` to a worker whose inbound pipe is full; that worker is
itself blocked sending results, and the collector thread, which would
drain it, waits on the same ``send_lock`` to send ``release``
(``repro/serve/shard.py``: ``_Shard.send`` and
``ShardedSamplerService._handle_message``).  A burst of 300 completes
and is the control case.  The benchmark's open-loop rates do not reach
this regime.

Each case runs in its own process group under a watchdog; a hang is
killed as a group and the shard workers are checked to be gone.  Shortly
before the watchdog fires, the child dumps every thread's stack
(``faulthandler``); a hang counts as the pinned deadlock (XFAIL) only
when the submitting thread is blocked in ``_Shard.send``, so a slow host
or some other hang reads as FAIL.  Exit status is 0 when every case
behaves as pinned.  An expected failure that passes (XPASS) exits 1: the
defect is fixed, so the case must be flipped to an ordinary pass in the
same change.

``run.py`` does not run these cases (the pinned hang costs 30 seconds);
this file is a separate gate, run by hand or by a change that touches
``repro.serve.shard``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: name -> (burst size, expected to hang, watchdog seconds)
CASES = {
    "sharded-burst-control": (300, False, 60.0),
    "sharded-burst-deadlock": (1200, True, 30.0),
}
#: The child dumps its stacks this many seconds before the watchdog fires.
DUMP_LEAD_S = 5.0
#: A frame of ``_Shard.send`` in a ``faulthandler`` dump.
SHARD_SEND = re.compile(r'repro[/\\]serve[/\\]shard\.py", line \d+ in send$')


def blocked_in_shard_send(dump: str) -> bool:
    """Whether the submitting thread of a ``faulthandler`` dump waits in
    ``_Shard.send``.  The submitting thread is the one running
    :func:`burst`; each thread's block starts with a ``Thread`` line."""
    blocks = re.split(r"^(?:Current thread|Thread) 0x[0-9a-f]+ .*$", dump, flags=re.M)
    for block in blocks:
        frames = block.strip().splitlines()
        if any(line.rstrip().endswith(" in burst") for line in frames):
            return any(SHARD_SEND.search(line.rstrip()) for line in frames)
    return False


def burst(count: int, dump_after: float) -> None:
    """Child side: one burst through the sharded tier, then audit it."""
    import faulthandler
    import json

    faulthandler.dump_traceback_later(dump_after, exit=False)

    from audit import Audit
    from procs import import_program
    from workloads import SERVED_SHARDS, served_inputs

    repro = import_program()

    inputs = served_inputs(seed=0, seconds=0.0, count=count)
    results = repro.serve(inputs.requests, shards=SERVED_SHARDS, rng=inputs.rng)
    audit = Audit()
    audit.check_results(results, inputs.expected)
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps(audit.summary()), flush=True)


def main() -> int:
    from procs import run_child

    status = 0
    for name, (count, hangs, timeout) in CASES.items():
        payload, timed_out, reaped, stderr = run_child(
            Path(__file__), "--burst", count, timeout - DUMP_LEAD_S,
            timeout=timeout, capture_stderr=True,
        )
        ok = payload is not None and not any(
            v for k, v in payload.items() if k != "checked"
        )
        if not reaped:
            verdict = "FAIL (processes of the run survived the kill)"
            status = 1
        elif hangs and timed_out and blocked_in_shard_send(stderr):
            verdict = (f"XFAIL (hung for {timeout:g} s in _Shard.send; "
                       "process group killed and reaped)")
        elif hangs and ok:
            verdict = "XPASS (no longer hangs: flip this case to a required pass)"
            status = 1
        elif not hangs and ok:
            verdict = "PASS"
        else:
            verdict = "FAIL" + (" (timed out)" if timed_out else "")
            if hangs and timed_out:
                verdict = "FAIL (timed out, but not blocked in _Shard.send)"
            status = 1
            sys.stderr.write(stderr)
        print(f"{name:<26} burst={count:<5} {verdict}")
    return status


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--burst":
        burst(int(sys.argv[2]), float(sys.argv[3]))
        sys.exit(0)
    sys.exit(main())
