"""Process handling: the checkout's program, and children under a watchdog.

Killing only the direct child of a sharded run leaves its forked shard
workers alive (holding the output pipe open), so every child runs as the
leader of a new session and the whole group is killed and awaited.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Every child runs its BLAS and OpenMP calls on one thread.  The dense
#: kernels make thousands of small BLAS calls; with a thread per core,
#: each call waits at a barrier for a thread that a neighbour on the
#: shared 2-core host may have descheduled, and the spinning threads
#: bill CPU time that does no work (about a third of the offline
#: sweep's CPU at the same wall time).  Both made the timings follow the
#: host's load rather than the program.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
    import repro.api  # noqa: F401  (the front door and the layers below it)
    import repro.serve  # noqa: F401

    return repro


class ChildRun(NamedTuple):
    payload: dict | None  # the JSON object on the child's last stdout line
    timed_out: bool
    reaped: bool  # the child's process group was empty afterwards
    stderr: str = ""  # the child's standard error, when captured


def group_members(pgid: int) -> int:
    """How many live processes are in process group ``pgid``."""
    count = 0
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat, encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            count += 1
    return count


def reap_group(pgid: int, grace: float = 10.0) -> bool:
    """Kill every process in the group; True once the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return True
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if group_members(pgid) == 0:
            return True
        time.sleep(0.05)
    return False


def remove_stale_segments(pid: int) -> int:
    """Unlink shared-memory arenas a killed sharded run left behind."""
    removed = 0
    for path in glob.glob(f"/dev/shm/repro-shard*-{pid}-*"):
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass
    return removed


def run_child(
    script: Path, *args, timeout: float, capture_stderr: bool = False
) -> ChildRun:
    """Run ``script args...`` in a new session under a watchdog.

    ``payload`` is ``None`` on timeout or failure.  The child's whole
    process group is killed and awaited either way.  The child gets
    ``time.monotonic()`` at spawn as its last argument.
    """
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(script), *map(str, args), repr(spawned_at)],
        cwd=ROOT,
        env={**os.environ, **CHILD_ENV},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture_stderr else None,
        start_new_session=True,
        text=True,
    )
    timed_out = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        timed_out = True
        reap_group(proc.pid)
        out, err = proc.communicate()
    finally:
        reaped = reap_group(proc.pid)
        remove_stale_segments(proc.pid)
    lines = [line for line in (out or "").splitlines() if line.strip()]
    if timed_out or proc.returncode != 0 or not lines:
        return ChildRun(None, timed_out, reaped, err or "")
    return ChildRun(json.loads(lines[-1]), False, reaped, err or "")
