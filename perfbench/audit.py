"""Correctness audit of every result the benchmark receives.

A result passes when it is ``exact`` (fidelity within
``CONFIG.fidelity_atol`` of 1), its public parameters match the request
that produced it, and its ledger equals the Lemma 4.2 / 4.4 closed forms
of :mod:`repro.core.costs` for the plan ``solve_plan(M / (nu N))`` of
that instance: ``2 n d`` sequential oracle calls, ``4 d`` parallel
rounds.  Failures are counted by kind; any failure fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KINDS = ("inexact", "ledger_mismatch", "exceptions", "unresolved")

#: Row columns that legitimately differ between two runs of one request.
VOLATILE_COLUMNS = ("wall_time_s", "trace_id", "trace_spans")


@dataclass
class Audit:
    """Failure counts by kind (:data:`KINDS`) and results checked."""

    counts: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    checked: int = 0
    _plans: dict = field(default_factory=dict)

    def fail(self, kind: str, amount: int = 1) -> None:
        self.counts[kind] += amount

    def check_row(self, row: dict, expected: tuple, nu: int | None = None) -> bool:
        """Audit one unified result row against its request.

        ``expected`` is ``(N, M, n, model)`` as requested; ``nu`` pins the
        capacity when the caller knows it (live snapshots).
        """
        from repro.core.costs import parallel_round_count, sequential_oracle_calls
        from repro.core.exact_aa import solve_plan

        self.checked += 1
        universe, total, machines, model = expected
        if not row["exact"]:
            self.fail("inexact")
            return False
        if (
            (row["N"], row["M"], row["n"], row["model"])
            != (universe, total, machines, model)
            or (nu is not None and row["nu"] != nu)
        ):
            self.fail("ledger_mismatch")
            return False
        key = (total, row["nu"], universe)
        if key not in self._plans:
            self._plans[key] = solve_plan(total / (row["nu"] * universe))
        plan = self._plans[key]
        if row["d_applications"] != plan.d_applications:
            self.fail("ledger_mismatch")
            return False
        if model == "sequential":
            ok = row["sequential_queries"] == sequential_oracle_calls(machines, plan)
        else:
            ok = row["parallel_rounds"] == parallel_round_count(plan)
        if not ok:
            self.fail("ledger_mismatch")
        return ok

    def check_results(self, results, expected: list, nus: list | None = None) -> int:
        """Audit a result list; returns how many passed."""
        passed = 0
        for i, (result, want) in enumerate(zip(results, expected)):
            passed += self.check_row(result.row(), want, None if nus is None else nus[i])
        missing = len(expected) - len(results)
        if missing > 0:
            self.fail("unresolved", missing)
        return passed

    def same_rows(self, ours: list, theirs: list) -> bool:
        """Rows equal column for column, volatile columns aside.

        A mismatch counts every differing row as a ledger mismatch: the
        traced run did not measure the same program.
        """
        bad = 0
        for a, b in zip(ours, theirs):
            strip_a = {k: v for k, v in a.items() if k not in VOLATILE_COLUMNS}
            strip_b = {k: v for k, v in b.items() if k not in VOLATILE_COLUMNS}
            bad += strip_a != strip_b
        bad += abs(len(ours) - len(theirs))
        if bad:
            self.fail("ledger_mismatch", bad)
        return bad == 0

    def summary(self) -> dict:
        return {"checked": self.checked, **{k: int(v) for k, v in self.counts.items()}}
