"""The one ``auto`` rule, seen from the front door.

Every site that resolves ``"auto"`` — the planner's per-instance and
stacked paths, the in-process dispatcher and the shard tier — reads the
request's declared ``(N, M)`` through
:func:`repro.batch.backends.auto_stacked_backend`, so their labels
agree, and no request the class substrate can run is sent past the
dense cap.
"""

import pytest

import repro
from repro.analysis import InstanceSpec
from repro.api import Planner, SamplingRequest
from repro.database import WorkloadSpec


def spec_of(universe, total, n=2, workload="zipf"):
    return InstanceSpec(
        workload=WorkloadSpec.of(workload, universe=universe, total=total),
        n_machines=n,
    )


class TestPastTheDenseCap:
    """Parallel requests whose synced layout N·(ν+1) exceeds the cap
    (2N does not): ``auto`` must run them on the class substrate."""

    SPEC = spec_of(16384, 4096, n=4)

    def requests(self, count):
        return [SamplingRequest(spec=self.SPEC, model="parallel")] * count

    @pytest.mark.parametrize(
        "strategy, count, backend",
        [("instance", 2, "classes"), ("stacked", 2, "ragged"), ("served", 2, "ragged")],
    )
    def test_each_strategy_runs_on_the_class_substrate(self, strategy, count, backend):
        results = repro.sample_many(self.requests(count), strategy=strategy, rng=1)
        assert [r.backend for r in results] == [backend] * count
        assert all(results.column("exact"))

    def test_default_routing_stacks_the_group(self):
        results = repro.sample_many(self.requests(64), rng=1)
        assert set(results.strategies()) == {"stacked"}
        assert {r.backend for r in results} == {"ragged"}
        assert all(results.column("exact"))


class TestLabelsAgree:
    REQUESTS = [
        SamplingRequest(spec=spec_of(64, 24), include_probabilities=False),
        SamplingRequest(spec=spec_of(64, 256), include_probabilities=False),
        SamplingRequest(
            spec=InstanceSpec(
                workload=WorkloadSpec.of("sparse", universe=64, support_size=8),
                n_machines=2,
            ),
            include_probabilities=False,
        ),
    ]
    EXPECTED = ["ragged", "subspace", "ragged"]  # M ≤ N, M > N, M undeclared

    def test_planner_labels(self):
        plan = Planner().plan_many(self.REQUESTS, strategy="stacked")
        assert list(plan.backends()) == self.EXPECTED

    def test_served_labels_match_the_planner(self):
        served = repro.serve(self.REQUESTS, rng=3, batch_size=4, flush_deadline=0.01)
        assert [r.backend for r in served] == self.EXPECTED
        assert all(served.column("exact"))

    def test_sharded_labels_match_the_planner(self):
        served = repro.serve(
            self.REQUESTS, rng=3, shards=2, batch_size=4, flush_deadline=0.01
        )
        assert [r.backend for r in served] == self.EXPECTED
        assert all(served.column("exact"))
