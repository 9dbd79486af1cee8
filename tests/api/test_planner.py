"""Planner unit tests: every routing branch, auto backend selection."""

import pytest

from repro.analysis import InstanceSpec
from repro.api import (
    CLASSES_UNIVERSE_THRESHOLD,
    STACK_THRESHOLD,
    Planner,
    SamplingRequest,
)
from repro.database import WorkloadSpec
from repro.database.dynamic import UpdateStream
from repro.errors import PlanningError, ReproError


def spec_of(universe=64, total=24, n=2):
    return InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=universe, total=total),
        n_machines=n,
    )


def spec_request(universe=64, total=24, **kwargs):
    return SamplingRequest(spec=spec_of(universe=universe, total=total), **kwargs)


def dense_request(**kwargs):
    """A sequential request with M > N: the one case ``auto`` runs dense."""
    return spec_request(universe=64, total=256, **kwargs)


@pytest.fixture
def planner():
    return Planner()


class TestAutoBackend:
    """The acceptance bar: classes for N ≥ 10⁵ and for every request with
    M ≤ N or the parallel model; subspace only for sequential M > N."""

    def test_classes_at_scale(self, planner):
        assert planner.auto_backend("sequential", CLASSES_UNIVERSE_THRESHOLD) == "classes"
        assert planner.auto_backend("parallel", 10**6) == "classes"

    def test_dense_fast_path_below_threshold(self, planner):
        assert planner.auto_backend("sequential", 64, total=256) == "subspace"
        assert (
            planner.auto_backend(
                "sequential",
                CLASSES_UNIVERSE_THRESHOLD - 1,
                total=CLASSES_UNIVERSE_THRESHOLD,
            )
            == "subspace"
        )
        # ν ≤ M ≤ N: the class cells never outnumber the dense ones.
        assert planner.auto_backend("sequential", 64, total=64) == "classes"
        assert planner.auto_backend("sequential", 64) == "classes"  # M undeclared
        assert planner.auto_backend("parallel", 64, total=256) == "classes"

    def test_plan_resolves_auto_by_universe(self, planner):
        small = planner.plan(dense_request())
        large = planner.plan(spec_request(universe=10**5, total=4 * 10**5))
        sparse = planner.plan(spec_request(universe=64, total=24))
        assert small.backends() == ("subspace",)
        assert large.backends() == ("classes",)
        assert sparse.backends() == ("classes",)

    def test_explicit_backend_respected(self, planner):
        plan = planner.plan(spec_request(backend="oracles"))
        assert plan.backends() == ("oracles",)

    def test_incompatible_backend_rejected(self, planner):
        with pytest.raises(PlanningError, match="does not support"):
            planner.plan(spec_request(backend="dense"))  # parallel-only
        with pytest.raises(PlanningError, match="does not support"):
            planner.plan(spec_request(backend="nonsense"))

    def test_stream_always_classes(self, planner, small_db):
        request = SamplingRequest(stream=UpdateStream(small_db, []))
        assert planner.plan(request).backends() == ("classes",)

    def test_stream_rejects_dense_backend(self, planner, small_db):
        request = SamplingRequest(
            stream=UpdateStream(small_db, []), backend="subspace"
        )
        with pytest.raises(PlanningError, match="stream"):
            planner.plan(request)


class TestAutoStrategy:
    """The acceptance bar: stacked engine chosen for homogeneous B ≥ 64,
    with the stacked substrate picked by the declared (N, M)."""

    def test_single_request_runs_per_instance(self, planner):
        assert planner.plan(spec_request()).strategies() == ("instance",)

    def test_homogeneous_small_n_group_stacks_dense(self, planner):
        """The stacked-dense branch: a homogeneous small-N sequential
        group with M > N and B ≥ threshold routes to the (B, N, 2)
        subspace stack."""
        plan = planner.plan_many([dense_request() for _ in range(STACK_THRESHOLD)])
        assert set(plan.strategies()) == {"stacked"}
        assert set(plan.backends()) == {"subspace"}
        assert len(plan.groups) == 1 and plan.groups[0].strategy == "stacked"

    def test_homogeneous_large_n_group_stacks_classes(self, planner):
        """Stacked class traffic runs on the padding-free class plane."""
        plan = planner.plan_many(
            [spec_request(universe=10**5, total=4 * 10**5)
             for _ in range(STACK_THRESHOLD)]
        )
        assert set(plan.strategies()) == {"stacked"}
        assert set(plan.backends()) == {"ragged"}

    def test_parallel_groups_stack_on_ragged(self, planner):
        """Parallel groups ride the class plane at every N, M > N too."""
        plan = planner.plan_many(
            [dense_request(model="parallel") for _ in range(STACK_THRESHOLD)]
        )
        assert set(plan.strategies()) == {"stacked"}
        assert set(plan.backends()) == {"ragged"}

    def test_max_dense_dimension_override_forces_classes(self, planner):
        """The per-request cap: 2N over the override → the dense stack
        (and the dense per-instance fast path) are off the table."""
        capped = [
            dense_request(max_dense_dimension=64)
            for _ in range(STACK_THRESHOLD)
        ]
        plan = planner.plan_many(capped)
        assert set(plan.strategies()) == {"stacked"}
        assert set(plan.backends()) == {"ragged"}
        single = planner.plan(dense_request(max_dense_dimension=64))
        assert single.backends() == ("classes",)
        assert planner.plan(dense_request()).backends() == ("subspace",)

    def test_mixed_universes_split_stacked_groups_by_backend(self, planner):
        small = [dense_request(batchable=True) for _ in range(2)]
        large = [spec_request(universe=10**5, batchable=True) for _ in range(2)]
        plan = planner.plan_many(small + large)
        assert plan.backends() == ("subspace", "subspace", "ragged", "ragged")
        assert len(plan.groups) == 2

    def test_below_threshold_runs_per_instance(self, planner):
        plan = planner.plan_many([spec_request() for _ in range(STACK_THRESHOLD - 1)])
        assert set(plan.strategies()) == {"instance"}

    def test_batchable_hint_stacks_any_size(self, planner):
        plan = planner.plan_many([spec_request(batchable=True)] * 2)
        assert set(plan.strategies()) == {"stacked"}

    def test_batchable_hint_is_per_request(self, planner):
        """A sibling's hint must not reroute hint-less requests."""
        plan = planner.plan_many([spec_request(), spec_request(batchable=True)])
        assert plan.strategies() == ("instance", "stacked")
        assert plan.backends() == ("classes", "ragged")

    def test_batchable_false_pins_to_instance(self, planner):
        plan = planner.plan_many(
            [spec_request(batchable=False) for _ in range(STACK_THRESHOLD)]
        )
        assert set(plan.strategies()) == {"instance"}

    def test_explicit_subspace_backend_stacks(self, planner):
        """subspace is a stacked substrate now — an explicit choice keeps
        the dense representation and still batches."""
        plan = planner.plan_many(
            [spec_request(backend="subspace") for _ in range(STACK_THRESHOLD)]
        )
        assert set(plan.strategies()) == {"stacked"}
        assert set(plan.backends()) == {"subspace"}

    def test_unstackable_backend_never_stacks(self, planner):
        plan = planner.plan_many(
            [spec_request(backend="oracles") for _ in range(STACK_THRESHOLD)]
        )
        assert set(plan.strategies()) == {"instance"}

    def test_explicit_synced_backend_stacks(self, planner):
        """synced is a stacked substrate now — an explicit choice keeps
        the (B, N, 2) parallel layout and still batches."""
        synced = planner.plan_many(
            [spec_request(model="parallel", backend="synced")
             for _ in range(STACK_THRESHOLD)]
        )
        assert set(synced.strategies()) == {"stacked"}
        assert set(synced.backends()) == {"synced"}

    def test_heterogeneous_models_bucket_separately(self, planner):
        requests = [spec_request() for _ in range(STACK_THRESHOLD)] + [
            spec_request(model="parallel") for _ in range(STACK_THRESHOLD)
        ]
        plan = planner.plan_many(requests)
        assert set(plan.strategies()) == {"stacked"}
        assert len(plan.groups) == 2
        assert {g.indices[0] for g in plan.groups} == {0, STACK_THRESHOLD}

    def test_mixed_small_buckets_fall_back_to_instance(self, planner):
        requests = [spec_request()] * 32 + [spec_request(model="parallel")] * 32
        plan = planner.plan_many(requests)
        assert set(plan.strategies()) == {"instance"}

    def test_capacity_policy_splits_buckets(self, planner):
        requests = [spec_request()] * 32 + [spec_request(capacity="skip_empty")] * 32
        plan = planner.plan_many(requests)
        # Two half-size buckets, neither reaches the stack threshold.
        assert set(plan.strategies()) == {"instance"}

    def test_jobs_route_spec_loads_to_fanout(self, planner):
        plan = planner.plan_many([spec_request()] * 4, jobs=2)
        assert set(plan.strategies()) == {"fanout"}
        assert plan.jobs == 2

    def test_jobs_leave_database_requests_local(self, planner, small_db):
        plan = planner.plan_many(
            [SamplingRequest(database=small_db)] * 4, jobs=2
        )
        assert set(plan.strategies()) == {"instance"}

    def test_custom_thresholds(self):
        planner = Planner(stack_threshold=2, classes_universe_threshold=32)
        plan = planner.plan_many([spec_request()] * 2)
        assert set(plan.strategies()) == {"stacked"}
        assert planner.auto_backend("sequential", 32, total=256) == "classes"
        assert planner.auto_backend("sequential", 31, total=256) == "subspace"

    def test_thresholds_come_from_config(self):
        """One definition: the planner's defaults are the config fields."""
        from repro.config import CONFIG

        assert Planner().stack_threshold == CONFIG.stack_threshold
        assert Planner().classes_universe_threshold == (
            CONFIG.classes_universe_threshold
        )
        assert STACK_THRESHOLD == CONFIG.stack_threshold
        assert CLASSES_UNIVERSE_THRESHOLD == CONFIG.classes_universe_threshold

    def test_config_override_reaches_new_planners(self):
        from repro.config import CONFIG

        before = CONFIG.stack_threshold
        CONFIG.stack_threshold = 2
        try:
            plan = Planner().plan_many([spec_request()] * 2)
            assert set(plan.strategies()) == {"stacked"}
        finally:
            CONFIG.stack_threshold = before


class TestForcedStrategy:
    def test_forced_stacked(self, planner):
        plan = planner.plan(dense_request(), strategy="stacked")
        assert plan.strategies() == ("stacked",)
        # auto resolution still applies: small-N sequential M > N → dense stack.
        assert plan.backends() == ("subspace",)
        large = planner.plan(spec_request(universe=10**5), strategy="stacked")
        assert large.backends() == ("ragged",)

    def test_forced_fanout_and_served(self, planner):
        fanout = planner.plan(spec_request(), strategy="fanout", jobs=2)
        assert fanout.strategies() == ("fanout",)
        assert planner.plan(spec_request(), strategy="served").strategies() == ("served",)

    def test_forced_fanout_needs_jobs(self, planner):
        """A serial 'fan-out' would strip ledgers for nothing: rejected."""
        with pytest.raises(PlanningError, match="jobs"):
            planner.plan(spec_request(), strategy="fanout")
        with pytest.raises(PlanningError, match="jobs"):
            planner.plan(spec_request(), strategy="fanout", jobs=1)

    def test_forced_stacked_rejects_unstackable_backend(self, planner):
        with pytest.raises(PlanningError, match="not stackable"):
            planner.plan(spec_request(backend="oracles"), strategy="stacked")
        with pytest.raises(PlanningError, match="not stackable"):
            # subspace has no parallel stack registered.
            planner.plan(
                spec_request(model="parallel", backend="subspace"),
                strategy="stacked",
            )

    def test_batchable_hint_conflicts_with_unstackable_backend(self, planner):
        with pytest.raises(PlanningError, match="not batchable"):
            planner.plan(spec_request(backend="oracles", batchable=True))

    def test_explicit_subspace_backend_is_batchable(self, planner):
        request = spec_request(backend="subspace", batchable=True)
        plan = planner.plan(request)
        assert plan.strategies() == ("stacked",)
        assert plan.backends() == ("subspace",)

    def test_explicit_classes_backend_is_batchable_everywhere(self, planner):
        """backend='classes' IS the batch substrate — no conflict, on any
        strategy."""
        request = spec_request(backend="classes", batchable=True)
        assert planner.plan(request, strategy="instance").strategies() == ("instance",)
        assert planner.plan(request).strategies() == ("stacked",)

    def test_forced_fanout_rejects_database_source(self, planner, small_db):
        with pytest.raises(PlanningError, match="spec-built"):
            planner.plan(SamplingRequest(database=small_db), strategy="fanout", jobs=2)

    def test_forced_served_rejects_database_source(self, planner, small_db):
        with pytest.raises(PlanningError, match="serving"):
            planner.plan(SamplingRequest(database=small_db), strategy="served")

    def test_unknown_strategy(self, planner):
        with pytest.raises(PlanningError, match="strategy"):
            planner.plan(spec_request(), strategy="teleport")

    def test_planning_errors_are_repro_errors(self, planner):
        with pytest.raises(ReproError):
            planner.plan(spec_request(), strategy="teleport")


class TestPlanShape:
    def test_groups_partition_indices_in_order(self, planner):
        requests = (
            [spec_request(batchable=True)] * 2
            + [spec_request(backend="oracles")]
            + [spec_request(batchable=True)] * 2
        )
        plan = planner.plan_many(requests)
        covered = sorted(i for g in plan.groups for i in g.indices)
        assert covered == list(range(len(requests)))
        stacked = next(g for g in plan.groups if g.strategy == "stacked")
        assert stacked.indices == (0, 1, 3, 4)
        instance = next(g for g in plan.groups if g.strategy == "instance")
        assert instance.indices == (2,)

    def test_bad_batch_size_rejected(self, planner):
        with pytest.raises(PlanningError, match="batch_size"):
            planner.plan_many([spec_request()], batch_size=0)
