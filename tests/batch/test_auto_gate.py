"""In-process routing gate: ``auto`` runs within 1.5× of the fastest substrate.

Three batches, each timed on ``backend="auto"`` and on every stacked
substrate registered for its model, back to back in one process:

* 16 instances shaped like the benchmark's F1 family (zipf N=4096,
  M=256, n=2) under the sequential model,
* the same shape under the parallel model,
* 16 sequential instances with N=1024, M=16384 (ν≈2900 > N — the one
  shape ``auto`` runs dense).

Each of five rounds times ``auto`` and then every substrate once and
takes the ratio ``auto / fastest``; the gate holds the best of the five
rounds to 1.5.  Pairing the timings inside a round cancels the host's
drift; a wrong route (``auto`` on ``synced`` where ``ragged`` is 30×
faster) fails every round.  Only ratios are gated, never wall time.
"""

import time

import pytest

from repro.analysis.sweep import InstanceSpec
from repro.batch import ClassInstance, execute_class_batch, stacked_backend_names
from repro.database import WorkloadSpec
from repro.utils.rng import as_generator, spawn_seed

ROUNDS = 5
BOUND = 1.5


def instances(universe, total, count, seed):
    spec = InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=universe, total=total),
        n_machines=2,
    )
    gen = as_generator(seed)
    return [ClassInstance.from_db(spec.build(rng=spawn_seed(gen))) for _ in range(count)]


def seconds(batch, model, backend):
    began = time.perf_counter()
    execute_class_batch(batch, model=model, include_probabilities=False, backend=backend)
    return time.perf_counter() - began


def best_ratio(batch, model):
    substrates = stacked_backend_names(model)
    for backend in ("auto",) + substrates:
        seconds(batch, model, backend)  # warm plans, blocks and caches
    ratios = []
    for _ in range(ROUNDS):
        auto = seconds(batch, model, "auto")
        ratios.append(auto / min(seconds(batch, model, b) for b in substrates))
    return min(ratios)


@pytest.mark.parametrize(
    "model, universe, total, seed",
    [
        ("sequential", 4096, 256, 1),
        ("parallel", 4096, 256, 2),
        ("sequential", 1024, 16384, 3),
    ],
    ids=["F1-sequential", "F1-parallel", "dense-sequential"],
)
def test_auto_within_bound_of_fastest_substrate(model, universe, total, seed):
    batch = instances(universe, total, 16, seed)
    assert best_ratio(batch, model) <= BOUND
