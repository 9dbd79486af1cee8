"""Batched execution: pluggable stacked backends + throughput driver.

The scaling layer above :mod:`repro.core`: many sampling instances run
as one tensor, on an interchangeable stacked representation.

:mod:`repro.batch.backends`
    :class:`StackedBackend` — the stacked-backend protocol and registry
    (the batch-level mirror of :mod:`repro.core.backends`), with
    the one ``"auto"`` rule (:func:`auto_stacked_backend`).
:mod:`repro.batch.stacked`
    :class:`StackedClassVector` — ``B`` count-class states as a single
    ``(B, C, 2)`` amplitude tensor with per-instance class maps (the
    ``"classes"`` substrate, any scale).
:mod:`repro.batch.stacked_dense`
    :class:`StackedSubspaceVector` — ``B`` dense Eq. (5) states as one
    ``(B, N, 2)`` tensor (the ``"subspace"`` substrate, bit-identical to
    per-instance subspace rows for small/medium ``N``), and
    :class:`StackedSyncedVector` — the same planes carrying the parallel
    Lemma 4.4 fast path (the ``"synced"`` substrate).
:mod:`repro.batch.ragged`
    :class:`RaggedClassVector` — ``B`` heterogeneous-ν count-class
    states CSR-packed into one ``(Σ(νᵢ+1), 2)`` value plane (the
    ``"ragged"`` substrate: mixed-shape groups at fill ratio ≈ 1, with
    per-instance masked schedules instead of padding).
:mod:`repro.batch.engine`
    :func:`execute_sampling_batch` — the Theorem 4.3/4.5 amplification
    loop over a whole batch at once, grouped by backend and schedule
    shape, with honest per-instance query ledgers.
:mod:`repro.batch.driver`
    :func:`run_batched` — spec-in/rows-out throughput driver with
    deterministic seeding, batch packing and optional process fan-out.
"""

from .backends import (
    AUTO_STACKED_BACKEND,
    StackedBackend,
    auto_stacked_backend,
    create_stacked_backend,
    register_stacked_backend,
    resolve_stacked_backend,
    stacked_backend_names,
)
from .driver import (
    DEFAULT_BATCH_SIZE,
    audit_row,
    default_row,
    iter_seeded_batches,
    pack_batches,
    run_batched,
)
from .engine import ClassInstance, cached_plan, execute_class_batch, execute_sampling_batch
from .ragged import RaggedClassVector, padded_fill_ratio
from .stacked import StackedClassVector
from .stacked_dense import StackedSubspaceVector, StackedSyncedVector

__all__ = [
    "AUTO_STACKED_BACKEND",
    "ClassInstance",
    "DEFAULT_BATCH_SIZE",
    "RaggedClassVector",
    "StackedBackend",
    "StackedClassVector",
    "StackedSubspaceVector",
    "StackedSyncedVector",
    "audit_row",
    "auto_stacked_backend",
    "cached_plan",
    "create_stacked_backend",
    "default_row",
    "execute_class_batch",
    "execute_sampling_batch",
    "iter_seeded_batches",
    "pack_batches",
    "padded_fill_ratio",
    "register_stacked_backend",
    "resolve_stacked_backend",
    "run_batched",
    "stacked_backend_names",
]
