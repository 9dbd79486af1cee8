"""CSR-packed count-class states: heterogeneous-ν batches with fill ratio ≈ 1.

:class:`~repro.batch.stacked.StackedClassVector` stacks ``B`` instances
as one ``(B, C, 2)`` tensor with ``C = max_b (ν_b + 1)`` — every
instance narrower than the widest pays ``C − (ν_b + 1)`` inert padded
cells per flag.  Homogeneous sweeps never notice; a *mixed-ν* workload
(the serving tiers at trickle load, E24) leaves most of the tensor as
padding and fragments into per-shape groups besides.

:class:`RaggedClassVector` removes the padding with CSR-style packing:
the ``B`` per-instance ``(ν_b + 1, 2)`` cell grids are concatenated into
one contiguous ``(Σ(ν_b + 1), 2)`` values plane plus a ``(B + 1,)``
offsets array.  Every operator of the amplification loop stays a
constant number of NumPy kernels over the whole plane:

* per-class flag unitaries (``D``) — one einsum over the concatenated
  rotation blocks;
* flag-slice and global phases — per-instance phases broadcast to cells
  via ``np.repeat`` over the segment lengths;
* the ``π``-projector phase — an elementwise product over the plane
  plus one *per-segment contiguous* ``np.sum`` per instance.

Bit-identity is the gate (as for the stacked-dense backends): the
flag unitary, the ``π``-projector update and the fidelity reduction are
the very functions the per-instance
:class:`~repro.qsim.classvector.ClassVector` runs as a one-segment plane
(:func:`~repro.qsim.classvector.flag_unitary`,
:func:`~repro.qsim.classvector.pi_projector_update`,
:func:`~repro.qsim.classvector.target_fidelities`).  Their per-segment
reductions run ``np.sum`` on a contiguous slice of exactly the
instance's own length — the **same pairwise summation tree** as the
instance reducing its own ``(ν_b + 1,)`` array.  ``np.add.reduceat`` —
the classic segment-reduce kernel — sums *sequentially* and diverges
from ``np.sum`` in the last ulp for segments longer than the unrolled
block, so it is used only on the tolerance-band paths (:meth:`norms`,
which feeds the ``strict_checks`` drift window), never on amplitudes,
overlaps or fidelities.

Because no cell is padding, a ragged group may also mix *schedule
shapes*: :class:`RaggedClassBackend` declares
``supports_mixed_schedules`` and substitutes exact identity blocks for
instances that have finished their own schedule while others still
iterate (see the masked loop in :func:`repro.batch.engine._run_group`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import CONFIG
from ..errors import NotUnitaryError, ValidationError
from ..qsim.classvector import (
    ClassVector,
    flag_unitary,
    pi_projector_update,
    target_fidelities,
)
from ..utils.validation import require
from .backends import StackedBackend, cached_u_blocks, register_stacked_backend
from .stacked import _as_phase_column


def padded_fill_ratio(widths: Sequence[int]) -> float:
    """``Σ wᵢ / (B · max wᵢ)`` — the fill a padded stack of ``widths`` gets.

    The heterogeneity signal a padded stack pays for: 1.0 for
    homogeneous widths, → 0 as one wide instance forces padding onto many
    narrow ones.  Defined on class-axis widths ``ν_b + 1``.
    """
    widths = [int(w) for w in widths]
    if not widths:
        return 1.0
    return float(sum(widths)) / (len(widths) * max(widths))


def _segment_layout(offsets: np.ndarray) -> int | np.ndarray:
    """The ``segments`` argument of the shared class kernels: the common
    width when every segment has one (the row-wise fast path), else the
    offsets themselves."""
    lengths = np.diff(offsets)
    if (lengths == lengths[0]).all():
        return int(lengths[0])
    return offsets


class RaggedClassVector:
    """``B`` count-class states CSR-packed into one ``(Σ(ν_b+1), 2)`` plane.

    Parameters
    ----------
    element_classes:
        One integer class map per instance (lengths ``N_b`` may differ).
    n_classes:
        Per-instance class counts (``ν_b + 1``); segment ``b`` of the
        values plane spans rows ``offsets[b]:offsets[b+1]`` and has
        exactly that length — no padding.

    The operation surface mirrors :class:`StackedClassVector` (phases as
    scalars or per-instance ``(B,)`` arrays), so the batch engine drives
    it through the same calls.
    """

    __slots__ = ("_element_classes", "_n_classes", "_offsets", "_seg_lengths", "_segments",
                 "_class_sizes", "_values", "_inv_sqrt_n", "_expected_norms",
                 "_owns_class_structure")

    def __init__(
        self,
        element_classes: Sequence[np.ndarray],
        n_classes: Sequence[int],
        values: np.ndarray | None = None,
    ) -> None:
        maps = [np.asarray(ec, dtype=np.int64) for ec in element_classes]
        require(len(maps) > 0, "a ragged state needs at least one instance")
        require(len(maps) == len(n_classes), "one class count per instance")
        counts = [int(c) for c in n_classes]
        for b, (ec, c) in enumerate(zip(maps, counts)):
            require(ec.ndim == 1, f"instance {b}: element_classes must be 1-D")
            require(ec.size > 0, f"instance {b}: need at least one element")
            require(c >= 1, f"instance {b}: need at least one class")
        self._element_classes = maps
        self._n_classes = np.asarray(counts, dtype=np.int64)
        self._seg_lengths = self._n_classes.copy()
        self._offsets = np.zeros(len(maps) + 1, dtype=np.int64)
        np.cumsum(self._seg_lengths, out=self._offsets[1:])
        self._segments = _segment_layout(self._offsets)
        total_cells = int(self._offsets[-1])
        self._class_sizes = np.empty(total_cells, dtype=np.float64)
        for b, (ec, c) in enumerate(zip(maps, counts)):
            # Same one-pass range validation as StackedClassVector:
            # negatives make bincount raise, anything ≥ the class count
            # lengthens the result — no extra O(N) min/max scans.
            try:
                sizes = np.bincount(ec, minlength=c)
            except ValueError:
                raise ValidationError(
                    f"instance {b}: element classes must lie in [0, {c})"
                ) from None
            if sizes.size > c:
                raise ValidationError(
                    f"instance {b}: element classes must lie in [0, {c}); got "
                    f"max {ec.max()}"
                )
            self._class_sizes[self._offsets[b]:self._offsets[b + 1]] = sizes
        self._inv_sqrt_n = 1.0 / np.sqrt(
            np.array([ec.size for ec in maps], dtype=np.float64)
        )
        if values is None:
            arr = np.zeros((total_cells, 2), dtype=np.complex128)
        else:
            arr = np.array(values, dtype=np.complex128, copy=True, order="C")
            if arr.shape != (total_cells, 2):
                raise ValidationError(
                    f"values must have shape ({total_cells}, 2), got {arr.shape}"
                )
        self._values = arr
        self._owns_class_structure = True
        self._expected_norms = self.norms()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(
        cls, element_classes: Sequence[np.ndarray], n_classes: Sequence[int]
    ) -> "RaggedClassVector":
        """Every instance in ``|π⟩ ⊗ |0⟩_w`` — the state after ``F``."""
        state = cls(element_classes, n_classes)
        state._values[:, 0] = np.repeat(state._inv_sqrt_n, state._seg_lengths)
        state._expected_norms = state.norms()
        return state

    @classmethod
    def from_parts(
        cls,
        element_classes: Sequence[np.ndarray],
        offsets: np.ndarray,
        class_sizes: np.ndarray,
        values: np.ndarray,
        expected_norms: np.ndarray | None = None,
    ) -> "RaggedClassVector":
        """Assemble from precomputed CSR pieces, skipping validation.

        The trusted fast path mirroring :meth:`ClassVector.from_parts`:
        the values plane is copied (it is live state), the class
        structure (maps, offsets, multiplicities) is *shared* with the
        caller — copy-on-write via :meth:`transfer_element`.
        """
        out = cls.__new__(cls)
        out._element_classes = list(element_classes)
        out._offsets = np.asarray(offsets, dtype=np.int64)
        out._seg_lengths = np.diff(out._offsets)
        out._segments = _segment_layout(out._offsets)
        out._n_classes = out._seg_lengths.copy()
        out._class_sizes = np.asarray(class_sizes, dtype=np.float64)
        out._values = np.array(values, dtype=np.complex128, copy=True, order="C")
        out._inv_sqrt_n = 1.0 / np.sqrt(
            np.array([ec.size for ec in out._element_classes], dtype=np.float64)
        )
        out._owns_class_structure = False
        out._expected_norms = (
            out.norms() if expected_norms is None
            else np.asarray(expected_norms, dtype=np.float64).copy()
        )
        return out

    # -- basic queries ----------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """``B`` — how many instances are packed."""
        return len(self._element_classes)

    @property
    def offsets(self) -> np.ndarray:
        """The ``(B + 1,)`` CSR row offsets (treat as read-only)."""
        return self._offsets

    @property
    def n_classes(self) -> np.ndarray:
        """Per-instance class counts ``ν_b + 1`` (treat as read-only)."""
        return self._n_classes

    @property
    def class_sizes(self) -> np.ndarray:
        """Concatenated multiplicities ``N_{b,c}`` (treat as read-only)."""
        return self._class_sizes

    def values(self) -> np.ndarray:
        """The live ``(Σ(ν_b+1), 2)`` values plane (treat as read-only)."""
        return self._values

    def n_elements(self, b: int) -> int:
        """Universe size ``N_b`` of instance ``b``."""
        return int(self._element_classes[b].size)

    @property
    def fill_ratio(self) -> float:
        """Live cells over the cells a padded ``(B, C, 2)`` stack would hold."""
        return padded_fill_ratio(self._seg_lengths)

    def norms(self) -> np.ndarray:
        """Per-instance Euclidean norms ‖ψ_b‖ as a ``(B,)`` array.

        Uses ``np.add.reduceat`` — the sequential segment reduce — which
        is fine *here* because norms only feed the ``strict_checks``
        drift window (1e-8) and the ``_expected_norm`` bookkeeping, both
        tolerance-band consumers.  The bit-critical reductions (S_π
        overlaps, fidelities) use per-segment contiguous ``np.sum``
        instead, matching the per-instance pairwise tree exactly.
        """
        weighted = self._class_sizes * np.sum(np.abs(self._values) ** 2, axis=1)
        seg_sums = np.add.reduceat(weighted, self._offsets[:-1])
        return np.sqrt(seg_sums)

    # -- unitary mutations -------------------------------------------------------

    def apply_class_flag_unitary(self, mats: np.ndarray) -> "RaggedClassVector":
        """Per-cell 2×2 flag unitaries over the whole plane (the ``D`` kernel)."""
        mats = np.asarray(mats, dtype=np.complex128)
        expected = (self._values.shape[0], 2, 2)
        if mats.shape != expected:
            raise ValidationError(f"mats must have shape {expected}, got {mats.shape}")
        self._values = flag_unitary(mats, self._values)
        return self._after_unitary()

    def apply_phase_slice(
        self, reg: str, value: int, phase: complex | np.ndarray
    ) -> "RaggedClassVector":
        """``S_χ(φ)``-style phase on one flag value, per instance."""
        if reg != "w":
            raise ValidationError(
                f"RaggedClassVector supports phase slices on the flag register "
                f"'w' only, not {reg!r}"
            )
        if value not in (0, 1):
            raise ValidationError(f"flag value {value} out of range")
        if np.ndim(phase) == 0:
            if abs(abs(complex(phase)) - 1.0) > CONFIG.atol:
                raise NotUnitaryError("phases must have unit modulus")
            self._values[:, value] *= complex(phase)
        else:
            col = _as_phase_column(phase, self.batch_size)
            self._values[:, value] *= np.repeat(col[:, 0], self._seg_lengths)
        return self._after_unitary()

    def apply_pi_projector_phase(
        self,
        phase: complex | np.ndarray,
        element_reg: str = "i",
        flag_reg: str = "w",
    ) -> "RaggedClassVector":
        """``S_π(ϕ)`` on every instance: one product plane, one segment sum each.

        The kernel :meth:`ClassVector.apply_pi_projector_phase` runs
        (:func:`~repro.qsim.classvector.pi_projector_update`), over all
        segments of the plane at once.
        """
        require(element_reg == "i" and flag_reg == "w", "ragged registers are (i, w)")
        col = _as_phase_column(phase, self.batch_size)
        pi_projector_update(
            self._values, self._class_sizes, self._segments, self._inv_sqrt_n, col[:, 0]
        )
        return self._after_unitary()

    def apply_global_phase(self, phase: complex | np.ndarray) -> "RaggedClassVector":
        """Multiply every instance by a unit-modulus scalar."""
        if np.ndim(phase) == 0:
            if abs(abs(complex(phase)) - 1.0) > CONFIG.atol:
                raise NotUnitaryError("phases must have unit modulus")
            self._values *= complex(phase)
        else:
            col = _as_phase_column(phase, self.batch_size)
            self._values *= np.repeat(col[:, 0], self._seg_lengths)[:, None]
        return self._after_unitary()

    # -- dynamic updates ---------------------------------------------------------

    def transfer_element(self, b: int, element: int, new_class: int) -> "RaggedClassVector":
        """Move one element of instance ``b`` to another count class in ``O(1)``.

        :meth:`ClassVector.transfer_element` per segment: one decrement,
        one increment of the concatenated multiplicity plane plus a
        class-map write.  Class structure shared via :meth:`from_parts`
        is copied on first write.
        """
        if not 0 <= b < self.batch_size:
            raise ValidationError(f"instance {b} out of range [0, {self.batch_size})")
        ec = self._element_classes[b]
        if not 0 <= element < ec.size:
            raise ValidationError(f"element {element} out of range [0, {ec.size})")
        n = int(self._n_classes[b])
        if not 0 <= new_class < n:
            raise ValidationError(f"target class {new_class} out of range [0, {n})")
        old_class = int(ec[element])
        if old_class == new_class:
            return self
        if not self._owns_class_structure:
            self._element_classes = [m.copy() for m in self._element_classes]
            self._class_sizes = self._class_sizes.copy()
            self._owns_class_structure = True
            ec = self._element_classes[b]
        ec[element] = new_class
        base = int(self._offsets[b])
        self._class_sizes[base + old_class] -= 1.0
        self._class_sizes[base + new_class] += 1.0
        self._expected_norms = self.norms()
        return self

    # -- non-unitary analysis helpers ---------------------------------------------

    def fidelities_with_targets(self, total_counts: Sequence[int]) -> np.ndarray:
        """Per-instance ``|⟨ψ_b, 0|state_b⟩|²`` against the Eq. (4) targets.

        The reduction :func:`~repro.core.target.fidelity_with_target_classes`
        runs (:func:`~repro.qsim.classvector.target_fidelities`), over all
        segments at once.
        """
        totals = np.asarray(total_counts, dtype=np.float64)
        if totals.shape != (self.batch_size,):
            raise ValidationError(
                f"need one total count per instance, got shape {totals.shape}"
            )
        if np.any(totals <= 0):
            raise ValidationError("every instance needs a nonempty joint database")
        return target_fidelities(self._values, self._class_sizes, self._segments, totals)

    def output_probabilities(self, b: int) -> np.ndarray:
        """Born distribution of instance ``b``'s element register."""
        cells = self._values[self._offsets[b]:self._offsets[b + 1]]
        per_class = np.sum(np.abs(cells) ** 2, axis=1)
        return per_class[self._element_classes[b]]

    def output_probabilities_all(self) -> list[np.ndarray]:
        """All ``B`` element-register Born distributions.

        One ``|α|²`` reduction over the plane, then one gather per
        instance through its class map.
        """
        per_class = np.sum(np.abs(self._values) ** 2, axis=1)
        return [
            per_class[self._offsets[b]:self._offsets[b + 1]][ec]
            for b, ec in enumerate(self._element_classes)
        ]

    def extract(self, b: int) -> ClassVector:
        """Instance ``b`` as a standalone :class:`ClassVector`.

        Uses the trusted :meth:`ClassVector.from_parts` path — the class
        map and the multiplicity segment are shared (copy-on-write), so
        no ``O(N_b)`` rebuild happens per extraction.
        """
        lo, hi = int(self._offsets[b]), int(self._offsets[b + 1])
        return ClassVector.from_parts(
            self._element_classes[b],
            self._class_sizes[lo:hi],
            self._values[lo:hi],
            expected_norm=float(self._expected_norms[b]),
        )

    # -- internals --------------------------------------------------------------

    def _after_unitary(self) -> "RaggedClassVector":
        if CONFIG.strict_checks:
            norms = self.norms()
            drift = np.abs(norms - self._expected_norms)
            if np.any(drift > 1e-8):
                worst = int(np.argmax(drift))
                raise NotUnitaryError(
                    f"instance {worst}: norm drifted to {norms[worst]} (expected "
                    f"{self._expected_norms[worst]}) after a unitary operation"
                )
        return self

    def __repr__(self) -> str:
        return (
            f"RaggedClassVector(B={self.batch_size}, cells={self._values.shape[0]}, "
            f"fill={self.fill_ratio:.2f})"
        )


@register_stacked_backend
class RaggedClassBackend(StackedBackend):
    """The CSR-packed count-class substrate (both models, mixed schedules).

    Rows are bit-identical to per-instance ``classes``-backend runs —
    each segment's kernels perform the same per-cell arithmetic and the
    same reduction trees as that instance's own
    :class:`~repro.qsim.classvector.ClassVector` — while a mixed-ν,
    mixed-schedule batch executes as **one** group at fill ratio ≈ 1.
    Instances that finish their schedule early ride the rest of the
    masked loop under exact identity blocks and unit phases (see
    :func:`repro.batch.engine._run_group`).
    """

    name = "ragged"
    models = ("sequential", "parallel")
    supports_mixed_schedules = True

    def uniform_state(self) -> RaggedClassVector:
        return RaggedClassVector.uniform(
            [inst.joints for inst in self._instances],
            [inst.nu + 1 for inst in self._instances],
        )

    def _segment_offsets(self) -> np.ndarray:
        widths = np.array([inst.nu + 1 for inst in self._instances], dtype=np.int64)
        offsets = np.zeros(widths.size + 1, dtype=np.int64)
        np.cumsum(widths, out=offsets[1:])
        return offsets

    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        if not hasattr(self, "_d_blocks"):
            fwd_parts, adj_parts = [], []
            for inst in self._instances:
                fwd, adj = cached_u_blocks(inst.nu, inst.nu + 1)
                fwd_parts.append(fwd)
                adj_parts.append(adj)
            self._d_blocks = (
                np.concatenate(fwd_parts, axis=0),
                np.concatenate(adj_parts, axis=0),
            )
        return self._d_blocks

    def _masked_blocks(self, adjoint: bool, active: np.ndarray) -> np.ndarray:
        """The concatenated blocks with identity on inactive segments.

        The identity keeps finished instances' cells bit-for-bit inert
        while active segments rotate; masks repeat across the loop's
        tail, so each distinct one is built once.
        """
        if not hasattr(self, "_mask_cache"):
            self._mask_cache: dict[tuple[bool, bytes], np.ndarray] = {}
        key = (bool(adjoint), active.tobytes())
        mats = self._mask_cache.get(key)
        if mats is None:
            forward, adj = self._blocks()
            mats = (adj if adjoint else forward).copy()
            offsets = self._segment_offsets()
            for b, on in enumerate(active):
                if not on:
                    mats[offsets[b]:offsets[b + 1]] = np.eye(2, dtype=np.complex128)
            mats.setflags(write=False)
            self._mask_cache[key] = mats
        return mats

    def apply_d(
        self,
        state: RaggedClassVector,
        adjoint: bool = False,
        active: np.ndarray | None = None,
    ) -> RaggedClassVector:
        if active is not None and not np.all(active):
            return state.apply_class_flag_unitary(self._masked_blocks(adjoint, active))
        forward, adj = self._blocks()
        return state.apply_class_flag_unitary(adj if adjoint else forward)

    def fidelities(self, state: RaggedClassVector) -> np.ndarray:
        return state.fidelities_with_targets([inst.total for inst in self._instances])

    def output_probabilities_all(self, state: RaggedClassVector) -> list[np.ndarray]:
        return state.output_probabilities_all()

    def final_state(self, state: RaggedClassVector, b: int) -> ClassVector:
        return state.extract(b)
