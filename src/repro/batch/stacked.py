"""Stacked count-class states: ``B`` instances as one ``(B, C, 2)`` tensor.

The ``classes`` backend compresses one sampling instance to a
``(ν+1, 2)`` cell grid (:class:`~repro.qsim.classvector.ClassVector`).
That makes *thousands* of instances stackable: a batch of ``B`` instances
is a single ``(B, C, 2)`` complex tensor with ``C = max_b (ν_b + 1)``,
and every operator the amplification engine applies — per-class flag
unitaries, flag-slice phases, the ``π``-projector phase, global phases —
vectorizes across the batch axis as one NumPy call.  The per-iterate cost
goes from ``B`` Python round-trips over tiny arrays to a constant number
of kernel launches, which is where the batched engine's throughput comes
from (see :mod:`repro.batch.engine` and experiment E23).

Instances need not be homogeneous: each carries its own universe size
``N_b``, class map and class count ``ν_b + 1``.  Shorter instances are
padded with empty classes (multiplicity 0, amplitude on them is inert —
the batched ``D`` pads their rotation blocks with the identity), so
stacking never changes any instance's dynamics; :meth:`extract` recovers
the exact per-instance :class:`ClassVector` and the equivalence tests
assert it matches an unbatched run cell for cell.

Like :class:`ClassVector`, the per-element class maps are classical
database metadata touched only by ``O(N_b)`` endpoint operations
(:meth:`output_probabilities`), never inside the amplification loop.
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


def _as_phase_column(phase: complex | np.ndarray, batch: int) -> np.ndarray:
    """Validate a scalar or per-instance phase and shape it ``(B, 1)``."""
    arr = np.asarray(phase, dtype=np.complex128)
    if arr.ndim == 0:
        arr = np.full(batch, complex(arr), dtype=np.complex128)
    elif arr.shape != (batch,):
        raise ValidationError(
            f"per-instance phases must have shape ({batch},), got {arr.shape}"
        )
    if np.any(np.abs(np.abs(arr) - 1.0) > CONFIG.atol):
        raise NotUnitaryError("phases must have unit modulus")
    return arr[:, None]


class StackedClassVector:
    """``B`` count-class compressed states sharing one amplitude tensor.

    Parameters
    ----------
    element_classes:
        One integer class map per instance (lengths ``N_b`` may differ).
    n_classes:
        Per-instance class counts (``ν_b + 1``); the stacked width is
        ``C = max(n_classes)`` and shorter instances are padded with
        empty classes.

    The operation surface mirrors :class:`ClassVector`, with phases
    accepted either as scalars (applied to every instance) or as
    per-instance ``(B,)`` arrays — the latter is what lets one batch mix
    instances whose final partial iterates use different angles.
    """

    __slots__ = ("_element_classes", "_n_classes", "_class_sizes", "_amps",
                 "_inv_sqrt_n", "_expected_norms")

    def __init__(
        self,
        element_classes: Sequence[np.ndarray],
        n_classes: Sequence[int],
        amps: np.ndarray | None = None,
    ) -> None:
        maps = [np.asarray(ec, dtype=np.int64) for ec in element_classes]
        require(len(maps) > 0, "a stacked state needs at least one instance")
        require(len(maps) == len(n_classes), "one class count per instance")
        counts = [int(c) for c in n_classes]
        for b, (ec, c) in enumerate(zip(maps, counts)):
            require(ec.ndim == 1, f"instance {b}: element_classes must be 1-D")
            require(ec.size > 0, f"instance {b}: need at least one element")
            require(c >= 1, f"instance {b}: need at least one class")
        batch = len(maps)
        width = max(counts)
        self._element_classes = maps
        self._n_classes = np.asarray(counts, dtype=np.int64)
        self._class_sizes = np.zeros((batch, width), dtype=np.float64)
        for b, (ec, c) in enumerate(zip(maps, counts)):
            # Range validation rides on the one bincount pass: negatives make
            # bincount itself raise, and anything ≥ the instance's class count
            # lands in (and lengthens past) the padded tail — no extra O(N)
            # min/max scans per instance.
            try:
                sizes = np.bincount(ec, minlength=width)
            except ValueError:
                raise ValidationError(
                    f"instance {b}: element classes must lie in [0, {c})"
                ) from None
            if sizes.size > width or sizes[c:].any():
                raise ValidationError(
                    f"instance {b}: element classes must lie in [0, {c}); got "
                    f"max {ec.max()}"
                )
            self._class_sizes[b] = sizes
        self._inv_sqrt_n = 1.0 / np.sqrt(
            np.array([ec.size for ec in maps], dtype=np.float64)
        )
        if amps is None:
            arr = np.zeros((batch, width, 2), dtype=np.complex128)
        else:
            arr = np.array(amps, dtype=np.complex128, copy=True, order="C")
            if arr.shape != (batch, width, 2):
                raise ValidationError(
                    f"amplitudes must have shape ({batch}, {width}, 2), got {arr.shape}"
                )
        self._amps = arr
        self._expected_norms = self.norms()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(
        cls, element_classes: Sequence[np.ndarray], n_classes: Sequence[int]
    ) -> "StackedClassVector":
        """Every instance in ``|π⟩ ⊗ |0⟩_w`` — the state after ``F``."""
        state = cls(element_classes, n_classes)
        state._amps[:, :, 0] = state._inv_sqrt_n[:, None]
        state._expected_norms = state.norms()
        return state

    @classmethod
    def stack(cls, states: Sequence[ClassVector]) -> "StackedClassVector":
        """Stack existing per-instance :class:`ClassVector` states."""
        maps = [s.element_classes for s in states]
        counts = [s.n_classes for s in states]
        out = cls(maps, counts)
        for b, s in enumerate(states):
            out._amps[b, : s.n_classes] = s.class_amplitudes()
        out._expected_norms = out.norms()
        return out

    # -- basic queries ----------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """``B`` — how many instances are stacked."""
        return len(self._element_classes)

    @property
    def width(self) -> int:
        """``C = max_b (ν_b + 1)`` — the padded class-axis length."""
        return int(self._amps.shape[1])

    @property
    def n_classes(self) -> np.ndarray:
        """Per-instance class counts ``ν_b + 1`` (treat as read-only)."""
        return self._n_classes

    @property
    def class_sizes(self) -> np.ndarray:
        """Multiplicities ``N_{b,c}`` as a ``(B, C)`` float array."""
        return self._class_sizes

    def amplitudes(self) -> np.ndarray:
        """The live ``(B, C, 2)`` amplitude tensor (treat as read-only)."""
        return self._amps

    def n_elements(self, b: int) -> int:
        """Universe size ``N_b`` of instance ``b``."""
        return int(self._element_classes[b].size)

    def norms(self) -> np.ndarray:
        """Per-instance Euclidean norms ‖ψ_b‖ as a ``(B,)`` array."""
        per_class = np.sum(np.abs(self._amps) ** 2, axis=2)
        return np.sqrt(np.sum(self._class_sizes * per_class, axis=1))

    # -- unitary mutations -------------------------------------------------------

    def apply_class_flag_unitary(self, mats: np.ndarray) -> "StackedClassVector":
        """Per-instance, per-class 2×2 flag unitaries: ``α[b,c] ← mats[b,c] @ α[b,c]``.

        The batched ``D`` kernel: one einsum for all ``B`` instances.
        Padded classes must carry identity blocks so that stacking stays
        observationally equal to per-instance execution.
        """
        mats = np.asarray(mats, dtype=np.complex128)
        expected = (self.batch_size, self.width, 2, 2)
        if mats.shape != expected:
            raise ValidationError(f"mats must have shape {expected}, got {mats.shape}")
        batch, width = self.batch_size, self.width
        self._amps = flag_unitary(
            mats.reshape(batch * width, 2, 2), self._amps.reshape(batch * width, 2)
        ).reshape(batch, width, 2)
        return self._after_unitary()

    def apply_phase_slice(
        self, reg: str, value: int, phase: complex | np.ndarray
    ) -> "StackedClassVector":
        """``S_χ(φ)``-style phase on one flag value, per instance.

        Same restriction as :meth:`ClassVector.apply_phase_slice`: only
        the flag register ``"w"`` is addressable.
        """
        if reg != "w":
            raise ValidationError(
                f"StackedClassVector supports phase slices on the flag register "
                f"'w' only, not {reg!r}"
            )
        if value not in (0, 1):
            raise ValidationError(f"flag value {value} out of range")
        self._amps[:, :, value] *= _as_phase_column(phase, self.batch_size)
        return self._after_unitary()

    def apply_pi_projector_phase(
        self,
        phase: complex | np.ndarray,
        element_reg: str = "i",
        flag_reg: str = "w",
    ) -> "StackedClassVector":
        """``S_π(ϕ)`` on every instance at once, in ``O(B·C)``.

        Per instance ``⟨π, 0|ψ_b⟩ = Σ_c N_{b,c} α[b,c,0] / √N_b`` and the
        rank-one update adds ``(e^{iϕ_b}−1)·⟨π,0|ψ_b⟩/√N_b`` to every
        flag-0 amplitude of instance ``b`` — the shared
        :func:`~repro.qsim.classvector.pi_projector_update` over the
        padded plane (a padded instance therefore reduces over ``C``
        cells, not its own ``ν_b + 1``).
        """
        require(element_reg == "i" and flag_reg == "w", "stacked registers are (i, w)")
        col = _as_phase_column(phase, self.batch_size)
        cells = self._amps.reshape(-1, 2)
        pi_projector_update(
            cells, self._class_sizes.reshape(-1), self.width, self._inv_sqrt_n, col[:, 0]
        )
        self._amps = cells.reshape(self._amps.shape)
        return self._after_unitary()

    def apply_global_phase(self, phase: complex | np.ndarray) -> "StackedClassVector":
        """Multiply every instance by a unit-modulus scalar."""
        self._amps *= _as_phase_column(phase, self.batch_size)[:, :, None]
        return self._after_unitary()

    # -- non-unitary analysis helpers ---------------------------------------------

    def fidelities_with_targets(self, total_counts: Sequence[int]) -> np.ndarray:
        """Per-instance ``|⟨ψ_b, 0|state_b⟩|²`` against the Eq. (4) targets.

        The target amplitude ``√(c/M_b)`` is a function of the count
        class, so all ``B`` overlaps contract in one ``(B, C)`` product —
        the shared :func:`~repro.qsim.classvector.target_fidelities` over
        the padded plane.
        """
        totals = np.asarray(total_counts, dtype=np.float64)
        if totals.shape != (self.batch_size,):
            raise ValidationError(
                f"need one total count per instance, got shape {totals.shape}"
            )
        if np.any(totals <= 0):
            raise ValidationError("every instance needs a nonempty joint database")
        return target_fidelities(
            self._amps.reshape(-1, 2), self._class_sizes.reshape(-1), self.width, totals
        )

    def output_probabilities(self, b: int) -> np.ndarray:
        """Born distribution of instance ``b``'s element register.

        The one ``O(N_b)`` endpoint operation — a gather through the
        instance's class map, exactly as in :class:`ClassVector`.
        """
        per_class = np.sum(np.abs(self._amps[b]) ** 2, axis=1)
        return per_class[self._element_classes[b]]

    def output_probabilities_all(self) -> list[np.ndarray]:
        """All ``B`` element-register Born distributions.

        One batched ``|α|²`` reduction, then one gather per instance —
        what the batch engine uses so the per-instance cost is the
        gather alone.
        """
        per_class = np.sum(np.abs(self._amps) ** 2, axis=2)
        return [per_class[b][ec] for b, ec in enumerate(self._element_classes)]

    def extract(self, b: int) -> ClassVector:
        """Instance ``b`` as a standalone :class:`ClassVector`.

        Uses the trusted :meth:`ClassVector.from_parts` path — the class
        map and multiplicity row are shared (copy-on-write), so no
        ``O(N_b)`` rebuild happens per extraction.
        """
        n = int(self._n_classes[b])
        return ClassVector.from_parts(
            self._element_classes[b],
            self._class_sizes[b, :n],
            self._amps[b, :n],
            expected_norm=float(self._expected_norms[b]),
        )

    # -- internals --------------------------------------------------------------

    def _after_unitary(self) -> "StackedClassVector":
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
            f"StackedClassVector(B={self.batch_size}, width={self.width}, "
            f"cells={self._amps.size})"
        )
