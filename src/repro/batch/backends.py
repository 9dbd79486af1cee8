"""The stacked-backend protocol and registry (the batch layer's plugboard).

:mod:`repro.core.backends` made *single-instance* state representations
pluggable: one :class:`~repro.core.backends.SamplerBackend` interface,
one registry, one shared amplification loop.  This module lifts the same
shape one level up, to **batches**: a :class:`StackedBackend` owns the
stacked representation of ``B`` sampling instances — how the uniform
initial tensor is built, how one ``D`` application acts on every
instance at once, and how per-instance fidelities, output distributions
and final states are read back out — while the batch engine
(:func:`repro.batch.engine.execute_class_batch`) keeps the Theorem
4.3/4.5 control flow, the honest bulk query ledgers and the oblivious
schedules exactly once, backend-agnostically.

Stacked backends
----------------
``"classes"`` (both models):
    ``B`` count-class compressed states as one ``(B, ν+1, 2)`` tensor
    (:class:`~repro.batch.stacked.StackedClassVector`).  ``O(B·ν)``
    memory regardless of ``N`` — the substrate that stacks
    million-element universes.
``"subspace"`` (sequential):
    ``B`` dense Eq. (5) states as one ``(B, N, 2)`` tensor
    (:mod:`repro.batch.stacked_dense`), padded with inert rows for
    mixed-``N`` batches.  Reproduces per-instance
    :class:`~repro.core.backends.SubspaceBackend` rows **bit-identically**
    and is the fast path for small/medium-``N`` homogeneous sweeps.
``"synced"`` (parallel):
    the same ``(B, N, 2)`` stacked-dense machinery driving the Lemma
    4.4 synced layout (:class:`~repro.batch.stacked_dense.StackedSyncedBackend`)
    — small-``N`` *parallel* groups stack densely too, bit-identical to
    per-instance :class:`~repro.core.backends.SyncedBackend` rows.
``"ragged"`` (both models):
    CSR-style ``(values, offsets)`` packing of heterogeneous-ν batches
    into one contiguous ``(Σνᵢ+B, 2)`` plane
    (:mod:`repro.batch.ragged`) — mixed-ν, mixed-schedule work executes
    as **one** group with fill ratio ≈ 1 instead of padding to max ν.

The state objects returned by :meth:`StackedBackend.uniform_state`
share the batched phase surface of
:class:`~repro.batch.stacked.StackedClassVector`
(``apply_phase_slice`` / ``apply_pi_projector_phase`` /
``apply_global_phase``, with scalar or per-instance ``(B,)`` phases), so
the engine's iterate loop never branches on the representation.

``"auto"`` resolution is one rule, :func:`auto_stacked_backend`, shared
by the planner (per-instance and stacked), the batch engine, the serving
dispatcher and the shard tier.  It reads only the declared ``(N, M)``
and picks the count-class substrate — ``ragged`` for stacked and served
traffic, ``classes`` for a per-instance run — for everything except
sequential requests with ``M > N``, which stack densely on ``subspace``.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import ClassVar, Protocol, Sequence, TYPE_CHECKING

import numpy as np

from ..config import CONFIG
from ..core.distributing import u_rotation_blocks
from ..errors import ValidationError
from ..qsim.classvector import ClassVector
from ..qsim.operators import adjoint_blocks
from .stacked import StackedClassVector

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ClassInstance

#: The query models of Theorems 4.3 and 4.5 (mirrors core.backends.MODELS).
MODELS = ("sequential", "parallel")

#: The backend sentinel that resolves per instance from its declared (N, M).
AUTO_STACKED_BACKEND = "auto"


class StackedState(Protocol):
    """The batched phase surface every stacked representation exposes.

    The engine drives iterates exclusively through these three methods
    (``D`` goes through the owning backend's :meth:`StackedBackend.apply_d`);
    phases are scalars or per-instance ``(B,)`` arrays.
    """

    def apply_phase_slice(
        self, reg: str, value: int, phase: complex | np.ndarray
    ) -> "StackedState":  # pragma: no cover
        ...

    def apply_pi_projector_phase(
        self,
        phase: complex | np.ndarray,
        element_reg: str = "i",
        flag_reg: str = "w",
    ) -> "StackedState":  # pragma: no cover
        ...

    def apply_global_phase(self, phase: complex | np.ndarray) -> "StackedState":  # pragma: no cover
        ...


class StackedBackend(abc.ABC):
    """One stacked simulation substrate, bound to a group of instances.

    Subclasses declare a unique :attr:`name` and the :attr:`models` they
    support, and implement tensor construction, the batched ``D`` kernel
    and per-instance result extraction.  Instances are cheap, single-run
    objects created by :func:`create_stacked_backend` — one per
    schedule-shape group.  Query accounting is *not* a backend concern:
    the engine charges every instance's honest Lemma 4.2/4.4 ledger in
    bulk, identically for every substrate.
    """

    #: Registry key (matches the per-instance backend the rows reproduce).
    name: ClassVar[str]
    #: Query models this backend can execute.
    models: ClassVar[tuple[str, ...]]
    #: Whether one group may mix schedule shapes (``grover_reps`` /
    #: ``needs_final``).  When True the engine relaxes its grouping key
    #: to the compatibility class and drives heterogeneous schedules with
    #: a masked iterate loop, calling ``apply_d(state, adjoint, active=mask)``
    #: — inactive instances must see an exact identity.  Padding-free
    #: substrates (the CSR-packed ``ragged`` backend) opt in.
    supports_mixed_schedules: ClassVar[bool] = False

    def __init__(self, instances: Sequence["ClassInstance"], model: str) -> None:
        if model not in self.models:
            raise ValidationError(
                f"stacked backend {self.name!r} does not support the {model!r} "
                f"model (supports {self.models})"
            )
        self._instances = list(instances)
        self._model = model

    @classmethod
    def group_size_limit(cls, instances: Sequence["ClassInstance"]) -> int | None:
        """Largest batch one tensor should hold, or ``None`` for unbounded.

        The engine splits bigger groups into blocks and runs each
        block's full amplification loop before the next — results are
        unaffected (instances never interact), only memory locality is.
        Dense representations override this to stay cache-resident;
        the ``O(ν)`` compression never needs to.
        """
        return None

    # -- the abstract surface ----------------------------------------------------

    @abc.abstractmethod
    def uniform_state(self) -> StackedState:
        """Every instance in ``|π⟩ ⊗ |0⟩_w`` — the state after ``F``."""

    @abc.abstractmethod
    def apply_d(self, state: StackedState, adjoint: bool = False) -> StackedState:
        """Apply ``D`` (or ``D†``) to all ``B`` instances at once."""

    @abc.abstractmethod
    def fidelities(self, state: StackedState) -> np.ndarray:
        """Per-instance ``|⟨ψ_b, 0|state_b⟩|²`` against the Eq. (4) targets."""

    @abc.abstractmethod
    def output_probabilities_all(self, state: StackedState) -> list[np.ndarray]:
        """All ``B`` element-register Born distributions (the ``O(N_b)`` endpoint)."""

    @abc.abstractmethod
    def final_state(self, state: StackedState, b: int):
        """Instance ``b``'s final state as the matching standalone object."""


# -- registry -------------------------------------------------------------------

_REGISTRY: dict[str, type[StackedBackend]] = {}


def register_stacked_backend(cls: type[StackedBackend]) -> type[StackedBackend]:
    """Class decorator adding a stacked backend to the global registry.

    Mirrors :func:`repro.core.backends.register_backend`: the batch
    engine, the planner, ``run_batched`` and the serving dispatcher all
    resolve purely by name, so a registered class is immediately
    reachable everywhere a ``backend=`` knob exists.
    """
    if not getattr(cls, "name", None):
        raise ValidationError("stacked backend classes must declare a non-empty `name`")
    for model in cls.models:
        if model not in MODELS:
            raise ValidationError(
                f"stacked backend {cls.name!r} declares unknown model {model!r}"
            )
    _REGISTRY[cls.name] = cls  # repro: allow(REP003) -- registry fills at import time; forked workers should inherit it
    return cls


def stacked_backend_names(model: str | None = None) -> tuple[str, ...]:
    """All registered stacked-backend names, optionally filtered by model."""
    if model is None:
        return tuple(sorted(_REGISTRY))
    return tuple(sorted(n for n, c in _REGISTRY.items() if model in c.models))


def resolve_stacked_backend(name: str, model: str) -> type[StackedBackend]:
    """The stacked-backend class for ``name`` under ``model``; raises with choices."""
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}; choose from {MODELS}")
    cls = _REGISTRY.get(name)
    if cls is None or model not in cls.models:
        raise ValidationError(
            f"unknown stacked backend {name!r}; choose from "
            f"{stacked_backend_names(model)}"
        )
    return cls


def create_stacked_backend(
    name: str, instances: Sequence["ClassInstance"], model: str
) -> StackedBackend:
    """Instantiate the registered stacked backend ``name`` for one group."""
    return resolve_stacked_backend(name, model)(instances, model)


# -- "auto" resolution -----------------------------------------------------------


def auto_stacked_backend(
    model: str,
    universe: int | None,
    total: int | None = None,
    max_dense_dimension: int | None = None,
    classes_universe_threshold: int | None = None,
    stacked: bool = True,
) -> str:
    """The ``"auto"`` rule — defined once, here.

    The planner (per-instance and stacked resolution), the batch engine,
    the serving dispatcher and the shard tier all call this function
    with the request's *declared* universe ``N`` and total ``M``
    (``None`` when a recipe does not declare one), so every site labels
    a request alike.

    The count-class state costs ``O(ν)`` per iterate and ``ν ≤ M``,
    while every dense layout costs ``O(N)`` or more, so the rule picks
    the class substrate — ``ragged`` for stacked and served traffic
    (``stacked=True``), ``classes`` for a per-instance run — for every
    parallel-model request, every sequential request with ``M ≤ N`` or
    an undeclared ``N``/``M``, and everything at
    ``N ≥ classes_universe_threshold`` or with ``2N`` past the dense
    cap.  Only sequential requests with ``M > N`` go dense, on
    ``subspace``: on the traced ``offline-sweep`` benchmark
    (``batch.backends.kernel_us_per_inst``) the class substrates beat
    ``subspace`` by ~7× and ``synced`` by ~20–30× at N=4096, M=256, while at
    N=1024, M=16384 (ν≈2900) ``subspace`` runs 5× faster than
    ``classes``.  Both knobs default to the live :data:`CONFIG` fields;
    ``max_dense_dimension`` is the per-run ``SamplingRequest`` /
    ``--max-dense-dim`` override, ``classes_universe_threshold`` the
    per-planner one.
    """
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}; choose from {MODELS}")
    cap = CONFIG.max_dense_dimension if max_dense_dimension is None else max_dense_dimension
    threshold = (
        CONFIG.classes_universe_threshold
        if classes_universe_threshold is None
        else classes_universe_threshold
    )
    if (
        model == "sequential"
        and universe is not None
        and total is not None
        and total > universe
        and universe < threshold
        and 2 * universe <= cap
    ):
        return "subspace"
    return "ragged" if stacked else "classes"


def resolve_stacked_name(
    name: str,
    model: str,
    universe: int,
    total: int,
    max_dense_dimension: int | None = None,
) -> str:
    """Resolve a caller-supplied backend knob to a registered name.

    ``"auto"`` applies :func:`auto_stacked_backend`; explicit names are
    validated against the registry (memory fitness for an explicit dense
    choice is enforced at tensor construction, where the honest
    :class:`~repro.errors.SimulationLimitError` lives).
    """
    if name == AUTO_STACKED_BACKEND:
        return auto_stacked_backend(model, universe, total, max_dense_dimension)
    resolve_stacked_backend(name, model)
    return name


# -- the count-class stacked backend ----------------------------------------------


@lru_cache(maxsize=256)
def cached_u_blocks(nu: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (6) rotation blocks for capacity ``nu``, identity-padded to ``width``.

    Padded classes carry the identity so a stacked application acts on
    instance cells exactly as the unpadded per-instance operator would.
    Returns ``(forward, adjoint)``; treat both as read-only.
    """
    forward = np.tile(np.eye(2, dtype=np.complex128), (width, 1, 1))
    forward[: nu + 1] = u_rotation_blocks(nu)
    adjoint = adjoint_blocks(forward)
    forward.setflags(write=False)
    adjoint.setflags(write=False)
    return forward, adjoint


@register_stacked_backend
class StackedClassBackend(StackedBackend):
    """``B`` count-class states as one ``(B, ν+1, 2)`` tensor (both models).

    The original stacked substrate: ``O(B·ν)`` memory independent of
    ``N``, every iterate a constant number of kernels.  A one-instance
    group is bit-identical to the per-instance ``classes`` run (the
    kernels are shared); in a mixed-ν group the padded reductions span
    ``max ν + 1`` cells and may differ in the last ulp, which is why
    ``auto`` stacks class traffic on ``ragged`` instead.
    """

    name = "classes"
    models = ("sequential", "parallel")

    def uniform_state(self) -> StackedClassVector:
        return StackedClassVector.uniform(
            [inst.joints for inst in self._instances],
            [inst.nu + 1 for inst in self._instances],
        )

    def _blocks(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        batch = len(self._instances)
        forward = np.empty((batch, width, 2, 2), dtype=np.complex128)
        adjoint = np.empty_like(forward)
        for b, inst in enumerate(self._instances):
            fwd, adj = cached_u_blocks(inst.nu, width)
            forward[b] = fwd
            adjoint[b] = adj
        return forward, adjoint

    def apply_d(self, state: StackedClassVector, adjoint: bool = False) -> StackedClassVector:
        if not hasattr(self, "_d_blocks"):
            self._d_blocks = self._blocks(state.width)
        forward, adj = self._d_blocks
        return state.apply_class_flag_unitary(adj if adjoint else forward)

    def fidelities(self, state: StackedClassVector) -> np.ndarray:
        return state.fidelities_with_targets([inst.total for inst in self._instances])

    def output_probabilities_all(self, state: StackedClassVector) -> list[np.ndarray]:
        return state.output_probabilities_all()

    def final_state(self, state: StackedClassVector, b: int) -> ClassVector:
        return state.extract(b)
