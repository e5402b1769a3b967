"""Finite-dimensional state-space core.

State vectors are truncated amplitude sequences over a labelled orthonormal
basis (number basis, spin-j basis, or a discrete-series basis).  This module
provides the Hermitian inner product, orthogonal projection, and the report
of the projected Hermitian form

    (a, b) -> <a|b> - <a|psi><psi|b>,

whose real part is the metric and whose imaginary part is the symplectic form
induced on any family of rays (``pullback`` evaluates it).

Everything here is a pure function of immutable inputs; ``StateVector``
instances are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, DomainError, NormalizationError


@dataclass(frozen=True)
class BasisTag:
    """Label identifying the orthonormal basis an amplitude vector refers to.

    ``kind`` is one of ``"fock"``, ``"spin"``, ``"disc"``.  ``param`` carries
    the representation label (j for spin, k for the discrete series); it is
    unused for the number basis.
    """

    kind: str
    param: float = 0.0


def fock_tag() -> BasisTag:
    return BasisTag("fock")


def spin_tag(j: float) -> BasisTag:
    return BasisTag("spin", float(j))


def disc_tag(k: float) -> BasisTag:
    return BasisTag("disc", float(k))


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a labelled basis.

    ``tol`` is the truncation budget declared at construction: a state is
    accepted as normalized when ``| <psi|psi> - 1 | < tol``.  Amplitudes are
    made read-only so instances can be shared freely.
    """

    amps: np.ndarray
    basis: BasisTag
    tol: float = 1e-12

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise DomainError("amplitudes must form a nonempty 1-d sequence")
        if not self.tol > 0:
            raise DomainError("truncation tolerance must be positive")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    @property
    def norm(self) -> float:
        # the sum np.linalg.norm takes for a complex vector, without its
        # dispatch
        re, im = self.amps.real, self.amps.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def is_normalized(self) -> bool:
        return abs(self.norm**2 - 1.0) < self.tol

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return StateVector(self.amps / n, self.basis, self.tol)


def _require_same_basis(u: StateVector, v: StateVector):
    if u.dim != v.dim or u.basis != v.basis:
        raise BasisMismatch(
            f"incompatible states: dim {u.dim} {u.basis} vs dim {v.dim} {v.basis}"
        )


def _require_normalized(psi: StateVector, who: str):
    if not psi.is_normalized():
        raise NormalizationError(
            f"{who}: |norm^2 - 1| = {abs(psi.norm**2 - 1.0):.3e} exceeds "
            f"declared budget {psi.tol:.1e}"
        )


def inner(u: StateVector, v: StateVector) -> complex:
    """Hermitian inner product <u|v>, conjugate-linear in the first slot."""
    _require_same_basis(u, v)
    return complex(np.vdot(u.amps, v.amps))


def project_orthogonal(psi: StateVector, b: StateVector) -> StateVector:
    """Apply the projector 1 - |psi><psi| to b.  psi must be normalized."""
    _require_same_basis(psi, b)
    _require_normalized(psi, "project_orthogonal")
    amps = b.amps - inner(psi, b) * psi.amps
    return StateVector(amps, b.basis, b.tol)


@dataclass(frozen=True)
class PullbackReport:
    """Value of the projected Hermitian form, whose real part is the metric
    and whose imaginary part the symplectic form, with an optional
    closed-form reference.

    ``reference`` is None when no closed-form value is claimed at the base
    point; ``abs_deviation`` is then None as well.
    """

    value: complex
    reference: complex | None
    abs_deviation: float | None

    @classmethod
    def from_value(cls, value: complex, reference: complex | None = None) -> "PullbackReport":
        value = complex(value)
        dev = None if reference is None else abs(value - complex(reference))
        return cls(value, reference, dev)
