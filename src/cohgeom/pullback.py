"""Pullback of the projective-space Hermitian form along state families.

For a family alpha -> |psi(alpha)> the pushforward of a tangent direction u
at a base point is d/ds |psi(alpha + s u)>.  After projecting orthogonally to
the ray, the Hermitian form

    H(u, w) = <T_u| (1 - |psi><psi|) |T_w>

has the induced metric as its real part and the induced symplectic form as
its imaginary part.  Tangents are R-linear in u, so H is fixed at each base
point by the 2x2 matrix H(e_a, e_b) over the directions e = (1, i);
``pullback_matrix`` computes it once per (family, base) and caches it, and
``pullback_form`` and ``kahler_verdict`` contract it.  For the squeezed
oscillator and spin families the state D(base)|0;v> and both tangents come
from one eigendecomposition of the displacement generator (the Daleckii-Krein
Frechet derivative, see ``states``); the fiducial state is the closed-form
squeezed vacuum or the spin kernel state of ``states``.

Slot convention (fixed once, used everywhere): the FIRST tangent argument u
sits in the conjugated slot.  Closed forms below are written in that
convention; where the source material orders the slots the other way the
value is the complex conjugate, and ``closed_form(..., variant="printed")``
exposes that reading so the discrepancy is observable rather than silent.

Closed forms at squeeze parameter v (u = u1 + i u2, w = w1 + i w2):

* oscillator, v = 0, any base:     conj(u) w
* oscillator, v != 0, base 0:      (u1 w1 e^{2v} + u2 w2 e^{-2v})
                                     + i (u1 w2 - u2 w1)
* spin-j, base 0:                  prefactor * [same bracket as above],
                                   prefactor = -<0;v| Lz |0;v>
* discrete series k, |base| < 1:   2k conj(u) w / (1 - |base|^2)^2

The spin bracket shares the oscillator's exponent orientation: both families
are derived from the same Bogoliubov identity, and the finite-difference
oracle (``numeric_tangent``) confirms it.  The "printed" spin variant with
e^{-2v} on the (1,1) component corresponds to relabelling v -> -v and is kept
only for reporting.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
# not called: the benchmark's span recorder resolves pullback.expm_frechet
# for its layer metrics, which read 0 now that tangents come from _exp_skew
from scipy.linalg import expm_frechet  # noqa: F401

from .errors import DomainError, StepError, UnsupportedBasePoint
from .statespace import (
    PullbackReport,
    StateVector,
    project_orthogonal,
)
from .states import (
    STATE_TOL,
    _exp_skew,
    _su2_generator,
    _wh_generator,
    spin_matrices,
    su2_state,
    su11_coherent,
    truncation_dim,
    wh_coherent,
    wh_squeezed,
)

FAMILIES = ("wh", "su2", "su11")

DEFAULT_PAIRS = ((1 + 0j, 1 + 0j), (1 + 0j, 1j), (1j, 1j))


@dataclass(frozen=True)
class StateFamily:
    """A coherent/squeezed embedding family.

    family: "wh" (oscillator), "su2" (spin), "su11" (discrete series).
    v: squeeze parameter (lambda = e^v); must be 0 for su11.
    param: j for su2, k for su11; unused for wh.
    trunc: number-basis truncation; 0 selects it from the tail budget eps.
    """

    family: str
    v: float = 0.0
    param: float = 0.0
    trunc: int = 0
    eps: float = 1e-12

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if not np.all(np.isfinite((self.v, self.param, self.eps))):
            raise DomainError(f"non-finite family parameter in {self}")
        if not self.eps > 0:
            raise DomainError(f"tail budget eps must be positive, got {self.eps}")
        if self.family == "su11" and self.param <= 0.5:
            raise DomainError("su11 family needs k > 1/2")
        if self.family == "su11" and self.v != 0.0:
            raise DomainError(f"the su11 family has no squeezing, got v = {self.v}")

    @property
    def squeezed(self) -> bool:
        """Spin and squeezed oscillator families, whose closed forms are
        claimed at the origin only."""
        return self.family == "su2" or self.v != 0.0

    def dim(self, base: complex) -> int:
        if self.family == "su2":
            return int(round(2 * self.param)) + 1
        if self.trunc > 0:
            return self.trunc
        # tangent series weigh amplitudes by the level index, so the basis
        # is sized three decades below the declared state budget
        tight = 1e-3 * self.eps
        if self.family == "su11":
            n = truncation_dim(base, "discrete_series", self.param, tight)
        elif self.v == 0.0:
            n = truncation_dim(base, "fock", eps=tight)
        else:
            # the squeezed vacuum declares STATE_TOL whatever eps is
            n = truncation_dim(base, "squeezed_fock", self.v,
                               min(tight, 1e-3 * STATE_TOL))
        # headroom for the one-level shift of the derivative itself
        return max(n + 2, 8)


@dataclass(frozen=True)
class TangentSpec:
    """Base point and complex tangent direction d(alpha)/ds."""

    base: complex
    direction: complex


def _base_point(base) -> complex:
    base = complex(base)
    if not cmath.isfinite(base):
        raise DomainError(f"base point {base} is not finite")
    return base


def family_state(fam: StateFamily, base: complex) -> StateVector:
    """The family member at the given base point."""
    base = _base_point(base)
    N = fam.dim(base)
    if fam.family == "wh":
        if fam.v == 0.0:
            return wh_coherent(base, N, fam.eps)
        return wh_squeezed(base, fam.v, N)
    if fam.family == "su2":
        return su2_state(base, fam.v, fam.param)
    return su11_coherent(base, fam.param, N, fam.eps)


def _frame(fam: StateFamily, base: complex,
           directions) -> tuple[StateVector, list[StateVector]]:
    """The state at ``base`` and its un-projected tangents along ``directions``.

    Oscillator coherent and disc families differentiate the amplitude series
    term by term: d/dalpha of level n is a raising-operator matrix element
    times level n - 1, and the norm derivative along the state is removed
    later by projection.  Squeezed oscillator and spin families differentiate
    D(base)|0;v> = e^X |0;v>; the state and every tangent L(X, Xdot_u)|0;v>
    come from one eigendecomposition of X.
    """
    N = fam.dim(base)
    if (fam.family == "wh" and fam.v == 0.0) or fam.family == "su11":
        if fam.family == "wh":
            psi = wh_coherent(base, N, fam.eps)
            raise_elems, rate = np.sqrt(np.arange(1, N)), np.conj(base)
        else:
            k = fam.param
            psi = su11_coherent(base, k, N, fam.eps)
            n = np.arange(1, N)
            raise_elems = np.sqrt(n * (n - 1 + 2 * k))
            rate = 2 * k * np.conj(base) / (1 - abs(base) ** 2)
        deriv = np.zeros(N, dtype=complex)
        deriv[1:] = raise_elems * psi.amps[:-1]
        return psi, [StateVector(u * deriv - np.real(rate * u) * psi.amps,
                                 psi.basis, psi.tol) for u in directions]
    if fam.family == "wh":
        vac = wh_squeezed(0j, fam.v, N)
        X = _wh_generator(base, N, vac.tol)
        Xdots = [_wh_generator(u, N) for u in directions]
    else:
        vac = su2_state(0j, fam.v, fam.param)
        X = _su2_generator(base, fam.param)
        Xdots = [_su2_generator(u, fam.param) for u in directions]
    amps, tangents = _exp_skew(X, vac.amps, *Xdots)
    return (StateVector(amps, vac.basis, vac.tol),
            [StateVector(t, vac.basis, vac.tol) for t in tangents])


def analytic_tangent(fam: StateFamily, t: TangentSpec) -> StateVector:
    """Pushforward of the tangent ``t.direction`` at ``t.base``, un-projected.

    Oscillator coherent and disc families differentiate the amplitude series
    term by term; squeezed oscillator and spin families take the Frechet
    derivative of the displacement acting on the fiducial state.
    """
    return _frame(fam, _base_point(t.base), (complex(t.direction),))[1][0]


def numeric_tangent(fam: StateFamily, t: TangentSpec, h: float) -> StateVector:
    """Central-difference tangent (psi(base + h u) - psi(base - h u)) / 2h.

    Independent of ``analytic_tangent``; agrees with it to O(h^2) after both
    are projected orthogonally to the state.  The step must lie in
    [1e-6, 1e-3].
    """
    if not (1e-6 <= h <= 1e-3):
        raise StepError(f"step {h:.2e} outside [1e-6, 1e-3]")
    base, u = _base_point(t.base), complex(t.direction)
    fam_fixed = replace(fam, trunc=fam.dim(base))
    plus = family_state(fam_fixed, base + h * u)
    minus = family_state(fam_fixed, base - h * u)
    amps = (plus.amps - minus.amps) / (2.0 * h)
    return StateVector(amps, plus.basis, plus.tol)


def squeeze_prefactor(fam: StateFamily) -> float:
    """Overall constant of the family's closed form.

    1 for the oscillator and disc families; -<0;v| Lz |0;v> for spin (equal
    to j at v = 0).
    """
    if fam.family != "su2":
        return 1.0
    vac = su2_state(0j, fam.v, fam.param)
    lz = spin_matrices(fam.param).lz
    return float(-np.real(np.vdot(vac.amps, lz @ vac.amps)))


def _squeeze_bracket(v: float, u: complex, w: complex, variant: str) -> complex:
    u1, u2, w1, w2 = u.real, u.imag, w.real, w.imag
    if variant == "consistent":
        return ((u1 * w1 * np.exp(2 * v) + u2 * w2 * np.exp(-2 * v))
                + 1j * (u1 * w2 - u2 * w1))
    if variant == "printed_wh":
        # slot reading (u = prime, w = dot) of the printed oscillator formula
        return ((u1 * w1 * np.exp(2 * v) + u2 * w2 * np.exp(-2 * v))
                + 1j * (w1 * u2 - w2 * u1))
    if variant == "printed_su2":
        # printed spin bracket: exponents mirrored, imaginary part as above
        return ((u1 * w1 * np.exp(-2 * v) + u2 * w2 * np.exp(2 * v))
                + 1j * (u2 * w1 - u1 * w2))
    raise ValueError(f"unknown variant {variant!r}")


def closed_form(fam: StateFamily, base: complex, u: complex, w: complex,
                variant: str = "consistent") -> complex:
    """Closed-form reference for the pullback at ``base``.

    ``variant="consistent"`` (default) is the oracle-validated form in this
    module's slot convention.  ``variant="printed"`` evaluates the bracket
    exactly as printed in the source derivations under the identification
    (u = prime slot, w = dot slot); for the squeezed families it differs by a
    conjugation (oscillator) or a v sign flip plus conjugation (spin), and is
    provided so reports can quantify the difference.

    Squeezed families (oscillator v != 0, and spin) are referenced at the
    origin only; elsewhere UnsupportedBasePoint is raised and callers report
    the computed value with no claim.
    """
    base, u, w = complex(base), complex(u), complex(w)
    if fam.family == "wh":
        if fam.v == 0.0:
            return np.conj(u) * w
        if base != 0:
            raise UnsupportedBasePoint("squeezed reference available at 0 only")
        key = "consistent" if variant == "consistent" else "printed_wh"
        return _squeeze_bracket(fam.v, u, w, key)
    if fam.family == "su2":
        if base != 0:
            raise UnsupportedBasePoint("spin reference available at 0 only")
        key = "consistent" if variant == "consistent" else "printed_su2"
        return squeeze_prefactor(fam) * _squeeze_bracket(fam.v, u, w, key)
    # discrete series
    if abs(base) >= 1.0:
        raise DomainError("disc base point must satisfy |alpha| < 1")
    k = fam.param
    return 2.0 * k * np.conj(u) * w / (1.0 - abs(base) ** 2) ** 2


def pullback_matrix(fam: StateFamily, base: complex) -> np.ndarray:
    """The 2x2 matrix G_ab = H(e_a, e_b) at ``base`` for the directions (1, i).

    G is the Gram matrix of the two tangents after projecting them
    orthogonally to the normalized state, which removes the norm and phase
    derivative terms.  Tangents are R-linear in the direction, so
    H(u, w) = [u1, u2] G [w1, w2]^T for u = u1 + i u2 and w = w1 + i w2.
    Cached per (fam, base); the returned array is read-only.
    """
    return _pullback_matrix(fam, _base_point(base))


@lru_cache(maxsize=1024)
def _pullback_matrix(fam: StateFamily, base: complex) -> np.ndarray:
    psi, tangents = _frame(fam, base, (1, 1j))
    psi = psi.normalized()
    P = np.array([project_orthogonal(psi, t).amps for t in tangents])
    G = P.conj() @ P.T
    G.setflags(write=False)
    return G


def _contract(G: np.ndarray, u: complex, w: complex) -> complex:
    return complex(np.array([u.real, u.imag]) @ G @ np.array([w.real, w.imag]))


def pullback_form(fam: StateFamily, base: complex, u: complex,
                  w: complex) -> PullbackReport:
    """Evaluate H(u, w) at ``base`` and compare with the closed form.

    The value contracts ``pullback_matrix`` with the real components of u
    and w, so every pair at one base point shares one set of tangents.
    """
    G = pullback_matrix(fam, base)
    try:
        ref = closed_form(fam, base, u, w)
    except UnsupportedBasePoint:
        ref = None
    return PullbackReport.from_value(_contract(G, u, w), ref)


@dataclass(frozen=True)
class KahlerVerdict:
    """Outcome of the embedding-type check on a sample grid."""

    is_kahler: bool
    is_symplectic: bool
    max_dev: float


def kahler_verdict(fam: StateFamily, bases=None,
                   tol: float = 1e-8) -> KahlerVerdict:
    """Decide whether the family embeds symplectically and/or Kahler-ly.

    ``is_symplectic``: the imaginary part matches the v = 0 symplectic
    reference on every sample (after dividing out the family's overall
    constant, which for spin depends on v).  ``is_kahler``: the full complex
    value matches the v = 0 closed form, i.e. metric and symplectic parts are
    mutually compatible.  ``max_dev`` is the worst full-value deviation.
    """
    if fam.squeezed:
        bases = [0j]
    elif bases is None:
        bases = [0j, 0.3 + 0.1j, -0.2 + 0.4j]
    fam0 = replace(fam, v=0.0)
    n_v = squeeze_prefactor(fam)
    n_0 = squeeze_prefactor(fam0)
    dev_full = 0.0
    dev_sympl = 0.0
    for base in bases:
        G = pullback_matrix(fam, base)
        for (u, w) in DEFAULT_PAIRS:
            val = _contract(G, u, w) / n_v
            ref0 = closed_form(fam0, base, u, w) / n_0
            dev_full = max(dev_full, abs(val - ref0))
            dev_sympl = max(dev_sympl, abs(val.imag - ref0.imag))
    return KahlerVerdict(is_kahler=dev_full < tol,
                         is_symplectic=dev_sympl < tol,
                         max_dev=dev_full)
