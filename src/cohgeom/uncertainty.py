"""Second-moment machinery and the layered uncertainty inequalities.

For Hermitian A, B and a normalized state, with centred operators
At = A - <A>, Bt = B - <B>, define

    alpha = <At^2>,  beta = <Bt^2>,
    C+ = <{At, Bt}>,  C- = i <[At, Bt]>   (both real).

Three inequalities follow from positivity of |(At + gamma Bt) psi|^2 over
complex gamma:

    dA dB >= |C-| / 2            (commutator bound)
    dA dB >= |C+| / 2            (anticommutator bound)
    dA dB >= sqrt(C+^2 + C-^2)/2 (the strongest, combining both)

The last is saturated exactly when (lam A + i B / lam) psi is proportional to
psi for some lam > 0, which is the defining condition of the minimum
uncertainty (coherent / squeezed) states;
``min_uncertainty_residual`` measures how far a state is from satisfying it.

Every moment is read from the two vectors A psi and B psi: each operator is
applied to the state once per call, and the centring At psi = A psi - <A> psi
is vector algebra, so no N x N operator is formed besides the Hermiticity
check.

Conventions: hbar enters only through the operators handed in;
``quadrature_pair`` builds q = sqrt(hbar/2)(a + a+), p = i sqrt(hbar/2)(a+ - a)
so that [q, p] = i hbar away from the truncation edge.  The top number level
violates the commutator by construction, so residual norms drop the edge row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonHermitian, NormalizationError
from .statespace import StateVector
from .states import ladder_matrices

HERMITICITY_TOL = 1e-12
SLACK_TOL = 1e-10  # numerical slack allowed below each uncertainty bound


def quadrature_pair(N: int, hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Position / momentum quadratures on an N-level number basis."""
    lad = ladder_matrices(N)
    s = np.sqrt(hbar / 2.0)
    q = s * (lad.a + lad.adag)
    p = 1j * s * (lad.adag - lad.a)
    return q, p


@dataclass(frozen=True)
class MomentReport:
    """First and second moments of a Hermitian pair in a fixed state."""

    a: float
    b: float
    alpha: float
    beta: float
    c_plus: float
    c_minus: float

    @property
    def delta_a(self) -> float:
        return float(np.sqrt(max(self.alpha, 0.0)))

    @property
    def delta_b(self) -> float:
        return float(np.sqrt(max(self.beta, 0.0)))


@dataclass(frozen=True)
class RsReport:
    heisenberg_ok: bool
    anticomm_ok: bool
    rs_ok: bool
    slack_rs: float
    delta_a: float
    delta_b: float


def _centred(A: np.ndarray, B: np.ndarray, psi: StateVector):
    """Means a, b and the centred vectors (A - a) psi, (B - b) psi.

    Each operator is applied to psi once; the centring is vector algebra.
    Both operators must be Hermitian (within HERMITICITY_TOL, a non-finite
    entry fails) and act on psi's dimension; psi must be normalized.
    """
    shape = (psi.dim, psi.dim)
    with np.errstate(invalid="ignore"):  # inf - inf reads nan and fails
        for M, name in ((A, "A"), (B, "B")):
            if np.shape(M) != shape:
                raise NormalizationError(
                    f"{name} of shape {np.shape(M)} does not act on a state "
                    f"of dimension {psi.dim}")
            D = M - M.conj().T
            # the Frobenius norm bounds every entry, so the entrywise
            # maximum is taken only when the norm alone cannot pass
            if not np.vdot(D, D).real <= HERMITICITY_TOL ** 2:
                dev = np.abs(D).max()
                if not dev <= HERMITICITY_TOL:
                    raise NonHermitian(
                        f"{name} deviates from Hermitian by {dev:.3e}")
    if not psi.is_normalized():
        raise NormalizationError(
            f"state norm deficit {abs(psi.norm**2 - 1):.3e} exceeds budget")
    x = psi.amps
    Ax, Bx = A @ x, B @ x
    a, b = float(np.vdot(x, Ax).real), float(np.vdot(x, Bx).real)
    return a, b, Ax - a * x, Bx - b * x


def moments(A: np.ndarray, B: np.ndarray, psi: StateVector) -> MomentReport:
    """Means, centred variances and the two correlators C+, C-.

    C- = i <[At, Bt]> = i <[A, B]> is real for Hermitian inputs; for the
    quadrature pair it equals -hbar.
    """
    a, b, dA, dB = _centred(A, B, psi)
    cross = np.vdot(dA, dB)  # C+ = 2 Re cross, C- = i (cross - cross*)
    return MomentReport(a, b, alpha=float(np.vdot(dA, dA).real),
                        beta=float(np.vdot(dB, dB).real),
                        c_plus=float(2.0 * cross.real),
                        c_minus=float(-2.0 * cross.imag))


def rs_report(A: np.ndarray, B: np.ndarray, psi: StateVector) -> RsReport:
    """Check the three uncertainty inequalities and return the tight slack.

    ``slack_rs`` is dA dB - sqrt(C+^2 + C-^2)/2; the strongest inequality
    requires it to be >= 0 up to SLACK_TOL, and it vanishes exactly on
    coherent and squeezed states.
    """
    m = moments(A, B, psi)
    prod = m.delta_a * m.delta_b
    bound_c = abs(m.c_minus) / 2.0
    bound_a = abs(m.c_plus) / 2.0
    bound_rs = float(np.hypot(m.c_plus, m.c_minus) / 2.0)
    return RsReport(
        heisenberg_ok=prod >= bound_c - SLACK_TOL,
        anticomm_ok=prod >= bound_a - SLACK_TOL,
        rs_ok=prod >= bound_rs - SLACK_TOL,
        slack_rs=prod - bound_rs,
        delta_a=m.delta_a,
        delta_b=m.delta_b,
    )


def min_uncertainty_residual(A: np.ndarray, B: np.ndarray, lam: float,
                             psi: StateVector) -> float:
    """Norm of (lam A + i B/lam) psi - (lam a + i b/lam) psi, lam > 0.

    Zero exactly on the minimum-uncertainty family matched to lam; bounded
    away from zero when the state's own squeezing does not match.  On a
    number basis the top truncation row is excluded (it violates the ladder
    commutator by construction).
    """
    if not 0 < lam < np.inf:
        raise DomainError(f"lam must be finite and positive, got {lam}")
    _, _, dA, dB = _centred(A, B, psi)
    r = lam * dA + (1j / lam) * dB
    if psi.basis.kind == "fock" and r.size > 1:
        r = r[:-1]
    return float(np.linalg.norm(r))
