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

Conventions: hbar enters only through the operators handed in;
``quadrature_pair`` builds q = sqrt(hbar/2)(a + a+), p = i sqrt(hbar/2)(a+ - a)
so that [q, p] = i hbar away from the truncation edge.  The top number level
violates the commutator by construction, so residual norms drop the edge row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitian, NormalizationError
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


def _check_hermitian(M: np.ndarray, name: str):
    dev = np.max(np.abs(M - M.conj().T))
    if dev > HERMITICITY_TOL:
        raise NonHermitian(f"{name} deviates from Hermitian by {dev:.3e}")


def _check_state(psi: StateVector, dim: int):
    if psi.dim != dim:
        raise NormalizationError(
            f"state dimension {psi.dim} does not match operators ({dim})")
    if not psi.is_normalized():
        raise NormalizationError(
            f"state norm deficit {abs(psi.norm**2 - 1):.3e} exceeds budget")


def moments(A: np.ndarray, B: np.ndarray, psi: StateVector) -> MomentReport:
    """Means, centred variances and the two correlators C+, C-.

    C- = i <[At, Bt]> = i <[A, B]> is real for Hermitian inputs; for the
    quadrature pair it equals -hbar.
    """
    _check_hermitian(A, "A")
    _check_hermitian(B, "B")
    _check_state(psi, A.shape[0])
    x = psi.amps
    a = float(np.real(np.vdot(x, A @ x)))
    b = float(np.real(np.vdot(x, B @ x)))
    At = A - a * np.eye(A.shape[0])
    Bt = B - b * np.eye(B.shape[0])
    Ax, Bx = At @ x, Bt @ x
    alpha = float(np.real(np.vdot(Ax, Ax)))
    beta = float(np.real(np.vdot(Bx, Bx)))
    c_plus = float(2.0 * np.real(np.vdot(Ax, Bx)))
    c_minus = float(np.real(1j * (np.vdot(Ax, Bx) - np.vdot(Bx, Ax))))
    return MomentReport(a, b, alpha, beta, c_plus, c_minus)


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
    if lam <= 0:
        raise ValueError("lam must be positive")
    _check_hermitian(A, "A")
    _check_hermitian(B, "B")
    _check_state(psi, A.shape[0])
    x = psi.amps
    a = np.real(np.vdot(x, A @ x))
    b = np.real(np.vdot(x, B @ x))
    r = (lam * A + 1j * B / lam) @ x - (lam * a + 1j * b / lam) * x
    if psi.basis.kind == "fock" and r.size > 1:
        r = r[:-1]
    return float(np.linalg.norm(r))
