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
check.  That check (``_require_hermitian``) runs in full once for an
operator whose memory can never change again, a read-only array backed by
an immutable ``bytes`` buffer such as the cached quadrature pair; its pass
is remembered for as long as that array lives.  Every other operator,
read-only or not, is checked on every call.  For two such immutable
operators the last centring is kept as well (``_centred``), so the
moments, the uncertainty report and the residuals of one state apply each
operator to it once in all.  The products are taken by
``np.einsum``, not ``@``: from N of about 64 OpenBLAS hands a matrix-vector
product to a second thread, which then spins on a core for the rest of the
caller's work, doubling its CPU time for products that take microseconds.

Conventions: hbar enters only through the operators handed in;
``quadrature_pair`` builds q = sqrt(hbar/2)(a + a+), p = i sqrt(hbar/2)(a+ - a)
so that [q, p] = i hbar away from the truncation edge.  The top number level
violates the commutator by construction, so residual norms drop the edge row.
Each pair is built once per (N, hbar) and returned backed by ``bytes``, since
every caller shares the cached arrays: no caller can make them writeable.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonHermitian, NormalizationError, check_hbar
from .statespace import StateVector, _require_normalized
from .states import ladder_matrices

HERMITICITY_TOL = 1e-12
SLACK_TOL = 1e-10  # numerical slack allowed below each uncertainty bound


def _frozen(x: np.ndarray) -> np.ndarray:
    """A copy of x backed by an immutable ``bytes`` object, which numpy never
    lets anyone make writeable."""
    return np.frombuffer(x.tobytes(), dtype=x.dtype).reshape(x.shape)


@lru_cache(maxsize=32)
def quadrature_pair(N: int, hbar: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Position / momentum quadratures on an N-level number basis (cached,
    immutable).

    DomainError unless hbar is finite and positive; N is checked by
    ``ladder_matrices``.
    """
    check_hbar(hbar)
    lad = ladder_matrices(N)
    s = np.sqrt(hbar / 2.0)
    # q's writeable temporary is freed before p's is allocated, so the bytes
    # copies leave no lasting N x N high-water mark
    q = _frozen(s * (lad.a + lad.adag))
    p = _frozen(1j * s * (lad.adag - lad.a))
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


# (id, dtype, shape, strides) -> each immutable operator that passed; an
# entry goes when its array does
_PASSED = weakref.WeakValueDictionary()


def _immutable(M) -> bool:
    """True when M's memory can never change again: M is a read-only array
    whose chain of bases ends in an immutable ``bytes`` object."""
    if M.flags.writeable:
        return False
    base = M
    while isinstance(base, np.ndarray):
        base = base.base
    return type(base) is bytes


def _full_check(M: np.ndarray, name: str) -> None:
    # the entrywise gate of _require_hermitian, run on every entry of M
    with np.errstate(invalid="ignore"):  # inf - inf reads nan and fails
        D = M - M.conj().T
        # the Frobenius norm bounds every entry, so the entrywise maximum
        # is taken only when the norm alone cannot pass
        if not np.vdot(D, D).real <= HERMITICITY_TOL ** 2:
            dev = np.abs(D).max()
            if not dev <= HERMITICITY_TOL:
                raise NonHermitian(f"{name} deviates from Hermitian by {dev:.3e}")


def _require_hermitian(M: np.ndarray, name: str) -> None:
    """NonHermitian unless every entry of M - M+ is within HERMITICITY_TOL;
    a non-finite entry fails.

    A pass is remembered for an ``_immutable`` M only, keyed by its id and
    layout and held by a weak reference, so it is trusted again only for
    that same living array with the same dtype, shape and strides; a
    reused id is never trusted.
    """
    key = (id(M), M.dtype, M.shape, M.strides)
    if _PASSED.get(key) is M:
        return
    _full_check(M, name)
    if _immutable(M):
        _PASSED[key] = M


# the last result of _centred for two _immutable operators, as one tuple
# (weak refs to A and B, key, result), read and written whole
_LAST_CENTRED = None


def _centring_key(A, B, psi: StateVector) -> tuple:
    # everything besides the operators' identity that _centred's result
    # depends on: their layout, psi's amplitudes and its tol
    return (A.dtype, A.shape, A.strides, B.dtype, B.shape, B.strides,
            psi.amps.tobytes(), psi.tol)


def _centred(A: np.ndarray, B: np.ndarray, psi: StateVector):
    """Means a, b and the centred vectors (A - a) psi, (B - b) psi, which are
    read-only.

    Each operator is applied to psi once; the centring is vector algebra.
    Both operators must act on psi's dimension and pass
    ``_require_hermitian``; psi must be normalized.

    The last result is kept when both operators are ``_immutable``, so that
    ``moments``, ``rs_report`` and ``min_uncertainty_residual`` on one state
    centre it once.  It is returned again only for the same two living
    arrays (held by weak references, which never extend an array's life)
    with the same dtype, shape and strides, and for the same amplitude bytes
    and ``tol``: every check would pass again and every product give the
    same bits.  A check that fails is never kept, so it raises on every
    call.  The memo is one tuple, read once and replaced whole, each a
    single atomic step, so the thread-safety note of ``statespace`` still
    holds: threads that race can only replace one kept result by another,
    each right for its own key.
    """
    global _LAST_CENTRED
    last = _LAST_CENTRED
    if (last is not None and last[0]() is A and last[1]() is B
            and last[2] == _centring_key(A, B, psi)):
        return last[3]
    shape = (psi.dim, psi.dim)
    for M, name in ((A, "A"), (B, "B")):
        if np.shape(M) != shape:
            raise NormalizationError(
                f"{name} of shape {np.shape(M)} does not act on a state "
                f"of dimension {psi.dim}")
        _require_hermitian(M, name)
    _require_normalized(psi, "uncertainty")
    x = psi.amps
    # einsum's own loop, not OpenBLAS's zgemv, which wakes a second thread
    Ax, Bx = np.einsum("ij,j->i", A, x), np.einsum("ij,j->i", B, x)
    a, b = float(np.vdot(x, Ax).real), float(np.vdot(x, Bx).real)
    dA, dB = Ax - a * x, Bx - b * x
    dA.setflags(write=False)
    dB.setflags(write=False)
    out = a, b, dA, dB
    if _immutable(A) and _immutable(B):
        _LAST_CENTRED = (weakref.ref(A), weakref.ref(B), _centring_key(A, B, psi), out)
    return out


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
