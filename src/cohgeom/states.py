"""Operator matrices and coherent / squeezed state constructors.

Three families are covered:

* the oscillator algebra on a truncated number basis (annihilation a with
  a|n> = sqrt(n)|n-1>), with coherent states, the displacement unitary
  D(alpha) = exp(alpha a+ - conj(alpha) a), and displaced squeezed states
  D(alpha)|0; v>, where |0; v> is annihilated by the Bogoliubov-rotated
  a_v = cosh(v) a + sinh(v) a+;
* the spin-j algebra, with displaced kernel states of
  L-(v) = e^v Lx - i e^{-v} Ly (the spin analogue of squeezing);
* the positive discrete series labelled by k > 1/2, with disc coherent
  states on |alpha| < 1.

Ladder normalization note: the spin ladder operators exposed here are
L+- = (Lx +- i Ly)/sqrt(2), so [L+, L-] = Lz.  The squeezed combinations
e^v Lx +- i e^{-v} Ly carry no 1/sqrt(2); kernels and ray-level results do
not depend on that overall scale, but matrix elements do, and each function
documents which normalization it uses.

The squeezed vacuum is an orbit state of SU(1,1) too: on the even number
states a^2/2, a+^2/2 and (a+ a + 1/2)/2 span the discrete series at k = 1/4
(the metaplectic representation), and |0; v> is its disc coherent state at
alpha = -tanh v, c_2m = (-tanh v)^m ((1/2)_m / m!)^{1/2} / sqrt(cosh v)
(Perelomov, Generalized Coherent States, 1986).  So ``squeezed_vacuum`` and
``su11_coherent`` evaluate one amplitude formula (``_disc_amplitudes``), and
``truncation_dim`` sizes both with one tail loop.  The kernel SVD
``kernel_vector`` builds the spin fiducial, whose finite space makes the
kernel exact, and is the test oracle for the oscillator one.  Fiducial
vectors are normalized with their first nonzero amplitude real positive, so
results are deterministic representatives of the ray.

The discrete series at label k and the weighted Bergman space of ``berezin``
at weight h share one basis when 2k = 1/h: its normalizations are the square
roots of the coefficients (a)_n / n! of (1 - x)^{-a}, with a = 2k = 1/h,
computed once here (``pochhammer_coeffs``), and both tail estimates use the
one geometric bound ``geometric_tail``.

Displacements exponentiate skew-Hermitian generators X through one Hermitian
eigendecomposition -iX = V diag(lam) V+ (``_exp_skew``).  The same spectral
data give the Frechet derivative of the exponential by the Daleckii-Krein
formula L(X, E) = V (Phi o (V+ E V)) V+, with the divided differences
Phi_jk = e^{i(lam_j + lam_k)/2} sinc((lam_j - lam_k)/2), exact when
eigenvalues coincide (Higham, Functions of Matrices, SIAM 2008, sec. 3.2).

The operator constructors (``ladder_matrices``, ``spin_matrices``) and the
spin fiducial ``su2_squeezed_vacuum`` are cached in bounded LRU caches,
filled on first use.  Their arrays are read-only, so cached results are
shared safely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import (
    DimensionTooSmall,
    DomainError,
    InvalidSpin,
    KernelError,
    TruncationError,
)
from .statespace import StateVector, disc_tag, fock_tag, spin_tag

__all__ = [
    "LadderPair",
    "SpinTriple",
    "ladder_matrices",
    "spin_matrices",
    "kernel_vector",
    "wh_coherent",
    "wh_displacement",
    "squeezed_vacuum",
    "wh_squeezed",
    "su2_tilde_minus",
    "su2_squeezed_vacuum",
    "su2_displacement",
    "su2_state",
    "su11_coherent",
    "truncation_dim",
    "pochhammer_coeffs",
    "geometric_tail",
]

KERNEL_RTOL = 1e-8  # smallest singular value relative to the largest
STATE_TOL = 1e-12   # declared tail budget of the squeezed states and displacements


@dataclass(frozen=True)
class LadderPair:
    """Truncated annihilation / creation pair on an N-level number basis.

    [a, a+] = 1 holds exactly on the span of |0> .. |N-2>; the top row is
    the unavoidable truncation edge.
    """

    dim: int
    a: np.ndarray
    adag: np.ndarray


@dataclass(frozen=True)
class SpinTriple:
    """Hermitian spin-j generators with [Lx, Ly] = i Lz and cyclic.

    Basis ordering is m = j, j-1, ..., -j, so the lowest-weight vector is the
    last basis element.
    """

    j: float
    lx: np.ndarray
    ly: np.ndarray
    lz: np.ndarray

    @property
    def dim(self) -> int:
        return int(round(2 * self.j)) + 1

    @property
    def lplus(self) -> np.ndarray:
        """(Lx + i Ly)/sqrt(2); with lminus satisfies [L+, L-] = Lz."""
        return (self.lx + 1j * self.ly) / np.sqrt(2.0)

    @property
    def lminus(self) -> np.ndarray:
        return (self.lx - 1j * self.ly) / np.sqrt(2.0)


@lru_cache(maxsize=32)
def ladder_matrices(N: int) -> LadderPair:
    """Truncated oscillator ladder matrices of dimension N >= 2 (cached)."""
    if N < 2:
        raise DimensionTooSmall(f"need N >= 2 levels, got {N}")
    a = np.zeros((N, N), dtype=complex)
    n = np.arange(1, N)
    a[n - 1, n] = np.sqrt(n)
    adag = a.conj().T
    for x in (a, adag):
        x.setflags(write=False)
    return LadderPair(N, a, adag)


@lru_cache(maxsize=32)
def spin_matrices(j: float) -> SpinTriple:
    """Standard spin-j representation, dimension 2j+1.

    Raises InvalidSpin unless 2j is a positive integer.
    """
    twoj = 2.0 * j
    if j <= 0 or abs(twoj - round(twoj)) > 1e-12:
        raise InvalidSpin(f"j must be a positive half-integer, got {j}")
    d = int(round(twoj)) + 1
    m = j - np.arange(d)  # m = j .. -j
    lz = np.diag(m).astype(complex)
    jp = np.zeros((d, d), dtype=complex)  # unnormalized raising operator
    for i in range(1, d):
        mm = m[i]
        jp[i - 1, i] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.conj().T
    lx = (jp + jm) / 2.0
    ly = (jp - jm) / 2.0j
    for x in (lx, ly, lz):
        x.setflags(write=False)
    return SpinTriple(float(j), lx, ly, lz)


def _fix_phase(x: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first nonzero amplitude is real positive."""
    idx = np.flatnonzero(np.abs(x) > 1e-10 * np.max(np.abs(x)))
    if idx.size == 0:
        return x
    return x * np.exp(-1j * np.angle(x[idx[0]]))


def kernel_vector(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit vector spanning the numerical kernel of M, plus its residual.

    The kernel is accepted when the smallest singular value is below
    KERNEL_RTOL * sigma_max and the next one is well separated; otherwise the
    kernel is empty or more than one-dimensional and KernelError is raised.
    """
    _, s, vh = np.linalg.svd(M)
    smax = s[0]
    if smax == 0.0:
        raise KernelError("matrix is identically zero, kernel is everything")
    if s[-1] > KERNEL_RTOL * smax:
        raise KernelError(
            f"no kernel within tolerance: sigma_min/sigma_max = {s[-1] / smax:.3e}"
        )
    if len(s) > 1 and s[-2] <= 10.0 * KERNEL_RTOL * smax:
        raise KernelError(
            f"kernel not one-dimensional: next singular value ratio "
            f"{s[-2] / smax:.3e}"
        )
    x = _fix_phase(vh[-1].conj())
    return x, float(np.linalg.norm(M @ x))


def wh_coherent(alpha: complex, N: int, tol: float = 1e-12) -> StateVector:
    """Oscillator coherent state on an N-level number basis.

    Amplitudes are exp(-|alpha|^2/2) alpha^n / sqrt(n!), built by the stable
    recurrence c_n = c_{n-1} alpha / sqrt(n).  The dropped tail mass equals
    the norm deficit; TruncationError if it exceeds ``tol``.
    """
    alpha = complex(alpha)
    if N < 1:
        raise DimensionTooSmall("need at least one level")
    c = np.zeros(N, dtype=complex)
    c[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, N):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return _tail_checked(c, tol, fock_tag(), alpha, "fock", 0.0)


def _tail_checked(c: np.ndarray, tol: float, basis, alpha: complex,
                  family: str, param: float) -> StateVector:
    """The state of amplitudes c, whose norm deficit is the dropped tail mass
    of the ``truncation_dim`` family; TruncationError if it exceeds tol."""
    tail = max(0.0, 1.0 - float(np.sum(np.abs(c) ** 2)))
    if tail > tol:
        raise TruncationError(
            f"tail mass {tail:.3e} exceeds budget {tol:.1e} at N = {len(c)}; "
            f"need N >= {truncation_dim(alpha, family, param, eps=tol)}")
    return StateVector(c, basis, tol)


def _exp_skew(X: np.ndarray, psi: np.ndarray, *directions: np.ndarray):
    """e^X psi and the Frechet derivatives L(X, E) psi, E in ``directions``.

    X must be skew-Hermitian and psi a vector or a matrix of columns.  One
    eigh of -iX serves all outputs (Daleckii-Krein, see the module notes).
    """
    if not np.any(X):
        return psi, [E @ psi for E in directions]
    lam, V = np.linalg.eigh(-1j * X)
    c = V.conj().T @ psi
    value = (V * np.exp(1j * lam)) @ c
    if not directions:
        return value, []
    phi = (np.exp(0.5j * np.add.outer(lam, lam))
           * np.sinc(np.subtract.outer(lam, lam) / (2.0 * np.pi)))
    return value, [V @ ((phi * (V.conj().T @ E @ V)) @ c) for E in directions]


def _wh_generator(alpha: complex, N: int, tol: float = 0.0) -> np.ndarray:
    """alpha a+ - conj(alpha) a on N levels.  With tol > 0, TruncationError
    if N is below the coherent tail budget for this alpha."""
    alpha = complex(alpha)
    if tol and N < truncation_dim(alpha, "fock", eps=tol):
        raise TruncationError(
            f"N = {N} below the tail budget for |alpha| = {abs(alpha):.3f}"
        )
    lad = ladder_matrices(N)
    return alpha * lad.adag - np.conj(alpha) * lad.a


def wh_displacement(alpha: complex, N: int) -> np.ndarray:
    """Displacement unitary exp(alpha a+ - conj(alpha) a) on N levels.

    Exactly unitary (exponential of a skew-Hermitian matrix, taken through
    its eigendecomposition); agrees with the true displacement on the
    well-truncated block.  TruncationError if N is below the coherent tail
    budget STATE_TOL for this alpha.
    """
    return _exp_skew(_wh_generator(alpha, N, STATE_TOL), np.eye(N))[0]


def squeezed_vacuum(v: float, N: int) -> StateVector:
    """The squeezed vacuum |0; v>, annihilated by cosh(v) a + sinh(v) a+.

    It is the discrete-series coherent state at k = 1/4 and alpha = -tanh v
    placed on the even number states (see the module notes), so its odd
    amplitudes vanish and c_0 = 1/sqrt(cosh v) is real positive.  The dropped
    tail mass is checked against STATE_TOL (TruncationError).  The guard
    |v| <= 2 is a DomainError.
    """
    if not abs(v) <= 2.0:
        raise DomainError(f"|v| = {abs(v):.2f} exceeds the guard |v| <= 2")
    if N < 1:
        raise DimensionTooSmall("need at least one level")
    c = np.zeros(N, dtype=complex)
    c[::2] = _disc_amplitudes(-np.tanh(v), 0.25, np.arange((N + 1) // 2))
    return _tail_checked(c, STATE_TOL, fock_tag(), 0j, "squeezed_fock", v)


def wh_squeezed(alpha: complex, v: float, N: int) -> StateVector:
    """Displaced squeezed state D(alpha) |0; v> on N levels.

    |0; v> is ``squeezed_vacuum(v, N)`` (DomainError for |v| > 2).  For v = 0
    this reduces to the coherent state.
    """
    vac = squeezed_vacuum(v, N)
    amps, _ = _exp_skew(_wh_generator(alpha, N, STATE_TOL), vac.amps)
    return StateVector(amps, fock_tag(), STATE_TOL)


def su2_tilde_minus(spin: SpinTriple, v: float) -> np.ndarray:
    """Squeezed lowering combination e^v Lx - i e^{-v} Ly.

    Equals sqrt(2) (sinh v L+ + cosh v L-) in the normalized-ladder
    convention; the scale does not affect its kernel.
    """
    return np.exp(v) * spin.lx - 1j * np.exp(-v) * spin.ly


@lru_cache(maxsize=128)
def su2_squeezed_vacuum(v: float, j: float) -> StateVector:
    """Kernel state of e^v Lx - i e^{-v} Ly in the spin-j representation.

    At v = 0 this is the lowest-weight state.  For v != 0 a kernel exists
    only for integer j: the operator maps the even-m sector onto the smaller
    odd-m sector.  Half-integer j with v != 0 raises KernelError.  Cached.
    """
    spin = spin_matrices(j)
    x, _resid = kernel_vector(su2_tilde_minus(spin, v))
    return StateVector(x, spin_tag(j))


def _su2_generator(alpha: complex, j: float) -> np.ndarray:
    """conj(alpha) L- - alpha L+ in the spin-j representation."""
    spin = spin_matrices(j)
    return np.conj(alpha) * spin.lminus - alpha * spin.lplus


def su2_displacement(alpha: complex, j: float) -> np.ndarray:
    """Spin displacement exp(conj(alpha) L- - alpha L+), L+- normalized."""
    X = _su2_generator(alpha, j)
    return _exp_skew(X, np.eye(len(X)))[0]


def su2_state(alpha: complex, v: float, j: float) -> StateVector:
    """Displaced spin kernel state D(alpha) |0; v> (exact finite-dim exponential).

    v = 0 yields the standard spin coherent state attached to the lowest
    weight.  Displacement is unitary, so the result is normalized exactly.
    """
    vac = su2_squeezed_vacuum(v, j)
    amps, _ = _exp_skew(_su2_generator(alpha, j), vac.amps)
    return StateVector(amps, spin_tag(j))


def pochhammer_coeffs(a: float, n, power: float = 0.5) -> np.ndarray:
    """((a)_n / n!)^power for each n in ``n``, through log-gamma.

    (a)_n / n! = Gamma(n + a) / (n! Gamma(a)) is the coefficient of x^n in
    (1 - x)^{-a}.  power = 1/2 gives the discrete-series (a = 2k) and
    Bergman (a = 1/h) normalizations; the log-space form stays finite for
    large n and large a.
    """
    n = np.asarray(n, dtype=float)
    return np.exp(power * (gammaln(n + a) - gammaln(a) - gammaln(n + 1.0)))


def geometric_tail(t: float, r: float) -> float:
    """Bound t / (1 - r) on a positive series tail whose first term is t and
    whose term ratios from there on stay at or below r; inf when r >= 1."""
    return t / (1.0 - r) if r < 1.0 else np.inf


def _disc_amplitudes(alpha: complex, k: float, n) -> np.ndarray:
    """(1 - |alpha|^2)^k ((2k)_n / n!)^{1/2} alpha^n: the disc coherent state
    of label k on the levels ``n``."""
    return (1.0 - abs(alpha) ** 2) ** k * pochhammer_coeffs(2.0 * k, n) * alpha**n


def su11_coherent(alpha: complex, k: float, N: int, tol: float = 1e-12) -> StateVector:
    """Disc coherent state of the positive discrete series, k > 1/2.

    Amplitudes (1-|alpha|^2)^k [Gamma(n+2k)/(n! Gamma(2k))]^{1/2} alpha^n on
    the basis |n, k>; requires |alpha| < 1.  The binomial identity
    sum Gamma(n+2k)/(n! Gamma(2k)) x^n = (1-x)^{-2k} makes the dropped tail
    mass equal to the norm deficit, checked against ``tol``.
    """
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise DomainError(f"|alpha| = {abs(alpha):.4f} outside the unit disc")
    if k <= 0.5:
        raise DomainError(f"discrete-series label must satisfy k > 1/2, got {k}")
    if N < 1:
        raise DimensionTooSmall("need at least one level")
    c = _disc_amplitudes(alpha, k, np.arange(N))
    return _tail_checked(c, tol, disc_tag(k), alpha, "discrete_series", k)


def truncation_dim(alpha: complex, family: str, param: float = 0.0,
                   eps: float = 1e-12) -> int:
    """Smallest N whose tail mass (norm deficit) beyond N is below eps.

    The mass is bounded by ``geometric_tail`` from the term t_n = |c_n|^2 and
    the term ratios r_n = t_{n+1} / t_n, which tend to a limit r:

    * ``"fock"``: coherent amplitudes, r_n = |alpha|^2 / (n+1), r = 0.
    * ``"discrete_series"`` (param = k > 0, |alpha| < 1): disc amplitudes,
      r_n = |alpha|^2 (n+2k)/(n+1), r = |alpha|^2.  For 2k > 1 the ratios
      fall toward r, so r_n bounds the rest; for 2k < 1 they rise toward r,
      which bounds them instead.
    * ``"squeezed_fock"`` (param = v): the squeezed vacuum is the k = 1/4
      disc state at |alpha| = tanh|v| on the even levels, which need
      N = 2M for the M disc levels; the coherent budget of the displacement
      by ``alpha`` is added to that.
    """
    if not eps > 0:
        raise DomainError(f"tail budget eps must be positive, got {eps}")
    x = abs(complex(alpha)) ** 2
    if not np.isfinite(x):
        # the tail recurrences below would never terminate
        raise DomainError(f"alpha = {alpha} is not finite")

    if family == "squeezed_fock":
        return (2 * truncation_dim(np.tanh(abs(param)), "discrete_series", 0.25, eps)
                + truncation_dim(alpha, "fock", eps=eps))
    if family == "fock":
        t, ratio, limit = np.exp(-x), lambda n: x / (n + 1), 0.0
    elif family == "discrete_series":
        k = param
        if not k > 0:
            raise DomainError(f"need k > 0, got {k}")
        if x >= 1.0:
            raise DomainError("discrete-series states require |alpha| < 1")
        t, ratio, limit = ((1.0 - x) ** (2.0 * k),
                           lambda n: x * (n + 2.0 * k) / (n + 1), x)
    else:
        raise DomainError(f"unknown family {family!r}")
    if x == 0.0:
        return 1
    for n in itertools.count(1):
        t *= ratio(n - 1)  # the term of level n
        if t == 0.0 or geometric_tail(t, max(ratio(n), limit)) < eps:
            return n
