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

Displacements are phase covariant.  The vacuum's stabilizer U(1) rotates
the orbit, D(r e^{i theta}) = R D(r) R+ with R = e^{i theta w} for the
grading w = n (oscillator) or w = m (spin) (Perelomov 1986), so every
generator X(alpha) is r R X_1 R+ for the phase-free X_1 = a+ - a on N levels
or L- - L+ at spin j.  One Hermitian eigendecomposition -i X_1 =
V_1 diag(lam_1) V_1+ per size, kept in a bounded LRU cache filled on first
use (``_unit_spectrum``), therefore serves every displacement of that size:
-i X(alpha) has eigenvalues r lam_1 and eigenvectors e^{i theta w} V_1.  The
same spectral data give e^X and the Frechet derivative of the exponential
by the Daleckii-Krein formula L(X, E) = V (Phi o (V+ E V)) V+, with the
divided differences Phi_jk = e^{i(lam_j + lam_k)/2} sinc((lam_j - lam_k)/2),
exact when eigenvalues coincide (Higham, Functions of Matrices, SIAM 2008,
sec. 3.2), in the one kernel ``_exp_spectral``.

The operator constructors (``ladder_matrices``, ``spin_matrices``), the
generator spectra and the spin fiducial ``su2_squeezed_vacuum`` are cached
in bounded LRU caches, filled on first use.  Their arrays are read-only, so
cached results are shared safely.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _exp_spectral(lam: np.ndarray, V: np.ndarray, psi: np.ndarray,
                  *directions: np.ndarray):
    """e^X psi and the Frechet derivatives L(X, E) psi, E in ``directions``,
    for the skew-Hermitian X = i V diag(lam) V+.

    psi is a vector or a matrix of columns.  The one set of spectral data
    serves all outputs (Daleckii-Krein, see the module notes).
    """
    c = V.conj().T @ psi
    value = (V * np.exp(1j * lam)) @ c
    if not directions:
        return value, []
    phi = (np.exp(0.5j * np.add.outer(lam, lam))
           * np.sinc(np.subtract.outer(lam, lam) / (2.0 * np.pi)))
    return value, [V @ ((phi * (V.conj().T @ E @ V)) @ c) for E in directions]


def _generator(family: str, size, alpha: complex) -> np.ndarray:
    """The displacement generator X(alpha): alpha a+ - conj(alpha) a on
    ``size`` levels (family "wh"), or conj(alpha) L- - alpha L+ at spin
    j = ``size`` (family "su2")."""
    if family == "wh":
        lad = ladder_matrices(size)
        return alpha * lad.adag - np.conj(alpha) * lad.a
    spin = spin_matrices(size)
    return np.conj(alpha) * spin.lminus - alpha * spin.lplus


@lru_cache(maxsize=32)
def _unit_spectrum(family: str, size) -> tuple[np.ndarray, ...]:
    """Eigenvalues lam_1 and eigenvectors V_1 of -i X(1), and the grading w
    (n or m) with X(e^{i theta}) = e^{i theta w} X(1) e^{-i theta w}.

    One eigh per (family, size), cached; the arrays are read-only.
    """
    lam, V = np.linalg.eigh(-1j * _generator(family, size, 1.0))
    w = np.arange(size) if family == "wh" else spin_matrices(size).lz.diagonal().real
    for x in (lam, V, w):
        x.setflags(write=False)
    return lam, V, w


def _displace(family: str, size, alpha: complex, psi: np.ndarray, directions=()):
    """e^{X(alpha)} psi and its tangents L(X(alpha), X(u)) psi, u in
    ``directions``, for the generators of ``_generator``.

    The spectrum of X(alpha) = |alpha| R X(1) R+ comes from the cached
    ``_unit_spectrum`` (see the module notes).  DomainError for a non-finite
    alpha; for the oscillator, TruncationError if N = ``size`` is below the
    coherent tail budget STATE_TOL for this alpha.
    """
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise DomainError(f"alpha = {alpha} is not finite")
    if family == "wh" and size < truncation_dim(alpha, "fock", eps=STATE_TOL):
        raise TruncationError(
            f"N = {size} below the tail budget for |alpha| = {abs(alpha):.3f}")
    Es = [_generator(family, size, complex(u)) for u in directions]
    if alpha == 0:
        return psi, [E @ psi for E in Es]
    lam, V, w = _unit_spectrum(family, size)
    rotation = np.exp(1j * cmath.phase(alpha) * w)
    return _exp_spectral(abs(alpha) * lam, rotation[:, None] * V, psi, *Es)


def wh_displacement(alpha: complex, N: int) -> np.ndarray:
    """Displacement unitary exp(alpha a+ - conj(alpha) a) on N levels.

    Exactly unitary (exponential of a skew-Hermitian matrix, taken through
    its eigendecomposition); agrees with the true displacement on the
    well-truncated block.  TruncationError if N is below the coherent tail
    budget STATE_TOL for this alpha.
    """
    return _displace("wh", N, alpha, np.eye(N))[0]


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
    return StateVector(_displace("wh", N, alpha, vac.amps)[0], fock_tag(), STATE_TOL)


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


def su2_displacement(alpha: complex, j: float) -> np.ndarray:
    """Spin displacement exp(conj(alpha) L- - alpha L+), L+- normalized."""
    return _displace("su2", j, alpha, np.eye(spin_matrices(j).dim))[0]


def su2_state(alpha: complex, v: float, j: float) -> StateVector:
    """Displaced spin kernel state D(alpha) |0; v> (exact finite-dim exponential).

    v = 0 yields the standard spin coherent state attached to the lowest
    weight.  Displacement is unitary, so the result is normalized exactly.
    """
    vac = su2_squeezed_vacuum(v, j)
    return StateVector(_displace("su2", j, alpha, vac.amps)[0], spin_tag(j))


def pochhammer_coeffs(a: float, n, power: float = 0.5) -> np.ndarray:
    """((a)_n / n!)^power for each integer n >= 0 in ``n``.

    (a)_n / n! = prod_{m=1}^{n} (a + m - 1) / m is the coefficient of x^n in
    (1 - x)^{-a}.  power = 1/2 gives the discrete-series (a = 2k) and
    Bergman (a = 1/h) normalizations.  One cumulative product of the term
    ratios ((a + m - 1) / m)^power up to max(n) is indexed at n; it stays
    within a few ulps of the exact rational value, where log-gamma
    differences lose up to 1e-13, and its partial products are monotone, so
    it overflows only where the value does.  DomainError for a negative or
    non-integer n and for a non-finite result.
    """
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or n.min(initial=0) < 0:
        raise DomainError(f"levels must be non-negative integers, got {n}")
    k = np.arange(float(n.max(initial=0)))
    table = np.ones(k.size + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(((a + k) / (k + 1.0)) ** power, out=table[1:])
    # a non-finite partial product stays non-finite to the end of the table
    if not np.isfinite(table[-1]):
        raise DomainError(f"((a)_n / n!)^{power} is not finite at a = {a}")
    return table[n]


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
