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

Every oscillator state comes from one three-term recurrence.  D(alpha)|0; v>
is the eigenvector of a_v with eigenvalue beta = alpha cosh v +
conj(alpha) sinh v (Yuen's two-photon coherent state, Phys. Rev. A 13, 2226,
1976; Perelomov, Generalized Coherent States, 1986), so its amplitudes obey

    c_{n+1} = (beta c_n - sinh v sqrt(n) c_{n-1}) / (cosh v sqrt(n+1)),
    c_0 = exp(-|alpha|^2/2 - tanh v conj(alpha)^2/2) / sqrt(cosh v),

which at v = 0 is the coherent recurrence c_{n+1} = alpha c_n / sqrt(n+1)
and at alpha = 0 the squeezed vacuum on the even levels (``_fock_amplitudes``).
It costs O(N) per state and gives the true amplitudes, so the norm deficit
is the dropped tail mass.  No oscillator state needs a matrix exponential;
``wh_displacement`` is kept as the explicit unitary.

One truncation rule serves every oscillator and disc state
(``truncation_dim``): the state's first 32, 64, ... amplitudes are tested
until the rest beyond them is bounded geometrically, and N is the smallest
level whose exact suffix sum of |c_n|^2 plus that rest is below the budget.
Each amplitude depends on its level alone (the recurrence runs up from c_0,
the disc amplitudes are elementwise), so a prefix of a run is bit for bit
the state its constructor builds on that many levels.  The amplitudes are
therefore built once, as one run as long as the tail's ratio limit
predicts, and every doubling is tested on a prefix of it; a family sized by
the rule takes its state from the run (``pullback``).

The spin fiducial, the kernel of e^v Lx - i e^{-v} Ly = sqrt(2) (sinh v L+ +
cosh v L-), comes from that operator's two-term recurrence up from m = -j,
one cumulative product (``su2_squeezed_vacuum``); a half-integer spin has no
kernel when squeezed, by parity.  No state constructor takes an SVD:
``kernel_vector`` and its round-off gate ``KERNEL_ROUNDOFF`` remain as the
tests' oracle.  Fiducial vectors are normalized with their first nonzero
amplitude real positive, so results are deterministic representatives of
the ray.

The discrete series at label k and the weighted Bergman space of ``berezin``
at weight h share one basis when 2k = 1/h: its normalizations are the square
roots of the coefficients (a)_n / n! of (1 - x)^{-a}, with a = 2k = 1/h,
computed here alone (``pochhammer_coeffs``) from one cached read-only table
per (a, max n), of which callers receive copies; the truncation rule and the
Bergman kernel's tail bound use the one geometric bound ``geometric_tail``.

Spin displacements are phase covariant.  The lowest weight's stabilizer U(1)
rotates the orbit, D(r e^{i theta}) = R D(r) R+ with R = e^{i theta m}
(Perelomov 1986), so every generator X(alpha) is r R X_1 R+ for the
phase-free X_1 = L- - L+ at spin j.  One Hermitian eigendecomposition
-i X_1 = V_1 diag(lam_1) V_1+ per spin, kept in a bounded LRU cache filled
on first use (``_unit_spectrum``), therefore serves every displacement:
-i X(alpha) has eigenvalues r lam_1 and eigenvectors e^{i theta m} V_1.  The
same spectral data give e^X and the Frechet derivative of the exponential
by the Daleckii-Krein formula L(X, E) = V (Phi o (V+ E V)) V+, with the
divided differences Phi_jk = e^{i(lam_j + lam_k)/2} sinc((lam_j - lam_k)/2),
exact when eigenvalues coincide (Higham, Functions of Matrices, SIAM 2008,
sec. 3.2), in the one kernel ``_exp_spectral``.

The operator constructors (``ladder_matrices``, ``spin_matrices``), the
spin spectra and the spin fiducial ``su2_squeezed_vacuum`` are cached in
bounded LRU caches, filled on first use.  Their arrays are read-only, so
cached results are shared safely.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (
    DimensionTooSmall,
    DomainError,
    InvalidSpin,
    KernelError,
    TruncationError,
    check_levels,
)
from .statespace import StateVector, disc_tag, fock_tag, spin_tag

__all__ = [
    "LadderPair",
    "SpinTriple",
    "ladder_matrices",
    "spin_matrices",
    "wh_coherent",
    "wh_displacement",
    "squeezed_vacuum",
    "wh_squeezed",
    "su2_squeezed_vacuum",
    "su2_displacement",
    "su2_state",
    "su11_coherent",
    "truncation_dim",
    "pochhammer_coeffs",
    "geometric_tail",
]

KERNEL_ROUNDOFF = 10  # kernel gate, in units of dim * eps * sigma_max
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
    """Truncated oscillator ladder matrices of dimension N >= 2 (cached).

    DomainError unless N is a whole number; DimensionTooSmall below 2.
    """
    N = check_levels(N)
    if N < 2:
        raise DimensionTooSmall(f"need N >= 2 levels, got {N}")
    a = np.diag(np.sqrt(np.arange(1.0, N)), 1).astype(complex)
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
    if not 0 < j < math.inf or abs(twoj - round(twoj)) > 1e-12:
        raise InvalidSpin(f"j must be a positive half-integer, got {j}")
    d = int(round(twoj)) + 1
    m = j - np.arange(d)  # m = j .. -j
    lz = np.diag(m).astype(complex)
    # unnormalized raising operator
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jm = jp.conj().T
    lx = (jp + jm) / 2.0
    ly = (jp - jm) / 2.0j
    for x in (lx, ly, lz):
        x.setflags(write=False)
    return SpinTriple(float(j), lx, ly, lz)


def kernel_vector(M: np.ndarray) -> np.ndarray:
    """Unit vector spanning the numerical kernel of M, by SVD: the tests'
    oracle for the closed-form fiducials, which no state constructor calls.

    The kernel is accepted when the smallest singular value is round-off, at
    most KERNEL_ROUNDOFF * dim * eps * sigma_max, and the next one exceeds
    ten times that bound; otherwise it is empty or more than one-dimensional
    (a zero M included) and KernelError is raised.  Genuine kernels sit far
    below the bound (at most 0.24 dim * eps * sigma_max for the spin
    operators up to j = 20, about 1e-25 sigma_max for the truncated a_v), a
    regular operator far above it.  The first amplitude above 1e-10 of the
    largest is made real positive.

    The oracle is sound for spin operators with 2j <= 23.  Beyond that a
    regular operator can pass the gate: for e^v Lx - i e^{-v} Ly at
    half-integer j >= 25/2 and |v| = 0.1, sigma_min falls below the bound
    (it is 6.2e2 dim * eps * sigma_max at j = 21/2, and about ten times
    smaller per unit of j), so a spurious kernel vector is returned.
    """
    _, s, vh = np.linalg.svd(M)
    bound = KERNEL_ROUNDOFF * max(np.shape(M)) * np.finfo(float).eps * s[0]
    # s[-2:][0] is the next singular value, or sigma_max itself for a 1 x 1 M
    if not s[-1] <= bound < 0.1 * s[-2:][0]:
        raise KernelError(f"no one-dimensional kernel: smallest singular values "
                          f"{s[-2:]} against sigma_max = {s[0]:.3e}")
    x = vh[-1].conj()
    first = x[np.flatnonzero(np.abs(x) > 1e-10 * np.max(np.abs(x)))[0]]
    return x * np.exp(-1j * np.angle(first))


def _fock_amplitudes(alpha: complex, v: float, n: int) -> np.ndarray:
    """Amplitudes c_0 .. c_{n-1} of D(alpha)|0; v> from the three-term
    recurrence of the module notes, n >= 1: at v = 0 one cumulative product
    of the coherent recurrence, otherwise a loop over complex scalars.

    c_0 is exp(Re) e^{i Im} of its exponent, and both multiply c_0 by the
    same gains in the same order, so they give the coherent amplitudes the
    same values.  The guard |v| <= 2 is a DomainError.
    """
    if not abs(v) <= 2.0:
        raise DomainError(f"|v| = {abs(v):.2f} exceeds the guard |v| <= 2")
    ch, th = np.cosh(v), np.tanh(v)
    root = np.sqrt(np.arange(n))
    gain = (alpha * ch + np.conj(alpha) * np.sinh(v)) / ch / root[1:]
    a2 = np.conj(alpha) ** 2
    cur = complex(np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * th * a2.real)
                  * np.exp(-0.5j * th * a2.imag) / np.sqrt(ch))
    if v == 0:
        return np.cumprod(np.append(cur, gain))
    gain, back = gain.tolist(), (th * root[:-1] / root[1:]).tolist()
    prev, out = 0j, [cur]
    for g, b in zip(gain, back):
        prev, cur = cur, g * cur - b * prev
        out.append(cur)
    return np.array(out)


def wh_coherent(alpha: complex, N: int, tol: float = 1e-12) -> StateVector:
    """Oscillator coherent state on an N-level number basis.

    Amplitudes are exp(-|alpha|^2/2) alpha^n / sqrt(n!), the v = 0 member of
    ``wh_squeezed``.  The dropped tail mass equals the norm deficit;
    TruncationError if it exceeds ``tol``.
    """
    return wh_squeezed(alpha, 0.0, N, tol)


def wh_squeezed(alpha: complex, v: float, N: int, tol: float = STATE_TOL) -> StateVector:
    """Displaced squeezed state D(alpha) |0; v> on N levels.

    The amplitudes come from the recurrence of the module notes and are
    exact up to round-off, so the norm deficit is the dropped tail mass:
    TruncationError if it exceeds ``tol``.  The guard |v| <= 2, a
    non-finite alpha and an N that is not a whole number are DomainErrors.
    For v = 0 this is the coherent state.
    """
    N = check_levels(N)
    if N < 1:
        raise DimensionTooSmall("need at least one level")
    return _tail_checked(_fock_amplitudes(complex(alpha), v, N), tol, alpha,
                         "squeezed_fock", v)


def squeezed_vacuum(v: float, N: int) -> StateVector:
    """The squeezed vacuum |0; v>, annihilated by cosh(v) a + sinh(v) a+.

    ``wh_squeezed`` at alpha = 0: the odd amplitudes vanish and
    c_2m = (-tanh v)^m ((1/2)_m / m!)^{1/2} / sqrt(cosh v), the k = 1/4 disc
    coherent state at -tanh v on the even levels (Perelomov 1986), with
    c_0 real positive.  The dropped tail mass is checked against STATE_TOL
    (TruncationError).  The guard |v| <= 2 is a DomainError.
    """
    return wh_squeezed(0j, v, N)


def _tail_checked(c: np.ndarray, tol: float, alpha: complex, family: str,
                  param: float) -> StateVector:
    """The state of amplitudes c of the ``truncation_dim`` family, on its
    number or disc basis, whose norm deficit is the dropped tail mass;
    TruncationError if it exceeds tol, and DomainError (from
    ``truncation_dim``) if it is not finite for a non-finite alpha.  The
    message names the remedy: the N that ``truncation_dim`` asks for, or
    none where N already meets it, since the excess is then the amplitudes'
    own round-off, or where c_0 underflows, which ``truncation_dim``
    rejects."""
    tail = 1.0 - float(np.sum(np.abs(c) ** 2))
    if not tail <= tol:
        fix = "c_0 underflows, so truncation_dim cannot size the state"
        if not abs(c[0]) < np.finfo(float).tiny:  # a NaN c_0 is a DomainError
            need = truncation_dim(alpha, family, param, eps=tol)
            fix = (f"need N >= {need}" if len(c) < need
                   else f"N meets truncation_dim = {need}: the excess is round-off")
        raise TruncationError(f"tail mass {tail:.3e} exceeds budget {tol:.1e} "
                              f"at N = {len(c)}; {fix}")
    return StateVector(c, disc_tag(param) if family == "discrete_series" else fock_tag(),
                       tol)


def _exp_spectral(lam: np.ndarray, V: np.ndarray, psi: np.ndarray,
                  *directions: np.ndarray):
    """e^X psi and the Frechet derivatives L(X, E) psi, E in ``directions``,
    for the skew-Hermitian X = i V diag(lam) V+.

    psi is a vector or a matrix of columns.  The one set of spectral data
    serves all outputs (Daleckii-Krein, see the module notes).
    """
    c = V.conj().T @ psi
    value = (V * np.exp(1j * lam)) @ c
    phi = (np.exp(0.5j * np.add.outer(lam, lam))
           * np.sinc(np.subtract.outer(lam, lam) / (2.0 * np.pi)))
    return value, [V @ ((phi * (V.conj().T @ E @ V)) @ c) for E in directions]


def wh_displacement(alpha: complex, N: int) -> np.ndarray:
    """Displacement unitary exp(alpha a+ - conj(alpha) a) on N levels.

    Exactly unitary (exponential of a skew-Hermitian matrix, taken through
    one eigendecomposition of its generator); agrees with the true
    displacement on the well-truncated block.  No state constructor uses it.
    DomainError for a non-finite alpha and where c_0 underflows (from
    ``truncation_dim``); TruncationError if N is below the coherent tail
    budget STATE_TOL for this alpha.
    """
    if N < truncation_dim(alpha, "fock", eps=STATE_TOL):
        raise TruncationError(
            f"N = {N} below the tail budget for |alpha| = {abs(alpha):.3f}")
    lad, alpha = ladder_matrices(N), complex(alpha)
    lam, V = np.linalg.eigh(-1j * (alpha * lad.adag - np.conj(alpha) * lad.a))
    return _exp_spectral(lam, V, np.eye(N))[0]


def _generator(j: float, alpha: complex) -> np.ndarray:
    """The spin displacement generator X(alpha) = conj(alpha) L- - alpha L+."""
    spin = spin_matrices(j)
    return np.conj(alpha) * spin.lminus - alpha * spin.lplus


@lru_cache(maxsize=32)
def _unit_spectrum(j: float) -> tuple[np.ndarray, ...]:
    """Eigenvalues lam_1 and eigenvectors V_1 of -i X(1) at spin j, and the
    grading m with X(e^{i theta}) = e^{i theta m} X(1) e^{-i theta m}.

    One eigh per spin, cached; the arrays are read-only.
    """
    lam, V = np.linalg.eigh(-1j * _generator(j, 1.0))
    m = spin_matrices(j).lz.diagonal().real
    for x in (lam, V, m):
        x.setflags(write=False)
    return lam, V, m


def _displace(j: float, alpha: complex, psi: np.ndarray, directions=()):
    """e^{X(alpha)} psi and its tangents L(X(alpha), X(u)) psi, u in
    ``directions``, for the spin generators of ``_generator``.

    The spectrum of X(alpha) = |alpha| R X(1) R+ comes from the cached
    ``_unit_spectrum`` (see the module notes).  DomainError for a non-finite
    alpha.
    """
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise DomainError(f"alpha = {alpha} is not finite")
    Es = [_generator(j, complex(u)) for u in directions]
    if alpha == 0:
        return psi, [E @ psi for E in Es]
    lam, V, m = _unit_spectrum(j)
    rotation = np.exp(1j * cmath.phase(alpha) * m)
    return _exp_spectral(abs(alpha) * lam, rotation[:, None] * V, psi, *Es)


@lru_cache(maxsize=128)
def su2_squeezed_vacuum(v: float, j: float) -> StateVector:
    """Kernel state of e^v Lx - i e^{-v} Ly in the spin-j representation.

    The operator is sqrt(2) (sinh v L+ + cosh v L-), so going up from
    m = -j the amplitudes obey the two-term recurrence

        c_{m+2} = -tanh v sqrt((j-m)(j+m+1) / ((j+m+2)(j-m-1))) c_m,

    with c_{-j+1} = 0, so every odd offset from -j vanishes.  At v = 0 this is
    the lowest-weight state.  For v != 0 the chain closes at m = +j only for
    integer j; half-integer j with v != 0 raises KernelError, and a
    non-finite v DomainError.  The first amplitude in basis order above
    1e-10 of the largest is real positive.  Cached.
    """
    spin = spin_matrices(j)
    if not math.isfinite(v):
        raise DomainError(f"v = {v} is not finite")
    if v != 0 and spin.dim % 2 == 0:
        raise KernelError(f"no kernel at half-integer j = {j} with v = {v} != 0")
    m = np.arange(0, spin.dim - 2, 2) - j  # the chain's m below its top
    c = np.zeros(spin.dim)  # basis order m = j .. -j, so -j is c[-1]
    c[::-2] = np.cumprod(np.append(1.0, -np.tanh(v) * np.sqrt(
        (j - m) * (j + m + 1) / ((j + m + 2) * (j - m - 1)))))
    c *= np.sign(c[np.abs(c) > 1e-10 * np.abs(c).max()][0]) / np.linalg.norm(c)
    return StateVector(c, spin_tag(j))


def su2_displacement(alpha: complex, j: float) -> np.ndarray:
    """Spin displacement exp(conj(alpha) L- - alpha L+), L+- normalized."""
    return _displace(j, alpha, np.eye(spin_matrices(j).dim))[0]


def su2_state(alpha: complex, v: float, j: float) -> StateVector:
    """Displaced spin kernel state D(alpha) |0; v> (exact finite-dim exponential).

    v = 0 yields the standard spin coherent state attached to the lowest
    weight.  Displacement is unitary, so the result is normalized exactly.
    """
    vac = su2_squeezed_vacuum(v, j)
    return StateVector(_displace(j, alpha, vac.amps)[0], spin_tag(j))


def pochhammer_coeffs(a: float, n) -> np.ndarray:
    """((a)_n / n!)^{1/2} for each integer n >= 0 in ``n``.

    (a)_n / n! = prod_{m=1}^{n} (a + m - 1) / m is the coefficient of x^n in
    (1 - x)^{-a}; its square root is the discrete-series (a = 2k) and
    Bergman (a = 1/h) normalization, and callers that need the coefficient
    itself square it.  One cumulative product of the term ratios
    ((a + m - 1) / m)^{1/2} up to max(n) is indexed at n; it stays within a
    few ulps of the exact rational value, where log-gamma differences lose
    up to 1e-13, and its partial products are monotone, so it overflows only
    where the value does.  The product is built once per (a, max(n)) and
    kept read-only in a bounded LRU cache (``_pochhammer_table``); each call
    indexes it, so the caller receives a fresh array (a scalar for a scalar
    n).  DomainError for a negative or non-integer n and for a non-finite
    result.
    """
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or n.min(initial=0) < 0:
        raise DomainError(f"levels must be non-negative integers, got {n}")
    return _pochhammer_table(float(a), int(n.max(initial=0)))[n]


@lru_cache(maxsize=32)
def _pochhammer_table(a: float, top: int) -> np.ndarray:
    """The read-only table ((a)_m / m!)^{1/2}, m = 0 .. top, of
    ``pochhammer_coeffs``; a non-finite table raises, and is not cached."""
    k = np.arange(float(top))
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.cumprod(np.append(1.0, np.sqrt((a + k) / (k + 1.0))))
    # a non-finite partial product stays non-finite to the end of the table
    if not np.isfinite(table[-1]):
        raise DomainError(f"((a)_n / n!)^(1/2) is not finite at a = {a}")
    table.setflags(write=False)
    return table


def geometric_tail(t: float, r: float) -> float:
    """Bound t / (1 - r) on a positive series tail whose first term is t and
    whose term ratios from there on stay at or below r; inf when r >= 1."""
    return t / (1.0 - r) if r < 1.0 else np.inf


def su11_coherent(alpha: complex, k: float, N: int, tol: float = 1e-12) -> StateVector:
    """Disc coherent state of the positive discrete series, k > 1/2.

    Amplitudes (1-|alpha|^2)^k [Gamma(n+2k)/(n! Gamma(2k))]^{1/2} alpha^n on
    the basis |n, k>; requires |alpha| < 1.  The binomial identity
    sum Gamma(n+2k)/(n! Gamma(2k)) x^n = (1-x)^{-2k} makes the dropped tail
    mass equal to the norm deficit, checked against ``tol``.  DomainError
    unless N is a whole number of levels (7.0 counts as 7).
    """
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise DomainError(f"|alpha| = {abs(alpha):.4f} outside the unit disc")
    if k <= 0.5:
        raise DomainError(f"discrete-series label must satisfy k > 1/2, got {k}")
    N = check_levels(N)
    if N < 1:
        raise DimensionTooSmall("need at least one level")
    return _tail_checked(_disc_amplitudes(alpha, k, N), tol, alpha, "discrete_series", k)


def _disc_amplitudes(alpha: complex, k: float, n: int) -> np.ndarray:
    """Amplitudes c_0 .. c_{n-1} of ``su11_coherent``, each from its own
    level: (1-|alpha|^2)^k ((2k)_m / m!)^{1/2} alpha^m."""
    m = np.arange(n)
    return (1.0 - abs(alpha) ** 2) ** k * pochhammer_coeffs(2.0 * k, m) * alpha**m


def truncation_dim(alpha: complex, family: str, param: float = 0.0,
                   eps: float = 1e-12) -> int:
    """Smallest N whose tail mass (norm deficit) beyond N is below eps.

    One rule sizes every family, from the state's own amplitudes, built
    once as one run whose prefixes are tested for 32, 64, ... levels
    (``_sized_amplitudes``):

    * ``"fock"``: the coherent oscillator state, the v = 0 member of
      ``"squeezed_fock"``.
    * ``"squeezed_fock"`` (param = v): D(alpha)|0; v>, from
      ``_fock_amplitudes``.
    * ``"discrete_series"`` (param = k > 0, |alpha| < 1): the disc coherent
      state, from ``_disc_amplitudes``.

    DomainError for a non-positive eps, a non-finite alpha, an unknown
    family, a k <= 0 or |alpha| >= 1 on the disc, |v| > 2, and where |c_0|
    is below the smallest normal double (|alpha| > 37.6 for the coherent
    state), where the amplitudes lose their precision.
    """
    return _sized_amplitudes(alpha, family, param, eps)[1]


def _sized_amplitudes(alpha: complex, family: str, param: float,
                      eps: float) -> tuple[np.ndarray, int]:
    """The amplitudes of ``truncation_dim``'s family at alpha, run to n
    levels, and the smallest N <= n - 2 whose tail mass beyond N is below
    eps.

    n doubles from 32 until the last pair of terms bounds the rest
    geometrically below 1e-3 eps and at least half the unit mass has been
    seen.  Pair sums t_n + t_{n+1} of t_n = |c_n|^2 smooth out the
    even-odd alternation of squeezed states.  Their ratios tend to a limit
    r: 0 for the coherent oscillator state, tanh^2 v for a squeezed one
    (from above when the displacement has an anti-squeezed part and from
    below otherwise) and at most |alpha|^2 on the disc (falling toward it
    for 2k > 1, rising for 2k < 1), so the larger of the last ratio and r
    bounds the rest.  The tail beyond each N is then a suffix sum of exact
    terms plus that rest, free of the cancellation in 1 - sum |c_n|^2.

    The amplitudes are built once, as a run of 32 2^m levels, the first
    such length not below log(1e-3 eps) / log(r) (32 where r = 0), twice
    that for the oscillator, whose pair ratio spans two levels, and each
    n is tested on the run's prefix; the run is built again, twice as long,
    only when n passes its end.  Each amplitude depends on its level alone,
    so a prefix of the run is the state its constructor builds on that many
    levels, and the result does not depend on the run's length.  A long
    disc run can overflow its normalizations (``pochhammer_coeffs``) where
    c_0 underflows; the run then starts at 32 levels, so the error raised
    is that underflow.  DomainError where 1e-3 eps is no positive double.
    """
    if not 1e-3 * eps > 0:
        raise DomainError(f"tail budget eps must be positive and above 1e-3 of "
                          f"the smallest double, got {eps}")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        # the amplitude runs below would never converge
        raise DomainError(f"alpha = {alpha} is not finite")
    if family in ("fock", "squeezed_fock"):
        v = param if family == "squeezed_fock" else 0.0
        # the squeezed terms fall by tanh^2 v over two levels
        build, limit, span = partial(_fock_amplitudes, alpha, v), np.tanh(v) ** 2, 2
    elif family == "discrete_series":
        if not param > 0:
            raise DomainError(f"need k > 0, got {param}")
        if abs(alpha) >= 1.0:
            raise DomainError("discrete-series states require |alpha| < 1")
        build, limit, span = partial(_disc_amplitudes, alpha, param), abs(alpha) ** 2, 1
    else:
        raise DomainError(f"unknown family {family!r}")
    levels = span * math.log(1e-3 * eps) / math.log(limit) if 0 < limit < 1 else 0.0
    try:
        c = build(32 << max(0, math.ceil(math.log2(max(levels, 1.0) / 32))))
    except DomainError:  # a long disc run overflows only where c_0 underflows
        c = build(32)
    if not abs(c[0]) >= np.finfo(float).tiny:
        raise DomainError(f"c_0 underflows at alpha = {alpha}, {family} {param}")
    for n in (32 << k for k in itertools.count()):
        if n > c.size:
            c = build(n)
        t = np.abs(c[:n]) ** 2
        t0, t1, t2, t3 = t[-4:].tolist()
        last, before = t2 + t3, t0 + t1
        ratio = last / before if last < before else np.inf
        rest = geometric_tail(last, max(ratio, limit)) if last else 0.0
        if rest < 1e-3 * eps and t.sum() > 0.5:
            # mass at levels >= N; the last is t[n-1] + rest <= 2 rest < eps,
            # since rest >= last >= t[n-1], so some N qualifies
            tail = np.cumsum(t[::-1])[::-1] + rest
            return c[:n], max(1, int(np.argmax(tail < eps)))
