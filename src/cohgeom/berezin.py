"""Berezin quantization of the upper half plane through the unit disc.

The half plane maps to the disc by the Cayley transform eps(w) = (w-i)/(w+i).
For 0 < h < 1 the weighted Bergman inner product on disc functions is

    (phi, psi)_D = (1/h - 1) Integral conj(phi) psi (1-|z|^2)^{1/h} dmu,
    dmu = (1/pi) dx dy / (1-|z|^2)^2,

under which the monomial basis

    psi_l(z) = [ (1/h)(1/h + 1)...(1/h - 1 + l) / l! ]^{1/2} z^l

is orthonormal; f_l = psi_l o eps is the corresponding half-plane basis.
This is the basis of the positive discrete series at 2k = 1/h (see
``states``), whose ``pochhammer_coeffs`` and ``geometric_tail`` give the
normalizations and the kernel tail bound here.  ``cayley`` and
``cayley_inv`` map scalars or arrays and check that every point lies in
their domain.
Radial quadrature uses Gauss-Jacobi nodes in u = r^2 with the Bergman weight
(1-u)^{1/h-2} built into the rule, so polynomial integrands are integrated
essentially exactly even where the weight exponent is not an integer; the
angular direction is the uniform (trapezoid) rule, exact for trigonometric
polynomials below the node count.  Each Gauss-Jacobi rule (``roots_jacobi``,
numpy only) is built once per (h, node count), on first use, and kept
read-only.  The tensor grid of a rule is never built whole: its rings are
streamed RING_BLOCK at a time (``_rings``), and every integrand is evaluated,
reduced and dropped block by block.  The half-plane image of each block,
cayley_inv(z), is the one cache beside the rules: it is built by the first
``halfplane_inner`` at each (h, level) and kept read-only; the half-plane
functions are evaluated there, and each still maps the points back to the
disc through ``cayley``, so the integral still tests the Cayley pullback.
Every quadrature result is gated by a refinement doubling: a single inner
product, or a whole Gram/Toeplitz matrix at once, whose coarse and doubled
versions must agree entry by entry to QUAD_TOL.  The grid is sized from the
space's cutoff L: the radial count starts at the smallest n = N_RADIAL 2^k
with 2n - 1 >= L + 2, so the n-node rule already integrates every basis
product times z^a conj(z)^b, a, b <= 3, exactly (a polynomial of degree at
most L + 2 in u); the angular count starts at N_ANGULAR.  N_RADIAL is one
RING_BLOCK, 8 nodes, which suffice up to L = 13.  On a miss the radial count
doubles until the coarse rule has max(N_RADIAL_LAST, 4n) nodes, and
QuadratureError names the last pair tried: 64x256 against 128x512 below
L = 30, and 4n x 256 against 8n x 512 from there on.  The angular count is
not sized from L: a band-limited multiplier such as z^64 aliases the same
way on 32 and on 64 angles, so a doubling of short trapezoid rules would not
show it, while a too-short Gauss rule does show in the doubling.  A space is
``BerezinSpace(h, cutoff)``; the base node counts N_RADIAL x N_ANGULAR, the
ladder's floor N_RADIAL_LAST, QUAD_TOL and the kernel's tail budget TAIL_TOL
are module constants.  A matrix is assembled in one pass from the angular
Fourier modes of its multiplier, one block of rings at a time,

    T[l, m] = (1/h - 1) c_l c_m sum_r w_r r^{l+m} ghat_{m-l}(r),
    ghat_k(r) = mean_theta g(r e^{i theta}) e^{i k theta},

which regroups the same sums over the same nodes as the L^2 separate
integrals (psi_l, g psi_m)_D.  On the uniform angles every ghat_k(r) is one
entry of the inverse FFT of g along its ring, so the modes take no
exponential table and no matrix product, whose OpenBLAS zgemm would wake a
second thread that then spins on a core.

With the cutoff L, the reproducing kernel and coherent states are

    K_h(p, q)  = sum_l f_l(p) conj(f_l(q)),
    tau_p      = sum_l conj(f_l(p)) f_l = K_h(., p),

the coefficient ordering for tau_p being the one (verified numerically) that
makes (tau_p, f)_H = f(p) with the conjugate-linear-in-first-slot product.
K_h(p, q) is therefore the identity's raw symbol (tau_p, tau_q)_H, taken
from the same coefficients conj(f_l) = ``pochhammer_coeffs(1/h, l)``
conj(eps^l) as every other symbol, so the kernel has one home.

Symbols: the two-point symbol of an operator is (tau_p, A tau_q)_H; both the
raw value and the covariant one (divided by K_h(p, q)) are exposed, and all
semiclassical limits are phrased in the covariant symbol.  The covariant
symbol of the identity is exactly 1 by construction.  The composition
symbol ("star product") satisfies, as h -> 0,

    star12 -> A1 A2            and    star12 - star21 = h {A1, A2}_D + O(h^2),

with {A1, A2}_D = (1-|z|^2)^2 (dzbar A1 dz A2 - dzbar A2 dz A1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BasisMismatch, DomainError, QuadratureError, TruncationError
from .states import geometric_tail, pochhammer_coeffs

FD_STEP = 1e-5  # central-difference step of the Wirtinger derivatives
# quadrature rings per streamed block and per inverse FFT: a block of the
# doubled grid (64 KiB) stays below glibc's 128 KiB mmap threshold, so its
# temporaries reuse the heap instead of faulting in fresh pages
RING_BLOCK = 8
# smallest base grid, one RING_BLOCK of rings; the gate sizes and doubles it
N_RADIAL, N_ANGULAR = 8, 256
N_RADIAL_LAST = 64  # the gate doubles until its coarse rule has max(this, 4 base) nodes
QUAD_TOL = 1e-8  # largest entry change the doubling may make
TAIL_TOL = 1e-10  # largest kernel tail bound ``kernel`` accepts

__all__ = [
    "BerezinSpace",
    "cayley",
    "cayley_inv",
    "basis_psi",
    "basis_f",
    "disc_inner",
    "halfplane_inner",
    "gram_matrix",
    "kernel",
    "kernel_tail_bound",
    "coherent_coeffs",
    "coherent_state_fn",
    "SymbolPair",
    "symbol",
    "star",
    "toeplitz_operator",
    "poisson_disc",
    "poisson_halfplane",
    "correspondence_report",
]


@dataclass(frozen=True)
class BerezinSpace:
    """Weight parameter h and basis cutoff.

    0 < h < 1 keeps the weight exponent 1/h - 2 > -1 and the measure finite.
    The quadrature grid and tolerances are the module constants.
    """

    h: float
    cutoff: int = 8

    def __post_init__(self):
        if not (0.0 < self.h < 1.0):
            raise DomainError(f"weight parameter must satisfy 0 < h < 1, got {self.h}")
        if self.cutoff < 1:
            raise DomainError("cutoff must be at least 1")


def cayley(w):
    """Half plane to unit disc, (w - i)/(w + i), for a point or an array.

    DomainError unless every point has Im w > 0.
    """
    w = np.asarray(w, dtype=complex)
    outside = ~(w.imag > 0)
    if outside.any():
        raise DomainError(f"point {w[outside].flat[0]} is not in the upper half plane")
    return (w - 1j) / (w + 1j)


def cayley_inv(z):
    """Unit disc to half plane, i (1 + z)/(1 - z), for a point or an array.

    DomainError unless every point has |z| < 1.
    """
    z = np.asarray(z, dtype=complex)
    outside = ~(np.abs(z) < 1.0)
    if outside.any():
        raise DomainError(f"point {z[outside].flat[0]} is not in the open unit disc")
    return 1j * (1.0 + z) / (1.0 - z)


def basis_psi(l: int, z, h: float):
    """Disc basis function psi_l(z); accepts scalars or arrays."""
    return pochhammer_coeffs(1.0 / h, l) * np.asarray(z, dtype=complex) ** l


def basis_f(l: int, w, h: float):
    """Half-plane basis function f_l = psi_l o cayley; accepts scalars or
    arrays."""
    return basis_psi(l, cayley(w), h)


def roots_jacobi(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule of n nodes for Integral_{-1}^1 (1-x)^alpha g(x) dx.

    The nodes are the eigenvalues of the Jacobi matrix of P_k = P_k^(alpha, 0)
    (Golub & Welsch 1969).  In u = (1 + x)/2 that matrix is B^T B for an
    upper bidiagonal B with the explicit entries below (the chain-sequence
    factorization of a weight on [0, 1]), so the nodes are 2 sigma^2 - 1 over
    the singular values sigma of B.  np.linalg.svd reduces the dense B by
    Householder steps, which is O(n^3): on a 2-core host it took 0.19, 0.67,
    6.6 and 44 ms at n = 64, 128, 256 and 512, so the gate builds the
    shortest rule that is exact for its integrands.  One pass of the
    three-term recurrence over all nodes gives P_n and P_{n-1}, hence

        (2n + alpha) (1 - x^2) P_n' = n (alpha - (2n + alpha) x) P_n
                                      + 2n (n + alpha) P_{n-1},

    one Newton step on the nodes and the weights
    2^{alpha+1} / ((1 - x^2) P_n'^2) (Hale & Townsend 2013), which keep
    their relative accuracy where they are tiny; weights from the first
    eigenvector components do not.  As alpha -> -1, 1 - x^2 at the node
    nearest 1 carries that node's absolute error, so the weights are scaled
    to the exact total mass 2^{alpha+1} / (alpha + 1), as scipy does.
    DomainError unless n >= 1 and -1 < alpha < 1023, where 2^{alpha+1} is
    finite.
    """
    if n < 1 or not -1.0 < alpha < 1023.0:
        raise DomainError(f"Gauss-Jacobi rule needs n >= 1 and -1 < alpha < 1023, "
                          f"got n = {n}, alpha = {alpha}")
    k = np.arange(float(n))
    s = 2.0 * k + alpha
    B = np.diag(np.sqrt((k + 1.0) * (k + alpha + 1.0) / ((s + 1.0) * (s + 2.0))))
    B += np.diag(np.sqrt(k[1:] * (k[1:] + alpha) / (s[1:] * (s[1:] + 1.0))), 1)
    x = 2.0 * np.linalg.svd(B, compute_uv=False)[::-1] ** 2 - 1.0
    # P_m = (a_m x + b_m) P_{m-1} - c_m P_{m-2} for m = 2..n, from P_0 = 1
    m = np.arange(2.0, n + 1.0)
    s = 2.0 * m + alpha
    d = 2.0 * m * (m + alpha) * (s - 2.0)
    a_m, b_m = (s - 1.0) * s * (s - 2.0) / d, (s - 1.0) * alpha**2 / d
    c_m = 2.0 * (m + alpha - 1.0) * (m - 1.0) * s / d
    p_prev, p = np.ones(n), 0.5 * ((alpha + 2.0) * x + alpha)
    for row, c in zip(a_m[:, None] * x + b_m[:, None], c_m.tolist()):
        p_prev, p = p, row * p - c * p_prev
    s = 2.0 * n + alpha
    dp = n * ((alpha - s * x) * p + 2.0 * (n + alpha) * p_prev) / s  # (1 - x^2) P_n'
    x = x - p * (1.0 - x * x) / dp
    w = (1.0 - x * x) / dp**2
    return x, w * (2.0 ** (alpha + 1.0) / (alpha + 1.0) / w.sum())


@functools.lru_cache(maxsize=128)
def _radial_rule(h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for Integral_0^1 (1-u)^{1/h-2} g(u) du (u = r^2).

    Built once per (h, n) and returned read-only, since every caller shares
    the cached arrays.
    """
    alpha = 1.0 / h - 2.0
    x, w = roots_jacobi(n, alpha)
    u = 0.5 * (x + 1.0)
    w = w * 2.0 ** (-(alpha + 1.0))
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _rings(h: float, n_radial: int, n_angular: int):
    """Tensor grid z = sqrt(u_r) e^{i theta_a} of the n_radial x n_angular
    rule, RING_BLOCK rings at a time."""
    u, _ = _radial_rule(h, n_radial)
    r = np.sqrt(u)[:, None]
    e = np.exp(1j * (2.0 * np.pi * np.arange(n_angular) / n_angular))[None, :]
    for start in range(0, n_radial, RING_BLOCK):
        yield r[start:start + RING_BLOCK] * e


@functools.lru_cache(maxsize=8)
def _halfplane_grid(h: float, n_radial: int, n_angular: int) -> tuple:
    """Read-only Cayley image cayley_inv(z) of each ``_rings`` block, the
    nodes on which ``halfplane_inner`` evaluates its functions."""
    blocks = tuple(cayley_inv(z) for z in _rings(h, n_radial, n_angular))
    for w in blocks:
        w.flags.writeable = False
    return blocks


def _gated_inner(grid: Callable, phi: Callable, psi: Callable,
                 space: BerezinSpace) -> complex:
    """Integral of conj(phi) psi at the ring blocks
    ``grid(h, n_radial, n_angular)`` under the disc rule's weights, gated by
    one refinement doubling; each ring's angular mean is taken block by
    block."""
    def level(n_radial, n_angular):
        _, wu = _radial_rule(space.h, n_radial)
        means = np.concatenate([
            np.asarray(np.conj(phi(x)) * psi(x), dtype=complex).mean(axis=1)
            for x in grid(space.h, n_radial, n_angular)])
        return complex((1.0 / space.h - 1.0) * np.sum(wu * means))
    return _gated(level, space.cutoff)


def _gated(level: Callable, cutoff: int):
    """``level(n_radial, n_angular)`` on a grid and on the doubled one.

    The grid (n, N_ANGULAR) starts at the smallest n = N_RADIAL 2^k with
    2n - 1 >= cutoff + 2 and is compared with (2n, 2 N_ANGULAR); on a miss
    n doubles up to max(N_RADIAL_LAST, 4 base), so every cutoff below 30
    ends at 64 nodes whatever its base.  Returns the refined value of the
    first pair that agrees to QUAD_TOL in every entry, and raises
    QuadratureError, naming the last pair, otherwise.
    """
    n = N_RADIAL
    while 2 * n - 1 < cutoff + 2:
        n *= 2
    last = max(N_RADIAL_LAST, 4 * n)
    while True:
        coarse, fine = level(n, N_ANGULAR), level(2 * n, 2 * N_ANGULAR)
        delta = float(np.max(np.abs(fine - coarse)))
        if delta <= QUAD_TOL:
            return fine
        if n >= last:
            raise QuadratureError(
                f"refinement changed the integral by {delta:.3e} (> {QUAD_TOL:.1e}) "
                f"between {n}x{N_ANGULAR} and {2 * n}x{2 * N_ANGULAR} nodes")
        n *= 2


def disc_inner(phi: Callable, psi: Callable, space: BerezinSpace) -> complex:
    """Weighted Bergman inner product of two disc functions.

    ``phi`` and ``psi`` must accept complex arrays; they are evaluated on
    one block of RING_BLOCK rings at a time, so nothing grid-sized is built.
    A rule and its doubled refinement, sized by ``_gated``, must agree to
    QUAD_TOL or QuadratureError is raised; the refined value is returned.
    """
    return _gated_inner(_rings, phi, psi, space)


def halfplane_inner(f: Callable, g: Callable, space: BerezinSpace) -> complex:
    """(f, g)_H, the disc inner product of the pulled-back pair.

    ``f`` and ``g`` take half-plane points (arrays) and are evaluated on
    the cached Cayley image of each block of rings, so each block is mapped
    to the half plane once per (h, level); the image is the only cached
    array besides the rules, and the blocks, the weights and the QUAD_TOL
    gate are those of ``disc_inner``.
    """
    return _gated_inner(_halfplane_grid, f, g, space)


def gram_matrix(space: BerezinSpace) -> np.ndarray:
    """Gram matrix of the first ``cutoff`` basis functions under quadrature.

    This is the Toeplitz matrix of g = 1, kept as a quadrature result (not
    the exact identity) so that it checks the rule itself.
    """
    return _gated(functools.partial(_multiplier_matrix, np.ones_like, space),
                  space.cutoff)


def kernel_tail_bound(p: complex, q: complex, space: BerezinSpace) -> float:
    """Geometric bound on the kernel series tail beyond the cutoff, from its
    first term (c_L r^{L/2})^2, formed so that neither factor overflows."""
    r = abs(cayley(p) * np.conj(cayley(q)))
    if r == 0.0:
        return 0.0
    L = space.cutoff
    rho = (1.0 / space.h + L) / (L + 1.0) * r
    if rho >= 1.0:
        raise TruncationError(
            f"kernel series not summable at cutoff {L}: ratio {rho:.3f} >= 1")
    t_L = (pochhammer_coeffs(1.0 / space.h, L) * r ** (L / 2.0)) ** 2
    return float(geometric_tail(t_L, rho))


def kernel(p: complex, q: complex, space: BerezinSpace) -> complex:
    """Truncated reproducing kernel K_h(p, q) = sum_l f_l(p) conj(f_l(q)).

    The conjugate acts on the second argument's coefficient functions; the
    value is the identity's raw symbol, from ``coherent_coeffs``.
    TruncationError if the geometric tail bound exceeds TAIL_TOL, i.e.
    when the truncation misrepresents the full kernel at these points.
    """
    tail = kernel_tail_bound(p, q, space)
    if not tail <= TAIL_TOL:  # NaN fails too
        raise TruncationError(
            f"kernel tail bound {tail:.3e} exceeds {TAIL_TOL:.1e}; "
            "increase the cutoff")
    return complex(np.vdot(coherent_coeffs(p, space), coherent_coeffs(q, space)))


def coherent_coeffs(p: complex, space: BerezinSpace) -> np.ndarray:
    """Coefficients of tau_p in the f_l basis: conj(f_l(p))."""
    ls = np.arange(space.cutoff)
    return np.conj(pochhammer_coeffs(1.0 / space.h, ls) * cayley(p) ** ls)


def coherent_state_fn(p: complex, space: BerezinSpace) -> Callable:
    """tau_p as a function on the half plane (vectorized)."""
    # power-series coefficients of tau_p in the disc variable z = cayley(w)
    series = coherent_coeffs(p, space) * pochhammer_coeffs(
        1.0 / space.h, np.arange(space.cutoff))

    def tau(w):
        # Horner from the top coefficient, in place: np.polyval's arithmetic
        # without a fresh grid-sized array per coefficient
        z = cayley(w)
        y = np.full(z.shape, series[-1])
        for c in series[-2::-1]:
            y *= z
            y += c
        return y[()]  # a scalar for a scalar w, as from np.polyval

    return tau


@dataclass(frozen=True)
class SymbolPair:
    """Raw two-point symbol and its covariant (kernel-normalized) version."""

    raw: complex
    normalized: complex


def symbol(P: np.ndarray, p: complex, q: complex, space: BerezinSpace) -> SymbolPair:
    """Two-point symbol (tau_p, P tau_q)_H of an operator matrix.

    Evaluated exactly in the orthonormal basis (Parseval), which the
    quadrature Gram gate validates independently.  The covariant symbol
    divides by K_h(p, q) = conj(vp) . vq, the identity's raw symbol from the
    same coefficients, so for the identity it is exactly 1.
    """
    L = space.cutoff
    if P.shape != (L, L):
        raise BasisMismatch(f"operator must be {L}x{L} for this space")
    vq = coherent_coeffs(q, space)
    vp = coherent_coeffs(p, space)
    raw = complex(np.conj(vp) @ (P @ vq))
    return SymbolPair(raw, raw / complex(np.conj(vp) @ vq))


def star(P1: np.ndarray, P2: np.ndarray, p: complex, space: BerezinSpace) -> SymbolPair:
    """Symbol of the composition P1 P2 at the diagonal point (p, p)."""
    return symbol(P1 @ P2, p, p, space)


def _multiplier_matrix(g: Callable, space: BerezinSpace,
                       n_radial: int, n_angular: int) -> np.ndarray:
    """(psi_l, g psi_m)_D for all l, m < cutoff on one quadrature level.

    The rings are streamed RING_BLOCK at a time (``_rings``): g is
    evaluated on each block, and of the block's inverse FFT along the angles
    only the angular Fourier modes k = m - l = -(L-1)..L-1 are kept, at
    index k mod n_angular (aliased, as the trapezoid sum itself is, when
    n_angular < 2L - 1).  No grid-sized array is built or cached.
    """
    L = space.cutoff
    ls = np.arange(L)
    u, wu = _radial_rule(space.h, n_radial)
    ks = np.arange(1 - L, L) % n_angular
    modes = np.concatenate([  # mean_theta g e^{i k theta}
        np.fft.ifft(np.broadcast_to(np.asarray(g(z), dtype=complex), z.shape),
                    axis=1)[:, ks]
        for z in _rings(space.h, n_radial, n_angular)])
    radial = np.sqrt(u)[:, None] ** ls  # r^l, n_radial x L
    by_diff = modes[:, ls[None, :] - ls[:, None] + L - 1]  # ghat_{m-l}(r)
    T = np.einsum("rl,rm,rlm->lm", wu[:, None] * radial, radial, by_diff)
    c = pochhammer_coeffs(1.0 / space.h, ls)
    return (1.0 / space.h - 1.0) * c[:, None] * c[None, :] * T


def toeplitz_operator(g: Callable, space: BerezinSpace) -> np.ndarray:
    """Multiplication-then-project operator with entries (psi_l, g psi_m)_D.

    This is the fixed quantization rule used to build operator families that
    are comparable across different h.  ``g`` takes disc points (arrays).
    A quadrature and its doubled refinement, sized by ``_gated``, must agree
    to QUAD_TOL in every entry or QuadratureError is raised; the refined
    matrix is returned.
    """
    return _gated(functools.partial(_multiplier_matrix, g, space), space.cutoff)


def _wirtinger(A: Callable, z: complex):
    # dz = (dx - i dy)/2, dzbar = (dx + i dy)/2 by central differences
    ax = (A(z + FD_STEP) - A(z - FD_STEP)) / (2.0 * FD_STEP)
    ay = (A(z + 1j * FD_STEP) - A(z - 1j * FD_STEP)) / (2.0 * FD_STEP)
    return 0.5 * (ax - 1j * ay), 0.5 * (ax + 1j * ay)


def poisson_disc(A1: Callable, A2: Callable, z: complex) -> complex:
    """Disc Poisson bracket (1-|z|^2)^2 (dzbar A1 dz A2 - dzbar A2 dz A1)."""
    d1, d1b = _wirtinger(A1, z)
    d2, d2b = _wirtinger(A2, z)
    return complex((1.0 - abs(z) ** 2) ** 2 * (d1b * d2 - d2b * d1))


def poisson_halfplane(P1: Callable, P2: Callable, w: complex) -> complex:
    """Half-plane bracket 4 (Im w)^2 (dwbar P1 dw P2 - dwbar P2 dw P1)."""
    d1, d1b = _wirtinger(P1, w)
    d2, d2b = _wirtinger(P2, w)
    return complex(4.0 * w.imag**2 * (d1b * d2 - d2b * d1))


@dataclass(frozen=True)
class CorrespondenceRow:
    h: float
    star12: complex
    star21: complex
    product: complex
    bracket: complex
    dev_product: float
    dev_bracket: float


@dataclass(frozen=True)
class CorrespondenceReport:
    """Semiclassical limits of the star product across an h sequence.

    ``dev_product`` tracks |star12 - A1 A2| (expected O(h)) and
    ``dev_bracket`` tracks |(star12 - star21) - h {A1, A2}_D| (expected
    O(h^2)); ``alt_bracket_devs`` records the same deviation under the
    alternative convention factors {-1, i, -i} multiplying h {.,.}, so the
    adopted factor +1 is falsifiable from the report alone.
    """

    rows: tuple
    order_product: float
    order_bracket: float
    alt_bracket_devs: dict


def _fit_order(hs, devs) -> float:
    # NaN, which fails every floor, unless two deviations are positive
    hs = np.asarray(hs, float)
    devs = np.asarray(devs, float)
    mask = devs > 0
    if mask.sum() < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(hs[mask]), np.log(devs[mask]), 1)
    return float(slope)


def correspondence_report(factory1: Callable, factory2: Callable, p: complex,
                          h_values, cutoff: int = 16) -> CorrespondenceReport:
    """Evaluate both limits of the star product over decreasing h.

    ``factory1/2`` map a BerezinSpace to an operator matrix (the same
    construction rule at every h, e.g. a ``toeplitz_operator`` of a fixed
    disc function).  Covariant symbols are used throughout.  The bracket
    reference uses finite-difference Wirtinger derivatives of the symbols.
    """
    rows = []
    alt = {"-1": [], "i": [], "-i": []}
    zeta = cayley(p)
    for h in h_values:
        space = BerezinSpace(h=h, cutoff=cutoff)
        P1 = factory1(space)
        P2 = factory2(space)
        s12 = star(P1, P2, p, space).normalized
        s21 = star(P2, P1, p, space).normalized
        sym1 = lambda z, P1=P1, space=space: _symbol_at_disc(P1, z, space)
        sym2 = lambda z, P2=P2, space=space: _symbol_at_disc(P2, z, space)
        prod = sym1(zeta) * sym2(zeta)
        pb = poisson_disc(sym1, sym2, zeta)
        dev_br = abs((s12 - s21) - h * pb)
        rows.append(CorrespondenceRow(h, s12, s21, complex(prod), pb,
                                      abs(s12 - prod), dev_br))
        for key, unit in (("-1", -1), ("i", 1j), ("-i", -1j)):
            alt[key].append(abs((s12 - s21) - unit * h * pb))
    hs = [r.h for r in rows]
    return CorrespondenceReport(
        rows=tuple(rows),
        order_product=_fit_order(hs, [r.dev_product for r in rows]),
        order_bracket=_fit_order(hs, [r.dev_bracket for r in rows]),
        alt_bracket_devs={k: tuple(v) for k, v in alt.items()},
    )


def _symbol_at_disc(P: np.ndarray, z, space: BerezinSpace):
    """Covariant symbol as a function of the disc coordinate (vectorized)."""
    z = np.asarray(z, dtype=complex)
    ls = np.arange(space.cutoff)
    c = pochhammer_coeffs(1.0 / space.h, ls)
    f = c * z.reshape(-1, 1) ** ls  # f_l at each disc point, one row per point
    num = np.sum(f * (np.conj(f) @ P.T), axis=1)
    den = np.sum(np.abs(f) ** 2, axis=1)  # K(z, z) over the same rows
    out = num / den
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)
