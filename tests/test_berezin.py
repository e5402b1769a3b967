import numpy as np
import pytest
from scipy.special import beta as beta_fn, roots_jacobi

from cohgeom.errors import BasisMismatch, DomainError, QuadratureError, TruncationError
from cohgeom import berezin as bz
from cohgeom import su11_coherent, inner


SPACE = bz.BerezinSpace(h=0.25, cutoff=8)


# ---------------------------------------------------------------------------
# Cayley transform

def test_cayley_fixed_values():
    assert bz.cayley(1j) == 0
    assert bz.cayley_inv(0) == 1j
    # ((1+i) - i)/((1+i) + i) = 1/(1+2i) = (1-2i)/5
    assert bz.cayley(1 + 1j) == pytest.approx(0.2 - 0.4j)


def test_cayley_mutual_inverse(rng):
    for _ in range(50):
        w = complex(rng.normal(), rng.uniform(0.05, 4.0))
        z = bz.cayley(w)
        assert abs(z) < 1
        assert bz.cayley_inv(z) == pytest.approx(w)


def test_cayley_domain_checks():
    with pytest.raises(DomainError):
        bz.cayley(1.0 - 0.5j)
    with pytest.raises(DomainError):
        bz.cayley_inv(1.2)
    # arrays are checked point by point, NaN included
    with pytest.raises(DomainError):
        bz.cayley(np.array([1j, 2j, 0.5 + 0j]))
    with pytest.raises(DomainError):
        bz.cayley_inv(np.array([0.0, complex("nan")]))


def test_cayley_maps_arrays_pointwise(rng):
    w = rng.normal(size=(3, 4)) + 1j * rng.uniform(0.05, 4.0, size=(3, 4))
    z = bz.cayley(w)
    assert z.shape == w.shape
    assert z[1, 2] == bz.cayley(w[1, 2])
    assert np.max(np.abs(bz.cayley_inv(z) - w)) < 1e-12


# ---------------------------------------------------------------------------
# basis functions

def test_basis_psi_lowest_levels():
    assert bz.basis_psi(0, 0.3 + 0.2j, 0.25) == 1.0
    z = 0.3 + 0.2j
    assert bz.basis_psi(1, z, 0.25) == pytest.approx(np.sqrt(4.0) * z)


def test_basis_f_vanishes_at_center():
    for l in range(1, 6):
        assert bz.basis_f(l, 1j, 0.25) == 0
    w = np.array([1j, 2j, 1 + 1j])
    assert np.allclose(bz.basis_f(3, w, 0.25),
                       bz.basis_psi(3, bz.cayley(w), 0.25), rtol=0, atol=1e-15)


def test_basis_coeff_log_space_stability():
    # large l and small h stay finite through the log-space product
    val = bz.basis_psi(40, 1.0, 0.05)
    assert np.isfinite(val) and val.real > 0


# ---------------------------------------------------------------------------
# inner product and Gram

def test_psi0_normalized():
    val = bz.disc_inner(lambda z: bz.basis_psi(0, z, SPACE.h),
                        lambda z: bz.basis_psi(0, z, SPACE.h), SPACE)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_psi0_psi1_orthogonal():
    val = bz.disc_inner(lambda z: bz.basis_psi(0, z, SPACE.h),
                        lambda z: bz.basis_psi(1, z, SPACE.h), SPACE)
    assert abs(val) < 1e-12


def test_psi3_normalized_quadrature_vs_beta_identity():
    # independent oracle: (psi_3, psi_3) = c_3^2 (1/h - 1) B(4, 1/h - 1)
    val = bz.disc_inner(lambda z: bz.basis_psi(3, z, SPACE.h),
                        lambda z: bz.basis_psi(3, z, SPACE.h), SPACE)
    c3 = bz.basis_psi(3, 1.0, SPACE.h).real
    analytic = c3**2 * (1 / SPACE.h - 1) * beta_fn(4.0, 1 / SPACE.h - 1)
    assert val == pytest.approx(analytic, abs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("h", [0.45, 0.25, 0.1])
def test_gram_orthonormality(h):
    space = bz.BerezinSpace(h=h, cutoff=12)
    G = bz.gram_matrix(space)
    assert np.max(np.abs(G - np.eye(12))) < 1e-8


def test_quadrature_gate_raises_on_rough_integrand():
    # integrand with a jump across the refinement cannot converge
    space = bz.BerezinSpace(h=0.25, cutoff=4, n_radial=4, n_angular=8,
                            quad_tol=1e-14)
    rough = lambda z: np.where(np.abs(z) > 0.3456, 1.0, -1.0)
    one = lambda z: np.ones_like(z)
    with pytest.raises(QuadratureError):
        bz.disc_inner(one, rough, space)
    with pytest.raises(QuadratureError):
        bz.toeplitz_operator(rough, space)


@pytest.mark.parametrize("h", [0.45, 0.1])
def test_matrix_assembly_matches_entrywise_inner_products(h):
    # oracle: one gated disc_inner per entry, as (psi_l, g psi_m)_D
    space = bz.BerezinSpace(h=h, cutoff=6)
    g = lambda z: np.exp(z) / (2.0 - np.conj(z))
    psi = lambda l: (lambda z: bz.basis_psi(l, z, h))
    T_ref = np.array([[bz.disc_inner(psi(l), lambda z, m=m: g(z) * psi(m)(z),
                                     space) for m in range(6)]
                      for l in range(6)])
    G_ref = np.array([[bz.disc_inner(psi(l), psi(m), space) for m in range(6)]
                      for l in range(6)])
    assert np.max(np.abs(bz.toeplitz_operator(g, space) - T_ref)) < 1e-14
    assert np.max(np.abs(bz.gram_matrix(space) - G_ref)) < 1e-14


def test_one_rule_per_configuration(monkeypatch):
    built = []

    def counting(n, alpha):
        built.append((n, alpha))
        return roots_jacobi(n, alpha, 0.0)

    bz._radial_rule.cache_clear()
    monkeypatch.setattr(bz, "roots_jacobi", counting)
    hs = (0.2, 0.1, 0.05)
    bz.correspondence_report(
        lambda sp: bz.toeplitz_operator(lambda z: np.real(z) + 0j, sp),
        lambda sp: bz.toeplitz_operator(lambda z: np.imag(z) + 0j, sp),
        1.5j, hs, cutoff=8)
    # base and doubled radial node counts, once each per h
    assert sorted(built) == sorted((n, 1.0 / h - 2.0)
                                   for h in hs for n in (64, 128))
    u, w = bz._radial_rule(0.2, 64)
    assert not (u.flags.writeable or w.flags.writeable)


# the Bergman exponents 1/h - 2 at h = 0.45, 0.25, 0.1, 0.05, 0.02
@pytest.mark.parametrize("alpha", [1 / h - 2 for h in (0.45, 0.25, 0.1, 0.05, 0.02)])
@pytest.mark.parametrize("n", [8, 64, 128])
def test_roots_jacobi_matches_scipy_and_beta_moments(n, alpha):
    from scipy.special import betaln

    x, w = bz.roots_jacobi(n, alpha)
    assert np.max(np.abs(x - roots_jacobi(n, alpha, 0.0)[0])) <= 1e-14
    # Integral_0^1 u^m (1-u)^alpha du = B(m + 1, alpha + 1), u = (1 + x)/2,
    # exact for the rule at every degree m < 2n
    u, w_u = 0.5 * (x + 1.0), w * 2.0 ** (-(alpha + 1.0))
    m = np.arange(2 * n)
    moments = (w_u * u ** m[:, None]).sum(axis=1)
    assert np.max(np.abs(moments / np.exp(betaln(m + 1.0, alpha + 1.0)) - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [64, 128])
def test_roots_jacobi_total_mass_near_the_singular_weight(n):
    # at h = 0.9 the weight (1 - x)^alpha, alpha = 1/h - 2, is close to
    # non-integrable at x = 1; the weights still sum to 2^{alpha+1}/(alpha+1)
    alpha = 1 / 0.9 - 2.0
    _, w = bz.roots_jacobi(n, alpha)
    mass = 2.0 ** (alpha + 1.0) / (alpha + 1.0)
    assert abs(w.sum() / mass - 1.0) <= 1e-14


@pytest.mark.parametrize("n, alpha", [(0, 1.0), (4, -1.0), (4, 1023.0), (4, np.nan)])
def test_roots_jacobi_domain(n, alpha):
    with pytest.raises(DomainError):
        bz.roots_jacobi(n, alpha)


# ---------------------------------------------------------------------------
# kernel and coherent states

def test_kernel_at_center_is_one():
    assert bz.kernel(1j, 1j, SPACE) == 1.0
    for p in (2j, 1 + 1j, -0.5 + 0.3j):
        assert bz.kernel(p, 1j, SPACE) == 1.0


def test_kernel_matches_closed_form():
    # truncation aside, K(p, q) = (1 - eps(p) conj(eps(q)))^(-1/h)
    space = bz.BerezinSpace(h=0.25, cutoff=48, tail_tol=1e-12)
    for (p, q) in ((2j, 2j), (1 + 1j, 2j), (0.5 + 0.5j, -0.3 + 0.8j)):
        zp, zq = bz.cayley(p), bz.cayley(q)
        closed = (1 - zp * np.conj(zq)) ** (-1 / space.h)
        assert bz.kernel(p, q, space) == pytest.approx(closed, abs=1e-10)


def test_kernel_tail_budget():
    space = bz.BerezinSpace(h=0.25, cutoff=4, tail_tol=1e-12)
    with pytest.raises(TruncationError):
        bz.kernel(3j, 3j, space)  # |eps(3i)| = 0.5, tail far above budget


def test_reproducing_property():
    space = bz.BerezinSpace(h=0.25, cutoff=12)
    for p in (1j, 2j, 1 + 1j):
        tau = bz.coherent_state_fn(p, space)
        for l in (0, 2):
            fl = lambda w, l=l: bz.basis_f(l, w, space.h)
            lhs = bz.halfplane_inner(tau, fl, space)
            assert lhs == pytest.approx(bz.basis_f(l, p, space.h), abs=1e-10)


def test_coherent_overlap_equals_kernel():
    space = bz.BerezinSpace(h=0.25, cutoff=24)
    p, q = 2j, 1 + 1j
    tp = bz.coherent_state_fn(p, space)
    tq = bz.coherent_state_fn(q, space)
    assert bz.halfplane_inner(tp, tq, space) == pytest.approx(
        bz.kernel(p, q, space), abs=1e-10)


def test_kernel_matches_disc_series_overlap():
    # the k = 1/(2h) disc family reproduces the kernel up to the weights
    h = 0.25
    k = 1.0 / (2.0 * h)
    space = bz.BerezinSpace(h=h, cutoff=64, tail_tol=1e-12)
    for (p, q) in ((2j, 1 + 1j), (0.5j, -0.2 + 0.4j)):
        zp, zq = bz.cayley(p), bz.cayley(q)
        sp = su11_coherent(zp, k, 64)
        sq = su11_coherent(zq, k, 64)
        lhs = inner(sp, sq)
        weight = ((1 - abs(zp) ** 2) ** k) * ((1 - abs(zq) ** 2) ** k)
        rhs = weight * np.conj(bz.kernel(p, q, space))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# symbols and star products

def test_symbol_of_identity():
    space = bz.BerezinSpace(h=0.25, cutoff=24)
    eye = np.eye(24, dtype=complex)
    for (p, q) in ((1j, 1j), (2j, 1 + 1j)):
        s = bz.symbol(eye, p, q, space)
        assert s.raw == pytest.approx(bz.kernel(p, q, space))
        assert s.normalized == pytest.approx(1.0)


def test_symbol_of_projector_and_diagonal_at_center():
    space = bz.BerezinSpace(h=0.25, cutoff=8)
    proj = np.zeros((8, 8), dtype=complex)
    proj[0, 0] = 1.0
    assert bz.symbol(proj, 1j, 1j, space).raw == pytest.approx(1.0)
    diag = np.diag(np.arange(8, dtype=complex) + 5.0)
    assert bz.symbol(diag, 1j, 1j, space).raw == pytest.approx(5.0)


def test_symbol_rejects_a_mis_shaped_operator():
    space = bz.BerezinSpace(h=0.25, cutoff=8)
    with pytest.raises(BasisMismatch):
        bz.symbol(np.eye(7, dtype=complex), 1j, 1j, space)


def test_star_with_identity_is_symbol():
    space = bz.BerezinSpace(h=0.2, cutoff=10)
    T = bz.toeplitz_operator(lambda z: np.real(z) + 0j, space)
    eye = np.eye(10, dtype=complex)
    p = 1.5j
    assert bz.star(T, eye, p, space).raw == pytest.approx(
        bz.symbol(T, p, p, space).raw, abs=1e-12)


def test_commuting_diagonal_operators_star_symmetric():
    space = bz.BerezinSpace(h=0.2, cutoff=8)
    d1 = np.diag(np.arange(8, dtype=complex))
    d2 = np.diag(np.arange(8, dtype=complex) ** 2)
    p = 1 + 1j
    s12 = bz.star(d1, d2, p, space).raw
    s21 = bz.star(d2, d1, p, space).raw
    assert s12 == pytest.approx(s21, abs=1e-14)


def test_toeplitz_of_z_matches_closed_form():
    # (T_z)_{m+1,m} = sqrt((m+1) h / (1 + m h)), quadrature vs algebra
    space = bz.BerezinSpace(h=0.2, cutoff=6)
    T = bz.toeplitz_operator(lambda z: z, space)
    for m in range(5):
        expected = np.sqrt((m + 1) * space.h / (1 + m * space.h))
        assert T[m + 1, m] == pytest.approx(expected, abs=1e-10)
    off = T.copy()
    off[np.arange(1, 6), np.arange(5)] = 0
    assert np.max(np.abs(off)) < 1e-10


def test_star_correspondence_limits():
    g1 = lambda z: np.real(z) + 0j
    g2 = lambda z: np.imag(z) + 0j
    rep = bz.correspondence_report(
        lambda sp: bz.toeplitz_operator(g1, sp),
        lambda sp: bz.toeplitz_operator(g2, sp),
        1.5j, (0.2, 0.1, 0.05), cutoff=12)
    prods = [r.dev_product for r in rep.rows]
    bracks = [r.dev_bracket for r in rep.rows]
    assert prods[0] > prods[1] > prods[2]
    assert bracks[0] > bracks[1] > bracks[2]
    assert rep.order_product >= 0.8
    assert rep.order_bracket >= 1.5  # O(h^2) once the factor is right
    # the adopted convention factor beats the alternatives at the smallest h
    for devs in rep.alt_bracket_devs.values():
        assert bracks[-1] < devs[-1]


def test_one_h_fits_no_order():
    rep = bz.correspondence_report(
        lambda sp: bz.toeplitz_operator(lambda z: np.real(z) + 0j, sp),
        lambda sp: bz.toeplitz_operator(lambda z: np.imag(z) + 0j, sp),
        1.5j, (0.2,), cutoff=8)
    assert np.isnan(rep.order_product) and np.isnan(rep.order_bracket)


def test_poisson_bracket_across_charts():
    # {A1, A2}_disc at eps(w) equals the half-plane bracket at w
    A1 = lambda z: np.real(z) ** 2 + np.imag(z)
    A2 = lambda z: np.real(z) * np.imag(z)
    P1 = lambda w: A1(bz.cayley(w))
    P2 = lambda w: A2(bz.cayley(w))
    for w in (1.5j, 1 + 1j, -0.5 + 2j):
        z = bz.cayley(w)
        lhs = bz.poisson_disc(A1, A2, z)
        rhs = bz.poisson_halfplane(P1, P2, w)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_measure_invariance_against_dblquad():
    # disc-side quadrature vs an independent half-plane integral with the
    # hyperbolic density 1/(4 (Im w)^2) and the transported weight
    from scipy.integrate import dblquad

    h = 0.25
    space = bz.BerezinSpace(h=h, cutoff=4)
    cases = {
        "constant": lambda z: np.ones_like(z),
        "level1": lambda z: np.abs(bz.basis_psi(1, z, h)) ** 2,
    }
    for name, phi in cases.items():
        disc_val = bz.disc_inner(lambda z: np.ones_like(z), phi, space).real

        def integrand(x, y):
            w = complex(x, y)
            z = (w - 1j) / (w + 1j)
            weight = (4 * y / (abs(w) ** 2 + 2 * y + 1)) ** (1 / h)
            density = 1.0 / (np.pi * 4 * y**2)
            return float(np.real(phi(np.array(z)))) * weight * density

        hp_val, err = dblquad(integrand, 1e-6, np.inf,
                              lambda y: -np.inf, lambda y: np.inf,
                              epsabs=1e-9, epsrel=1e-9)
        hp_val *= (1 / h - 1)
        assert disc_val == pytest.approx(hp_val, abs=1e-7), name
