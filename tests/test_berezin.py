import math
import tracemalloc
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn, roots_jacobi

from cohgeom.errors import BasisMismatch, DomainError, QuadratureError, TruncationError
from cohgeom import berezin as bz
from cohgeom import cli, su11_coherent, inner
from cohgeom.states import pochhammer_coeffs


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


def test_quadrature_gate_raises_on_rough_integrand(monkeypatch):
    # integrand with a jump across the refinement cannot converge
    monkeypatch.setattr(bz, "N_RADIAL", 4)
    monkeypatch.setattr(bz, "N_ANGULAR", 8)
    monkeypatch.setattr(bz, "QUAD_TOL", 1e-14)
    space = bz.BerezinSpace(h=0.25, cutoff=4)
    rough = lambda z: np.where(np.abs(z) > 0.3456, 1.0, -1.0)
    one = lambda z: np.ones_like(z)
    with pytest.raises(QuadratureError):
        bz.disc_inner(one, rough, space)
    with pytest.raises(QuadratureError):
        bz.toeplitz_operator(rough, space)


@pytest.mark.parametrize("h", [0.45, 0.2, 0.05])
@pytest.mark.parametrize("L", [8, 12, 40])
def test_monomial_toeplitz_entries_match_the_beta_form(h, L):
    # (psi_l, z^a conj(z)^b psi_m)_D = (nu - 1) c_l c_m B(l + b + 1, nu - 1)
    # when l + b = m + a and 0 otherwise, nu = 1/h and
    # c_l^2 = Gamma(nu + l) / (Gamma(nu) l!): from math.lgamma alone, sharing
    # nothing with the Gauss-Jacobi rule or the FFT assembly
    nu = 1.0 / h
    log_c = [0.5 * (math.lgamma(nu + l) - math.lgamma(nu) - math.lgamma(l + 1.0))
             for l in range(L)]
    space = bz.BerezinSpace(h=h, cutoff=L)
    for a in range(4):
        for b in range(4):
            exact = np.zeros((L, L))
            for l in range(L):
                m = l + b - a
                if 0 <= m < L:
                    log_beta = (math.lgamma(l + b + 1.0) + math.lgamma(nu - 1.0)
                                - math.lgamma(l + b + nu))
                    exact[l, m] = (nu - 1.0) * math.exp(log_c[l] + log_c[m] + log_beta)
            T = bz.toeplitz_operator(lambda z: z**a * np.conj(z) ** b, space)
            assert np.max(np.abs(T - exact)) < 2e-13, (a, b)


@pytest.mark.parametrize("name", ["1/(1.05 - |z|^2)", "|z|^200"])
def test_gate_doubles_beyond_the_exact_rule(name):
    # neither multiplier is a low-degree polynomial in |z|^2: the first
    # pairs of rules disagree, and a later doubling converges to the value
    # of a much finer rule
    g = {"1/(1.05 - |z|^2)": lambda z: 1.0 / (1.05 - np.abs(z) ** 2) + 0j,
         "|z|^200": lambda z: np.abs(z) ** 200 + 0j}[name]
    space = bz.BerezinSpace(h=0.25, cutoff=8)
    T = bz.toeplitz_operator(g, space)
    assert np.max(np.abs(T - bz._multiplier_matrix(g, space, 512, 1024))) < 1e-12


def test_gate_error_names_the_last_pair_of_rules():
    # exp(30 |z|^2) has not converged at the last pair tried, the 64- and
    # 128-node rules at cutoff 8
    space = bz.BerezinSpace(h=0.25, cutoff=8)
    with pytest.raises(QuadratureError, match=r"changed the integral by 5\.798e-04 .*"
                       r"between 64x256 and 128x512 nodes$"):
        bz.toeplitz_operator(lambda z: np.exp(30.0 * np.abs(z) ** 2) + 0j, space)


@pytest.mark.parametrize("L, base, last", [
    (1, 8, 64), (8, 8, 64), (13, 8, 64),  # 2n - 1 >= L + 2 from 8 nodes
    (14, 16, 64), (29, 16, 64),
    (30, 32, 128), (40, 32, 128), (125, 64, 256),  # 4 base beyond L = 29
])
def test_gate_ladder_from_the_cutoff(L, base, last):
    # the coarse radial count starts at the smallest 8 2^k with
    # 2n - 1 >= L + 2 and doubles up to max(64, 4 base), every coarse rule
    # on N_ANGULAR angles against the doubled grid
    tried = []

    def level(n_radial, n_angular):
        tried.append((n_radial, n_angular))
        return np.array([float(n_radial)])  # every doubling changes it by >= 16

    with pytest.raises(QuadratureError, match=rf"between {last}x256 and "
                       rf"{2 * last}x512 nodes$"):
        bz._gated(level, L)
    ns = [base]
    while ns[-1] < last:
        ns.append(2 * ns[-1])
    assert tried == [pair for n in ns for pair in ((n, 256), (2 * n, 512))]


def test_report_all_berezin_checks_settle_on_the_first_pair(monkeypatch):
    # at cutoffs 8 and 12 every gated integral of report-all's Berezin
    # checks passes its first pair, 8x256 against 16x512: only the 8- and
    # 16-node rules are built, once per h
    built, gates, gated = [], [], bz._gated

    def counting(n, alpha):
        built.append((n, alpha))
        return roots_jacobi(n, alpha, 0.0)

    def recording(level, cutoff):
        tried = []
        gates.append(tried)

        def traced(n_radial, n_angular):
            tried.append((n_radial, n_angular))
            return level(n_radial, n_angular)

        return gated(traced, cutoff)

    bz._radial_rule.cache_clear()
    bz._halfplane_grid.cache_clear()
    monkeypatch.setattr(bz, "roots_jacobi", counting)
    monkeypatch.setattr(bz, "_gated", recording)
    for name, run in cli.CHECKS:
        if name.startswith("berezin-"):
            assert run().passed, name
    assert sorted(built) == sorted((n, 1.0 / h - 2.0)
                                   for h in (0.45, 0.25, 0.2, 0.1, 0.05) for n in (8, 16))
    assert gates and all(tried == [(8, 256), (16, 512)] for tried in gates)


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


def _multiplier_by_exponential_sum(g, space, n_r, n_a):
    """(psi_l, g psi_m)_D on one quadrature level, the angular mode of each
    entry written out as (1/n_a) sum_a g(z_ra) e^{i (m - l) theta_a}."""
    L, h = space.cutoff, space.h
    u, w = bz._radial_rule(h, n_r)
    theta = 2.0 * np.pi * np.arange(n_a) / n_a
    r = np.sqrt(u)
    vals = np.broadcast_to(g(r[:, None] * np.exp(1j * theta)[None, :]), (n_r, n_a))
    c = np.array([bz.basis_psi(l, 1.0, h).real for l in range(L)])
    T = np.empty((L, L), dtype=complex)
    for l in range(L):
        for m in range(L):
            mode = np.sum(vals * np.exp(1j * (m - l) * theta), axis=1) / n_a
            T[l, m] = (1.0 / h - 1.0) * c[l] * c[m] * np.sum(w * r ** (l + m) * mode)
    return T


@pytest.mark.parametrize("h, L, n_r, n_a", [
    (0.25, 8, 16, 256),   # report-all's gram and star configurations
    (0.25, 8, 64, 256),   # the coarse level of the last pair tried from the base
    (0.1, 16, 128, 512),
    (0.25, 8, 16, 8),     # aliased: n_a < 2L - 1
    (0.2, 12, 48, 6),
    (0.2, 12, 44, 6),     # and a last block of 4 rings
])
@pytest.mark.parametrize("name", ["one", "z^3 conj(z)", "exp(z)/(2 - conj(z))",
                                  "|z - 0.3|"])
def test_multiplier_modes_match_the_exponential_sum(h, L, n_r, n_a, name):
    g = {"one": np.ones_like, "z^3 conj(z)": lambda z: z**3 * np.conj(z),
         "exp(z)/(2 - conj(z))": lambda z: np.exp(z) / (2.0 - np.conj(z)),
         "|z - 0.3|": lambda z: np.abs(z - 0.3) + 0j}[name]
    space = bz.BerezinSpace(h=h, cutoff=L)
    T = bz._multiplier_matrix(g, space, n_r, n_a)
    assert np.max(np.abs(T - _multiplier_by_exponential_sum(g, space, n_r, n_a))) < 1e-15
    if n_a < L and name == "one":
        # mode n_a of a constant aliases to mode 0: <psi_0, psi_{n_a}> is
        # far from 0 on this level, as the trapezoid sum itself makes it
        assert abs(T[0, n_a]) > 0.01


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
    # base and doubled radial node counts, once each per h: at cutoff 8
    # the gate starts at N_RADIAL nodes and its first pair passes
    assert sorted(built) == sorted((n, 1.0 / h - 2.0)
                                   for h in hs for n in (bz.N_RADIAL, 2 * bz.N_RADIAL))
    u, w = bz._radial_rule(0.2, bz.N_RADIAL)
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


def test_kernel_matches_closed_form(monkeypatch):
    # truncation aside, K(p, q) = (1 - eps(p) conj(eps(q)))^(-1/h)
    monkeypatch.setattr(bz, "TAIL_TOL", 1e-12)
    space = bz.BerezinSpace(h=0.25, cutoff=48)
    for (p, q) in ((2j, 2j), (1 + 1j, 2j), (0.5 + 0.5j, -0.3 + 0.8j)):
        zp, zq = bz.cayley(p), bz.cayley(q)
        closed = (1 - zp * np.conj(zq)) ** (-1 / space.h)
        assert bz.kernel(p, q, space) == pytest.approx(closed, abs=1e-10)


def test_kernel_tail_budget(monkeypatch):
    monkeypatch.setattr(bz, "TAIL_TOL", 1e-12)
    space = bz.BerezinSpace(h=0.25, cutoff=4)
    with pytest.raises(TruncationError):
        bz.kernel(3j, 3j, space)  # |eps(3i)| = 0.5, tail far above budget
    # |eps(9i)|^2 = 0.64 and (1/h + L) / (L + 1) = 1.6, so the term ratio
    # bound 1.024 leaves the tail unbounded
    with pytest.raises(TruncationError, match="not summable"):
        bz.kernel_tail_bound(9j, 9j, space)
    with pytest.raises(TruncationError, match="not summable"):
        bz.kernel(9j, 9j, space)


def test_kernel_tail_bound_where_the_coefficient_squared_overflows():
    # at 1/h = 1000 and L = 400, c_L^2 = (1000)_400 / 400! is about 1e362
    # and r^400 about 1e-330, so the first tail term is only finite formed
    # as (c_L r^{L/2})^2; a NaN or inf bound must not pass the budget
    space = bz.BerezinSpace(h=1e-3, cutoff=400)
    y = (1 + 0.15**0.5) / (1 - 0.15**0.5)  # |eps(iy)|^2 = 0.15
    L, a, r = 400, 1000.0, abs(bz.cayley(1j * y)) ** 2
    rho = (a + L) / (L + 1) * r
    log_t = math.lgamma(a + L) - math.lgamma(a) - math.lgamma(L + 1) + L * math.log(r)
    tail = bz.kernel_tail_bound(1j * y, 1j * y, space)
    assert tail == pytest.approx(math.exp(log_t) / (1 - rho), rel=1e-9)
    assert 1e31 < tail < 1e33
    with pytest.raises(TruncationError, match="exceeds"):
        bz.kernel(1j * y, 1j * y, space)


def test_reproducing_property():
    space = bz.BerezinSpace(h=0.25, cutoff=12)
    for p in (1j, 2j, 1 + 1j):
        tau = bz.coherent_state_fn(p, space)
        for l in (0, 2):
            fl = lambda w, l=l: bz.basis_f(l, w, space.h)
            lhs = bz.halfplane_inner(tau, fl, space)
            assert lhs == pytest.approx(bz.basis_f(l, p, space.h), abs=1e-10)


_upper = st.builds(complex, st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1.0, exclude_max=True), st.integers(1, 24), _upper,
       st.lists(_upper, min_size=1, max_size=6))
def test_coherent_state_fn_matches_polyval(h, cutoff, p, ws):
    # the in-place Horner loop against np.polyval of the same power series
    space = bz.BerezinSpace(h=h, cutoff=cutoff)
    series = bz.coherent_coeffs(p, space) * pochhammer_coeffs(1.0 / h, np.arange(cutoff))
    w = np.array(ws)
    z = bz.cayley(w)
    ref = np.polyval(series[::-1], z)
    scale = np.abs(series) @ (np.abs(z)[None, :] ** np.arange(cutoff)[:, None])
    tau = bz.coherent_state_fn(p, space)
    got = tau(w)
    assert got.shape == w.shape
    assert np.all(np.abs(got - ref) <= 4 * cutoff * np.finfo(float).eps * scale)
    # a scalar point gives a scalar, as from np.polyval
    assert isinstance(tau(ws[0]), complex)
    assert abs(tau(ws[0]) - ref[0]) <= 4 * cutoff * np.finfo(float).eps * scale[0]


@pytest.mark.parametrize("h, n_r, n_a", [
    (0.25, bz.N_RADIAL, bz.N_ANGULAR),  # the first pair tried from the base
    (0.25, 2 * bz.N_RADIAL, 2 * bz.N_ANGULAR),
    (0.25, 16, 256),  # the first pair at cutoffs 14 to 29
    (0.25, 32, 512),
    (0.25, 64, 256),  # and the last
    (0.25, 128, 512),
    (0.2, 48, 6),
    (0.2, 3 * bz.RING_BLOCK // 2, 6),  # a last block of half the rings
])
def test_rings_are_the_tensor_grid_in_blocks(h, n_r, n_a):
    u, _ = bz._radial_rule(h, n_r)
    theta = 2.0 * np.pi * np.arange(n_a) / n_a
    z = np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]
    blocks = list(bz._rings(h, n_r, n_a))
    assert [b.shape for b in blocks] == [(min(bz.RING_BLOCK, n_r - start), n_a)
                                         for start in range(0, n_r, bz.RING_BLOCK)]
    assert np.concatenate(blocks).tobytes() == z.tobytes()


def test_quadrature_keeps_no_grid_sized_array():
    # at a fresh h, a Gram matrix and a half-plane inner product keep no
    # more than the rules and the half-plane image, and no call holds more
    # than 1.5 fine grids at once beyond the image it builds; at cutoff 16
    # the gate's first pair, 16x256 against 32x512, spans several ring
    # blocks, so a whole grid would show
    n_radial = 16
    coarse = n_radial * bz.N_ANGULAR * np.dtype(complex).itemsize
    fine = 4 * coarse
    h = 0.3
    space = bz.BerezinSpace(h=h, cutoff=16)
    tau = bz.coherent_state_fn(1j, space)
    bz._radial_rule.cache_clear()
    bz._halfplane_grid.cache_clear()
    tracemalloc.start()
    try:
        for call, image in ((lambda: bz.gram_matrix(space), False),
                            (lambda: bz.halfplane_inner(tau, tau, space), True)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            after, peak = tracemalloc.get_traced_memory()
            built = image * sum(w.nbytes for n in (1, 2) for w in bz._halfplane_grid(
                h, n * n_radial, n * bz.N_ANGULAR))
            assert after - before - built < coarse
            assert peak - before - built < 1.5 * fine
    finally:
        tracemalloc.stop()


def test_halfplane_grid_is_cached_and_read_only():
    blocks = bz._halfplane_grid(0.25, 64, 256)
    assert isinstance(blocks, tuple)
    assert blocks is bz._halfplane_grid(0.25, 64, 256)
    rings = list(bz._rings(0.25, 64, 256))
    assert len(blocks) == len(rings)
    for w, z in zip(blocks, rings):
        assert np.array_equal(w, bz.cayley_inv(z))
        with pytest.raises(ValueError):
            w[0, 0] = 1j


def test_reproducing_dev_maps_each_level_once(monkeypatch):
    # each block of each level goes to the half plane once, not once per
    # function and point; each function still maps its points back through
    # cayley
    mapped = []

    def counting(z):
        mapped.append(np.shape(z))
        return cayley_inv(z)

    cayley_inv = bz.cayley_inv
    bz._halfplane_grid.cache_clear()
    monkeypatch.setattr(bz, "cayley_inv", counting)
    space = bz.BerezinSpace(h=0.25, cutoff=8)
    for p in (1j, 2j, 1 + 1j):
        assert cli.reproducing_dev(space, p) < cli.KERNEL_TOL
    rings = {}
    for n_rings, n_angles in mapped:
        assert n_rings <= bz.RING_BLOCK
        rings[n_angles] = rings.get(n_angles, 0) + n_rings
    assert rings == {bz.N_ANGULAR: bz.N_RADIAL, 2 * bz.N_ANGULAR: 2 * bz.N_RADIAL}
    assert len(mapped) == sum(len(bz._halfplane_grid(0.25, n * bz.N_RADIAL,
                                                     n * bz.N_ANGULAR))
                              for n in (1, 2))


def test_coherent_overlap_equals_kernel():
    space = bz.BerezinSpace(h=0.25, cutoff=24)
    p, q = 2j, 1 + 1j
    tp = bz.coherent_state_fn(p, space)
    tq = bz.coherent_state_fn(q, space)
    assert bz.halfplane_inner(tp, tq, space) == pytest.approx(
        bz.kernel(p, q, space), abs=1e-10)


def test_kernel_matches_disc_series_overlap(monkeypatch):
    # the k = 1/(2h) disc family reproduces the kernel up to the weights
    h = 0.25
    k = 1.0 / (2.0 * h)
    monkeypatch.setattr(bz, "TAIL_TOL", 1e-12)
    space = bz.BerezinSpace(h=h, cutoff=64)
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


# ---------------------------------------------------------------------------
# guard branches

def test_space_needs_a_positive_cutoff():
    with pytest.raises(DomainError, match="cutoff must be at least 1"):
        bz.BerezinSpace(h=0.25, cutoff=0)
