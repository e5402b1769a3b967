import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohgeom import (
    DimensionTooSmall,
    DomainError,
    InvalidSpin,
    KernelError,
    StateFamily,
    TangentSpec,
    TruncationError,
    analytic_tangent,
    family_state,
    inner,
    ladder_matrices,
    spin_matrices,
    squeezed_vacuum,
    su2_displacement,
    su2_squeezed_vacuum,
    su2_state,
    su11_coherent,
    truncation_dim,
    wh_coherent,
    wh_displacement,
    wh_squeezed,
)
from cohgeom import states
from cohgeom.states import (
    STATE_TOL,
    _displace,
    _exp_spectral,
    geometric_tail,
    kernel_vector,
    pochhammer_coeffs,
)
from conftest import doubling_sized_amplitudes, fs_distance, su2_tilde_minus


# ---------------------------------------------------------------------------
# ladder and spin matrices

def test_ladder_n2_entries():
    lad = ladder_matrices(2)
    assert np.allclose(lad.a, [[0, 1], [0, 0]])


def test_ladder_creation_sqrt_rule():
    lad = ladder_matrices(3)
    assert lad.adag[2, 1] == pytest.approx(np.sqrt(2))


def test_ladder_commutator_on_interior_block():
    lad = ladder_matrices(8)
    comm = lad.a @ lad.adag - lad.adag @ lad.a
    # direct matrix product: identity on the first 6 basis vectors
    assert np.allclose(comm[:6, :6], np.eye(6))
    assert np.allclose(comm[:, :6][6:], 0)


def test_ladder_too_small():
    with pytest.raises(DimensionTooSmall):
        ladder_matrices(1)


def test_spin_half_is_half_pauli():
    spin = spin_matrices(0.5)
    assert np.allclose(spin.lz, np.diag([0.5, -0.5]))
    comm = spin.lx @ spin.ly - spin.ly @ spin.lx
    assert np.allclose(comm, 1j * spin.lz)


def test_spin_invalid():
    with pytest.raises(InvalidSpin):
        spin_matrices(0.7)
    with pytest.raises(InvalidSpin):
        spin_matrices(-1)
    # 2j overflows to inf, which round() cannot take: still InvalidSpin
    for j in (1e308, -1e308, float("nan")):
        with pytest.raises(InvalidSpin):
            spin_matrices(j)


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0])
def test_spin_algebra_and_casimir(j):
    spin = spin_matrices(j)
    pairs = ((spin.lx, spin.ly, spin.lz), (spin.ly, spin.lz, spin.lx),
             (spin.lz, spin.lx, spin.ly))
    for A, B, C in pairs:
        assert np.max(np.abs(A @ B - B @ A - 1j * C)) < 1e-12
    casimir = spin.lx @ spin.lx + spin.ly @ spin.ly + spin.lz @ spin.lz
    assert np.max(np.abs(casimir - j * (j + 1) * np.eye(spin.dim))) < 1e-10


def test_spin_two_eigenvalues():
    # eigen-solve oracle for the z generator
    spin = spin_matrices(2)
    eig = np.sort(np.linalg.eigvalsh(spin.lz))
    assert np.allclose(eig, [-2, -1, 0, 1, 2])


def test_spin_ladder_normalization():
    # [L+, L-] = Lz in the normalized convention
    spin = spin_matrices(1.0)
    comm = spin.lplus @ spin.lminus - spin.lminus @ spin.lplus
    assert np.allclose(comm, spin.lz)


# ---------------------------------------------------------------------------
# coherent states

def test_coherent_vacuum_exact():
    psi = wh_coherent(0, 8)
    assert psi.amps[0] == 1
    assert np.all(psi.amps[1:] == 0)


def test_coherent_norm_from_series():
    # sum |alpha|^(2n)/n! = e^(|alpha|^2), so the truncated norm tends to 1
    psi = wh_coherent(1.0, 40)
    assert abs(psi.norm - 1.0) < 1e-12


def test_coherent_amplitude_ratio():
    # consecutive amplitudes follow alpha^n/sqrt(n!)
    psi = wh_coherent(0.5, 30)
    assert psi.amps[1] / psi.amps[0] == pytest.approx(0.5)


def test_coherent_eigenvector_property():
    lad = ladder_matrices(64)
    for alpha in (0.5, 1 + 1j, 2.0, -1.3 + 0.7j):
        n = truncation_dim(alpha, "fock", eps=1e-12)
        psi = wh_coherent(alpha, max(n, 16))
        resid = lad.a[: psi.dim, : psi.dim] @ psi.amps - alpha * psi.amps
        # the truncation edge row is the only inexact one
        assert np.linalg.norm(resid[:-1]) < 1e-11


def test_coherent_tail_budget_enforced():
    with pytest.raises(TruncationError):
        wh_coherent(2.0, 6)


def _coherent_loop(alpha, N):
    # c_n = c_{n-1} g_n for the gains g_n = alpha / sqrt(n), one level at a
    # time
    gain = alpha / np.sqrt(np.arange(1.0, N))
    c = np.zeros(N, dtype=complex)
    c[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, N):
        c[n] = c[n - 1] * gain[n - 1]
    return c


@pytest.mark.parametrize("alpha, N", [(0j, 1), (0j, 8), (0.5, 16), (1 + 1j, 40),
                                      (-1.3 + 0.7j, 64), (5j, 200),
                                      (20 * np.exp(0.3j), 600)])
def test_coherent_cumulative_product_matches_loop(alpha, N):
    # the cumulative product multiplies in the loop's order, so the values
    # are the loop's to the bit
    loop = _coherent_loop(complex(alpha), N)
    assert np.array_equal(wh_coherent(alpha, N).amps, loop)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 30), st.floats(0, 1), st.integers(1, 600))
def test_coherent_amplitudes_are_the_recurrence_loop(r, turn, n):
    # value for value (an amplitude that underflows may differ in the sign
    # of its 0)
    alpha = r * np.exp(2j * np.pi * turn)
    assert np.array_equal(states._fock_amplitudes(alpha, 0.0, n), _coherent_loop(alpha, n))


def test_coherent_underflow_still_truncation_error():
    # exp(-|alpha|^2 / 2) underflows to 0, so every level is 0 as in the loop
    assert not np.any(_coherent_loop(40.0 + 0j, 600))
    for alpha in (40.0, 40j):
        with pytest.raises(TruncationError):
            wh_coherent(alpha, 600)


# ---------------------------------------------------------------------------
# displacement

def test_displacement_identity():
    D = wh_displacement(0, 8)
    assert np.allclose(D, np.eye(8))


def test_displacement_matches_series():
    for alpha in (0.5, 1 + 0.5j, 2.0):
        D = wh_displacement(alpha, 64)
        vac = np.zeros(64, dtype=complex)
        vac[0] = 1.0
        series = wh_coherent(alpha, 64).amps
        assert np.linalg.norm(D @ vac - series) < 1e-10


def test_displacement_unitary_on_truncated_block():
    D = wh_displacement(1.5, 64)
    gap = D.conj().T @ D - np.eye(64)
    assert np.max(np.abs(gap[:32, :32])) < 1e-10


def test_displacement_group_law_up_to_phase():
    # D(a)D(b)|0> and D(a+b)|0> agree as rays
    N = 80
    a, b = 0.7 + 0.2j, -0.4 + 0.9j
    vac = wh_coherent(0, N)
    lhs_amps = wh_displacement(a, N) @ (wh_displacement(b, N) @ vac.amps)
    lhs = type(vac)(lhs_amps, vac.basis, 1e-10)
    rhs = wh_coherent(a + b, N)
    assert fs_distance(lhs, rhs.normalized()) < 1e-8


def test_displacement_truncation_guard():
    with pytest.raises(TruncationError):
        wh_displacement(2.0, 8)


# ---------------------------------------------------------------------------
# squeezed states

def test_squeezed_vacuum_even_parity():
    vac = squeezed_vacuum(0.5, 64)
    assert np.max(np.abs(vac.amps[1::2])) < 1e-12


def test_squeezed_vacuum_kernel_residual():
    lad = ladder_matrices(64)
    at = np.cosh(0.5) * lad.a + np.sinh(0.5) * lad.adag
    vac = squeezed_vacuum(0.5, 64)
    assert np.linalg.norm(at @ vac.amps) < 1e-10


def test_squeezed_vacuum_phase_convention():
    vac = squeezed_vacuum(0.5, 64)
    assert vac.amps[0].real > 0
    assert abs(vac.amps[0].imag) < 1e-14


def test_squeezed_v0_equals_coherent():
    psi = wh_squeezed(0.8 + 0.1j, 0.0, 64)
    ref = wh_coherent(0.8 + 0.1j, 64)
    assert np.linalg.norm(psi.amps - ref.amps) < 1e-9


def test_squeezed_eigenvalue_property():
    # a_v D(alpha)|0;v> = (alpha cosh v + conj(alpha) sinh v) D(alpha)|0;v>
    v, N = 0.5, 96
    lad = ladder_matrices(N)
    at = np.cosh(v) * lad.a + np.sinh(v) * lad.adag
    for alpha in (0.0, 1.0, 1 - 0.5j):
        psi = wh_squeezed(alpha, v, N)
        alt = alpha * np.cosh(v) + np.conj(alpha) * np.sinh(v)
        resid = at @ psi.amps - alt * psi.amps
        assert np.linalg.norm(resid[:-1]) < 1e-10


def test_squeezed_eigenvalue_matches_quadrature_form():
    # alpha tilde = e^v a1 + i e^{-v} a2 in real/imag parts
    v = 0.7
    alpha = 0.3 + 0.8j
    alt = alpha * np.cosh(v) + np.conj(alpha) * np.sinh(v)
    assert alt == pytest.approx(np.exp(v) * alpha.real + 1j * np.exp(-v) * alpha.imag)


def test_squeezed_guard_rejects_huge_v():
    with pytest.raises(DomainError):
        wh_squeezed(0, 2.5, 64)


def test_kernel_error_when_no_kernel():
    # v = 2 at N = 32: the truncated operator's smallest singular value is
    # O(1), and the closed-form squeezed vacuum drops a tail mass of 0.13
    lad = ladder_matrices(32)
    with pytest.raises(KernelError):
        kernel_vector(np.cosh(2.0) * lad.a + np.sinh(2.0) * lad.adag)
    with pytest.raises(TruncationError):
        squeezed_vacuum(2.0, 32)


def test_kernel_vector_gap_detection():
    with pytest.raises(KernelError):
        kernel_vector(np.zeros((3, 3)))
    # rank-1 matrix has a 2-dim kernel in 3-dim space
    M = np.outer([1.0, 0, 0], [1.0, 0, 0])
    with pytest.raises(KernelError):
        kernel_vector(M)
    # sigma_min / sigma_max = 1e-12 is far below the former 1e-8 gate, but far
    # above round-off for a 4 x 4 matrix: no kernel
    with pytest.raises(KernelError):
        kernel_vector(np.diag([1.0, 0.5, 0.25, 1e-12]))
    x = kernel_vector(np.diag([1.0, 0.5, 0.25, 1e-17]))
    assert np.max(np.abs(x - [0, 0, 0, 1])) < 1e-15


@pytest.mark.parametrize("build", [
    lambda N: wh_coherent(0.5, N),
    lambda N: squeezed_vacuum(0.3, N),
    lambda N: wh_squeezed(0.1, 0.2, N),
    lambda N: su11_coherent(0.1, 1.0, N),
], ids=["wh_coherent", "squeezed_vacuum", "wh_squeezed", "su11_coherent"])
def test_level_count_must_be_whole(build):
    for N in (10.5, 30.5, np.nan, np.inf):
        with pytest.raises(DomainError, match="whole number of levels"):
            build(N)
    # a whole float such as 30.0 means 30 levels
    psi = build(30.0)
    assert psi.dim == 30 and np.array_equal(psi.amps, build(30).amps)


# ---------------------------------------------------------------------------
# spin kernel states

def test_su2_lowest_weight_at_v0():
    vac = su2_squeezed_vacuum(0.0, 0.5)
    assert np.allclose(vac.amps, [0, 1])  # m = -1/2 is the last basis vector


def test_su2_kernel_residual():
    spin = spin_matrices(1.0)
    vac = su2_squeezed_vacuum(0.3, 1.0)
    assert np.linalg.norm(su2_tilde_minus(spin, 0.3) @ vac.amps) < 1e-12


def test_su2_displaced_norm_exact():
    psi = su2_state(0.4 - 0.2j, 0.0, 0.5)
    assert abs(psi.norm - 1.0) < 1e-14


def test_su2_half_integer_squeezing_has_no_kernel():
    # parity obstruction: even/odd m sectors have equal size for 2j odd
    with pytest.raises(KernelError):
        su2_squeezed_vacuum(0.5, 0.5)
    with pytest.raises(KernelError):
        su2_squeezed_vacuum(0.5, 1.5)


@pytest.mark.parametrize("j", [1.0, 2.0])
def test_su2_integer_spin_squeezed_exists(j):
    vac = su2_squeezed_vacuum(0.5, j)
    spin = spin_matrices(j)
    assert np.linalg.norm(su2_tilde_minus(spin, 0.5) @ vac.amps) < 1e-12


@pytest.mark.parametrize("twoj", range(1, 21))
def test_su2_recurrence_matches_kernel_oracle(twoj):
    # the SVD kernel, phase rule included, shares no code with the two-term
    # recurrence.  For half-integer j and v != 0 the operator is regular: its
    # smallest singular value, down to 3e-11 of the largest at j = 19/2 and
    # |v| = 0.1, is far above round-off, and the oracle finds no kernel either
    j = twoj / 2
    spin = spin_matrices(j)
    for v in (k / 10 for k in range(-20, 21)):
        if twoj % 2 and v != 0:
            s = np.linalg.svd(su2_tilde_minus(spin, v), compute_uv=False)
            assert s[-1] > 1e-13 * s[0], v
            with pytest.raises(KernelError):
                su2_squeezed_vacuum(v, j)
            with pytest.raises(KernelError):
                kernel_vector(su2_tilde_minus(spin, v))
            continue
        x = kernel_vector(su2_tilde_minus(spin, v))
        assert np.max(np.abs(su2_squeezed_vacuum(v, j).amps - x)) < 1e-13, v


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.floats(-2.0, 2.0))
def test_su2_squeezed_vacuum_is_a_unit_kernel_vector(j, v):
    vac = su2_squeezed_vacuum(v, float(j))
    assert abs(vac.norm - 1.0) < 1e-14
    assert np.linalg.norm(su2_tilde_minus(spin_matrices(j), v) @ vac.amps) < 1e-12


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_su2_non_finite_input_rejected(bad):
    with pytest.raises(DomainError):
        su2_squeezed_vacuum(bad, 1.0)
    with pytest.raises(InvalidSpin):
        spin_matrices(bad)


def _perelomov_zeta(alpha: complex) -> complex:
    # spin 1/2 on (|+>, |->) with L+- = (Lx +- i Ly)/sqrt 2: the generator
    # X = conj(alpha) L- - alpha L+ = [[0, -alpha], [conj(alpha), 0]] / sqrt 2
    # squares to -r^2 with r = |alpha|/sqrt 2, so
    # e^X |-> = cos r |-> - (alpha/|alpha|) sin r |+>
    r = abs(alpha) / np.sqrt(2.0)
    return -alpha / abs(alpha) * np.tan(r)


@pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 3.0])
def test_su2_coherent_state_is_binomial(j):
    # Perelomov (1986): D(alpha) |j, -j> is, up to a global phase,
    # sum_m sqrt(C(2j, j+m)) zeta^(j+m) |j, m> / (1 + |zeta|^2)^j
    from math import comb

    twoj = int(round(2 * j))
    for alpha in (0.3 + 0.1j, -0.7 + 0.9j, 1.4 - 1.1j):
        zeta = _perelomov_zeta(alpha)
        # basis order m = j .. -j, so j + m = 2j - index
        ref = np.array([np.sqrt(comb(twoj, twoj - i)) * zeta ** (twoj - i)
                        for i in range(twoj + 1)]) / (1 + abs(zeta) ** 2) ** j
        psi = su2_state(alpha, 0.0, j).amps
        overlap = np.vdot(ref, psi)
        assert abs(abs(overlap) - 1.0) < 1e-12
        assert np.max(np.abs(psi - overlap / abs(overlap) * ref)) < 1e-12


# ---------------------------------------------------------------------------
# disc coherent states

def test_su11_vacuum():
    psi = su11_coherent(0, 1.0, 8)
    assert psi.amps[0] == 1
    assert np.all(psi.amps[1:] == 0)


def test_su11_norm_binomial_identity():
    # sum Gamma(n+2k)/(n! Gamma(2k)) x^n = (1-x)^(-2k) makes the norm 1
    psi = su11_coherent(0.5, 1.0, 80)
    assert abs(psi.norm - 1.0) < 1e-10


def test_su11_amplitude_ratio():
    # Gamma(1+2k)/Gamma(2k) = 2k, so amp1/amp0 = sqrt(2k) alpha
    psi = su11_coherent(0.5, 1.0, 40)
    assert psi.amps[1] / psi.amps[0] == pytest.approx(np.sqrt(2) * 0.5)


def test_su11_overlap_identity():
    for alpha in (0.2, 0.5 + 0.3j, 0.9j, -0.85):
        n = truncation_dim(alpha, "discrete_series", 1.0, 1e-12)
        psi = su11_coherent(alpha, 1.0, n)
        assert inner(psi, psi) == pytest.approx(1.0, abs=1e-11)


def test_su11_domain_errors():
    with pytest.raises(DomainError):
        su11_coherent(1.0, 1.0, 32)
    with pytest.raises(DomainError):
        su11_coherent(0.5, 0.4, 32)
    with pytest.raises(TruncationError):
        su11_coherent(0.9, 1.0, 8)


# ---------------------------------------------------------------------------
# truncation sizing

def test_truncation_dim_vacuum_is_one():
    assert truncation_dim(0, "fock") == 1
    assert truncation_dim(0, "discrete_series", 1.0) == 1


def test_truncation_dim_fock_tail():
    from scipy.special import gammaln

    n = truncation_dim(1.0, "fock", eps=1e-12)
    assert n <= 64
    # numeric tail evaluation in log space
    m = np.arange(200)
    terms = np.exp(-1.0 - gammaln(m + 1.0))
    assert terms[n:].sum() < 1e-12


def test_truncation_dim_disc_tail():
    k, alpha = 1.0, 0.8
    n = truncation_dim(alpha, "discrete_series", k, eps=1e-12)
    x = abs(alpha) ** 2
    m = np.arange(0, n + 400)
    log_t = (2 * k * np.log1p(-x) + m * np.log(x)
             + np.cumsum(np.concatenate([[0.0], np.log((m[1:] + 2 * k - 1) / m[1:])])))
    tail = np.exp(log_t)[n:].sum()
    assert tail < 1e-12


def test_truncation_dim_rejects_bad_budget_and_family():
    for eps in (0.0, -1.0):
        with pytest.raises(DomainError):
            truncation_dim(0.5, "fock", eps=eps)
    with pytest.raises(DomainError):
        truncation_dim(0.5, "nosuch")
    for k in (0.0, -0.25):
        with pytest.raises(DomainError):
            truncation_dim(0.5, "discrete_series", k)
    for alpha in (1.0, -1j, 0.8 + 0.8j):  # outside the open disc
        with pytest.raises(DomainError, match=r"\|alpha\| < 1"):
            truncation_dim(alpha, "discrete_series", 1.0)


def test_geometric_tail():
    # sum_{n >= 0} 2^-n from the first term 1 with ratio 1/2
    assert geometric_tail(1.0, 0.5) == 2.0
    assert geometric_tail(1.0, 1.0) == np.inf


# a = 2k for the discrete series (k > 1/2) and a = 1/h for the Bergman space
_labels = st.floats(1.0, 12.0, exclude_min=True) | st.floats(0.02, 0.98).map(
    lambda h: 1.0 / h)


@settings(max_examples=60, deadline=None)
@given(_labels, st.integers(0, 60))
def test_pochhammer_coeffs_match_scipy_poch(a, n):
    # the oracle shares no code with the log-gamma helper
    from math import factorial

    from scipy.special import poch

    expected = poch(a, n) / factorial(n)
    c = pochhammer_coeffs(a, n)
    assert c**2 == pytest.approx(expected, rel=1e-11)
    assert pochhammer_coeffs(a, np.arange(n + 1))[-1] == c


@pytest.mark.parametrize("power", [0.5, 1.0])
def test_pochhammer_coeffs_match_exact_rationals(power):
    # ((a)_n / n!)^power from exact rationals of the float a that is passed
    # in, against the table (power 1/2) or its square (power 1)
    from fractions import Fraction
    from math import sqrt

    n = np.arange(200)
    for a in (Fraction(1, 2), Fraction(3, 7), 2, Fraction(20, 9), 4, 5, 10, 20, 50):
        exact = Fraction(float(a))
        table = pochhammer_coeffs(float(a), n)
        got = table ** (2 * power)
        value = Fraction(1)
        for m in n:
            if m:
                value *= (exact + m - 1) / m
            expected = float(value) if power == 1.0 else sqrt(float(value))
            assert abs(got[m] / expected - 1.0) <= 1e-14, (a, m)
            assert pochhammer_coeffs(float(a), int(m)) == table[m]
    assert pochhammer_coeffs(2.5, 0) == 1.0


@pytest.mark.parametrize("n", [-1, 2.0, np.array([0, 3, -2]), np.array([0.5])])
def test_pochhammer_coeffs_reject_bad_levels(n):
    with pytest.raises(DomainError):
        pochhammer_coeffs(2.0, n)


def test_pochhammer_coeffs_non_finite_is_domain_error():
    with pytest.raises(DomainError):
        pochhammer_coeffs(-0.5, 3)  # (-1/2)_1 < 0 has no real square root
    with pytest.raises(DomainError):
        pochhammer_coeffs(1e4, 1000)  # C(10999, 1000)^(1/2) ~ 1e727 overflows
    # C(1399, 400) ~ 1e362 overflows, but not its square root
    assert np.isfinite(pochhammer_coeffs(1e3, 400))


def test_pochhammer_table_is_cached_read_only_and_callers_get_copies():
    table = states._pochhammer_table(2.5, 6)
    assert table.flags.writeable is False
    assert states._pochhammer_table(2.5, 6) is table
    first = pochhammer_coeffs(2.5, np.arange(7))
    assert first.flags.writeable and not np.shares_memory(first, table)
    want = first.copy()
    first[:] = -1.0
    assert np.array_equal(pochhammer_coeffs(2.5, np.arange(7)), want)
    assert np.array_equal(table, want)
    # a scalar level is a scalar, the table's entry
    value = pochhammer_coeffs(2.5, 6)
    assert isinstance(value, np.float64) and np.ndim(value) == 0
    assert value == want[6]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 50.0), st.lists(st.integers(0, 300), min_size=1, max_size=6))
def test_pochhammer_table_extended_on_demand_is_the_full_table(a, tops):
    # each top in turn reads or extends the longest table of a; every table
    # is the one cumulative product from m = 0, bit for bit
    a += 1e-9 * len(tops)  # an a of its own, so earlier tables do not serve it
    for top in tops:
        got = pochhammer_coeffs(a, np.arange(top + 1))
        k = np.arange(float(top))
        want = np.cumprod(np.append(1.0, np.sqrt((a + k) / (k + 1.0))))
        assert got.tobytes() == want.tobytes()


def test_pochhammer_non_finite_table_is_not_cached():
    misses = states._pochhammer_table.cache_info().misses
    for _ in range(2):
        with pytest.raises(DomainError):
            pochhammer_coeffs(1e4, 1000)
    assert states._pochhammer_table.cache_info().misses == misses + 2


def test_report_all_builds_each_pochhammer_table_once(capsys):
    from cohgeom.cli import main

    states._pochhammer_table.cache_clear()
    assert main(["report-all"]) == 0
    info = states._pochhammer_table.cache_info()
    # 88 calls over 7 distinct a, each table extended on demand
    assert info.misses <= 7 and info.hits > info.misses


def _disc_tail(r: float, k: float, n: int) -> float:
    """Mass of the label-k disc state at |alpha| = r beyond level n, summed
    term by term from log-gamma (the terms past n + 4000 are negligible for
    r <= 0.95 and 2k <= 6)."""
    from math import lgamma, log, log1p

    x = r * r
    head = 2 * k * log1p(-x) - lgamma(2 * k)
    return sum(np.exp(head + lgamma(m + 2 * k) - lgamma(m + 1) + m * log(x))
               for m in range(n, n + 4000))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 3.0, exclude_min=True), st.floats(0.01, 0.95),
       st.sampled_from([1e-8, 1e-12, 1e-15]))
@example(0.01, 0.89, 1e-8)
@example(0.1, 0.905, 1e-8)
def test_truncation_dim_disc_tail_below_eps(k, r, eps):
    # for 2k < 1 the term ratios rise toward r^2, for 2k > 1 they fall to it;
    # at the two examples a bound from the current ratio alone undershoots
    n = truncation_dim(r, "discrete_series", k, eps)
    assert _disc_tail(r, k, n) <= eps


def test_truncation_dim_monotone_in_eps():
    assert (truncation_dim(1.0, "fock", eps=1e-16)
            >= truncation_dim(1.0, "fock", eps=1e-8))


def test_truncation_dim_squeezed_supports_kernel():
    # eps bounds the tail mass, so 1e-20 is the amplitude scale 1e-10
    n = truncation_dim(0.0, "squeezed_fock", 0.5, eps=1e-20)
    vac = squeezed_vacuum(0.5, n)
    lad = ladder_matrices(n)
    at = np.cosh(0.5) * lad.a + np.sinh(0.5) * lad.adag
    assert np.linalg.norm(at @ vac.amps) < 1e-9


# ---------------------------------------------------------------------------
# spectral exponential and the cached displacement spectra, against scipy's
# expm and expm_frechet

def _full_generator(family, size, alpha):
    """X(alpha) built here from the ladder entries, sharing no code with
    ``states``: alpha a+ - conj(alpha) a on ``size`` levels, or
    conj(alpha) L- - alpha L+ at spin j = ``size`` with L+- normalized."""
    if family == "wh":
        a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
        return alpha * a.T - np.conj(alpha) * a
    m = size - np.arange(int(round(2 * size)) + 1)
    lp = np.diag(np.sqrt(size * (size + 1) - m[1:] * (m[1:] + 1)), 1) / np.sqrt(2.0)
    return np.conj(alpha) * lp.T - alpha * lp


def _skew_cases():
    rng = np.random.default_rng(7)
    for N in (53, 144):
        for r in (0.5, 1.0):
            alpha, u = (r * np.exp(2j * np.pi * rng.random()) for _ in range(2))
            yield _full_generator("wh", N, alpha), _full_generator("wh", N, u)
    for j in (2.0, 3.0):
        alpha, u = (np.exp(2j * np.pi * rng.random()) for _ in range(2))
        yield _full_generator("su2", j, 0.8 * alpha), _full_generator("su2", j, u)


def _exp_eigh(X, psi, *directions):
    """The spectral kernel fed by an eigh of -iX taken here."""
    lam, V = np.linalg.eigh(-1j * X)
    return _exp_spectral(lam, V, psi, *directions)


@pytest.mark.parametrize("X,E", list(_skew_cases()))
def test_exp_skew_matches_expm_and_frechet(X, E):
    from scipy.linalg import expm, expm_frechet

    eye = np.eye(len(X))
    value, (deriv,) = _exp_eigh(X, eye, E)
    ref_value, ref_deriv = expm_frechet(X, E)
    assert np.max(np.abs(value - expm(X))) < 1e-12
    assert np.max(np.abs(value - ref_value)) < 1e-12
    assert np.max(np.abs(deriv - ref_deriv)) < 1e-12
    # acting on a vector gives the same columns
    psi = np.arange(1, len(X) + 1) / np.linalg.norm(np.arange(1, len(X) + 1))
    v_vec, (d_vec,) = _exp_eigh(X, psi, E)
    assert np.max(np.abs(v_vec - value @ psi)) < 1e-12
    assert np.max(np.abs(d_vec - deriv @ psi)) < 1e-12


def test_exp_skew_coincident_eigenvalues():
    # exactly equal eigenvalues take the sinc limit e^{i lam}; splitting them
    # by delta moves the derivative by O(delta) only
    from scipy.linalg import expm_frechet

    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    E = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    E = E - E.conj().T
    lam = np.array([0.3, 0.3, -1.2, 2.0, 0.3])
    X = 1j * np.diag(lam)
    _, (exact,) = _exp_eigh(X, np.eye(5), E)
    assert np.max(np.abs(exact - expm_frechet(X, E)[1])) < 1e-12
    for delta in (1e-6, 1e-9):
        split = 1j * np.diag(lam + np.array([0.0, delta, 0.0, 0.0, -delta]))
        _, (near,) = _exp_eigh(split, np.eye(5), E)
        assert np.max(np.abs(near - exact)) < 10 * delta
    # the same in a rotated basis, where eigh sees the degeneracy only to
    # round-off
    Xq = Q @ X @ Q.conj().T
    _, (rot,) = _exp_eigh(Xq, np.eye(5), E)
    assert np.max(np.abs(rot - expm_frechet(Xq, E)[1])) < 1e-12


_SPINS = [0.5, 1.0, 2.5, 3.0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_SPINS),
       st.sampled_from([1e-12, 0.3, 0.5, 1.0]),
       st.floats(-np.pi, np.pi, exclude_min=True),
       st.floats(-np.pi, np.pi, exclude_min=True))
@example(2.5, 1.0, np.pi, -2.0)      # negative real alpha
@example(3.0, 1e-12, -1.0, 0.0)
def test_displacement_matches_expm_and_frechet(j, r, theta, phase_u):
    # the cached spectrum of X(1), rotated to the phase of alpha and scaled
    # by |alpha|, against the exponential of the full generator X(alpha)
    from scipy.linalg import expm_frechet

    alpha, u = r * np.exp(1j * theta), np.exp(1j * phase_u)
    X, E = _full_generator("su2", j, alpha), _full_generator("su2", j, u)
    eye = np.eye(len(X))
    value, (deriv,) = _displace(j, alpha, eye, (u,))
    ref_value, ref_deriv = expm_frechet(X, E)
    assert np.max(np.abs(value - ref_value)) < 1e-12
    assert np.max(np.abs(deriv - ref_deriv)) < 1e-12
    psi = np.arange(1, len(X) + 1) / np.linalg.norm(np.arange(1, len(X) + 1))
    v_vec, (d_vec,) = _displace(j, alpha, psi, (u,))
    assert np.max(np.abs(v_vec - ref_value @ psi)) < 1e-12
    assert np.max(np.abs(d_vec - ref_deriv @ psi)) < 1e-12


def test_one_eigh_per_displacement_size(monkeypatch):
    # one spectrum per spin serves every displaced spin state
    calls = []
    eigh = np.linalg.eigh

    def counting(M):
        calls.append(len(M))
        return eigh(M)

    states._unit_spectrum.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", counting)
    for j in (2.0, 3.0):
        for k in range(8):
            su2_state(np.exp(2j * np.pi * k / 8), 0.5, j)
    assert calls == [5, 7]
    lam, V, m = states._unit_spectrum(2.0)
    assert not (lam.flags.writeable or V.flags.writeable or m.flags.writeable)


# ---------------------------------------------------------------------------
# constructor caches, and the squeezed vacuum against two oracles

def test_cached_operator_arrays_are_read_only():
    lad = ladder_matrices(8)
    spin = spin_matrices(2.0)
    vac = squeezed_vacuum(0.5, 60)
    assert ladder_matrices(8) is lad and spin_matrices(2.0) is spin
    for arr in (lad.a, lad.adag, spin.lx, spin.ly, spin.lz, vac.amps):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


@pytest.mark.parametrize("v", [0.5, -0.5])
def test_squeezed_vacuum_matches_closed_form(v):
    # c_{2m} = (-tanh v)^m sqrt((2m)!) / (2^m m! sqrt(cosh v)), odd levels 0;
    # built from log-gamma here, sharing no code with the kernel SVD
    from math import cosh, lgamma, log, tanh

    N = 60
    closed = np.zeros(N)
    for m in range(N // 2):
        closed[2 * m] = (-tanh(v)) ** m * np.exp(
            0.5 * lgamma(2 * m + 1) - m * log(2.0) - lgamma(m + 1) - 0.5 * log(cosh(v)))
    assert np.max(np.abs(squeezed_vacuum(v, N).amps - closed)) < 1e-10


@pytest.mark.parametrize("v", [0.5, -0.5, 1.0, -1.0])
def test_squeezed_vacuum_matches_kernel_oracle(v):
    # the SVD kernel of the truncated a_v shares no code with the disc formula
    N = truncation_dim(0, "squeezed_fock", v, 1e-15)
    lad = ladder_matrices(N)
    x = kernel_vector(np.cosh(v) * lad.a + np.sinh(v) * lad.adag)
    assert np.max(np.abs(x - squeezed_vacuum(v, N).amps)) < 1e-12


def test_non_finite_alpha_rejected():
    for bad in (float("nan"), complex("inf")):
        with pytest.raises(DomainError):
            truncation_dim(bad, "fock")
    with pytest.raises(DomainError):
        squeezed_vacuum(float("nan"), 16)
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(DomainError, match="not finite"):
            _displace(1.0, bad, np.eye(3))


# ---------------------------------------------------------------------------
# the displaced squeezed recurrence against the Hermite closed form

EPS = np.finfo(float).eps


def _hermite_amplitude(alpha, v, n, shift=0.0, u=0j):
    """<n|D(alpha + shift u)|0; v> at 40 digits from the Hermite closed form

        c_n = c_0 (tanh v / 2)^{n/2} H_n(beta / sqrt(sinh 2v)) / sqrt(n!),

    beta = alpha cosh v + conj(alpha) sinh v, c_0 = exp(-|alpha|^2/2 -
    tanh v conj(alpha)^2/2) / sqrt(cosh v) (Yuen 1976), evaluated by mpmath;
    it shares no code with the recurrence.  ``shift`` is real, so mpmath can
    differentiate along the direction u."""
    import mpmath as mp

    with mp.workdps(40):
        a = mp.mpc(alpha) + shift * mp.mpc(u)
        v = mp.mpf(v)
        c0 = mp.exp(-abs(a) ** 2 / 2 - mp.tanh(v) * mp.conj(a) ** 2 / 2) / mp.sqrt(mp.cosh(v))
        if v == 0:
            return c0 * a**n / mp.sqrt(mp.factorial(n))
        beta = a * mp.cosh(v) + mp.conj(a) * mp.sinh(v)
        return (c0 * mp.sqrt(mp.tanh(v) / 2) ** n
                * mp.hermite(n, beta / mp.sqrt(mp.sinh(2 * v))) / mp.sqrt(mp.factorial(n)))


def _hermite_log_c0(alpha, v):
    return -0.5 * abs(alpha) ** 2 - 0.5 * np.tanh(v) * (np.conj(alpha) ** 2).real


@settings(max_examples=30, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.0, 36.0),
       st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
@example(2.0, abs(3 + 1j), np.angle(3 + 1j), 0.3)
@example(-2.0, abs(3 - 2j), np.angle(3 - 2j), -1.0)
@example(1.0, 6.0, np.pi / 2, 0.0)
@example(2.0, 27.0, np.pi / 2, 1.0)    # anti-squeezed axis, N in the thousands
@example(2.0, 27.0, 0.0, 1.0)          # squeezed axis: c_0 underflows
@example(-2.0, 60.0, 0.0, 0.5)         # anti-squeezed axis, N = 7982
def test_squeezed_recurrence_matches_hermite_closed_form(v, r, theta, phase_u):
    # over |v| <= 2 and |alpha| <= 36, where c_0 = exp(-|alpha|^2/2) of the
    # coherent state is still a normal double; squeezing moves the underflow
    # to smaller |alpha| on the squeezed axis (truncation_dim raises) and to
    # larger |alpha| on the other, where the example at 60 stands for it.
    # The exponent of c_0 is of size |alpha|^2, so any double evaluation
    # carries a relative error eps (1 + |alpha|^2); amplitudes must stay
    # within 4 times that, tangents within 16 times (measured worst: 0.7
    # and 2.6)
    import mpmath as mp

    alpha, u = r * np.exp(1j * theta), np.exp(1j * phase_u)
    try:
        N = truncation_dim(alpha, "squeezed_fock", v, 1e-15)
    except DomainError:
        assert _hermite_log_c0(alpha, v) < np.log(np.finfo(float).tiny)
        return
    amps = wh_squeezed(alpha, v, N).amps
    levels = sorted({*np.linspace(0, N - 1, 10).astype(int), int(np.argmax(np.abs(amps)))})
    closed = [complex(_hermite_amplitude(alpha, v, n)) for n in levels]
    assert np.max(np.abs(amps[levels] - closed)) <= 4 * EPS * (1 + r * r)
    # the family's own basis, tangent included, is built without raising
    fam = StateFamily("wh", v=v)
    tangent = analytic_tangent(fam, TangentSpec(alpha, u)).amps
    levels = np.linspace(0, len(tangent) - 1, 5).astype(int)
    closed = [complex(mp.diff(lambda s: _hermite_amplitude(alpha, v, n, s, u), 0))
              for n in levels]
    assert np.max(np.abs(tangent[levels] - closed)) <= 16 * EPS * (1 + r * r)


def _closed_vacuum(v, N):
    """|0; v> on N levels from log-gamma: c_2m = (-tanh v)^m sqrt((2m)!) /
    (2^m m! sqrt(cosh v)), odd levels 0."""
    from math import cosh, lgamma, log, tanh

    c = np.zeros(N)
    for m in range((N + 1) // 2):
        c[2 * m] = (-tanh(v)) ** m * np.exp(
            0.5 * lgamma(2 * m + 1) - m * log(2.0) - lgamma(m + 1) - 0.5 * log(cosh(v)))
    return c


@settings(max_examples=8, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(0.0, 2.0),
       st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
@example(-1.0, 2.0, 0.7, 2.0)
def test_squeezed_tangent_matches_expm_frechet(v, r, theta, phase_u):
    # L(X(alpha), X(u)) |0; v> on twice the family's basis, where the
    # truncation edge cannot reach the compared levels; dense M^3 work
    # bounds the range to |v| <= 1, |alpha| <= 2
    from scipy.linalg import expm_frechet

    alpha, u = r * np.exp(1j * theta), np.exp(1j * phase_u)
    tangent = analytic_tangent(StateFamily("wh", v=v), TangentSpec(alpha, u)).amps
    N = len(tangent)
    X, E = _full_generator("wh", 2 * N, alpha), _full_generator("wh", 2 * N, u)
    ref = expm_frechet(X, E, compute_expm=False) @ _closed_vacuum(v, 2 * N)
    assert np.max(np.abs(tangent - ref[:N])) < 1e-14


@pytest.mark.parametrize("alpha, v, N", [(3 + 1j, 2.0, 863), (3 - 2j, -2.0, 870)])
def test_truncated_exponential_loses_the_top_levels(alpha, v, N):
    # the former path, e^{X_N} on the truncated vacuum, against the
    # recurrence: both match the Hermite form to round-off on the low
    # levels; from about level 700 the truncated exponential reflects off
    # the top level and is 1e-9 .. 1e-7 off there, the recurrence is not
    lam, V = np.linalg.eigh(-1j * _full_generator("wh", N, alpha))
    exp_path = V @ (np.exp(1j * lam) * (V.conj().T @ _closed_vacuum(v, N)))
    recurrence = states._fock_amplitudes(alpha, v, N)
    low, top = [0, 160, 320, 480, 600], list(range(N - 5, N))
    closed = np.array([complex(_hermite_amplitude(alpha, v, n)) for n in low + top])
    bound = 4 * EPS * (1 + abs(alpha) ** 2)
    assert np.max(np.abs(recurrence[low + top] - closed)) <= bound
    assert np.max(np.abs(exp_path[low] - closed[:5])) <= 1e-14
    assert np.min(np.abs(exp_path[top] - closed[5:])) > 1e-9


def test_squeezed_family_sized_from_its_own_tail():
    # the former budget (vacuum levels plus coherent levels of |alpha|) gave
    # 216 levels here, beyond which 7.3e-11 of the mass lies
    import mpmath as mp

    fam = StateFamily("wh", v=1.0)
    N = fam.dim(6j)
    with mp.workdps(40):
        kept = mp.fsum(abs(_hermite_amplitude(6j, 1.0, n)) ** 2 for n in range(N - 2))
        assert 1 - kept <= 1e-3 * fam.eps  # the tangent budget, N - 2 levels
    assert family_state(fam, 6j).dim == N  # its tail check passes


def test_wh_squeezed_below_budget_raises():
    alpha, v = 1j, 0.5
    N = truncation_dim(alpha, "squeezed_fock", v, STATE_TOL)
    assert wh_squeezed(alpha, v, N).is_normalized()
    with pytest.raises(TruncationError, match=f"need N >= {N}$"):
        wh_squeezed(alpha, v, N // 2)


def test_wh_squeezed_round_off_beyond_budget_named():
    # at N = truncation_dim the norm deficit 3.5e-12 is the recurrence's
    # round-off, not dropped mass, so a larger N is no remedy
    N = truncation_dim(145, "squeezed_fock", -2.0, STATE_TOL)
    assert N == 29238
    with pytest.raises(TruncationError, match="exceeds budget") as exc:
        wh_squeezed(145, -2.0, N)
    assert "round-off" in str(exc.value) and "need N" not in str(exc.value)


@pytest.mark.parametrize("alpha", [1e200, 1e308j, -1e155, complex(1e308, 1e308)])
@pytest.mark.parametrize("v", [0.0, 0.5, -2.0])
@pytest.mark.filterwarnings("error")
def test_fock_amplitudes_reject_an_alpha_whose_square_overflows(alpha, v):
    # |alpha|^2 (or |alpha| itself) overflows: a DomainError naming alpha,
    # with no OverflowError and no RuntimeWarning, from every caller
    family = "squeezed_fock" if v else "fock"
    for call in (lambda: wh_squeezed(alpha, v, 8),
                 lambda: truncation_dim(alpha, family, v)):
        with pytest.raises(DomainError, match="overflows at alpha") as exc:
            call()
        assert repr(complex(alpha)) in str(exc.value)


def test_truncation_dim_fock_past_the_underflow_of_its_first_term():
    # exp(-|alpha|^2) underflows from |alpha| ~ 27.3; the terms are summed
    # here in log space from log-gamma, sharing no code with the sizer
    from math import exp, lgamma, log

    def tail(x, n):
        return sum(exp(-x + m * log(x) - lgamma(m + 1)) for m in range(n, n + 2000))

    for alpha in (30.0, 30j, 35 * np.exp(0.4j)):
        x = abs(alpha) ** 2
        n = truncation_dim(alpha, "fock", eps=1e-12)
        assert tail(x, n) < 1e-12 <= tail(x, n - 1)
    psi = family_state(StateFamily("wh"), 30.0)
    assert psi.dim == truncation_dim(30.0, "fock", eps=1e-15) + 2
    assert abs(psi.norm - 1.0) < 1e-12


def _coherent_tail(r: float, n: int) -> float:
    """Mass of the coherent state at |alpha| = r at levels >= n, summed term
    by term in log space from log-gamma (the terms past n + 3000 are
    negligible for r <= 36)."""
    from math import exp, lgamma, log

    x = r * r
    if x == 0:
        return float(n == 0)
    return sum(exp(-x + m * log(x) - lgamma(m + 1)) for m in range(n, n + 3000))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 36.0), st.floats(-np.pi, np.pi),
       st.sampled_from([1e-8, 1e-12, 1e-15]))
@example(36.0, 0.0, 1e-15)
@example(13.0, 1.0, 1e-12)
def test_truncation_dim_fock_is_the_smallest_basis_within_eps(r, theta, eps):
    # the sizer adds a geometric rest below 1e-3 eps to exact suffix sums, so
    # the tail it keeps out is below eps and one level less would keep out
    # at least (1 - 1e-3) eps
    n = truncation_dim(r * np.exp(1j * theta), "fock", eps=eps)
    assert _coherent_tail(r, n) < eps
    assert n == 1 or _coherent_tail(r, n - 1) >= (1 - 1e-3) * eps


def test_truncation_dim_raises_where_the_first_amplitude_underflows():
    # |c_0| = exp(-|alpha|^2 / 2) is below the smallest normal double from
    # |alpha| ~ 37.6; the constructors still raise TruncationError there
    for alpha in (38.0, 40j):
        with pytest.raises(DomainError, match="c_0 underflows"):
            truncation_dim(alpha, "fock")
        with pytest.raises(DomainError, match="c_0 underflows"):
            wh_displacement(alpha, 2000)
        with pytest.raises(TruncationError, match="c_0 underflows"):
            wh_coherent(alpha, 600)


@pytest.mark.parametrize("fam, base", [
    (StateFamily("wh"), 0j), (StateFamily("wh"), 0.3 + 0.1j),
    (StateFamily("wh"), 6 - 2j), (StateFamily("wh", v=1.0), 0j),
    (StateFamily("wh", v=-0.5, eps=1e-9), 1 + 2j),
    (StateFamily("su11", param=1.0), 0j), (StateFamily("su11", param=1.0), 0.5 + 0.3j),
    (StateFamily("su11", param=2.5, eps=1e-10), -0.85j),
])
def test_sized_frame_is_the_constructor_state_bit_for_bit(fam, base, monkeypatch):
    # a family sized from its tail takes its state as a prefix of the
    # sizer's amplitude run, building no amplitudes after sizing
    from cohgeom import pullback

    N = fam.dim(base)
    if fam.family == "wh":
        ref = wh_squeezed(base, fam.v, N, fam.eps)
    else:
        ref = su11_coherent(base, fam.param, N, fam.eps)

    def refuse(*args):
        raise AssertionError("constructor called for a sized family")

    for module in (states, pullback):
        monkeypatch.setattr(module, "wh_squeezed", refuse)
        monkeypatch.setattr(module, "su11_coherent", refuse)
    psi = family_state(fam, base)
    assert np.array_equal(psi.amps, ref.amps)
    assert (psi.basis, psi.tol) == (ref.basis, ref.tol)


def _sized_or_error(fn, *args):
    # the error's type, and whether it is the c_0 underflow
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), "c_0 underflows" in str(exc)


@st.composite
def _sizer_inputs(draw):
    family = draw(st.sampled_from(["fock", "squeezed_fock", "discrete_series"]))
    phase = np.exp(2j * np.pi * draw(st.floats(0, 1)))
    eps = 10.0 ** draw(st.floats(-19, -8))
    if family == "fock":
        return draw(st.floats(0, 30)) * phase, family, 0.0, eps
    if family == "squeezed_fock":
        return draw(st.floats(0, 8)) * phase, family, draw(st.floats(-2, 2)), eps
    # k up to 500 at |alpha| up to 0.999 reaches runs whose normalizations
    # overflow and first amplitudes underflow
    k = 10.0 ** draw(st.floats(np.log10(0.05), np.log10(500)))
    return draw(st.floats(0, 0.999)) * phase, family, k, eps


@settings(max_examples=150, deadline=None)
@given(_sizer_inputs())
@example((0.8, "discrete_series", 1.0, 1e-15))
@example((0.5j, "squeezed_fock", -1.0, 1e-19))
@example((0.999, "discrete_series", 500.0, 1e-19))
@example((0.99, "discrete_series", 120.0, 1e-8))
@example((0.5, "discrete_series", 0.11, 3e-17))  # the run is longer than n
@example((2.2248650050829186e-162 + 0j, "fock", 0.0, 1e-8))  # |alpha|^2 subnormal
def test_one_amplitude_run_sizes_as_the_doublings_do(inputs):
    # every doubling is tested on a prefix of one run; the amplitudes, N and
    # the run's length are those of rebuilding each doubling from level 0,
    # and so is the error where there is one
    got = _sized_or_error(states._sized_amplitudes, *inputs)
    want = _sized_or_error(doubling_sized_amplitudes, *inputs)
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return
    assert np.array_equal(got[0], want[0])
    assert got[1] == want[1] and got[0].size == want[0].size


@pytest.mark.parametrize("fam, base, most", [
    (StateFamily("su11", param=1.0), 0.8, 1), (StateFamily("su11", param=1.0), 0.8j, 1),
    (StateFamily("wh", v=1.0), 0j, 2), (StateFamily("wh", v=-1.0), 0j, 2),
    (StateFamily("wh", v=1.0), 0.5 - 0.5j, 2),
    # a v = +-1 origin frame's first run is long enough
    (StateFamily("wh", v=1.0), 0j, 1), (StateFamily("wh", v=-1.0), 0j, 1),
    # the coherent oscillator's start length is read from |alpha|
    (StateFamily("wh"), 2.0, 1), (StateFamily("wh"), 4.5j, 1),
    # and a displaced squeezed oscillator's from |alpha| and v
    (StateFamily("wh", v=1.0), 0.5 - 0.5j, 1), (StateFamily("wh", v=-0.5), 1.0, 1),
])
def test_sized_frame_builds_one_amplitude_run(fam, base, most, monkeypatch):
    # the run starts at the length the ratio limit (disc) or the terms'
    # asymptotics (oscillator) predict, so a frame builds its amplitudes once
    from cohgeom import pullback

    builds = []
    for name in ("_fock_amplitudes", "_disc_amplitudes"):
        def counted(*args, _fn=getattr(states, name)):
            builds.append(args[-1])
            return _fn(*args)
        monkeypatch.setattr(states, name, counted)
    pullback._pullback_matrix.cache_clear()
    try:
        pullback.pullback_matrix(fam, base)
    finally:
        pullback._pullback_matrix.cache_clear()
    assert 1 <= len(builds) <= most


@pytest.mark.parametrize("eps", [1e-18, 1e-15, 1e-12, 1e-9])
def test_coherent_run_is_sized_from_alpha(eps, monkeypatch):
    # from |alpha| = 0 to the underflow of c_0, one _fock_amplitudes call
    # builds the coherent run, at most twice as long as the prefix the tail
    # test stops at; a grid of those alphas is one call too
    builds = []

    def counted(*args, _fn=states._fock_amplitudes):
        builds.append(args[-1])
        return _fn(*args)

    monkeypatch.setattr(states, "_fock_amplitudes", counted)
    alphas = np.linspace(0.0, 37.6, 189) * np.exp(0.3j)
    for alpha in alphas:
        builds.clear()
        c, _ = states._sized_amplitudes(alpha, "fock", 0.0, eps)
        assert len(builds) == 1 and builds[0] in (c.size, 2 * c.size), (alpha, builds)
    builds.clear()
    states._sized_amplitudes(alphas, "fock", 0.0, eps)
    assert len(builds) == 1


def test_displaced_squeezed_run_is_sized_from_alpha_and_v(monkeypatch):
    # over v = +-0.25 .. +-1, |alpha| = 0.25 .. 2 and eight phases, at the
    # pullback's sizing budget (1e-3 of the default eps 1e-12), each frame
    # builds one run, of the first length whose prefix passes the tail test,
    # and a grid of one v's frames is one run too
    builds = []

    def counted(*args, _fn=states._fock_amplitudes):
        builds.append(args[-1])
        return _fn(*args)

    monkeypatch.setattr(states, "_fock_amplitudes", counted)
    alphas = np.outer([0.25, 0.5, 1.0, 1.5, 2.0], np.exp(0.25j * np.pi * np.arange(8))).ravel()
    for v in (0.25, 0.5, 0.75, 1.0, -0.25, -0.5, -0.75, -1.0):
        for alpha in alphas:
            builds.clear()
            c, _ = states._sized_amplitudes(alpha, "squeezed_fock", v, 1e-15)
            assert builds == [c.size], (v, alpha, builds)
        builds.clear()
        states._sized_amplitudes(alphas, "squeezed_fock", v, 1e-15)
        assert len(builds) == 1


@pytest.mark.parametrize("fam, base", [
    (StateFamily("wh"), 1.0 - 0.5j), (StateFamily("wh", v=0.5), 0.75j),
    (StateFamily("wh", v=-1.0), 0j), (StateFamily("su11", param=1.0), 0.6 + 0.1j),
])
def test_tangent_triple_sizes_its_state_once(fam, base, monkeypatch):
    # family_state, analytic_tangent and numeric_tangent at one (family,
    # base) share one sizing: one amplitude run at the base, then the two
    # states of the central difference, built on the sized state's levels
    from cohgeom import pullback

    builds = []
    for name in ("_fock_amplitudes", "_disc_amplitudes"):
        def counted(*args, _fn=getattr(states, name)):
            builds.append((complex(np.ravel(args[0])[0]), args[-1]))
            return _fn(*args)
        monkeypatch.setattr(states, name, counted)
    pullback._state.cache_clear()
    try:
        spec = TangentSpec(base, np.exp(0.3j))
        psi = pullback.family_state(fam, base)
        pullback.analytic_tangent(fam, spec)
        pullback.numeric_tangent(fam, spec, 1e-4)
    finally:
        pullback._state.cache_clear()
    (alpha, run), *steps = builds
    assert alpha == base and run >= psi.dim
    u = complex(spec.direction)
    assert steps == [(base + 1e-4 * u, psi.dim), (base - 1e-4 * u, psi.dim)]


@st.composite
def _sweep_inputs(draw):
    family = draw(st.sampled_from(["fock", "squeezed_fock", "discrete_series"]))
    phase = np.exp(2j * np.pi * draw(st.floats(0, 1)))
    eps = 10.0 ** draw(st.floats(-16, -8))
    if family == "fock":
        return draw(st.floats(0, 12)) * phase, family, 0.0, eps
    if family == "squeezed_fock":
        return draw(st.floats(0, 4)) * phase, family, draw(st.floats(-2, 2)), eps
    k = draw(st.floats(0.5, 3.0, exclude_min=True))
    return draw(st.floats(0, 0.95)) * phase, family, k, eps


@settings(max_examples=200, deadline=None)
@given(_sweep_inputs())
def test_sizer_reads_each_prefix_as_the_doublings_do(inputs):
    # each prefix's last four terms are read once as floats; N, the run's
    # length and its amplitudes are the rebuilt doublings' bit for bit
    got = states._sized_amplitudes(*inputs)
    want = doubling_sized_amplitudes(*inputs)
    assert got[1] == want[1] and got[0].size == want[0].size
    assert got[0].tobytes() == want[0].tobytes()


def test_sizer_rejects_a_budget_with_no_positive_thousandth():
    # 1e-3 eps must be a positive double for the rest to fall below it
    for eps in (1e-322, 5e-324):
        with pytest.raises(DomainError, match="tail budget"):
            truncation_dim(0.5, "squeezed_fock", 0.5, eps)


# ---------------------------------------------------------------------------
# guard branches and the explicit spin displacement

@pytest.mark.parametrize("j", [0.5, 1.0, 2.5])
def test_su2_displacement_is_unitary_and_displaces_the_lowest_weight(j):
    from scipy.linalg import expm

    spin = spin_matrices(j)
    for alpha in (0j, 0.3 - 0.7j, 1.2j):
        D = su2_displacement(alpha, j)
        assert np.max(np.abs(D.conj().T @ D - np.eye(spin.dim))) < 1e-13
        # the lowest weight m = -j is the last basis vector
        assert np.max(np.abs(D[:, -1] - su2_state(alpha, 0.0, j).amps)) < 1e-13
        X = np.conj(alpha) * spin.lminus - alpha * spin.lplus
        assert np.max(np.abs(D - expm(X))) < 1e-13


@pytest.mark.parametrize("build", [
    lambda N: wh_squeezed(0.1, 0.2, N),
    lambda N: su11_coherent(0.1, 1.0, N),
], ids=["wh_squeezed", "su11_coherent"])
def test_fewer_than_one_level_is_too_small(build):
    for N in (0, -3, 0.0):
        with pytest.raises(DimensionTooSmall):
            build(N)
