from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgeom import (
    DomainError,
    NonHermitian,
    NormalizationError,
    StateVector,
    basis_state,
    fock_tag,
    min_uncertainty_residual,
    moments,
    quadrature_pair,
    rs_report,
    spin_matrices,
    squeezed_vacuum,
    su2_squeezed_vacuum,
    wh_coherent,
    wh_squeezed,
)
from cohgeom.uncertainty import SLACK_TOL
from conftest import random_state

FOCK = fock_tag()


def test_quadrature_commutator_interior():
    q, p = quadrature_pair(32)
    comm = q @ p - p @ q
    assert np.max(np.abs(comm[:30, :30] - 1j * np.eye(32)[:30, :30])) < 1e-12


def test_vacuum_moments():
    # matrix oracle: variances 1/2 each discussed at hbar = 1, C- = -hbar
    q, p = quadrature_pair(32)
    vac = wh_coherent(0, 32)
    m = moments(q, p, vac)
    assert m.alpha == pytest.approx(0.5, abs=1e-12)
    assert m.beta == pytest.approx(0.5, abs=1e-12)
    assert m.c_minus == pytest.approx(-1.0, abs=1e-12)
    assert m.c_plus == pytest.approx(0.0, abs=1e-12)


def test_moments_with_explicit_hbar():
    q, p = quadrature_pair(32, hbar=2.0)
    vac = wh_coherent(0, 32)
    m = moments(q, p, vac)
    assert m.c_minus == pytest.approx(-2.0, abs=1e-12)
    assert m.alpha * m.beta == pytest.approx(1.0, abs=1e-12)


def test_operator_commuting_with_itself():
    q, _ = quadrature_pair(16)
    psi = wh_coherent(0.3, 16)
    m = moments(q, q, psi)
    assert m.c_minus == pytest.approx(0.0, abs=1e-12)


def test_eigenvector_has_zero_variance():
    from cohgeom import spin_tag

    spin = spin_matrices(1.0)
    psi = basis_state(3, 0, spin_tag(1.0))  # m = +1 eigenvector of Lz
    m = moments(spin.lz, spin.lx, psi)
    assert m.alpha == pytest.approx(0.0, abs=1e-14)


def test_moments_rejects_non_hermitian():
    q, p = quadrature_pair(8)
    psi = wh_coherent(0, 8)
    with pytest.raises(NonHermitian):
        moments(q + 1j * np.eye(8), p, psi)


def test_moments_rejects_unnormalized():
    q, p = quadrature_pair(8)
    bad = StateVector(np.full(8, 0.1 + 0j), FOCK)
    with pytest.raises(NormalizationError):
        moments(q, p, bad)


def test_coherent_state_saturates():
    q, p = quadrature_pair(64)
    psi = wh_coherent(1.0, 64)
    rep = rs_report(q, p, psi)
    assert rep.heisenberg_ok and rep.anticomm_ok and rep.rs_ok
    assert abs(rep.slack_rs) < 1e-9
    assert rep.delta_a * rep.delta_b == pytest.approx(0.5, abs=1e-9)


def test_squeezed_state_saturates_with_anisotropy():
    q, p = quadrature_pair(64)
    psi = wh_squeezed(0, 0.5, 64)
    rep = rs_report(q, p, psi)
    assert abs(rep.slack_rs) < 1e-9
    assert rep.delta_a * rep.delta_b == pytest.approx(0.5, abs=1e-9)
    # q variance shrinks, p variance grows for v > 0
    assert rep.delta_a / rep.delta_b == pytest.approx(np.exp(-2 * 0.5), abs=1e-8)


def test_squeezed_variance_ratio_scaling():
    q, p = quadrature_pair(96)
    base = rs_report(q, p, wh_squeezed(0, 0.0, 96))
    ratio0 = base.delta_a / base.delta_b
    for v in (-0.5, 0.3, 0.8):
        rep = rs_report(q, p, wh_squeezed(0, v, 96))
        assert rep.delta_a / rep.delta_b == pytest.approx(
            np.exp(-2 * v) * ratio0, abs=1e-8)


def test_random_states_satisfy_all_inequalities(rng):
    q, p = quadrature_pair(16)
    for _ in range(100):
        psi = random_state(rng, 16, FOCK)
        rep = rs_report(q, p, psi)
        assert rep.heisenberg_ok and rep.anticomm_ok and rep.rs_ok
        # the strongest bound implies the weaker two on computed values
        if rep.rs_ok:
            assert rep.heisenberg_ok and rep.anticomm_ok


def test_min_uncertainty_coherent():
    q, p = quadrature_pair(64)
    psi = wh_coherent(1.0, 64)
    assert min_uncertainty_residual(q, p, 1.0, psi) < 1e-9


def test_min_uncertainty_matched_squeezed():
    q, p = quadrature_pair(64)
    for v in (0.25, 0.5):
        psi = wh_squeezed(0.3, v, 64)
        lam = float(np.exp(v))
        assert min_uncertainty_residual(q, p, lam, psi) < 1e-9


def test_min_uncertainty_mismatched_gap():
    # wrong lambda leaves a residual sqrt(2) |sinh(v - v0)|
    q, p = quadrature_pair(64)
    psi = squeezed_vacuum(0.5, 64)
    resid = min_uncertainty_residual(q, p, 1.0, psi)
    assert resid > 0.01
    assert resid == pytest.approx(np.sqrt(2) * np.sinh(0.5), abs=1e-8)


def test_min_uncertainty_rejects_bad_lambda():
    q, p = quadrature_pair(16)
    psi = wh_coherent(0, 16)
    for lam in (-1.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            min_uncertainty_residual(q, p, lam, psi)


def test_su2_coherent_saturation():
    # lowest weight: dLx dLy = |<Lz>| / 2 with zero anticommutator part
    for j in (0.5, 1.0, 2.0):
        spin = spin_matrices(j)
        vac = su2_squeezed_vacuum(0.0, j)
        m = moments(spin.lx, spin.ly, vac)
        assert m.c_plus == pytest.approx(0.0, abs=1e-12)
        lz_mean = np.real(np.vdot(vac.amps, spin.lz @ vac.amps))
        assert m.delta_a * m.delta_b == pytest.approx(abs(lz_mean) / 2, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_uncertainty_inequalities_hold_on_random_states(dim, seed):
    rng = np.random.default_rng(seed)
    A, B = (M + M.conj().T for M in (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(2)))
    rep = rs_report(A, B, random_state(rng, dim, FOCK))
    assert rep.heisenberg_ok and rep.anticomm_ok and rep.rs_ok
    assert rep.slack_rs >= -1e-10


def _random_hermitian(rng, dim):
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return M + M.conj().T


def _dense_oracle(A, B, lam, psi):
    """Moments and residual through the N x N operators A - a, B - b and
    lam A + i B / lam, as the uncertainty layer once computed them."""
    x, N = psi.amps, psi.dim
    a = np.real(np.vdot(x, A @ x))
    b = np.real(np.vdot(x, B @ x))
    Ax, Bx = (A - a * np.eye(N)) @ x, (B - b * np.eye(N)) @ x
    alpha, beta = np.real(np.vdot(Ax, Ax)), np.real(np.vdot(Bx, Bx))
    c_plus = 2.0 * np.real(np.vdot(Ax, Bx))
    c_minus = np.real(1j * (np.vdot(Ax, Bx) - np.vdot(Bx, Ax)))
    r = (lam * A + 1j * B / lam) @ x - (lam * a + 1j * b / lam) * x
    if psi.basis.kind == "fock":
        r = r[:-1]
    return dict(a=a, b=b, alpha=alpha, beta=beta, c_plus=c_plus,
                c_minus=c_minus, residual=np.linalg.norm(r))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 96), st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0),
       st.booleans())
def test_moments_match_dense_oracle(dim, seed, log_lam, quadratures):
    rng = np.random.default_rng(seed)
    if quadratures:
        A, B = quadrature_pair(dim)
    else:
        A, B = _random_hermitian(rng, dim), _random_hermitian(rng, dim)
    psi = random_state(rng, dim, FOCK)
    lam = 10.0 ** log_lam
    ref = _dense_oracle(A, B, lam, psi)
    # relative to the scale of each field: |A|, |A||B| and the residual's
    na, nb = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    scale = dict(a=na, b=nb, alpha=na * na, beta=nb * nb, c_plus=na * nb,
                 c_minus=na * nb, residual=lam * na + nb / lam)
    m = moments(A, B, psi)
    got = dict(vars(m), residual=min_uncertainty_residual(A, B, lam, psi))
    for key, want in ref.items():
        assert abs(got[key] - want) <= 1e-12 * scale[key], key
    rep = rs_report(A, B, psi)
    prod = np.sqrt(ref["alpha"]) * np.sqrt(ref["beta"])
    bounds = (abs(ref["c_minus"]), abs(ref["c_plus"]),
              np.hypot(ref["c_plus"], ref["c_minus"]))
    assert (rep.heisenberg_ok, rep.anticomm_ok, rep.rs_ok) == tuple(
        prod >= bound / 2 - SLACK_TOL for bound in bounds)
    assert abs(rep.slack_rs - (prod - bounds[2] / 2)) <= 1e-12 * na * nb
    assert abs(rep.delta_a - np.sqrt(ref["alpha"])) <= 1e-12 * na
    assert abs(rep.delta_b - np.sqrt(ref["beta"])) <= 1e-12 * nb


class _CountedOperator(np.ndarray):
    """An operator that counts, per source name, every product with a vector
    taken by it or by a matrix derived from it (A - a I, lam A + i B / lam)."""

    def __array_finalize__(self, obj):
        self.names = getattr(obj, "names", frozenset())
        self.products = getattr(obj, "products", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        tagged = [arr for arr in inputs if isinstance(arr, _CountedOperator)]
        names = frozenset().union(*(arr.names for arr in tagged))
        out = getattr(ufunc, method)(*(np.asarray(arr) for arr in inputs), **kwargs)
        if ufunc is np.matmul:
            tagged[0].products.update(names)
        elif isinstance(out, np.ndarray) and out.ndim == 2:
            out = out.view(_CountedOperator)
            out.names, out.products = names, tagged[0].products
        return out


@pytest.mark.parametrize("call", [
    lambda A, B, psi: moments(A, B, psi),
    lambda A, B, psi: rs_report(A, B, psi),
    lambda A, B, psi: min_uncertainty_residual(A, B, 0.7, psi),
], ids=["moments", "rs_report", "min_uncertainty_residual"])
def test_each_operator_applied_once(call):
    q, p = quadrature_pair(24)
    psi = wh_squeezed(0.4 - 0.2j, 0.3, 24)
    products = Counter()
    A, B = q.view(_CountedOperator), p.view(_CountedOperator)
    A.names, B.names = frozenset("A"), frozenset("B")
    A.products = B.products = products
    assert call(A, B, psi) == call(q, p, psi)
    assert products == {"A": 1, "B": 1}


def test_hermiticity_gate_is_entrywise():
    # many entries just inside the gate: the Frobenius norm of A - A+ is far
    # above HERMITICITY_TOL, yet every entry passes, so A is accepted
    from cohgeom.uncertainty import HERMITICITY_TOL

    q, p = quadrature_pair(32)
    psi = wh_coherent(0.3, 32)
    skew = np.triu(np.full((32, 32), 0.45 * HERMITICITY_TOL), 1)
    inside = q + 1j * (skew + skew.T)  # |A - A+| = 0.9 tol off the diagonal
    assert np.linalg.norm(inside - inside.conj().T) > 10 * HERMITICITY_TOL
    assert moments(inside, p, psi).c_minus == pytest.approx(-1.0, abs=1e-9)
    outside = q.copy()
    outside[3, 7] += 0.6j * HERMITICITY_TOL  # |A - A+| = 1.2 tol at one pair
    outside[7, 3] += 0.6j * HERMITICITY_TOL
    with pytest.raises(NonHermitian, match="1.200e-12"):
        moments(q, outside, psi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2)])
def test_non_finite_operator_is_not_hermitian(bad, where):
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    A = q.astype(complex)
    A[where] = bad
    for call in (lambda: moments(A, p, psi), lambda: moments(p, A, psi),
                 lambda: rs_report(A, p, psi),
                 lambda: min_uncertainty_residual(A, p, 1.0, psi)):
        with pytest.raises(NonHermitian):
            call()


def test_operator_shape_mismatch_is_typed():
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    q9, _ = quadrature_pair(9)
    for A, B in ((q, q9), (q9, p), (q[:, :7], p), (q, p[0]), (q[0], p)):
        for call in (moments, rs_report,
                     lambda A, B, psi: min_uncertainty_residual(A, B, 1.0, psi)):
            with pytest.raises(NormalizationError):
                call(A, B, psi)
