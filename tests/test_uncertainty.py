import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgeom import (
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
    with pytest.raises(ValueError):
        min_uncertainty_residual(q, p, -1.0, psi)


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
