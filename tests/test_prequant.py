import numpy as np
import pytest

from cohgeom.errors import DomainError
from cohgeom.prequant import (
    SIGN_PAIRS,
    commutator_apply,
    dirac_residual,
    flow_apply,
    flow_generator_residual,
    potential_residual,
    prequantum_apply,
    standard_fields,
)
from cohgeom.sut import OrbitPoint

FIELDS = standard_fields()
ONE = FIELDS["1"]


# ---------------------------------------------------------------------------
# operators

def test_operator_one_on_constant_field():
    # at (s, t) = (0, 1): t log t = 0, so Q1(1) = t = 1
    assert prequantum_apply(1, ONE, OrbitPoint(0.0, 1.0)) == pytest.approx(1.0)


def test_operator_one_general_point():
    t = 2.5
    val = prequantum_apply(1, ONE, OrbitPoint(0.3, t))
    assert val == pytest.approx(t * np.log(t) + t)


def test_operator_two_is_multiplication_on_constants():
    for s in (-1.0, 0.0, 2.0):
        val = prequantum_apply(2, ONE, OrbitPoint(s, 1.7))
        assert val == pytest.approx(2.0 * s)


def test_operator_one_on_plane_wave():
    # Q1 e^{iks} = (hbar k t + t log t + t) e^{iks}
    k = 1.0
    psi = FIELDS["e^(i1.0s)"]
    s, t = 0.7, 1.3
    val = prequantum_apply(1, psi, OrbitPoint(s, t), hbar=1.0)
    expected = (k * t + t * np.log(t) + t) * np.exp(1j * k * s)
    assert val == pytest.approx(expected)


def test_domain_requires_positive_t():
    with pytest.raises(DomainError):
        prequantum_apply(1, ONE, OrbitPoint(0.0, -1.0))


# ---------------------------------------------------------------------------
# flows

def test_flow_at_tau_zero_is_identity():
    P = OrbitPoint(0.4, 2.0)
    for i in (1, 2):
        for name, psi in FIELDS.items():
            a = np.log(P.t)
            assert flow_apply(i, 0.0, psi, P) == pytest.approx(
                psi.value(a, P.s))


def test_flow_one_on_constant():
    P = OrbitPoint(0.0, 2.0)
    tau = 0.3
    expected = np.exp(tau * P.t * (np.log(P.t) + 1.0))
    assert flow_apply(1, tau, ONE, P) == pytest.approx(expected)


def test_flow_one_generates_operator_one():
    # d/dtau at 0 of the first flow reproduces Q1 on every test field
    P = OrbitPoint(0.8, 1.6)
    for psi in FIELDS.values():
        assert flow_generator_residual(1, psi, P, dtau=1e-5) < 1e-6


def test_flow_two_defect_detected_not_masked():
    # the stated second flow differs from its generator by s * psi
    for (s, t) in ((1.5, 2.0), (-0.7, 0.9), (0.0, 3.0)):
        P = OrbitPoint(s, t)
        resid = flow_generator_residual(2, ONE, P)
        assert resid == pytest.approx(abs(s), abs=1e-6)


def test_flow_two_generator_variant_consistent():
    for (s, t) in ((1.5, 2.0), (-0.7, 0.9)):
        P = OrbitPoint(s, t)
        for psi in FIELDS.values():
            assert flow_generator_residual(2, psi, P,
                                           variant="generator") < 1e-6


# ---------------------------------------------------------------------------
# commutator and the bracket-correspondence residual

def test_commutator_closed_form():
    # [Q1, Q2] psi = -2 hbar^2 t psi_s - 2 i hbar t (log t + 3) psi
    P = OrbitPoint(0.9, 1.4)
    a = np.log(P.t)
    for psi in FIELDS.values():
        got = commutator_apply(psi, P)
        expected = (-2.0 * P.t * psi.d_s(a, P.s)
                    - 2j * P.t * (np.log(P.t) + 3.0) * psi.value(a, P.s))
        assert got == pytest.approx(expected, abs=1e-12)


def test_dirac_residual_reports_four_pairs():
    t_vals = np.linspace(0.5, 4.0, 8)
    s_vals = np.linspace(-2.0, 2.0, 8)
    rep = dirac_residual(t_vals, s_vals)
    assert set(rep.residuals) == set(SIGN_PAIRS)
    # no convention closes the gap; the defect field is 4 hbar t |psi|,
    # maximized here by the psi = t test field at the top corner
    assert all(r > 1.0 for r in rep.residuals.values())
    expected = max(4.0 * t * abs(psi.value(np.log(t), s))
                   for t in t_vals for s in s_vals
                   for psi in standard_fields().values())
    assert rep.best_residual == pytest.approx(expected, rel=1e-12)
    assert rep.best_pair[0] * rep.best_pair[1] == 1
    # ... but the defect equals 2 i hbar {J1, J2} psi exactly
    assert rep.defect_dev < 1e-9


def test_dirac_residual_grid_stable():
    coarse = dirac_residual(np.linspace(0.5, 4.0, 8), np.linspace(-2, 2, 8))
    fine = dirac_residual(np.linspace(0.5, 4.0, 16), np.linspace(-2, 2, 16))
    for pair in SIGN_PAIRS:
        assert abs(coarse.residuals[pair] - fine.residuals[pair]) < 1e-10


@pytest.mark.filterwarnings("error")
def test_dirac_residual_rejects_points_off_the_chart():
    with pytest.raises(DomainError):
        dirac_residual(np.array([-1.0, 1.0]), np.array([0.0, 1.0]))


def test_dirac_residual_scales_with_hbar():
    t_vals = np.linspace(0.5, 2.0, 4)
    s_vals = np.linspace(-1.0, 1.0, 4)
    r1 = dirac_residual(t_vals, s_vals, hbar=1.0)
    r2 = dirac_residual(t_vals, s_vals, hbar=0.5)
    assert r2.best_residual == pytest.approx(0.5 * r1.best_residual)


# ---------------------------------------------------------------------------
# symplectic potential

def test_potential_log_variant_matches_form():
    assert potential_residual(np.linspace(0.5, 4.0, 30)) < 1e-8


def test_potential_abs_log_fails_below_one():
    # -|log t| ds flips the sign of d(theta) for t < 1: residual 2/t there
    ts = np.linspace(0.5, 0.9, 5)
    resid = potential_residual(ts, variant="abs_log")
    assert resid == pytest.approx(2.0 / 0.5, abs=1e-6)
    # above t = 1 both variants agree
    assert potential_residual(np.linspace(1.1, 4.0, 10),
                              variant="abs_log") < 1e-8
