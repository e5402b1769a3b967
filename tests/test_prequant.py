import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohgeom.errors import DomainError
from cohgeom.prequant import (
    FD_STEP,
    KAPPA,
    SIGN_PAIRS,
    PrequantField,
    commutator_apply,
    dirac_residual,
    flow_apply,
    flow_generator_residual,
    potential_residual,
    prequantum_apply,
    standard_fields,
)
from cohgeom import sut
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


def test_flow_multiplier_past_the_double_range_is_inf():
    # e^{tau t (log t + 1)} overflows at t = 1e8 with the FD step tau = 1e-5
    assert flow_apply(1, 1e-5, ONE, OrbitPoint(0.0, 1e8)).real == np.inf
    assert flow_generator_residual(1, ONE, OrbitPoint(0.0, 1e8)) == np.inf


def test_flow_one_generates_operator_one():
    # d/dtau at 0 of the first flow reproduces Q1 on every test field
    P = OrbitPoint(0.8, 1.6)
    for psi in FIELDS.values():
        assert flow_generator_residual(1, psi, P) < 1e-6


def test_flow_two_defect_detected_not_masked():
    # the stated second flow differs from its generator by s * psi
    for (s, t) in ((1.5, 2.0), (-0.7, 0.9), (0.0, 3.0)):
        P = OrbitPoint(s, t)
        resid = flow_generator_residual(2, ONE, P)
        assert resid == pytest.approx(abs(s), abs=1e-6)


@pytest.mark.parametrize("variant", ["stated", "generator"])
@pytest.mark.parametrize("i", [1, 2])
def test_flow_residual_is_the_difference_of_its_public_parts(i, variant):
    # the residual checks its arguments once and runs the unchecked cores;
    # its value has the bits of the same formula through the checked entries
    points = [OrbitPoint(s, t) for s in (-1.7, 0.0, 0.4, 2.0)
              for t in (0.05, 0.9, 1.0, 3.3)] + [OrbitPoint(0.0, 1e8)]
    for name, psi in FIELDS.items():
        for P in points:
            with np.errstate(over="ignore", invalid="ignore"):
                want = abs((flow_apply(i, FD_STEP, psi, P, variant=variant)
                            - flow_apply(i, -FD_STEP, psi, P, variant=variant))
                           / (2.0 * FD_STEP) - prequantum_apply(i, psi, P))
                got = flow_generator_residual(i, psi, P, variant=variant)
            assert got == want or (np.isnan(got) and np.isnan(want)), (name, P)


@settings(max_examples=400, deadline=None)
@given(s=st.floats(-50, 50), t=st.floats(-8, 8).map(math.exp) | st.just(1e8),
       hbar=st.floats(0.1, 10), name=st.sampled_from(sorted(FIELDS)),
       flow=st.sampled_from([(1, "stated"), (2, "stated"), (2, "generator")]))
@example(s=0.5, t=1e8, hbar=1.0, name="1", flow=(1, "stated"))
@example(s=-50.0, t=1e8, hbar=10.0, name=f"e^(i{KAPPA}s)", flow=(1, "stated"))
@example(s=-1e8, t=1.0, hbar=1.0, name="s", flow=(2, "stated"))  # e^{-rate} overflows
def test_flow_residual_is_the_difference_of_its_public_parts_everywhere(
        s, t, hbar, name, flow):
    # the residual's written-out flows and Q_i keep the bits of flow_apply
    # and prequantum_apply over the whole sweep; at t = 1e8 the first flow's
    # multiplier e^{FD_STEP t (log t + 1)} overflows and reads inf, and at
    # s = -1e8 the second flow's e^{-FD_STEP s} does
    (i, variant), psi, P = flow, FIELDS[name], OrbitPoint(s, t)
    with np.errstate(over="ignore", invalid="ignore"):
        want = abs((flow_apply(i, FD_STEP, psi, P, hbar, variant)
                    - flow_apply(i, -FD_STEP, psi, P, hbar, variant))
                   / (2.0 * FD_STEP) - prequantum_apply(i, psi, P, hbar))
        got = flow_generator_residual(i, psi, P, hbar, variant)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_field_callables_agree_on_scalars_and_arrays():
    # a Python scalar takes math / cmath, an array np.exp: a few ulps apart
    args = [(a, s) for a in (-2.3, -0.1, 0.0, 0.7, 1.4)
            for s in (-1.9, 0.0, 0.3, 2.0, 0.5 - 0.25j)]
    args += [(a + 0.3j, s) for a, s in args[:10]]
    for name, psi in FIELDS.items():
        for part in ("value", "d_a", "d_s", "d_aa", "d_as", "d_ss"):
            f = getattr(psi, part)
            for a, s in args:
                scalar = complex(f(a, s))
                array = complex(np.asarray(f(np.array([a]), np.array([s]))).ravel()[0])
                assert abs(scalar - array) <= 4 * np.spacing(abs(array)), (name, part, a, s)


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


def test_commutator_needs_second_partials():
    first_only = PrequantField(ONE.value, ONE.d_a, ONE.d_s)
    with pytest.raises(DomainError):
        commutator_apply(first_only, OrbitPoint(0.9, 1.4))


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
    # t <= 0 is rejected before np.log could warn
    with pytest.raises(DomainError):
        dirac_residual(np.array([1.0, 0.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        potential_residual(np.array([1.0, -0.5]))


@pytest.mark.parametrize("t_vals, s_vals", [([np.nan], [0.0]), ([1.0], [np.nan]),
                                            ([np.inf], [0.0]), ([1.0, 2.0], [0.0, -np.inf])])
def test_dirac_residual_rejects_non_finite_points(t_vals, s_vals):
    with pytest.raises(DomainError):
        dirac_residual(t_vals, s_vals)


@pytest.mark.parametrize("t_vals", [[np.nan], [1.0, np.inf]])
def test_potential_residual_rejects_non_finite_t(t_vals):
    with pytest.raises(DomainError):
        potential_residual(t_vals)


def test_empty_or_unknown_input_measures_nothing_and_raises():
    P = OrbitPoint(0.3, 1.2)
    for call in (lambda: dirac_residual([], []),
                 lambda: dirac_residual([1.0], []),
                 lambda: dirac_residual([], [0.0]),
                 lambda: potential_residual([]),
                 lambda: potential_residual([], variant="bogus"),
                 lambda: potential_residual([1.0], variant="bogus"),
                 lambda: flow_apply(2, 0.1, ONE, P, variant="bogus"),
                 lambda: flow_apply(1, 0.1, ONE, P, variant="Stated"),
                 lambda: flow_generator_residual(2, ONE, P, variant="bogus"),
                 lambda: prequantum_apply(3, ONE, P),
                 lambda: prequantum_apply(0, ONE, P),
                 lambda: flow_apply(3, 0.1, ONE, P),
                 lambda: flow_generator_residual(-1, ONE, P)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_every_hbar_entry_point_rejects_bad_hbar(hbar):
    P = OrbitPoint(0.3, 1.2)
    for call in (lambda: prequantum_apply(1, ONE, P, hbar),
                 lambda: prequantum_apply(2, ONE, P, hbar),
                 lambda: flow_apply(1, 0.1, ONE, P, hbar),
                 lambda: flow_apply(2, 0.1, ONE, P, hbar, variant="generator"),
                 lambda: flow_generator_residual(2, ONE, P, hbar),
                 lambda: commutator_apply(FIELDS["s"], P, hbar),
                 lambda: dirac_residual([1.0, 2.0], [0.0], hbar)):
        with pytest.raises(DomainError, match="hbar must be finite and positive"):
            call()


def _dirac_loop_oracle(t_vals, s_vals, hbar):
    """The bracket-correspondence residuals point by point, with the jets of
    Q1 psi and Q2 psi written out here from the field's partials."""
    residuals = {pair: 0.0 for pair in SIGN_PAIRS}
    defect_dev = 0.0
    for t in t_vals:
        for s in s_vals:
            a = np.log(t)
            for psi in FIELDS.values():
                u, u_a, u_s = psi.value(a, s), psi.d_a(a, s), psi.d_s(a, s)
                u_aa, u_as, u_ss = psi.d_aa(a, s), psi.d_as(a, s), psi.d_ss(a, s)
                et = np.exp(a)
                q1 = -1j * hbar * t * u_s + t * (a + 1.0) * u
                q1_a = (-1j * hbar * et * (u_s + u_as) + et * (a + 2.0) * u
                        + et * (a + 1.0) * u_a)
                q2 = 2j * hbar * u_a + 2.0 * s * u
                q2_s = 2j * hbar * u_as + 2.0 * u + 2.0 * s * u_s
                comm = ((-1j * hbar * t * q2_s + t * (a + 1.0) * q2)
                        - (2j * hbar * q1_a + 2.0 * s * (-1j * hbar * et * u_s
                                                         + et * (a + 1.0) * u)))
                for (ef, ed) in SIGN_PAIRS:
                    target = ed * 1j * hbar * (-2.0 * ef) * q1
                    residuals[(ef, ed)] = max(residuals[(ef, ed)], abs(comm - target))
                bracket = 2j * hbar * (-2.0 * t) * u
                size = abs(comm) + abs(2.0 * hbar * q1) + abs(bracket)
                defect_dev = max(defect_dev, abs(comm + 2j * hbar * q1 - bracket) / size)
    return residuals, defect_dev


@pytest.mark.parametrize("hbar", [1.0, 0.3])
def test_dirac_residual_matches_point_loop(hbar):
    rng = np.random.default_rng(11)
    t_vals = np.sort(rng.uniform(0.2, 4.0, 7))
    s_vals = np.sort(rng.uniform(-2.0, 2.0, 5))
    rep = dirac_residual(t_vals, s_vals, hbar)
    residuals, defect_dev = _dirac_loop_oracle(t_vals, s_vals, hbar)
    assert set(rep.residuals) == set(residuals) == set(SIGN_PAIRS)
    for pair, r in residuals.items():
        assert rep.residuals[pair] == pytest.approx(r, rel=1e-12)
    # both relative misses are round-off, taken in different orders
    assert rep.defect_dev < 1e-15 and defect_dev < 1e-15


@settings(max_examples=200, deadline=None)
@given(t_vals=st.lists(st.floats(-3, 8).map(lambda x: 10.0 ** x), min_size=1, max_size=4),
       s_vals=st.lists(st.floats(-50, 50), min_size=1, max_size=4),
       hbar=st.sampled_from([1.0, 0.3, 3.0]))
@example(t_vals=[0.5, 1e4], s_vals=[-2.0, 2.0], hbar=1.0)
@example(t_vals=[1e8], s_vals=[50.0], hbar=1.0)
def test_dirac_defect_is_relative_round_off(t_vals, s_vals, hbar):
    # the miss of each field's defect, relative to the terms that cancel,
    # stays at round-off from t = 1e-3 to 1e8, where the absolute miss grew
    # with t; inside [Q1, Q2] psi two terms of size about |s| |Q1 psi|
    # cancel, so the round-off scales with 1 + |s|
    try:
        dev = dirac_residual(t_vals, s_vals, hbar).defect_dev
    except DomainError:
        return
    assert dev <= 32 * sys.float_info.epsilon * (1.0 + max(map(abs, s_vals)))


def test_orbit_kernels_make_no_linalg_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # keeps LinAlgError
            monkeypatch.setattr(np.linalg, name, forbidden)
    P = OrbitPoint(0.4, 1.7)
    xi = sut.OrbitTangent(0.3, -1.1)
    j1 = sut.Field2D(lambda s, t: t, lambda s, t: 0.0, lambda s, t: 1.0)
    j2 = sut.Field2D(lambda s, t: 2 * s, lambda s, t: 2.0, lambda s, t: 0.0)
    assert sut.kks_form(P, xi, sut.OrbitTangent(1.0, 0.0)) == pytest.approx(1.1 / 1.7)
    assert sut.poisson(j1, j2, P) == pytest.approx(-2 * P.t)
    assert dirac_residual(np.linspace(0.5, 2.0, 3), np.linspace(-1.0, 1.0, 3)).defect_dev < 1e-9


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
    # -|log t| ds flips the sign of d(theta) for t < 1: c = -1/t against
    # omega's 1/t, a relative miss of 2 there
    ts = np.linspace(0.5, 0.9, 5)
    resid = potential_residual(ts, variant="abs_log")
    assert resid == pytest.approx(2.0, rel=1e-15)
    # above t = 1 both variants agree
    assert potential_residual(np.linspace(1.1, 4.0, 10),
                              variant="abs_log") < 1e-8


@pytest.mark.filterwarnings("error")
def test_potential_rejects_a_t_whose_complex_step_is_subnormal():
    # at t = 1e-320 the step h t underflows: a DomainError, not NaN
    with pytest.raises(DomainError, match="complex step"):
        potential_residual([1.0, 1e-320])


@settings(max_examples=300, deadline=None)
@given(st.floats(-600, 600))
@example(-600.0)
@example(600.0)
@pytest.mark.filterwarnings("error")
def test_potential_is_exact_at_every_scale(log_t):
    # the complex step reads d theta to round-off relative to omega's 1/t,
    # from t = e^-600 to e^600; -|log t| ds misses by 2 below t = 1
    t, roundoff = math.exp(log_t), 4 * sys.float_info.epsilon
    assert potential_residual([t]) <= roundoff
    abs_log = potential_residual([t], variant="abs_log")
    if t < 1.0:
        assert abs_log == pytest.approx(2.0, rel=roundoff)
    elif t > 1.0:
        assert abs_log <= roundoff
