import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohgeom.errors import DegenerateOrbit, DomainError, VerificationError
from cohgeom import cli, sut
from cohgeom.sut import (
    Orbit,
    OrbitPoint,
    OrbitTangent,
    SutDual,
    SutElement,
    chi_map,
    chi_pullback_coefficient,
    coadjoint_action,
    coadjoint_differential,
    hamiltonian_dev,
    hamiltonian_field,
    kks_form,
    moment_and_fields,
    phi_inv,
    phi_map,
    poisson,
    psi_map,
    stabilizer_check,
    tangent_to_algebra,
)
from conftest import Poly2, poly_poisson


def coadjoint_matrix_oracle(g: SutElement, X: SutDual) -> SutDual:
    """Independent route: conjugate by g, then read off the dual pairing.

    <Ad*_g X, Y> = <X, g^{-1} Y g> = Tr(g X g^{-1} Y) for all algebra Y, so
    the dual coordinates come from M = g X g^{-1} as u = (M11 - M22)/2 and
    v = M21.
    """
    M = g.matrix @ X.matrix @ np.linalg.inv(g.matrix)
    return SutDual(float((M[0, 0] - M[1, 1]) / 2), float(M[1, 0]))


# ---------------------------------------------------------------------------
# coadjoint action

def test_identity_acts_trivially():
    X = SutDual(1.3, -0.4)
    assert coadjoint_action(SutElement(1.0, 0.0), X) == X


def test_worked_example():
    img = coadjoint_action(SutElement(2.0, 1.0), SutDual(1.0, 4.0))
    assert img == SutDual(3.0, 1.0)


def test_v_zero_is_fixed_by_everything(rng):
    for _ in range(20):
        g1 = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
        g = SutElement(float(g1), float(rng.normal()))
        X = SutDual(float(rng.normal()), 0.0)
        assert coadjoint_action(g, X) == X


def test_action_matches_matrix_oracle(rng):
    for _ in range(100):
        g1 = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
        g = SutElement(float(g1), float(rng.normal()))
        X = SutDual(float(rng.normal()), float(rng.normal()))
        expected = coadjoint_matrix_oracle(g, X)
        got = coadjoint_action(g, X)
        assert got.u == pytest.approx(expected.u, abs=1e-12)
        assert got.v == pytest.approx(expected.v, abs=1e-12)


def test_action_is_a_group_action(rng):
    for _ in range(50):
        g = SutElement(float(rng.uniform(0.3, 2.0)), float(rng.normal()))
        h = SutElement(float(rng.uniform(0.3, 2.0)), float(rng.normal()))
        X = SutDual(float(rng.normal()), float(rng.normal()))
        lhs = coadjoint_action(g.compose(h), X)
        rhs = coadjoint_action(g, coadjoint_action(h, X))
        assert lhs.u == pytest.approx(rhs.u, abs=1e-12)
        assert lhs.v == pytest.approx(rhs.v, abs=1e-12)


def test_orbit_closure(rng):
    # the action preserves the sign of the lower-left coordinate
    for _ in range(50):
        g1 = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
        g = SutElement(float(g1), float(rng.normal()))
        X = SutDual(float(rng.normal()), float(rng.uniform(0.1, 3.0)))
        assert coadjoint_action(g, X).v > 0


def test_stabilizer_is_plus_minus_identity():
    X = SutDual(1.0, 4.0)
    stab = stabilizer_check(X)
    assert SutElement(1.0, 0.0) in stab
    assert SutElement(-1.0, 0.0) in stab
    # a generic element moves the point
    moved = coadjoint_action(SutElement(2.0, 0.0), X)
    assert moved != X
    with pytest.raises(DegenerateOrbit):
        stabilizer_check(SutDual(1.0, 0.0))


def test_stabilizer_check_raises_when_candidate_moves_point(monkeypatch):
    # the verification must survive python -O, so it cannot be an assert
    monkeypatch.setattr(sut, "coadjoint_action",
                        lambda g, X: SutDual(X.u + 1e-3, X.v))
    with pytest.raises(VerificationError):
        stabilizer_check(SutDual(1.0, 4.0))


# ---------------------------------------------------------------------------
# tangent identification

def test_tangent_roundtrip(rng):
    for _ in range(50):
        P = OrbitPoint(float(rng.normal()), float(rng.uniform(0.2, 4.0)))
        xi = OrbitTangent(float(rng.normal()), float(rng.normal()))
        V = tangent_to_algebra(P, xi)
        back = coadjoint_differential(V, P)
        assert back.ds == pytest.approx(xi.ds, abs=1e-12)
        assert back.dt == pytest.approx(xi.dt, abs=1e-12)


def test_coadjoint_differential_matches_finite_difference(rng):
    from scipy.linalg import expm

    for _ in range(20):
        P = OrbitPoint(float(rng.normal()), float(rng.uniform(0.2, 4.0)))
        V = np.array([[0.3, -0.7], [0.0, -0.3]])
        eps = 1e-6
        def act(e):
            m = expm(e * V)
            img = coadjoint_action(SutElement(m[0, 0], m[0, 1]),
                                   SutDual(P.s, P.t))
            return np.array([img.u, img.v])
        fd = (act(eps) - act(-eps)) / (2 * eps)
        xi = coadjoint_differential(V, P)
        assert xi.ds == pytest.approx(fd[0], abs=1e-8)
        assert xi.dt == pytest.approx(fd[1], abs=1e-8)


def test_tangent_to_algebra_components():
    V = tangent_to_algebra(OrbitPoint(0.0, 1.0), OrbitTangent(1.0, 0.0))
    assert np.allclose(V, [[0.0, 1.0], [0.0, 0.0]])
    V = tangent_to_algebra(OrbitPoint(0.0, 2.0), OrbitTangent(0.0, 4.0))
    assert np.allclose(V, [[-1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(tangent_to_algebra(OrbitPoint(1.0, 1.0),
                                          OrbitTangent(0.0, 0.0)), 0.0)


# ---------------------------------------------------------------------------
# orbit symplectic form

def test_kks_antisymmetric_and_zero_on_diagonal():
    P = OrbitPoint(0.3, 1.7)
    xi = OrbitTangent(1.0, -2.0)
    eta = OrbitTangent(0.5, 0.7)
    assert kks_form(P, xi, xi) == pytest.approx(0.0, abs=1e-14)
    assert kks_form(P, xi, eta) == pytest.approx(-kks_form(P, eta, xi))


def test_kks_canonical_value():
    # omega = (1/t) ds ^ dt, so (ds, dt) pair gives 1/t
    P = OrbitPoint(0.0, 2.0)
    val = kks_form(P, OrbitTangent(1, 0), OrbitTangent(0, 1))
    assert val == pytest.approx(0.5)


def test_kks_bilinear_scaling():
    P = OrbitPoint(0.4, 1.2)
    xi = OrbitTangent(1.0, 2.0)
    eta = OrbitTangent(-0.3, 0.9)
    one = kks_form(P, xi, eta)
    scaled = kks_form(P, OrbitTangent(3, 6), OrbitTangent(-0.9, 2.7))
    assert scaled == pytest.approx(9 * one)


def test_kks_equivariance(rng):
    # push tangents through the Jacobian of the action: omega is preserved
    for _ in range(50):
        g1 = rng.uniform(0.2, 3.0) * rng.choice([-1, 1])
        g = SutElement(float(g1), float(rng.normal()))
        P = OrbitPoint(float(rng.normal()), float(rng.uniform(0.2, 4.0)))
        xi = OrbitTangent(float(rng.normal()), float(rng.normal()))
        eta = OrbitTangent(float(rng.normal()), float(rng.normal()))
        img = coadjoint_action(g, SutDual(P.s, P.t))
        Q = OrbitPoint(img.u, img.v)
        jac = np.array([[1.0, g.g2 / g.g1], [0.0, 1.0 / g.g1**2]])
        push = lambda z: OrbitTangent(*(jac @ [z.ds, z.dt]))
        assert kks_form(Q, push(xi), push(eta)) == \
            pytest.approx(kks_form(P, xi, eta), abs=1e-10)


# ---------------------------------------------------------------------------
# moment functions, Hamiltonian fields, brackets

def test_moment_values_and_fields():
    mf = moment_and_fields(OrbitPoint(1.0, 2.0))
    assert mf.j1 == 2.0 and mf.j2 == 2.0
    assert (mf.xj1.ds, mf.xj1.dt) == (2.0, 0.0)
    assert (mf.xj2.ds, mf.xj2.dt) == (0.0, -4.0)


def test_fields_satisfy_hamilton_equation():
    P = OrbitPoint(1.0, 2.0)
    mf = moment_and_fields(P)
    et = OrbitTangent(0, 1)
    es = OrbitTangent(1, 0)
    assert kks_form(P, mf.xj1, et) == pytest.approx(1.0)   # dJ1(dt) = 1
    assert kks_form(P, mf.xj1, es) == pytest.approx(0.0)
    assert kks_form(P, mf.xj2, es) == pytest.approx(2.0)   # dJ2(ds) = 2
    assert kks_form(P, mf.xj2, et) == pytest.approx(0.0)


def test_moment_fields_check_raises_on_wrong_form(monkeypatch):
    monkeypatch.setattr(sut, "kks_form", lambda P, xi1, xi2: 0.5)
    with pytest.raises(VerificationError):
        moment_and_fields(OrbitPoint(1.0, 2.0))


def test_moment_fields_gate_on_hamiltonian_dev(monkeypatch):
    # the closed-form fields miss by nothing; a form shifted by a constant
    # misses by that constant, and moment_and_fields raises once the miss
    # reaches 1e-10 max(1, |t|), which is 2e-10 at t = 2
    P = OrbitPoint(1.0, 2.0)
    fields = moment_and_fields(P)
    assert hamiltonian_dev(P, fields) == 0.0
    form = sut.kks_form
    for shift in (1e-10, 3e-10):
        monkeypatch.setattr(sut, "kks_form", lambda Q, a, b: form(Q, a, b) + shift)
        dev = hamiltonian_dev(P, fields)
        assert dev == pytest.approx(shift, rel=1e-6)
        if dev < 2e-10:
            assert moment_and_fields(P) == fields
        else:
            with pytest.raises(VerificationError, match=f"miss dJ by {dev:.3e}"):
                moment_and_fields(P)


def test_hamiltonian_field_solver_matches_closed_form(rng):
    # X_f = (t f_t, -t f_s) for omega = (1/t) ds ^ dt
    f = Poly2({(1, 1): 1.0, (2, 0): -0.5}).as_field()
    for _ in range(20):
        P = OrbitPoint(float(rng.normal()), float(rng.uniform(0.3, 3.0)))
        X = hamiltonian_field(f, P)
        assert X.ds == pytest.approx(P.t * f.d_t(P.s, P.t), abs=1e-10)
        assert X.dt == pytest.approx(-P.t * f.d_s(P.s, P.t), abs=1e-10)


def test_poisson_of_moment_functions(rng):
    # {J1, J2} = -2 J1, mirroring the algebra bracket [E1, E2] = -2 E1
    comm = sut.E1 @ sut.E2 - sut.E2 @ sut.E1
    assert np.allclose(comm, -2 * sut.E1)
    j1 = Poly2({(0, 1): 1.0})
    j2 = Poly2({(1, 0): 2.0})
    f1, f2 = j1.as_field(), j2.as_field()
    for _ in range(30):
        P = OrbitPoint(float(rng.normal()), float(rng.uniform(0.2, 4.0)))
        assert poisson(f1, f2, P) == pytest.approx(-2 * P.t, abs=1e-12)


def test_poisson_trivial_cases():
    f = Poly2({(1, 1): 1.0}).as_field()
    const = Poly2({(0, 0): 3.0}).as_field()
    P = OrbitPoint(0.7, 1.3)
    assert poisson(f, f, P) == pytest.approx(0.0, abs=1e-12)
    assert poisson(f, const, P) == pytest.approx(0.0, abs=1e-12)


def test_poisson_jacobi_identity(rng):
    # exact polynomial fields make the double brackets exactly representable
    fs = [Poly2({(1, 0): 1.0}), Poly2({(0, 1): 1.0}), Poly2({(1, 1): 1.0})]
    def pb(a, b):
        return poly_poisson(a, b)
    for _ in range(30):
        P = OrbitPoint(float(rng.normal()), float(rng.uniform(0.2, 4.0)))
        f, g, h = fs
        total = (pb(f, pb(g, h)) (P.s, P.t)
                 + pb(g, pb(h, f))(P.s, P.t)
                 + pb(h, pb(f, g))(P.s, P.t))
        assert abs(total) < 1e-10
        # the library bracket agrees with the exact polynomial bracket
        assert poisson(f.as_field(), g.as_field(), P) == \
            pytest.approx(pb(f, g)(P.s, P.t), abs=1e-10)


# ---------------------------------------------------------------------------
# chart maps

def test_chart_roundtrips(rng):
    # chi = psi o phi^{-1} on the orbits of both signs of v0
    for v0 in (2.0, -2.0):
        orbit = Orbit(0.7, v0)
        for _ in range(50):
            t = math.copysign(float(rng.uniform(0.1, 5.0)), v0)
            P = orbit.point(float(rng.normal()), t)
            g = phi_map(orbit, P)
            back = phi_inv(orbit, g)
            assert back.s == pytest.approx(P.s, abs=1e-12)
            assert back.t == pytest.approx(P.t, abs=1e-12)
            lam, mu = chi_map(orbit, g)
            lam2, mu2 = psi_map(orbit, P)
            assert (lam, mu) == (pytest.approx(lam2), pytest.approx(mu2))
            assert mu > 0


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50).filter(lambda u: u != 0), st.floats(1e-3, 1e3),
       st.sampled_from([1.0, -1.0]), st.floats(-50, 50), st.floats(1e-3, 1e3))
def test_chart_roundtrips_on_both_orbits(u0, v_abs, sign, s, t_abs):
    # phi_inv undoes phi_map on the orbits of either sign of v0, at the
    # point's own scale; with v0 < 0 the chart's b / a is (u0 - s) / |v0|
    orbit = Orbit(u0, sign * v_abs)
    P = orbit.point(s, sign * t_abs)
    back = phi_inv(orbit, phi_map(orbit, P))
    assert abs(back.s - P.s) <= 1e-13 * max(1.0, abs(P.s), abs(u0))
    assert abs(back.t - P.t) <= 1e-13 * max(1.0, abs(P.t))


def test_chart_worked_example():
    orbit = Orbit(0.0, 1.0)
    g = phi_map(orbit, orbit.point(0.0, 1.0))
    assert (g.g1, g.g2) == (pytest.approx(1.0), pytest.approx(0.0))
    assert chi_map(orbit, g) == (pytest.approx(0.0), pytest.approx(1.0))


def test_chart_sign_guard():
    orbit = Orbit(0.0, 1.0)
    with pytest.raises(DomainError):
        orbit.point(0.0, -1.0)
    with pytest.raises(DomainError):
        phi_inv(orbit, SutElement(-1.0, 0.0))
    for P in (OrbitPoint(0.5, -1.0), OrbitPoint(-2.0, -1e-300)):  # t < 0
        with pytest.raises(DomainError, match="does not lie on this orbit"):
            phi_map(orbit, P)
        with pytest.raises(DomainError, match="does not lie on this orbit"):
            psi_map(orbit, P)
    for g1 in (-1.0, -1e-3):
        with pytest.raises(DomainError, match="positive diagonal"):
            chi_map(orbit, SutElement(g1, 0.5))


@pytest.mark.parametrize("v0, t", [
    (1e308, 0.5),      # sqrt(v0/t) overflows
    (-1e308, -0.5),
    (1e-300, 1e300),   # v0/t underflows to 0
    (1e300, 1e300),    # sqrt(v0 t) overflows, so b would read 0
    (5e-324, 5e-324),  # v0 t underflows to 0
])
@pytest.mark.filterwarnings("error")
def test_phi_map_rejects_a_chart_with_no_finite_positive_double(v0, t):
    # P lies on the orbit, even where v0 t underflows, but phi has no chart
    # point there in doubles: a DomainError, not a t = 0 from phi_inv
    orbit, P = Orbit(0.0, v0), OrbitPoint(0.0, t)
    assert orbit.contains(P)
    with pytest.raises(DomainError, match="phi has no finite a, b"):
        phi_map(orbit, P)


@pytest.mark.parametrize("u0, s, t", [
    (1e300, 0.0, 1e-300),    # (u0 - s) / sqrt(v0 t) overflows
    (1e308, -1e308, 1.0),    # u0 - s overflows
    (-1e300, 1e10, 1e-300),
])
@pytest.mark.filterwarnings("error")
def test_phi_map_rejects_a_chart_whose_b_is_not_finite(u0, s, t):
    # a = sqrt(v0/t) is finite, but b = (u0 - s) / sqrt(v0 t) is not: phi,
    # not the round trip through phi_inv, names the point
    orbit, P = Orbit(u0, 1.0), OrbitPoint(s, t)
    assert orbit.contains(P)
    with pytest.raises(DomainError, match="phi has no finite a, b"):
        phi_map(orbit, P)


@pytest.mark.parametrize("a, b", [
    (1e-150, -1e300),  # |b| / a past the double range: lam overflows
    (1e-160, 0.0),     # 1 / a^2 overflows
    (1e-170, 1.0),     # a^2 underflows to 0
    (1e200, 1.0),      # a^2 overflows, so mu would read 0
])
@pytest.mark.filterwarnings("error")
def test_chi_map_rejects_a_point_with_no_finite_image(a, b):
    # chi names the point, as phi does, instead of a NaN coefficient
    for v0 in (1.0, -1.0):
        with pytest.raises(DomainError, match="chi has no finite lam, mu"):
            chi_map(Orbit(0.0, v0), SutElement(a, b))
        with pytest.raises(DomainError, match="chi has no finite lam, mu"):
            chi_pullback_coefficient(Orbit(0.0, v0), SutElement(a, b))


@pytest.mark.parametrize("a, b", [
    (1e-150, -1.7e158),     # lam = -1.7e308 and mu = 1e300 near the double range
    (1.0, 1.7976925e308),   # lam = b near the largest double
    (7.458345e-155, 0.0),   # mu = 1.79769e308 near the largest double
])
@pytest.mark.filterwarnings("error")
def test_chi_pullback_at_the_edge_of_the_double_range(a, b):
    # chi's image is finite, and so is every quotient of the complex step:
    # the coefficient is 2 sign(v0) to round-off, not 0, NaN or an error
    for v0 in (1.0, -1.0):
        orbit, g = Orbit(0.0, v0), SutElement(a, b)
        assert all(map(math.isfinite, chi_map(orbit, g)))
        assert abs(chi_pullback_coefficient(orbit, g) - math.copysign(2.0, v0)) <= cli.CHART_TOL


@pytest.mark.parametrize("u0, v0, a, b", [
    (0.0, 1.0, 1e-170, 0.0),      # a^2 underflows to 0
    (0.0, -1.0, 1e-170, 0.0),
    (0.0, 1.0, 1e200, 0.0),       # a^2 overflows
    (0.0, 1e-300, 1e150, 0.0),    # v0 / a^2 underflows to t = 0
    (0.0, 1e300, 1e-10, 0.0),     # v0 / a^2 overflows
    (1e308, 1.0, 1.0, -1e308),    # s = u0 - b |v0| / a overflows
])
@pytest.mark.filterwarnings("error")
def test_phi_inv_rejects_an_element_with_no_finite_orbit_point(u0, v0, a, b):
    # a DomainError naming the element, not a ZeroDivisionError or a
    # DegenerateOrbit for a t that is 0 only in doubles
    with pytest.raises(DomainError, match="phi\\^-1 has no finite s, nonzero t"):
        phi_inv(Orbit(u0, v0), SutElement(a, b))


def test_chi_pullback_is_twice_area_form(rng):
    # 2 sign(v0) da ^ db, since chi's lam carries the orbit's sign
    for v0 in (1.0, 2.0, -2.0):
        orbit = Orbit(0.0, v0)
        for _ in range(30):
            g = SutElement(float(rng.uniform(0.3, 2.5)), float(rng.normal()))
            coeff = chi_pullback_coefficient(orbit, g)
            assert coeff == pytest.approx(math.copysign(2.0, v0), abs=1e-6)


@settings(max_examples=500, deadline=None)
@given(st.floats(-160, 160), st.floats(-1.7e308, 1.7e308), st.sampled_from([1.0, -1.0]))
@example(-154.127, 0.0, 1.0)           # a^2 subnormal: exact by 1/a/a
@example(151.0, 1.0, -1.0)             # mu = 1e-302: its imaginary part is subnormal
@example(0.0, 1e-305, 1.0)             # |lam| = 1e-305: its imaginary part is subnormal
@example(10.0, 1.7e308, -1.0)          # lam_a / mu = -b near the largest double
@pytest.mark.filterwarnings("error")
def test_chi_pullback_is_exact_or_rejected_over_the_double_range(log_a, b, sign):
    # over the whole positive subgroup, on both orbits, the coefficient is
    # 2 sign(v0) to round-off or a DomainError, never NaN or another value
    orbit, g = Orbit(0.0, sign), SutElement(10.0**log_a, b)
    try:
        coeff = chi_pullback_coefficient(orbit, g)
    except DomainError:
        return
    assert abs(coeff - 2.0 * sign) <= cli.CHART_TOL


@settings(max_examples=300, deadline=None)
@given(st.floats(-3, 12), st.sampled_from([1.0, -1.0]), st.floats(-50, 50),
       st.floats(-3, 3), st.floats(-6, 6), st.sampled_from([1.0, -1.0]))
def test_chi_pullback_holds_far_from_the_orbit_base(log_d, d_sign, u0, log_v, log_t, sign):
    # b = (u0 - s) / sqrt(v0 t) enters chi linearly, so its complex step
    # is exact at any |b|: the coefficient stays within CHART_TOL of
    # 2 sign(v0) on both orbits where |b| >> a, with |u0 - s| up to 1e12
    orbit = Orbit(u0, sign * 10.0**log_v)
    g = phi_map(orbit, OrbitPoint(u0 - d_sign * 10.0**log_d, sign * 10.0**log_t))
    coeff = chi_pullback_coefficient(orbit, g)
    assert abs(coeff - 2.0 * sign) <= cli.CHART_TOL


@pytest.mark.parametrize("g1", [-1.0, -1e-3, -1e300, math.nan])
def test_chi_pullback_needs_a_positive_diagonal(g1):
    for v0 in (1.0, -1.0):
        with pytest.raises(DomainError, match="positive diagonal"):
            chi_pullback_coefficient(Orbit(0.0, v0), SutElement(g1, 0.5))


class _ComplexOrbit(Orbit):
    # admits a complex point, so that psi_map's own rational formula takes
    # the complex step
    def contains(self, P):
        return True


def test_psi_chart_pullback_coefficient(rng):
    # psi sends dlam ^ dmu / mu^2 to (1/t^2) dt ^ ds: check by the complex
    # step's Jacobian, exact to round-off as psi is rational
    orbit = _ComplexOrbit(0.7, 2.0)
    psi = lambda s, t: psi_map(orbit, SimpleNamespace(s=s, t=t))
    for _ in range(20):
        s = float(rng.normal())
        t = float(rng.uniform(0.3, 4.0))
        d_ds = sut.complex_step(lambda z: psi(z, t), s)
        d_dt = sut.complex_step(lambda z: psi(s, z), t)
        _, mu = psi(s, t)
        coeff = (d_ds[0] * d_dt[1] - d_ds[1] * d_dt[0]) / mu**2
        # ds ^ dt coefficient is -1/t^2, i.e. + (1/t^2) dt ^ ds
        assert coeff == pytest.approx(-1.0 / t**2, rel=4 * sys.float_info.epsilon)


# ---------------------------------------------------------------------------
# the scalar orbit kernels against a 2x2 matrix oracle written here

def _form_oracle(s, t, xi1, xi2):
    """<P, [V1, V2]> by 2x2 matrix products and a trace, each V built from
    the tangent (ds, dt) as [[-dt/(2t), ds/t], [0, dt/(2t)]]."""
    P = np.array([[s, 0.0], [t, -s]])
    V1, V2 = (np.array([[-dt / (2 * t), ds / t], [0.0, dt / (2 * t)]])
              for ds, dt in (xi1, xi2))
    return float(np.trace(P @ (V1 @ V2 - V2 @ V1)))


def _field_oracle(s, t, f_s, f_t):
    """X_f solving omega(X_f, e_j) = df(e_j) by a dense solve."""
    basis = ((1.0, 0.0), (0.0, 1.0))
    W = np.array([[_form_oracle(s, t, e, ej) for e in basis] for ej in basis])
    return np.linalg.solve(W, np.array([f_s, f_t]))


def _orbit_samples(rng, count=40):
    for _ in range(count):
        s = float(rng.uniform(-3.0, 3.0))
        t = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0))
        yield OrbitPoint(s, t), OrbitTangent(*rng.normal(size=2)), OrbitTangent(*rng.normal(size=2))


def test_kks_form_matches_matrix_oracle(rng):
    for P, xi1, xi2 in _orbit_samples(rng):
        ref = _form_oracle(P.s, P.t, (xi1.ds, xi1.dt), (xi2.ds, xi2.dt))
        assert kks_form(P, xi1, xi2) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_hamiltonian_field_and_poisson_match_matrix_oracle(rng):
    f = Poly2({(1, 1): 1.0, (2, 0): -0.5, (0, 2): 0.25})
    g = Poly2({(1, 0): 2.0, (0, 3): 1.0})
    for P, _, _ in _orbit_samples(rng):
        xf, xg = (_field_oracle(P.s, P.t, h.d_s()(P.s, P.t), h.d_t()(P.s, P.t))
                  for h in (f, g))
        X = hamiltonian_field(f.as_field(), P)
        assert (X.ds, X.dt) == pytest.approx(tuple(xf), rel=1e-12, abs=1e-14)
        assert poisson(f.as_field(), g.as_field(), P) == pytest.approx(
            _form_oracle(P.s, P.t, xf, xg), rel=1e-12, abs=1e-14)


def test_hamiltonian_field_degenerate_form_raises(monkeypatch):
    # omega = (1/t) ds ^ dt stays representable up to the largest double t,
    # where the field of f = s is X_f = (0, -t); only a form that reads 0
    # is degenerate
    f = Poly2({(1, 0): 1.0}).as_field()
    for t in (3e161, 1e200, -1e308, 1.7e308):
        X = hamiltonian_field(f, OrbitPoint(0.0, t))
        assert (X.ds, X.dt) == pytest.approx((0.0, -t), rel=1e-15)
    monkeypatch.setattr(sut, "kks_form", lambda P, xi1, xi2: 0.0)
    with pytest.raises(DegenerateOrbit, match="omega is degenerate"):
        hamiltonian_field(f, OrbitPoint(0.0, 1.0))


@pytest.mark.parametrize("s, t", [(0.0, float("nan")), (float("nan"), 1.0),
                                  (float("inf"), 1.0), (0.0, float("-inf"))])
def test_orbit_point_rejects_non_finite(s, t):
    with pytest.raises(DomainError):
        OrbitPoint(s, t)


# ---------------------------------------------------------------------------
# guard branches

def test_zero_diagonal_and_point_orbit_are_rejected():
    with pytest.raises(DomainError, match="g1 must be nonzero"):
        SutElement(0.0)
    for s in (0.0, -1.5):
        with pytest.raises(DegenerateOrbit):
            OrbitPoint(s, 0.0)
