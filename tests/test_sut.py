import numpy as np
import pytest

from cohgeom.errors import DegenerateOrbit, DomainError, VerificationError
from cohgeom import sut
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
    orbit = Orbit(0.7, 2.0)
    for _ in range(50):
        P = orbit.point(float(rng.normal()), float(rng.uniform(0.1, 5.0)))
        g = phi_map(orbit, P)
        back = phi_inv(orbit, g)
        assert back.s == pytest.approx(P.s, abs=1e-12)
        assert back.t == pytest.approx(P.t, abs=1e-12)
        lam, mu = chi_map(orbit, g)
        lam2, mu2 = psi_map(orbit, P)
        assert (lam, mu) == (pytest.approx(lam2), pytest.approx(mu2))
        assert mu > 0


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


def test_chi_pullback_is_twice_area_form(rng):
    orbit = Orbit(0.0, 1.0)
    for _ in range(30):
        g = SutElement(float(rng.uniform(0.3, 2.5)), float(rng.normal()))
        coeff = chi_pullback_coefficient(orbit, g)
        assert coeff == pytest.approx(2.0, abs=1e-6)


def test_psi_chart_pullback_coefficient(rng):
    # psi sends dlam ^ dmu / mu^2 to (1/t^2) dt ^ ds: check by FD Jacobian
    orbit = Orbit(0.7, 2.0)
    h = 1e-6
    for _ in range(20):
        s = float(rng.normal())
        t = float(rng.uniform(0.3, 4.0))
        f = lambda ss, tt: np.array(psi_map(orbit, orbit.point(ss, tt)))
        d_ds = (f(s + h, t) - f(s - h, t)) / (2 * h)
        d_dt = (f(s, t + h) - f(s, t - h)) / (2 * h)
        _, mu = psi_map(orbit, orbit.point(s, t))
        coeff = (d_ds[0] * d_dt[1] - d_ds[1] * d_dt[0]) / mu**2
        # ds ^ dt coefficient is -1/t^2, i.e. + (1/t^2) dt ^ ds
        assert coeff == pytest.approx(-1.0 / t**2, abs=1e-6)
