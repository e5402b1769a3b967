"""Coadjoint orbit of the real special upper-triangular 2x2 group.

Group elements are [[g1, g2], [0, 1/g1]] with g1 != 0; the dual algebra
consists of lower-triangular traceless matrices [[u, 0], [v, -u]].  The
coadjoint action in (u, v) coordinates is

    Ad*_g (u0, v0) = (u0 + g2 v0 / g1,  v0 / g1^2),

so for v0 != 0 the orbit through (u0, v0) is the half plane sharing the sign
of v0, coordinatized by points (s, t), t != 0.

Tangent identification.  Differentiating the action along exp(eps V) with
V = [[v1, v2], [0, -v1]] gives, directly in (s, t) coordinates,

    ad*_V (s, t) = (t v2) d/ds + (-2 t v1) d/dt,

hence the inverse map used here is v2 = ds / t, v1 = -dt / (2t).  With the
trace pairing <A, B> = Tr(A B) the orbit form

    omega(xi1, xi2) = <A, [V1, V2]> = (xi1_s xi2_t - xi1_t xi2_s) / t

comes out exactly as (1/t) ds ^ dt.  This normalization is the one consistent
with the Hamiltonian fields X_{J1} = t d/ds, X_{J2} = -2t d/dt of the moment
functions J1 = t, J2 = 2s, and with the momentum-map identity
{J1, J2} = -2 J1 mirroring the algebra bracket [E1, E2] = -2 E1; intermediate
derivations that carry extra factors of -1/2 fail those anchors.

Chart maps onto the positive-diagonal subgroup and the half plane implement

    Phi(s, t) = (a, b) = (sqrt(v0/t), (u0 - s)/sqrt(v0 t)),
    chi(a, b) = (lam, mu) = (b/a, 1/a^2),

with chi pulling dlam ^ dmu / mu^2 back to 2 da ^ db.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateOrbit, DomainError, VerificationError

E1 = np.array([[0.0, 1.0], [0.0, 0.0]])
E2 = np.array([[1.0, 0.0], [0.0, -1.0]])
CHART_FD_STEP = 1e-6


@dataclass(frozen=True)
class SutElement:
    """Group element [[g1, g2], [0, 1/g1]], det = 1 by construction."""

    g1: float
    g2: float = 0.0

    def __post_init__(self):
        if self.g1 == 0.0:
            raise DomainError("diagonal entry g1 must be nonzero")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.g1, self.g2], [0.0, 1.0 / self.g1]])

    @property
    def is_positive(self) -> bool:
        return self.g1 > 0

    def compose(self, other: "SutElement") -> "SutElement":
        m = self.matrix @ other.matrix
        return SutElement(m[0, 0], m[0, 1])


@dataclass(frozen=True)
class SutDual:
    """Dual algebra element [[u, 0], [v, -u]]."""

    u: float
    v: float

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.u, 0.0], [self.v, -self.u]])


@dataclass(frozen=True)
class OrbitPoint:
    """Point (s, t) on a nondegenerate orbit; t = 0 is the point orbit."""

    s: float
    t: float

    def __post_init__(self):
        if self.t == 0.0:
            raise DegenerateOrbit("t = 0 is a single-point orbit")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.s, 0.0], [self.t, -self.s]])


@dataclass(frozen=True)
class OrbitTangent:
    ds: float
    dt: float


@dataclass(frozen=True)
class Orbit:
    """The orbit through (u0, v0), v0 != 0: the half plane sign(t) = sign(v0)."""

    u0: float
    v0: float

    def __post_init__(self):
        if self.v0 == 0.0:
            raise DegenerateOrbit("v0 = 0 gives a point orbit")

    def contains(self, P: OrbitPoint) -> bool:
        return P.t * self.v0 > 0

    def point(self, s: float, t: float) -> OrbitPoint:
        P = OrbitPoint(s, t)
        if not self.contains(P):
            raise DomainError(
                f"sign(t) = {np.sign(t):+.0f} does not match sign(v0)")
        return P


def coadjoint_action(g: SutElement, X: SutDual) -> SutDual:
    """Ad*_g X = (u + g2 v / g1, v / g1^2)."""
    return SutDual(X.u + g.g2 * X.v / g.g1, X.v / g.g1**2)


def stabilizer_check(X: SutDual) -> list[SutElement]:
    """Solve the fixed-point equations of the action at X with v != 0.

    g2 v / g1 = 0 forces g2 = 0 and v / g1^2 = v forces g1 = +-1, so the
    stabilizer is {+-identity}; both elements are verified before returning.
    """
    if X.v == 0.0:
        raise DegenerateOrbit("every g fixes a point orbit")
    elements = [SutElement(1.0, 0.0), SutElement(-1.0, 0.0)]
    for g in elements:
        fixed = coadjoint_action(g, X)
        if fixed != X:
            raise VerificationError(
                f"stabilizer candidate {g} moved {X} to {fixed}")
    return elements


def coadjoint_differential(V: np.ndarray, P: OrbitPoint) -> OrbitTangent:
    """ad*_V at P: the velocity of eps -> Ad*_{exp(eps V)} P at eps = 0."""
    v1, v2 = V[0, 0], V[0, 1]
    return OrbitTangent(P.t * v2, -2.0 * P.t * v1)


def tangent_to_algebra(P: OrbitPoint, xi: OrbitTangent) -> np.ndarray:
    """Algebra element V with ad*_V P = xi: v2 = ds/t, v1 = -dt/(2t)."""
    if P.t == 0.0:
        raise DegenerateOrbit("tangent identification needs t != 0")
    v1 = -xi.dt / (2.0 * P.t)
    v2 = xi.ds / P.t
    return np.array([[v1, v2], [0.0, -v1]])


def kks_form(P: OrbitPoint, xi1: OrbitTangent, xi2: OrbitTangent) -> float:
    """Orbit symplectic form <P, [V1, V2]> via the algebra representatives.

    Antisymmetric and nondegenerate for t != 0; equals
    (xi1_s xi2_t - xi1_t xi2_s)/t, i.e. the two-form (1/t) ds ^ dt.
    """
    V1 = tangent_to_algebra(P, xi1)
    V2 = tangent_to_algebra(P, xi2)
    comm = V1 @ V2 - V2 @ V1
    return float(np.trace(P.matrix @ comm))


@dataclass(frozen=True)
class MomentFields:
    j1: float
    j2: float
    xj1: OrbitTangent
    xj2: OrbitTangent


def moment_and_fields(P: OrbitPoint) -> MomentFields:
    """Moment functions J_i = Tr(P E_i) and their Hamiltonian fields.

    J1 = t with X_{J1} = t d/ds and J2 = 2s with X_{J2} = -2t d/dt; both are
    verified pointwise against omega(X, .) = dJ before returning.
    """
    j1 = float(np.trace(P.matrix @ E1))
    j2 = float(np.trace(P.matrix @ E2))
    xj1 = OrbitTangent(P.t, 0.0)
    xj2 = OrbitTangent(0.0, -2.0 * P.t)
    for X, grad in ((xj1, (0.0, 1.0)), (xj2, (2.0, 0.0))):
        for e, comp in ((OrbitTangent(1.0, 0.0), grad[0]),
                        (OrbitTangent(0.0, 1.0), grad[1])):
            dev = abs(kks_form(P, X, e) - comp)
            if not dev < 1e-10 * max(1.0, abs(P.t)):
                raise VerificationError(
                    f"Hamiltonian field {X} misses dJ by {dev:.3e} at {P}")
    return MomentFields(j1, j2, xj1, xj2)


@dataclass(frozen=True)
class Field2D:
    """Scalar field on the orbit chart exposing value and first partials."""

    value: Callable[[float, float], float]
    d_s: Callable[[float, float], float]
    d_t: Callable[[float, float], float]


def hamiltonian_field(f: Field2D, P: OrbitPoint) -> OrbitTangent:
    """Solve omega(X_f, .) = df at P as a 2x2 linear system."""
    es = OrbitTangent(1.0, 0.0)
    et = OrbitTangent(0.0, 1.0)
    # rows: omega(e_i, e_j) acting on the unknown components of X_f
    W = np.array([
        [kks_form(P, es, es), kks_form(P, et, es)],
        [kks_form(P, es, et), kks_form(P, et, et)],
    ])
    df = np.array([f.d_s(P.s, P.t), f.d_t(P.s, P.t)])
    xs, xt = np.linalg.solve(W, df)
    return OrbitTangent(float(xs), float(xt))


def poisson(f: Field2D, g: Field2D, P: OrbitPoint) -> float:
    """{f, g}(P) = omega(X_f, X_g) with both fields solved numerically."""
    return kks_form(P, hamiltonian_field(f, P), hamiltonian_field(g, P))


# ---------------------------------------------------------------------------
# chart maps between the orbit, the positive subgroup and the half plane

def phi_map(orbit: Orbit, P: OrbitPoint) -> SutElement:
    """Orbit -> positive subgroup: (s, t) -> (a, b) as in the module docstring."""
    if P.t * orbit.v0 <= 0:
        raise DomainError("point does not lie on this orbit")
    a = np.sqrt(orbit.v0 / P.t)
    b = (orbit.u0 - P.s) / np.sqrt(orbit.v0 * P.t)
    return SutElement(float(a), float(b))


def phi_inv(orbit: Orbit, g: SutElement) -> OrbitPoint:
    """Positive subgroup -> orbit: inverse of phi_map."""
    if not g.is_positive:
        raise DomainError("chart requires a positive diagonal")
    s = orbit.u0 - g.g2 * orbit.v0 / g.g1
    t = orbit.v0 / g.g1**2
    return OrbitPoint(float(s), float(t))


def psi_map(orbit: Orbit, P: OrbitPoint) -> tuple[float, float]:
    """Orbit -> upper half plane: (lam, mu) = ((u0 - s)/v0, t/v0)."""
    if P.t * orbit.v0 <= 0:
        raise DomainError("point does not lie on this orbit")
    return (orbit.u0 - P.s) / orbit.v0, P.t / orbit.v0


def chi_map(orbit: Orbit, g: SutElement) -> tuple[float, float]:
    """Positive subgroup -> half plane, psi o phi^{-1}: (b/a, 1/a^2)."""
    if not g.is_positive:
        raise DomainError("chart requires a positive diagonal")
    return g.g2 / g.g1, 1.0 / g.g1**2


def chi_pullback_coefficient(orbit: Orbit, g: SutElement) -> float:
    """Coefficient of da ^ db in chi*(dlam ^ dmu / mu^2), by FD Jacobians
    with step CHART_FD_STEP.

    Analytically equal to 2 everywhere on the positive subgroup.
    """
    h = CHART_FD_STEP
    def chi_vec(a, b):
        return np.array(chi_map(orbit, SutElement(a, b)))

    a, b = g.g1, g.g2
    d_da = (chi_vec(a + h, b) - chi_vec(a - h, b)) / (2 * h)
    d_db = (chi_vec(a, b + h) - chi_vec(a, b - h)) / (2 * h)
    _, mu = chi_map(orbit, g)
    jac = d_da[0] * d_db[1] - d_da[1] * d_db[0]
    return float(jac / mu**2)
