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

Hamiltonian fields are solved from the form, not taken from the closed
forms: a 2-form on the plane has one coefficient, omega = w ds ^ dt with
w = omega(d/ds, d/dt), so omega(X_f, .) = df gives X_f = (f_t, -f_s) / w
from one ``kks_form`` evaluation (``hamiltonian_field``).

Chart maps onto the positive-diagonal subgroup and the half plane implement

    Phi(s, t) = (a, b) = (sqrt(v0/t), (u0 - s)/sqrt(v0 t)),
    chi(a, b) = (lam, mu) = (sign(v0) b/a, 1/a^2),

so that chi = psi o Phi^{-1} on the orbits of either sign, with chi pulling
dlam ^ dmu / mu^2 back to 2 sign(v0) da ^ db.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateOrbit, DomainError, VerificationError

E1 = np.array([[0.0, 1.0], [0.0, 0.0]])
E2 = np.array([[1.0, 0.0], [0.0, -1.0]])
CHART_FD_STEP = 1e-6  # chart FD steps, relative to the point's a and max(a, |b|)


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
    """Point (s, t) on a nondegenerate orbit; t = 0 is the point orbit.

    DomainError for a non-finite s or t.
    """

    s: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.s) and math.isfinite(self.t)):
            raise DomainError(f"orbit point ({self.s}, {self.t}) is not finite")
        if self.t == 0.0:
            raise DegenerateOrbit("t = 0 is a single-point orbit")


@dataclass(frozen=True)
class OrbitTangent:
    ds: float
    dt: float


_ES, _ET = OrbitTangent(1.0, 0.0), OrbitTangent(0.0, 1.0)  # d/ds and d/dt


@dataclass(frozen=True)
class Orbit:
    """The orbit through (u0, v0), v0 != 0: the half plane sign(t) = sign(v0)."""

    u0: float
    v0: float

    def __post_init__(self):
        if self.v0 == 0.0:
            raise DegenerateOrbit("v0 = 0 gives a point orbit")

    def contains(self, P: OrbitPoint) -> bool:
        # signs, not the product, which underflows to 0 for tiny t and v0
        return (P.t > 0) == (self.v0 > 0)

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


def _algebra_components(P: OrbitPoint, xi: OrbitTangent) -> tuple[float, float]:
    """The entries (v1, v2) of ``tangent_to_algebra``: v1 = -dt/(2t), v2 = ds/t.

    ``OrbitPoint`` rejects t = 0, so the division is always defined; v1 is
    taken as (-dt/2)/t, the same double as -dt/(2t) wherever 2t does not
    overflow, and right where it does."""
    return -0.5 * xi.dt / P.t, xi.ds / P.t


def tangent_to_algebra(P: OrbitPoint, xi: OrbitTangent) -> np.ndarray:
    """Algebra element V with ad*_V P = xi: v2 = ds/t, v1 = -dt/(2t)."""
    v1, v2 = _algebra_components(P, xi)
    return np.array([[v1, v2], [0.0, -v1]])


def kks_form(P: OrbitPoint, xi1: OrbitTangent, xi2: OrbitTangent) -> float:
    """Orbit symplectic form <P, [V1, V2]> via the algebra representatives.

    For V = [[v1, v2], [0, -v1]] and W = [[w1, w2], [0, -w1]] the bracket
    [V, W] has the single entry 2 (v1 w2 - w1 v2) above the diagonal, so the
    trace pairing with P = [[s, 0], [t, -s]] is t 2 (v1 w2 - w1 v2), taken
    in scalar arithmetic from the components of ``tangent_to_algebra``.
    Each component is of size 1/t, so t scales one factor of each product,
    2 ((t v1) w2 - (t w1) v2): the products are then of size 1/t, not
    1/t^2, and do not underflow while 1/t is representable.  Antisymmetric
    and nondegenerate for t != 0; equals (xi1_s xi2_t - xi1_t xi2_s)/t,
    i.e. the two-form (1/t) ds ^ dt.
    """
    v1, v2 = _algebra_components(P, xi1)
    w1, w2 = _algebra_components(P, xi2)
    return float(2.0 * ((P.t * v1) * w2 - (P.t * w1) * v2))


@dataclass(frozen=True)
class MomentFields:
    j1: float
    j2: float
    xj1: OrbitTangent
    xj2: OrbitTangent


def hamiltonian_dev(P: OrbitPoint, fields: MomentFields) -> float:
    """Worst miss of omega(X_J, e) = dJ(e) at P over both moments' fields and
    both coordinate directions e, for dJ1 = dt and dJ2 = 2 ds."""
    return max(abs(kks_form(P, fields.xj1, _ES)),
               abs(kks_form(P, fields.xj1, _ET) - 1.0),
               abs(kks_form(P, fields.xj2, _ES) - 2.0),
               abs(kks_form(P, fields.xj2, _ET)))


def moment_and_fields(P: OrbitPoint) -> MomentFields:
    """Moment functions J_i = Tr(P E_i) and their Hamiltonian fields.

    J1 = t with X_{J1} = t d/ds and J2 = 2s with X_{J2} = -2t d/dt; both are
    verified pointwise against omega(X, .) = dJ (``hamiltonian_dev``) before
    returning: VerificationError unless the miss is below 1e-10 max(1, |t|).
    """
    # Tr(P E1) = t and Tr(P E2) = 2s for P = [[s, 0], [t, -s]]
    fields = MomentFields(float(P.t), 2.0 * float(P.s), OrbitTangent(P.t, 0.0),
                          OrbitTangent(0.0, -2.0 * P.t))
    dev = hamiltonian_dev(P, fields)
    if not dev < 1e-10 * max(1.0, abs(P.t)):
        raise VerificationError(
            f"Hamiltonian fields miss dJ by {dev:.3e} at {P}")
    return fields


@dataclass(frozen=True)
class Field2D:
    """Scalar field on the orbit chart exposing value and first partials."""

    value: Callable[[float, float], float]
    d_s: Callable[[float, float], float]
    d_t: Callable[[float, float], float]


def hamiltonian_field(f: Field2D, P: OrbitPoint) -> OrbitTangent:
    """Solve omega(X_f, .) = df at P from the form's one coefficient.

    A 2-form on the plane is w ds ^ dt with w = omega(d/ds, d/dt), so
    omega(X, d/ds) = -w X_t and omega(X, d/dt) = w X_s, and
    X_f = (f_t, -f_s) / w.  DegenerateOrbit where w reads 0.
    """
    w = kks_form(P, _ES, _ET)
    if w == 0.0:
        raise DegenerateOrbit(f"omega is degenerate at {P}")
    return OrbitTangent(float(f.d_t(P.s, P.t) / w), float(-f.d_s(P.s, P.t) / w))


def poisson(f: Field2D, g: Field2D, P: OrbitPoint) -> float:
    """{f, g}(P) = omega(X_f, X_g) with both fields solved numerically."""
    return kks_form(P, hamiltonian_field(f, P), hamiltonian_field(g, P))


# ---------------------------------------------------------------------------
# chart maps between the orbit, the positive subgroup and the half plane

def phi_map(orbit: Orbit, P: OrbitPoint) -> SutElement:
    """Orbit -> positive subgroup: (s, t) -> (a, b) as in the module docstring.

    DomainError off the orbit, and where a = sqrt(v0/t) or sqrt(v0 t) is not
    a finite positive double or b = (u0 - s) / sqrt(v0 t) is not finite."""
    if not orbit.contains(P):
        raise DomainError("point does not lie on this orbit")
    a, root = math.sqrt(orbit.v0 / P.t), math.sqrt(orbit.v0 * P.t)
    b = (orbit.u0 - P.s) / root if 0 < root < math.inf else math.nan
    if not (0 < a < math.inf and math.isfinite(b)):
        raise DomainError(f"phi has no finite a, b at t = {P.t} on v0 = {orbit.v0}")
    return SutElement(a, b)


def phi_inv(orbit: Orbit, g: SutElement) -> OrbitPoint:
    """Positive subgroup -> orbit: inverse of phi_map.

    b / a = (u0 - s) / |v0| on either orbit, since sqrt(v0 t) = |v0| / a,
    so s = u0 - b |v0| / a and t = v0 / a^2."""
    if not g.is_positive:
        raise DomainError("chart requires a positive diagonal")
    s = orbit.u0 - g.g2 * abs(orbit.v0) / g.g1
    t = orbit.v0 / g.g1**2
    return OrbitPoint(float(s), float(t))


def psi_map(orbit: Orbit, P: OrbitPoint) -> tuple[float, float]:
    """Orbit -> upper half plane: (lam, mu) = ((u0 - s)/v0, t/v0)."""
    if not orbit.contains(P):
        raise DomainError("point does not lie on this orbit")
    return (orbit.u0 - P.s) / orbit.v0, P.t / orbit.v0


def _chi(sign: float, a: float, b: float) -> tuple[float, float]:
    # chi at (a, b), a > 0, on an orbit with sign(v0) = sign
    return sign * b / a, 1.0 / a**2


def chi_map(orbit: Orbit, g: SutElement) -> tuple[float, float]:
    """Positive subgroup -> half plane, psi o phi^{-1}: (sign(v0) b/a, 1/a^2)."""
    if not g.is_positive:
        raise DomainError("chart requires a positive diagonal")
    return _chi(math.copysign(1.0, orbit.v0), g.g1, g.g2)


def chi_pullback_coefficient(orbit: Orbit, g: SutElement) -> float:
    """Coefficient of da ^ db in chi*(dlam ^ dmu / mu^2), by FD Jacobians
    with the steps h = CHART_FD_STEP a in a and k = CHART_FD_STEP max(a, |b|)
    in b, each relative to the scale of the point (a, b) = (g1, g2).

    mu = 1/a^2 varies on the scale a, so an absolute step would swamp the
    difference, or leave the positive subgroup, once a is small (large t);
    b +- h would keep only h / ulp(b) of its digits once |b| >> a, so b
    takes its own step k.  chi is evaluated on floats, by the ``_chi`` of
    ``chi_map``, with no ``SutElement`` built: ``chi_map`` checks g's
    diagonal once (DomainError unless it is positive), and a > 0 makes every
    shifted a = (1 +- CHART_FD_STEP) a positive too.  Each central
    difference is divided by its 2h mu or 2k mu before the Jacobian is
    formed, so every intermediate stays near 2, |b|, a or 1/a.
    Analytically equal to 2 sign(v0) everywhere on the positive subgroup.
    """
    _, mu = chi_map(orbit, g)
    sign, a, b = math.copysign(1.0, orbit.v0), g.g1, g.g2
    h, k = CHART_FD_STEP * a, CHART_FD_STEP * max(a, abs(b))
    (lam_p, mu_p), (lam_m, mu_m) = _chi(sign, a + h, b), _chi(sign, a - h, b)
    lam_a, mu_a = lam_p - lam_m, mu_p - mu_m  # 2h times the a-partials
    (lam_p, mu_p), (lam_m, mu_m) = _chi(sign, a, b + k), _chi(sign, a, b - k)
    lam_b, mu_b = lam_p - lam_m, mu_p - mu_m  # 2k times the b-partials
    da, db = 2 * h * mu, 2 * k * mu
    return float((lam_a / da) * (mu_b / db) - (mu_a / da) * (lam_b / db))
