"""Prequantization of the orbit moment functions and its consistency checks.

On the half-plane orbit with form omega = (1/t) ds ^ dt and symplectic
potential theta = -log(t) ds (for t > 0, d theta = omega), the moment
functions J1 = t, J2 = 2s prequantize to

    Q1 psi = -i hbar t d(psi)/ds + (t log t + t) psi,
    Q2 psi = 2 i hbar t d(psi)/dt + 2 s psi,

which is the stated operator assignment being verified here.  In the
variables (a, s) with a = log t we have t d/dt = d/da, and the associated
one-parameter flows are taken in the stated closed forms

    (F1(tau) psi)(a, s) = exp(tau t (log t + 1)) psi(a, s - i hbar t tau),
    (F2(tau) psi)(a, s) = exp(s tau) psi(a + 2 i hbar tau, s).

Two defects of this assignment are measured rather than repaired:

* the tau-derivative of F2 at 0 produces s psi + 2 i hbar psi_a whereas
  Q2 psi = 2 s psi + 2 i hbar psi_a, a factor-2 gap on the multiplication
  term (``flow_generator_residual`` detects it; the ``variant="generator"``
  flow with exp(2 s tau) closes it);
* the commutator [Q1, Q2] misses every bracket-correspondence convention
  [Qf, Qg] = eps i hbar Q_{{f,g}} by the multiplication operator
  2 i hbar {J1, J2} = -4 i hbar t, a stable, grid-independent defect that
  ``dirac_residual`` quantifies for all four sign conventions.

Test fields must be entire in (a, s) since the flows evaluate them at
complex-shifted arguments; the bundled basis {1, s, t, e^{i k s}, e^{sigma a}}
carries analytic partials through second order for the commutator check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .sut import OrbitPoint

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class PrequantField:
    """Scalar field psi(a, s), entire in both variables.

    First partials are required; second partials are needed only by the
    commutator-based checks.  All callables must accept complex arguments.
    """

    value: Callable
    d_a: Callable
    d_s: Callable
    d_aa: Callable | None = None
    d_as: Callable | None = None
    d_ss: Callable | None = None

    def has_second_partials(self) -> bool:
        return None not in (self.d_aa, self.d_as, self.d_ss)


def _const(c):
    return lambda a, s: c


def standard_fields(kappa: float = 1.0, sigma: float = 0.7) -> dict[str, PrequantField]:
    """The test basis {1, s, t, e^{i kappa s}, e^{sigma a}} with exact jets."""
    one = PrequantField(_const(1.0), _const(0.0), _const(0.0),
                        _const(0.0), _const(0.0), _const(0.0))
    coord_s = PrequantField(lambda a, s: s, _const(0.0), _const(1.0),
                            _const(0.0), _const(0.0), _const(0.0))
    coord_t = PrequantField(lambda a, s: np.exp(a), lambda a, s: np.exp(a),
                            _const(0.0), lambda a, s: np.exp(a),
                            _const(0.0), _const(0.0))
    osc = PrequantField(
        lambda a, s: np.exp(1j * kappa * s),
        _const(0.0),
        lambda a, s: 1j * kappa * np.exp(1j * kappa * s),
        _const(0.0),
        _const(0.0),
        lambda a, s: -(kappa**2) * np.exp(1j * kappa * s),
    )
    grow = PrequantField(
        lambda a, s: np.exp(sigma * a),
        lambda a, s: sigma * np.exp(sigma * a),
        _const(0.0),
        lambda a, s: sigma**2 * np.exp(sigma * a),
        _const(0.0),
        _const(0.0),
    )
    return {"1": one, "s": coord_s, "t": coord_t,
            f"e^(i{kappa}s)": osc, f"e^({sigma}a)": grow}


def _coords(P: OrbitPoint) -> tuple[float, float]:
    if P.t <= 0:
        raise DomainError("prequantization chart requires t > 0")
    return float(np.log(P.t)), P.s


def prequantum_apply(i: int, psi: PrequantField, P: OrbitPoint,
                     hbar: float = 1.0) -> complex:
    """Evaluate Q_i psi at P (t > 0)."""
    a, s = _coords(P)
    t = P.t
    if i == 1:
        return complex(-1j * hbar * t * psi.d_s(a, s) + t * (a + 1.0) * psi.value(a, s))
    if i == 2:
        return complex(2j * hbar * psi.d_a(a, s) + 2.0 * s * psi.value(a, s))
    raise ValueError("operator index must be 1 or 2")


def flow_apply(i: int, tau: float, psi: PrequantField, P: OrbitPoint,
               hbar: float = 1.0, variant: str = "stated") -> complex:
    """Evaluate the stated flow exp(tau J_i) on psi at P.

    ``variant="stated"`` uses the closed forms as given.  For i = 2,
    ``variant="generator"`` replaces exp(s tau) by exp(2 s tau), the unique
    multiplier whose tau-derivative at 0 reproduces Q2.
    """
    a, s = _coords(P)
    t = P.t
    if i == 1:
        return complex(np.exp(tau * t * (np.log(abs(t)) + 1.0))
                       * psi.value(a, s - 1j * hbar * t * tau))
    if i == 2:
        rate = 2.0 * s if variant == "generator" else s
        return complex(np.exp(rate * tau) * psi.value(a + 2j * hbar * tau, s))
    raise ValueError("operator index must be 1 or 2")


def flow_generator_residual(i: int, psi: PrequantField, P: OrbitPoint,
                            hbar: float = 1.0, dtau: float = 1e-5,
                            variant: str = "stated") -> float:
    """|d/dtau flow(tau)|_0 - Q_i psi| by central difference in tau.

    Vanishes to O(dtau^2) for i = 1; for i = 2 with the stated flow it
    equals |s psi(P)|, exposing the factor-2 gap on the multiplication term.
    """
    num = (flow_apply(i, dtau, psi, P, hbar, variant)
           - flow_apply(i, -dtau, psi, P, hbar, variant)) / (2.0 * dtau)
    return abs(num - prequantum_apply(i, psi, P, hbar))


def _j1_jet(psi: PrequantField, a, s, hbar):
    # value and first partials of Q1 psi, using psi's second partials
    t = np.exp(a)
    val = -1j * hbar * t * psi.d_s(a, s) + t * (a + 1.0) * psi.value(a, s)
    da = (-1j * hbar * t * (psi.d_s(a, s) + psi.d_as(a, s))
          + t * (a + 2.0) * psi.value(a, s) + t * (a + 1.0) * psi.d_a(a, s))
    ds = -1j * hbar * t * psi.d_ss(a, s) + t * (a + 1.0) * psi.d_s(a, s)
    return val, da, ds


def _j2_jet(psi: PrequantField, a, s, hbar):
    val = 2j * hbar * psi.d_a(a, s) + 2.0 * s * psi.value(a, s)
    da = 2j * hbar * psi.d_aa(a, s) + 2.0 * s * psi.d_a(a, s)
    ds = 2j * hbar * psi.d_as(a, s) + 2.0 * psi.value(a, s) + 2.0 * s * psi.d_s(a, s)
    return val, da, ds


def commutator_apply(psi: PrequantField, P: OrbitPoint, hbar: float = 1.0) -> complex:
    """[Q1, Q2] psi at P, assembled mechanically from the field's jet."""
    if not psi.has_second_partials():
        raise ValueError("commutator needs a field with second partials")
    a, s = _coords(P)
    t = P.t
    v2, da2, ds2 = _j2_jet(psi, a, s, hbar)
    v1, da1, ds1 = _j1_jet(psi, a, s, hbar)
    q1q2 = -1j * hbar * t * ds2 + t * (a + 1.0) * v2
    q2q1 = 2j * hbar * da1 + 2.0 * s * v1
    return complex(q1q2 - q2q1)


@dataclass(frozen=True)
class DiracReport:
    """Residuals of [Q1, Q2] = eps_dirac i hbar Q_{{J1,J2}} per convention.

    Keys of ``residuals`` are (eps_field, eps_dirac); eps_field flips the
    Hamiltonian-field convention iota_X omega = eps_field df, which rescales
    {J1, J2} = -2 eps_field J1 and hence the target operator.
    ``defect_dev`` is the worst deviation of the best pair's residual field
    from the identified closed-form defect 2 i hbar {J1, J2} psi; a value
    near zero certifies the defect as stable and proportional to the bracket.
    """

    residuals: dict
    best_pair: tuple
    best_residual: float
    defect_dev: float


def dirac_residual(t_values, s_values, hbar: float = 1.0) -> DiracReport:
    """Brute-force the four sign conventions of the bracket correspondence.

    For each convention pair the residual is the max over the grid and the
    ``standard_fields`` of |([Q1, Q2] - eps_dirac i hbar Q_h) psi| with
    h = {J1, J2} = -2 eps_field t, so Q_h = -2 eps_field Q1 by linearity.
    A grid point with t <= 0 lies outside the chart and raises a
    ``CohgeomError`` before any logarithm is taken.
    """
    fields = standard_fields()
    residuals = {pair: 0.0 for pair in SIGN_PAIRS}
    defect_dev = 0.0
    for t in t_values:
        for s in s_values:
            P = OrbitPoint(float(s), float(t))
            a, _ = _coords(P)
            for psi in fields.values():
                comm = commutator_apply(psi, P, hbar)
                q1 = prequantum_apply(1, psi, P, hbar)
                for (ef, ed) in SIGN_PAIRS:
                    target = ed * 1j * hbar * (-2.0 * ef) * q1
                    residuals[(ef, ed)] = max(residuals[(ef, ed)],
                                              abs(comm - target))
                # identified defect of the eps_f * eps_d = +1 conventions
                defect = comm - (-2j * hbar * q1)
                bracket = -2.0 * t  # {J1, J2} at this point
                defect_dev = max(defect_dev,
                                 abs(defect - 2j * hbar * bracket
                                     * psi.value(a, float(s))))
    best_pair = min(residuals, key=residuals.get)
    return DiracReport(residuals, best_pair, residuals[best_pair], defect_dev)


def potential_residual(t_values, variant: str = "log", h: float = 1e-5) -> float:
    """Max |d theta - omega| coefficient over t, by finite differences.

    theta = -log(t) ds gives d theta = (1/t) ds ^ dt = omega for all t > 0.
    The ``variant="abs_log"`` potential -|log t| ds fails for t < 1 (residual
    2/t there), which is why the plain logarithm is the implemented choice.
    """
    worst = 0.0
    for t in t_values:
        if t <= 0:
            raise DomainError("potential defined for t > 0")
        if variant == "log":
            theta_s = lambda tt: -np.log(tt)
        elif variant == "abs_log":
            theta_s = lambda tt: -abs(np.log(tt))
        else:
            raise ValueError(f"unknown variant {variant!r}")
        # d theta = -(d theta_s / dt) ds ^ dt; omega coefficient is 1/t
        coeff = -(theta_s(t + h) - theta_s(t - h)) / (2.0 * h)
        worst = max(worst, abs(coeff - 1.0 / t))
    return worst
