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
Every entry point that takes hbar raises DomainError unless it is finite and
positive.

The point evaluators ``prequantum_apply``, ``flow_apply``,
``flow_generator_residual`` and ``commutator_apply`` check their arguments
once per call (``_checked``) and then evaluate on Python scalars.  The
residual, which is called once per point, field and flow, evaluates F(+h),
F(-h) and Q_i psi in one frame, with the flows of ``flow_apply`` written out,
so that it makes no evaluator call per value; a test pins its bits to the
same difference taken through ``flow_apply`` and ``prequantum_apply``.  On
such scalars the bundled fields take ``math``/``cmath`` exponentials, with
no numpy call; they still accept arrays, evaluated by ``np.exp``, which
``dirac_residual`` passes over its whole mesh.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, check_hbar, worst
from .sut import OrbitPoint, complex_step

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
KAPPA, SIGMA = 1.0, 0.7  # the test fields e^{i kappa s} and e^{sigma a}
FD_STEP = 1e-5  # central-difference step of the flows, in tau


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


def _exp(x):
    """e^x: ``cmath.exp`` or ``math.exp`` for a Python scalar, ``np.exp`` for
    an array.  A scalar that the scalar functions refuse (past the double
    range, or a non-finite complex) takes ``np.exp`` too, so it reads inf or
    nan, with numpy's warning, as an array entry would."""
    try:
        if isinstance(x, complex):
            return cmath.exp(x)
        if isinstance(x, (float, int)):
            return math.exp(x)
    except (OverflowError, ValueError):
        pass
    return np.exp(x)


@cache
def standard_fields() -> Mapping[str, PrequantField]:
    """The test basis {1, s, t, e^{i KAPPA s}, e^{SIGMA a}} with exact jets.

    Built on first use and shared read-only.  On Python scalars, as the point
    evaluators pass them, every callable takes the scalar exponential of
    ``_exp``; it also accepts arrays, which ``dirac_residual`` passes, and
    there evaluates by ``np.exp``.
    """
    one = PrequantField(_const(1.0), _const(0.0), _const(0.0),
                        _const(0.0), _const(0.0), _const(0.0))
    coord_s = PrequantField(lambda a, s: s, _const(0.0), _const(1.0),
                            _const(0.0), _const(0.0), _const(0.0))
    coord_t = PrequantField(lambda a, s: _exp(a), lambda a, s: _exp(a),
                            _const(0.0), lambda a, s: _exp(a),
                            _const(0.0), _const(0.0))
    osc = PrequantField(
        lambda a, s: _exp(1j * KAPPA * s),
        _const(0.0),
        lambda a, s: 1j * KAPPA * _exp(1j * KAPPA * s),
        _const(0.0),
        _const(0.0),
        lambda a, s: -(KAPPA**2) * _exp(1j * KAPPA * s),
    )
    grow = PrequantField(
        lambda a, s: _exp(SIGMA * a),
        lambda a, s: SIGMA * _exp(SIGMA * a),
        _const(0.0),
        lambda a, s: SIGMA**2 * _exp(SIGMA * a),
        _const(0.0),
        _const(0.0),
    )
    return MappingProxyType({"1": one, "s": coord_s, "t": coord_t,
                             f"e^(i{KAPPA}s)": osc, f"e^({SIGMA}a)": grow})


def _q1(v, d_s, a, t, hbar):
    # Q1 on a field of value v and s-partial d_s, at points or over a mesh
    # of (a, s) with t = e^a
    return -1j * hbar * t * d_s + t * (a + 1.0) * v


def _q2(v, d_a, s, hbar):
    # Q2 on a field of value v and a-partial d_a
    return 2j * hbar * d_a + 2.0 * s * v


def _checked(i: int, P: OrbitPoint, hbar: float, variant: str = "stated"):
    """The chart coordinates (a, s) of P, after the argument checks of the
    point evaluators: DomainError for an operator index other than 1 or 2,
    an unknown flow variant, a bad hbar or t <= 0, in that order."""
    if i not in (1, 2):
        raise DomainError(f"operator index must be 1 or 2, got {i!r}")
    if variant not in ("stated", "generator"):
        raise DomainError(f"unknown flow variant {variant!r}")
    check_hbar(hbar)
    if not P.t > 0:
        raise DomainError("prequantization chart requires t > 0")
    return math.log(P.t), P.s


def prequantum_apply(i: int, psi: PrequantField, P: OrbitPoint,
                     hbar: float = 1.0) -> complex:
    """Evaluate Q_i psi at P (t > 0)."""
    a, s = _checked(i, P, hbar)
    if i == 1:
        return complex(_q1(psi.value(a, s), psi.d_s(a, s), a, P.t, hbar))
    return complex(_q2(psi.value(a, s), psi.d_a(a, s), s, hbar))


def flow_apply(i: int, tau: float, psi: PrequantField, P: OrbitPoint,
               hbar: float = 1.0, variant: str = "stated") -> complex:
    """Evaluate the stated flow exp(tau J_i) on psi at P.

    ``variant="stated"`` uses the closed forms as given.  For i = 2,
    ``variant="generator"`` replaces exp(s tau) by exp(2 s tau), the unique
    multiplier whose tau-derivative at 0 reproduces Q2.  An operator index
    other than 1 or 2, or another variant, is a DomainError.
    """
    a, s = _checked(i, P, hbar, variant)
    t = P.t
    if i == 1:
        exponent, point = tau * t * (a + 1.0), (a, s - 1j * hbar * t * tau)
    else:
        exponent = (2.0 * s if variant == "generator" else s) * tau
        point = (a + 2j * hbar * tau, s)
    try:
        growth = math.exp(exponent)
    except OverflowError:  # a multiplier past the double range reads inf
        growth = math.inf
    return complex(growth * psi.value(*point))


def flow_generator_residual(i: int, psi: PrequantField, P: OrbitPoint,
                            hbar: float = 1.0, variant: str = "stated") -> float:
    """|d/dtau flow(tau)|_0 - Q_i psi| by central difference in tau, with
    step FD_STEP.

    Vanishes to O(FD_STEP^2) for i = 1; for i = 2 with the stated flow it
    equals |s psi(P)|, exposing the factor-2 gap on the multiplication term.
    The arguments are checked once, as by ``flow_apply``, and the two flows
    and Q_i psi are evaluated in this one frame: the flows with the
    expressions of ``flow_apply`` written out, Q_i psi by the ``_q1`` or
    ``_q2`` of ``prequantum_apply``.  The value has the bits of the same
    difference taken through those two.
    """
    a, s = _checked(i, P, hbar, variant)
    t, h, f = P.t, FD_STEP, psi.value
    if i == 1:
        rate = h * t * (a + 1.0)
        up, down = f(a, s - 1j * hbar * t * h), f(a, s - 1j * hbar * t * -h)
        q = _q1(f(a, s), psi.d_s(a, s), a, t, hbar)
    else:
        rate = (2.0 * s if variant == "generator" else s) * h
        up, down = f(a + 2j * hbar * h, s), f(a + 2j * hbar * -h, s)
        q = _q2(f(a, s), psi.d_a(a, s), s, hbar)
    try:  # the flows' multipliers e^{+-rate}, read inf past the double range
        grow, shrink = math.exp(rate), math.exp(-rate)
    except OverflowError:
        grow, shrink = ((math.inf, math.exp(-rate)) if rate > 0
                        else (math.exp(rate), math.inf))
    num = (complex(grow * up) - complex(shrink * down)) / (2.0 * h)
    return abs(num - complex(q))


def _j1_jet(psi: PrequantField, a, s, hbar):
    # value and first partials of Q1 psi, using psi's second partials; the
    # s-partial is Q1 of psi's s-partial
    t = np.exp(a)
    v, d_s = psi.value(a, s), psi.d_s(a, s)
    da = (-1j * hbar * t * (d_s + psi.d_as(a, s))
          + t * (a + 2.0) * v + t * (a + 1.0) * psi.d_a(a, s))
    return _q1(v, d_s, a, t, hbar), da, _q1(d_s, psi.d_ss(a, s), a, t, hbar)


def _j2_jet(psi: PrequantField, a, s, hbar):
    # value and first partials of Q2 psi; the a-partial is Q2 of psi's
    # a-partial
    v, d_a = psi.value(a, s), psi.d_a(a, s)
    ds = 2j * hbar * psi.d_as(a, s) + 2.0 * v + 2.0 * s * psi.d_s(a, s)
    return _q2(v, d_a, s, hbar), _q2(d_a, psi.d_aa(a, s), s, hbar), ds


def _commutator(psi: PrequantField, a, s, t, hbar):
    # [Q1, Q2] psi at points or over a mesh, from the field's jet
    v2, _, ds2 = _j2_jet(psi, a, s, hbar)
    v1, da1, _ = _j1_jet(psi, a, s, hbar)
    return _q1(v2, ds2, a, t, hbar) - _q2(v1, da1, s, hbar)


def commutator_apply(psi: PrequantField, P: OrbitPoint, hbar: float = 1.0) -> complex:
    """[Q1, Q2] psi at P, assembled mechanically from the field's jet."""
    if not psi.has_second_partials():
        raise DomainError("commutator needs a field with second partials")
    a, s = _checked(1, P, hbar)
    return complex(_commutator(psi, a, s, P.t, hbar))


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

    For each convention pair the residual is the worst over the grid and the
    ``standard_fields`` of |([Q1, Q2] - eps_dirac i hbar Q_h) psi| with
    h = {J1, J2} = -2 eps_field t, so Q_h = -2 eps_field Q1 by linearity.
    Each field's jets are evaluated over the whole (t, s) mesh at once.  A
    grid point that is not finite or has t <= 0 (outside the chart), or an
    empty grid, raises DomainError before any logarithm is taken.
    """
    check_hbar(hbar)
    t, s = (np.asarray(x, dtype=float) for x in (t_values, s_values))
    if t.size == 0 or s.size == 0:
        raise DomainError("dirac_residual needs a nonempty (t, s) grid")
    if not (np.isfinite(s).all() and (np.isfinite(t) & (t > 0)).all()):
        raise DomainError("prequantization chart requires t > 0 at finite points")
    t, s = np.meshgrid(t, s, indexing="ij")
    a = np.log(t)
    per_field, defects = {pair: [] for pair in SIGN_PAIRS}, []
    for psi in standard_fields().values():
        comm = _commutator(psi, a, s, t, hbar)
        q1 = _q1(psi.value(a, s), psi.d_s(a, s), a, t, hbar)
        for (ef, ed) in SIGN_PAIRS:
            target = ed * 1j * hbar * (-2.0 * ef) * q1
            per_field[(ef, ed)].append(float(np.max(np.abs(comm - target))))
        # identified defect of the eps_f * eps_d = +1 conventions, against
        # 2 i hbar {J1, J2} psi with {J1, J2} = -2t
        defect = comm - (-2j * hbar * q1)
        defects.append(float(np.max(
            np.abs(defect - 2j * hbar * (-2.0 * t) * psi.value(a, s)))))
    residuals = {pair: worst(r) for pair, r in per_field.items()}
    best_pair = min(residuals, key=residuals.get)
    return DiracReport(residuals, best_pair, residuals[best_pair], worst(defects))


def potential_residual(t_values, variant: str = "log") -> float:
    """Worst relative miss |t c - 1| of d theta against omega over t, with
    c the coefficient of d theta = -(d theta_s / dt) ds ^ dt by the complex
    step of ``sut.complex_step`` and 1/t that of omega.

    theta = -log(t) ds gives d theta = (1/t) ds ^ dt = omega for all t > 0,
    read to round-off at every t; a miss relative to 1/t stays round-off
    where 1/t is large, as an absolute one would not.  The
    ``variant="abs_log"`` potential -|log t| ds, taken on the complex
    argument as -sign(Re log z) log z, fails for t < 1 (miss 2 there),
    which is why the plain logarithm is the implemented choice.  DomainError
    for a non-finite t or t <= 0, no t at all, or another variant, and as
    from ``complex_step`` where t is below about 2e-300.
    """
    if variant == "log":
        theta_s = lambda z: (-cmath.log(z),)
    elif variant == "abs_log":
        theta_s = lambda z: (-math.copysign(1.0, cmath.log(z).real) * cmath.log(z),)
    else:
        raise DomainError(f"unknown potential variant {variant!r}")
    if len(t_values) == 0:
        raise DomainError("potential_residual needs at least one t")
    def dev(t):
        if not (math.isfinite(t) and t > 0):
            raise DomainError(f"potential defined for finite t > 0, got {t}")
        return abs(t * complex_step(theta_s, t)[0] + 1.0)  # c = -d theta_s / dt
    return worst(dev(t) for t in map(float, t_values))
