"""Experiment runner: every verification suite behind one subcommand.

Subcommands: ``pullback``, ``uncertainty``, ``sut {kks|charts|flow|dirac}``,
``berezin {gram|kernel|symbol|star}``, ``report-all``.  Reports are written
as CSV (one header row, %.12e floats) or JSON ({config, rows, summary}); a
given configuration always produces byte-identical output.  Exit status 0
when every check passed its tolerance, 1 on any failure, 2 on a usage error,
a ``CohgeomError`` or a ``MemoryError``, each reported as one line on stderr.

Each report-all criterion is one entry of ``CHECKS``.  Its measurement is a
helper below that the subcommand calls per point, the registry calls at
report-all's inputs and the acceptance suite calls on larger inputs; each
tolerance is one constant.

A flat key=value file given by ``--config`` sets the chosen subcommand's own
options, ahead of the explicit flags, which win; other keys are ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import berezin as bz
from . import prequant as pq
from . import sut
from .errors import CohgeomError, DomainError, TruncationError
from .pullback import (
    StateFamily,
    TangentSpec,
    analytic_tangent,
    family_state,
    form_dev,
    kahler_verdict,
    numeric_tangent,
    pullback_matrix,
    reference_matrix,
    squeeze_prefactor,
)
from .statespace import project_orthogonal
from .states import (
    spin_matrices,
    su2_squeezed_vacuum,
    truncation_dim,
    wh_coherent,
)
from .uncertainty import (
    min_uncertainty_residual,
    moments,
    quadrature_pair,
    rs_report,
)

FMT = "%.12e"
FORM_TOL = 1e-8        # pulled-back forms against their closed forms
DISC_REL_TOL = 1e-6    # disc family, relative to the closed form
SATURATION_TOL = 1e-9  # uncertainty slack and matched residual
MISMATCH_GAP = 0.01    # floor on the residual at a mismatched lambda
ORBIT_TOL = 1e-12      # coadjoint example, brackets, fields, chart round trip
CHART_TOL = 1e-6       # chart pullback coefficient, by finite differences
FLOW_TOL = 1e-6        # flow/generator residuals, by finite differences
PREQUANT_TOL = 1e-8    # potential, Dirac defect and its grid stability
GRAM_TOL = 1e-8
KERNEL_TOL = 1e-6
SYMBOL_TOL = 1e-10
ORACLE_TOL = 1e-6      # analytic against finite-difference tangents
STAR_PRODUCT_ORDER_FLOOR = 0.8
# floor on the fitted order of the star-product bracket deviation, which the
# theory puts at 2 (O(h^2)); measured 1.84 at cutoff 8 and 1.91 at cutoff 12
STAR_ORDER_FLOOR = 1.75


# ---------------------------------------------------------------------------
# report plumbing

def _jsonable(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(FMT % float(x))
    return str(x)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return FMT % float(x)
    x = _jsonable(x)
    return ("true" if x else "false") if isinstance(x, bool) else str(x)


def write_report(args, rows: list[dict], summary: dict) -> None:
    config = {k: _jsonable(v) for k, v in sorted(vars(args).items())
              if k not in ("func", "out", "format", "config") and v is not None}
    if args.format == "json":
        doc = {
            "config": config,
            "rows": [{k: _jsonable(v) for k, v in row.items()} for row in rows],
            "summary": {k: _jsonable(v) for k, v in summary.items()},
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        if rows:
            cols = list(rows[0].keys())
            lines = [",".join(cols)]
            lines += [",".join(_fmt(row[c]) for c in cols) for row in rows]
        else:
            lines = []
        lines.append("# summary: " + " ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(summary.items())))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, rows: list[dict], ok: bool, max_dev: float, **extra) -> int:
    write_report(args, rows, {"pass": ok, "max_dev": max_dev, **extra})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument types: malformed or non-finite input is a usage error

def _finite(kind, tok: str):
    try:
        x = kind(tok)
    except ValueError:
        x = math.nan
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {tok!r}")
    return x


def _real(tok: str) -> float:
    return _finite(float, tok)


def _positive(tok: str) -> float:
    x = _finite(float, tok)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"not a positive number: {tok!r}")
    return x


def _numbers(kind, text: str) -> list:
    vals = [_finite(kind, tok) for tok in text.split(",") if tok]
    if not vals:
        raise argparse.ArgumentTypeError(f"no numbers in {text!r}")
    return vals


def _floats(text: str) -> list[float]:
    return _numbers(float, text)


def _complexes(text: str) -> list[complex]:
    return _numbers(complex, text)


def _grid_shape(text: str) -> tuple[int, int]:
    """Parse 'NxM' into two positive counts."""
    try:
        n_re, n_im = (int(c) for c in text.split("x"))
    except ValueError:
        n_re = n_im = 0
    if min(n_re, n_im) < 1:
        raise argparse.ArgumentTypeError(f"expected NxM counts, got {text!r}")
    return n_re, n_im


def _parse_range(spec: str) -> tuple[str, np.ndarray]:
    """Parse 't:lo..hi:count' or 's:lo..hi:count' into a named linspace."""
    try:
        name, body = spec.split(":", 1)
        bounds, count = body.rsplit(":", 1)
        lo, hi = (_finite(float, b) for b in bounds.split(".."))
        n = int(count)
    except (ValueError, argparse.ArgumentTypeError):
        name, n = "", 0
    if name not in ("t", "s") or n < 1:
        raise argparse.ArgumentTypeError(
            f"bad range spec {spec!r}: expected t:lo..hi:count or s:lo..hi:count")
    return name, np.linspace(lo, hi, n)


def _checked(parse):
    """Argparse type that validates with ``parse`` and keeps the text, which
    the report's config block records."""
    def check(text: str) -> str:
        parse(text)
        return text
    return check


# ---------------------------------------------------------------------------
# measurements, shared by the subcommands, CHECKS and the acceptance suite

def square_grid(radius: float, nx: int, ny: int | None = None) -> list[complex]:
    # rectangular grid inscribed in |alpha| <= radius
    side = radius / np.sqrt(2.0)
    xs = np.linspace(-side, side, nx)
    ys = np.linspace(-side, side, nx if ny is None else ny)
    return [complex(x, y) for x in xs for y in ys]


def orbit_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n default grid of the orbit suites: t in [0.5, 4], s in [-2, 2]."""
    return np.linspace(0.5, 4.0, n), np.linspace(-2.0, 2.0, n)


def pullback_dev(fam: StateFamily, bases, relative: bool = False) -> float:
    """Worst deviation (``form_dev``) of the pulled-back form from its closed
    form; ``relative`` takes the (1, i) entry relative to its reference
    instead."""
    dev = 0.0
    for base in bases:
        G, R = pullback_matrix(fam, base), reference_matrix(fam, base)
        dev = max(dev, abs(G[0, 1] - R[0, 1]) / abs(R[0, 1])
                  if relative else form_dev(G, R))
    return dev


def tangent_dev(fam: StateFamily, bases) -> float:
    """Worst norm gap between projected analytic and numeric (step 1e-4)
    tangents."""
    worst = 0.0
    for base in bases:
        psi = family_state(fam, base).normalized()
        for direction in (1 + 0j, 1j):
            spec = TangentSpec(base, direction)
            ta = project_orthogonal(psi, analytic_tangent(fam, spec))
            tn = project_orthogonal(psi, numeric_tangent(fam, spec, 1e-4))
            worst = max(worst, float(np.linalg.norm(ta.amps - tn.amps)))
    return worst


def doubling_dev(fam: StateFamily, base: complex) -> float:
    """Largest move of the form at ``base`` when the truncation is doubled."""
    fam2 = replace(fam, trunc=2 * fam.dim(base))
    return form_dev(pullback_matrix(fam, base), pullback_matrix(fam2, base))


def saturation_dev(q, p, psi, v: float = 0.0) -> float:
    """Worst of the Robertson-Schrodinger slack and the residual at the
    matched lambda = e^v, both zero on coherent and squeezed states."""
    return max(abs(rs_report(q, p, psi).slack_rs),
               min_uncertainty_residual(q, p, float(np.exp(v)), psi))


def orbit_max(fn, t_vals, s_vals) -> float:
    """Largest fn(P) over the grid points P = (s, t)."""
    return max(fn(sut.OrbitPoint(float(s), float(t)))
               for t in t_vals for s in s_vals)


def coadjoint_dev() -> float:
    """Deviation of the worked example Ad*_(2, 1) (1, 4) = (3, 1)."""
    img = sut.coadjoint_action(sut.SutElement(2.0, 1.0), sut.SutDual(1.0, 4.0))
    return max(abs(img.u - 3.0), abs(img.v - 1.0))


_J1 = sut.Field2D(lambda s, t: t, lambda s, t: 0.0, lambda s, t: 1.0)
_J2 = sut.Field2D(lambda s, t: 2 * s, lambda s, t: 2.0, lambda s, t: 0.0)


def bracket_dev(P) -> float:
    """|{J1, J2} + 2 J1| at P, for the moments J1 = t and J2 = 2s."""
    return abs(sut.poisson(_J1, _J2, P) + 2.0 * P.t)


def hamiltonian_dev(P) -> float:
    """Worst miss of omega(X_J, e) = dJ(e) over both moments and both
    coordinate directions e at P."""
    mf = sut.moment_and_fields(P)
    es, et = sut.OrbitTangent(1, 0), sut.OrbitTangent(0, 1)
    return max(abs(sut.kks_form(P, X, e) - dj) for X, e, dj in (
        (mf.xj1, es, 0.0), (mf.xj1, et, 1.0), (mf.xj2, es, 2.0), (mf.xj2, et, 0.0)))


def chart_point(orbit: sut.Orbit, P) -> tuple[float, float]:
    """Round-trip error of the chart phi at P, and the coefficient of its
    chi pullback, which the half-plane form makes 2."""
    g = sut.phi_map(orbit, P)
    back = sut.phi_inv(orbit, g)
    return (max(abs(back.s - P.s), abs(back.t - P.t)),
            sut.chi_pullback_coefficient(orbit, g))


def chart_dev(t_vals, s_vals) -> float:
    """Worst |chi pullback coefficient - 2| on the orbit through (0, 1)."""
    orbit = sut.Orbit(0.0, 1.0)
    return orbit_max(lambda P: abs(chart_point(orbit, P)[1] - 2.0), t_vals, s_vals)


def flow_check(P, hbar: float = 1.0):
    """Flow/generator residuals (first flow, second flow as stated, second
    flow by its generator) on psi = 1 at P, and the worst gated residual
    max(r1, r2g, |r2 - |s||): the stated second flow misses its generator by
    |s| (a factor-2 gap on the multiplication term) and the other two
    vanish."""
    one = pq.standard_fields()["1"]
    r1 = pq.flow_generator_residual(1, one, P, hbar)
    r2 = pq.flow_generator_residual(2, one, P, hbar)
    r2g = pq.flow_generator_residual(2, one, P, hbar, variant="generator")
    return max(r1, r2g, abs(r2 - abs(P.s))), (r1, r2, r2g)


def dirac_refined(t_vals, s_vals, hbar: float = 1.0):
    """Bracket-correspondence residuals on the grid and on the grid with
    twice the points per axis, and the largest change between them."""
    rep = pq.dirac_residual(t_vals, s_vals, hbar)
    fine = pq.dirac_residual(np.linspace(t_vals[0], t_vals[-1], 2 * len(t_vals)),
                             np.linspace(s_vals[0], s_vals[-1], 2 * len(s_vals)),
                             hbar)
    return rep, fine, max(abs(r - fine.residuals[key])
                          for key, r in rep.residuals.items())


def gram_dev(space: bz.BerezinSpace) -> float:
    """Largest entry of |G - 1| for the quadrature Gram matrix of the basis."""
    G = bz.gram_matrix(space)
    return float(np.max(np.abs(G - np.eye(space.cutoff))))


def reproducing_dev(space: bz.BerezinSpace, p: complex) -> float:
    """|<tau_p, f_2> - f_2(p)|: the coherent state at p reproduces f_2."""
    f2 = lambda w: bz.basis_f(2, w, space.h)
    return abs(bz.halfplane_inner(bz.coherent_state_fn(p, space), f2, space)
               - f2(p))


def star_report(h_seq, point: complex, cutoff: int):
    """Star-product limits of Re z and Im z at ``point`` over ``h_seq``, the
    gate (both deviations fall strictly with h and both fitted orders clear
    their floors) and the worst deviation.  DomainError for fewer than two
    distinct h, from which no order can be fitted."""
    if len(set(h_seq)) < 2:
        raise DomainError(f"the star gate needs two distinct h, got {list(h_seq)}")
    rep = bz.correspondence_report(
        lambda sp: bz.toeplitz_operator(lambda z: np.real(z) + 0j, sp),
        lambda sp: bz.toeplitz_operator(lambda z: np.imag(z) + 0j, sp),
        point, h_seq, cutoff=cutoff)
    devs = [(r.dev_product, r.dev_bracket) for r in rep.rows]
    monotone = all(a[0] > b[0] and a[1] > b[1] for a, b in zip(devs, devs[1:]))
    ok = (monotone and rep.order_product >= STAR_PRODUCT_ORDER_FLOOR
          and rep.order_bracket >= STAR_ORDER_FLOOR)
    return rep, ok, max(max(d) for d in devs)


# ---------------------------------------------------------------------------
# report-all: CHECKS holds (name, tol, run) in report order; run() returns
# (passed, dev).  tol bounds dev from above, except where noted

def _below(name: str, tol: float, measure):
    def run():
        dev = measure()
        return dev < tol, dev
    return name, tol, run


def _wh_coherent() -> float:
    # the basis must meet the 1e-12 tail budget at every base point
    fam, bases = StateFamily("wh", eps=1e-12), square_grid(2.0, 5)
    for base in bases:
        need = truncation_dim(base, "fock", eps=1e-12)
        if fam.dim(base) < need:
            raise TruncationError(
                f"basis of {fam.dim(base)} states at {base} is below the "
                f"{need} states the 1e-12 tail budget needs")
    return pullback_dev(fam, bases)


def _oscillator_64():
    q, p = quadrature_pair(64)
    return q, p, family_state(StateFamily("wh", v=0.5, trunc=64), 0j)


def _saturation() -> float:
    q, p, sq = _oscillator_64()
    return max(saturation_dev(q, p, wh_coherent(1.0, 64)),
               saturation_dev(q, p, sq, 0.5))


def _mismatch_gap():
    q, p, sq = _oscillator_64()
    gap = min_uncertainty_residual(q, p, 1.0, sq)
    return gap > MISMATCH_GAP, gap


def _flow_defect():
    P = sut.OrbitPoint(1.5, 2.0)
    dev, (_, gap, _) = flow_check(P)
    return dev < FLOW_TOL, gap


def _reproducing() -> float:
    space = bz.BerezinSpace(h=0.25, cutoff=12)
    return max(reproducing_dev(space, p) for p in (1j, 2j, 1 + 1j))


WH_SQUEEZES = (1.0, -1.0, 0.5, -0.5)
SU2_CASES = ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (2.0, 0.5))
DISC_KS = (0.75, 1.0, 2.0)

CHECKS = (
    _below("wh-coherent-kahler", FORM_TOL, _wh_coherent),
    _below("wh-squeezed-form", FORM_TOL,
           lambda: max(pullback_dev(StateFamily("wh", v=v), [0j])
                       for v in WH_SQUEEZES)),
    _below("wh-squeezed-symplectic-invariance", FORM_TOL,
           lambda: max(kahler_verdict(StateFamily("wh", v=v)).symplectic_dev
                       for v in WH_SQUEEZES)),
    _below("su2-form", FORM_TOL,
           lambda: max(pullback_dev(StateFamily("su2", v=v, param=j), [0j])
                       for (j, v) in SU2_CASES)),
    # is_kahler implies is_symplectic, since |Im z| <= |z| entrywise
    _below("su2-coherent-kahler-verdict", FORM_TOL,
           lambda: kahler_verdict(StateFamily("su2", param=1.0)).max_dev),
    _below("su11-kahler-relative", DISC_REL_TOL,
           lambda: max(pullback_dev(StateFamily("su11", param=k),
                                    square_grid(0.8, 4), relative=True)
                       for k in DISC_KS)),
    _below("uncertainty-saturation", SATURATION_TOL, _saturation),
    # tol is a floor on the gap
    ("uncertainty-mismatch-gap", MISMATCH_GAP, _mismatch_gap),
    _below("sut-coadjoint-and-brackets", ORBIT_TOL,
           lambda: max(coadjoint_dev(), orbit_max(bracket_dev, *orbit_grid(8)))),
    _below("sut-chart-pullback", CHART_TOL, lambda: chart_dev(*orbit_grid(4))),
    _below("prequant-potential", PREQUANT_TOL,
           lambda: pq.potential_residual(orbit_grid(8)[0])),
    _below("prequant-dirac-defect-identified", PREQUANT_TOL,
           lambda: pq.dirac_residual(*orbit_grid(8)).defect_dev),
    # dev is the stated second flow's defect, |s| = 1.5 up to tol; the
    # first flow and the second flow's generator stay below tol
    ("prequant-flow2-defect-detected", FLOW_TOL, _flow_defect),
    _below("berezin-gram", GRAM_TOL,
           lambda: max(gram_dev(bz.BerezinSpace(h=h, cutoff=8))
                       for h in (0.45, 0.25))),
    _below("berezin-reproducing", KERNEL_TOL, _reproducing),
    # tol is the floor on the fitted bracket order; dev is the worst
    # deviation, which a passing run has at the largest h
    ("berezin-star-monotone", STAR_ORDER_FLOOR,
     lambda: star_report((0.2, 0.1, 0.05), 1.5j, 12)[1:]),
)


def cmd_report_all(args) -> int:
    rows = []
    for name, _, run in CHECKS:
        passed, dev = run()
        print(f"{'PASS' if passed else 'FAIL'} {name} (dev={dev:.3e})")
        rows.append({"check": name, "pass": passed, "dev": dev})
    return _report(args, rows, all(row["pass"] for row in rows),
                   max(row["dev"] for row in rows))


# ---------------------------------------------------------------------------
# pullback

# the options that some pullback runs never read, with their defaults; there
# a value other than the default is a DomainError.  A spin state's size comes
# from j, not eps, and a squeezed family is claimed at the origin alone, so
# no grid is read when every row is squeezed
PULLBACK_OWN = {"eps": 1e-12, "grid": "5x5", "base_max": 2.0}


def cmd_pullback(args) -> int:
    n_re, n_im = _grid_shape(args.grid)
    squeezes = _floats(args.squeeze)
    unread = {"eps": "--family su2"} if args.family == "su2" else {}
    if args.family == "su2" or 0.0 not in squeezes:
        unread.update(grid="a squeezed family", base_max="a squeezed family")
    for dest, runs in unread.items():
        if getattr(args, dest) != PULLBACK_OWN[dest]:
            raise DomainError(f"--{dest.replace('_', '-')} is not read by {runs}")
    rows = []
    for v in squeezes:
        fam = StateFamily(args.family, v=v, param=args.param, eps=args.eps)
        # closed forms of squeezed families are claimed at the origin only
        bases = [0j] if fam.squeezed else square_grid(args.base_max, n_re, n_im)
        for base in bases:
            G = pullback_matrix(fam, base) + 0.0  # no signed zeros in the report
            rows.append({
                "re_alpha": base.real, "im_alpha": base.imag, "squeeze": v,
                "g11": G[0, 0].real, "g12": G[0, 1].real,
                "g22": G[1, 1].real, "omega12": G[0, 1].imag,
                "ref_g11": reference_matrix(fam, base)[0, 0].real,
                "dev": pullback_dev(fam, [base]),
            })
    max_dev = max(row["dev"] for row in rows)
    extra = {}
    if args.oracle:
        # numeric against analytic tangents, and truncation doubling
        fam = StateFamily(args.family, v=squeezes[0], param=args.param,
                          eps=args.eps)
        bases = [0j] if fam.squeezed else [0j, 0.2 + 0.1j]
        doubling = [doubling_dev(fam, b) for b in bases if fam.family != "su2"]
        extra["oracle_dev"] = max([tangent_dev(fam, bases)] + doubling)
    ok = max_dev < args.tol and extra.get("oracle_dev", 0.0) < ORACLE_TOL
    return _report(args, rows, ok, max_dev, **extra)


# ---------------------------------------------------------------------------
# uncertainty

# the options that one family alone reads, with their defaults; under the
# other family a value other than the default is a DomainError
UNCERTAINTY_OWN = {"wh": {"alphas": "1,0.5+0.5j", "squeeze": "0,0.5", "N": 96,
                          "hbar": 1.0},
                   "su2": {"j": "0.5,1,2"}}


def cmd_uncertainty(args) -> int:
    other = "su2" if args.family == "wh" else "wh"
    for dest, default in UNCERTAINTY_OWN[other].items():
        if getattr(args, dest) != default:
            raise DomainError(f"--{dest} applies to --family {other} only")
    rows = []
    if args.family == "wh":
        q, p = quadrature_pair(args.N, args.hbar)
        for alpha in _complexes(args.alphas):
            for v in _floats(args.squeeze):
                psi = family_state(StateFamily("wh", v=v, trunc=args.N), alpha)
                psi = psi.normalized()
                rep = rs_report(q, p, psi)
                rows.append({
                    "re_alpha": alpha.real, "im_alpha": alpha.imag, "v": v,
                    "dq": rep.delta_a, "dp": rep.delta_b,
                    "slack_rs": rep.slack_rs,
                    "resid_matched": min_uncertainty_residual(
                        q, p, float(np.exp(v)), psi),
                    "resid_lambda1": min_uncertainty_residual(q, p, 1.0, psi),
                    "dev": saturation_dev(q, p, psi, v),
                })
    else:
        for j in _floats(args.j):
            spin = spin_matrices(j)
            m = moments(spin.lx, spin.ly, su2_squeezed_vacuum(0.0, j))
            # <Lz> = -squeeze_prefactor on the lowest weight
            half_lz = abs(squeeze_prefactor(StateFamily("su2", param=j))) / 2.0
            rows.append({"j": j, "dLx_dLy": m.delta_a * m.delta_b,
                         "half_abs_lz": half_lz,
                         "dev": abs(m.delta_a * m.delta_b - half_lz),
                         "c_plus": m.c_plus})
    max_dev = max(row["dev"] for row in rows)
    return _report(args, rows, max_dev < args.tol, max_dev)


# ---------------------------------------------------------------------------
# sut

def _sut_grid(args) -> tuple[np.ndarray, np.ndarray]:
    named = dict(_parse_range(spec) for spec in args.grid)
    if len(named) < 2:
        raise DomainError("grid must name both t and s ranges")
    return named["t"], named["s"]


def cmd_sut_kks(args) -> int:
    t_vals, s_vals = _sut_grid(args)
    rows = []
    for t in t_vals:
        for s in s_vals:
            P = sut.OrbitPoint(float(s), float(t))
            rows.append({"s": s, "t": t, "pb_dev": bracket_dev(P),
                         "ham_dev": hamiltonian_dev(P)})
    example_dev = coadjoint_dev()
    worst = max([example_dev] + [max(r["pb_dev"], r["ham_dev"]) for r in rows])
    return _report(args, rows, worst < args.tol, worst,
                   coadjoint_example_dev=example_dev)


def cmd_sut_charts(args) -> int:
    t_vals, s_vals = _sut_grid(args)
    orbit = sut.Orbit(args.u0, args.v0)
    rows = []
    for t in t_vals:
        for s in s_vals:
            if t * args.v0 > 0:
                rt, coeff = chart_point(orbit, orbit.point(float(s), float(t)))
                rows.append({"s": s, "t": t, "roundtrip_dev": rt,
                             "pullback_coeff": coeff,
                             "pullback_dev": abs(coeff - 2.0)})
    if not rows:
        raise DomainError(f"no grid point lies on the orbit through v0 = {args.v0}")
    worst_rt = max(r["roundtrip_dev"] for r in rows)
    worst_pb = max(r["pullback_dev"] for r in rows)
    return _report(args, rows, worst_rt < ORBIT_TOL and worst_pb < args.tol,
                   max(worst_rt, worst_pb))


def cmd_sut_flow(args) -> int:
    t_vals, s_vals = _sut_grid(args)
    rows = []
    worst = 0.0
    for t in t_vals:
        if t <= 0:
            continue
        for s in s_vals:
            dev, (r1, r2, r2g) = flow_check(sut.OrbitPoint(float(s), float(t)),
                                           args.hbar)
            rows.append({"s": s, "t": t, "resid_flow1": r1,
                         "resid_flow2_stated": r2, "expected_defect": abs(s),
                         "resid_flow2_generator": r2g})
            worst = max(worst, dev)
    if not rows:
        raise DomainError("no grid point has t > 0")
    return _report(args, rows, worst < args.tol, worst)


def cmd_sut_dirac(args) -> int:
    t_vals, s_vals = _sut_grid(args)
    rep, fine, stability = dirac_refined(t_vals, s_vals, args.hbar)
    rows = [{"eps_field": ef, "eps_dirac": ed, "residual": r,
             "residual_refined": fine.residuals[(ef, ed)]}
            for (ef, ed), r in sorted(rep.residuals.items())]
    pot_log = pq.potential_residual(t_vals[t_vals > 0])
    worst = max(rep.defect_dev, stability, pot_log)
    return _report(
        args, rows, worst < args.tol, worst, best_eps_field=rep.best_pair[0],
        best_eps_dirac=rep.best_pair[1], best_residual=rep.best_residual,
        defect_dev=rep.defect_dev, grid_stability=stability,
        potential_residual_log=pot_log)


# ---------------------------------------------------------------------------
# berezin

def cmd_berezin_gram(args) -> int:
    rows = [{"h": h, "cutoff": args.cutoff,
             "gram_dev": gram_dev(bz.BerezinSpace(h=h, cutoff=args.cutoff))}
            for h in _floats(args.h)]
    worst = max(r["gram_dev"] for r in rows)
    return _report(args, rows, worst < args.tol, worst)


def cmd_berezin_kernel(args) -> int:
    rows = []
    for h in _floats(args.h):
        space = bz.BerezinSpace(h=h, cutoff=args.cutoff)
        for p in _complexes(args.points):
            rows.append({"h": h, "re_p": p.real, "im_p": p.imag,
                         "reproducing_dev": reproducing_dev(space, p),
                         "kernel_p_i_dev": abs(bz.kernel(p, 1j, space) - 1.0),
                         "tail_bound": bz.kernel_tail_bound(p, p, space)})
    worst = max(max(r["reproducing_dev"], r["kernel_p_i_dev"]) for r in rows)
    return _report(args, rows, worst < args.tol, worst)


def cmd_berezin_symbol(args) -> int:
    rows = []
    worst = 0.0
    for h in _floats(args.h):
        space = bz.BerezinSpace(h=h, cutoff=args.cutoff)
        eye = np.eye(args.cutoff, dtype=complex)
        diag = np.diag(np.arange(args.cutoff, dtype=complex) + 1.0)
        proj0 = np.zeros((args.cutoff, args.cutoff), dtype=complex)
        proj0[0, 0] = 1.0
        for p in _complexes(args.points):
            # cutoff-model identities, exact at any basis size
            dev_norm = abs(bz.symbol(eye, p, p, space).normalized - 1.0)
            d0 = abs(bz.symbol(diag, 1j, 1j, space).raw - 1.0)
            pr = abs(bz.symbol(proj0, 1j, 1j, space).raw - 1.0)
            rows.append({"h": h, "re_p": p.real, "im_p": p.imag,
                         "identity_norm_dev": dev_norm,
                         "diag_at_center_dev": d0,
                         "projector_at_center_dev": pr})
            worst = max(worst, dev_norm, d0, pr)
    return _report(args, rows, worst < args.tol, worst)


def cmd_berezin_star(args) -> int:
    rep, ok, worst = star_report(_floats(args.h_seq), complex(args.point),
                                 args.cutoff)
    rows = [{"h": r.h, "dev_product": r.dev_product,
             "dev_bracket": r.dev_bracket} for r in rep.rows]
    return _report(args, rows, ok, worst, order_product=rep.order_product,
                   order_bracket=rep.order_bracket)


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # an option is spelled in full, never matched by a prefix
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        # one line on stderr, without the usage block
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(sp):
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.add_argument("--config", default=None,
                    help="flat key=value file setting this subcommand's options")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cohgeom",
        description="numerical verification suites for coherent-state "
                    "geometry, orbit quantization and Berezin calculus")
    sub = ap.add_subparsers(dest="command", required=True)
    floats, complexes = _checked(_floats), _checked(_complexes)

    sp = sub.add_parser("pullback", help="projective-form pullback vs closed forms")
    sp.add_argument("--family", choices=("wh", "su2", "su11"), default="wh")
    sp.add_argument("--squeeze", type=floats, default="0",
                    help="comma list of v values")
    sp.add_argument("--param", type=_real, default=0.0, help="j or k")
    sp.add_argument("--grid", type=_checked(_grid_shape), default=PULLBACK_OWN["grid"])
    sp.add_argument("--base-max", type=_real, default=PULLBACK_OWN["base_max"])
    sp.add_argument("--tol", type=_real, default=FORM_TOL)
    sp.add_argument("--eps", type=_real, default=PULLBACK_OWN["eps"])
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check tangents and truncation doubling")
    _add_common(sp)
    sp.set_defaults(func=cmd_pullback)

    sp = sub.add_parser("uncertainty", help="moment and saturation checks")
    sp.add_argument("--family", choices=("wh", "su2"), default="wh")
    wh, su2 = UNCERTAINTY_OWN["wh"], UNCERTAINTY_OWN["su2"]
    sp.add_argument("--alphas", type=complexes, default=wh["alphas"])
    sp.add_argument("--squeeze", type=floats, default=wh["squeeze"])
    sp.add_argument("--j", type=floats, default=su2["j"])
    sp.add_argument("--N", type=int, default=wh["N"])
    sp.add_argument("--hbar", type=_positive, default=wh["hbar"])
    sp.add_argument("--tol", type=_real, default=SATURATION_TOL)
    _add_common(sp)
    sp.set_defaults(func=cmd_uncertainty)

    sp_sut = sub.add_parser("sut", help="coadjoint orbit suite")
    sub_sut = sp_sut.add_subparsers(dest="subcommand", required=True)
    for name, fn, tol in (("kks", cmd_sut_kks, ORBIT_TOL),
                          ("charts", cmd_sut_charts, CHART_TOL),
                          ("flow", cmd_sut_flow, FLOW_TOL),
                          ("dirac", cmd_sut_dirac, PREQUANT_TOL)):
        sp = sub_sut.add_parser(name)
        sp.add_argument("--grid", nargs=2, type=_checked(_parse_range),
                        default=["t:0.5..4:8", "s:-2..2:8"])
        sp.add_argument("--tol", type=_real, default=tol)
        if name in ("flow", "dirac"):
            sp.add_argument("--hbar", type=_positive, default=1.0)
        if name == "charts":
            sp.add_argument("--u0", type=_real, default=0.0)
            sp.add_argument("--v0", type=_real, default=1.0)
        _add_common(sp)
        sp.set_defaults(func=fn)

    sp_bz = sub.add_parser("berezin", help="weighted Bergman space suite")
    sub_bz = sp_bz.add_subparsers(dest="subcommand", required=True)
    for name, fn, tol in (("gram", cmd_berezin_gram, GRAM_TOL),
                          ("kernel", cmd_berezin_kernel, KERNEL_TOL),
                          ("symbol", cmd_berezin_symbol, SYMBOL_TOL),
                          ("star", cmd_berezin_star, None)):
        sp = sub_bz.add_parser(name)
        sp.add_argument("--cutoff", type=int, default=8)
        if name == "star":
            sp.add_argument("--h-seq", type=floats, default="0.2,0.1,0.05")
            sp.add_argument("--point", type=_checked(lambda t: _finite(complex, t)),
                            default="1.5j")
        else:
            sp.add_argument("--h", type=floats, default="0.25")
            sp.add_argument("--tol", type=_real, default=tol)
        if name in ("kernel", "symbol"):
            sp.add_argument("--points", type=complexes, default="1j,2j,1+1j")
        _add_common(sp)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("report-all", help="run every suite at defaults")
    _add_common(sp)
    sp.set_defaults(func=cmd_report_all)
    return ap


_NOT_OPTIONS = ("command", "subcommand", "func", "config")


def _config_flags(ap: argparse.ArgumentParser, args) -> list[str]:
    """The --config lines that set the chosen subcommand's options, as flags.

    Every option is spelled ``--`` plus its dest with hyphens; the first
    parse's namespace names the options the subcommand owns.
    """
    try:
        with open(args.config) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        ap.error(f"cannot read --config {args.config}: {exc.strerror}")
    flags = []
    for line in lines:
        key, _, value = line.partition("=")
        dest, value = key.strip().replace("-", "_"), value.strip()
        if dest not in vars(args) or dest in _NOT_OPTIONS:
            continue
        flag = "--" + dest.replace("_", "-")
        current = getattr(args, dest)
        if isinstance(current, bool):  # a switch
            if value not in ("true", "false"):
                ap.error(f"{flag} in {args.config}: expected true or false")
            flags += [flag] if value == "true" else []
        elif isinstance(current, list):  # one token per word
            flags += [flag] + value.split()
        else:
            flags.append(f"{flag}={value}")
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config:
        # file settings go ahead of the explicit flags, so those win
        n = 2 if "subcommand" in vars(args) else 1
        args = ap.parse_args(argv[:n] + _config_flags(ap, args) + argv[n:])
    try:
        return args.func(args)
    except (CohgeomError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError for a failed allocation
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        sys.stderr.write(f"cohgeom: {name}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
