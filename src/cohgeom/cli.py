"""Experiment runner: every verification suite behind one subcommand.

Subcommands: ``pullback``, ``uncertainty``, ``sut {kks|charts|flow|dirac}``,
``berezin {gram|kernel|symbol|star}``, ``report-all``.  Reports are written
as CSV (one header row, %.12e floats) or JSON ({config, rows, summary}); a
given configuration always produces byte-identical output.  Exit status 0
when every check passed its tolerance, 1 on any failure, 2 on a usage error,
a ``CohgeomError`` or a ``MemoryError``, each reported as one line on stderr.

Every check, a ``report-all`` row or a subcommand's summary, is one
``Check``: the deviation it reports and the bounds it must meet, each an
upper bound or a floor on a measured value.  ``Check.passed`` is the one
place that decides pass; the registry rows, the subcommands and the
acceptance suite all read it.  Deviations are combined by one fold,
``errors.worst``, which keeps a NaN, so a NaN deviation fails its bound.
Each ``report-all`` row is one entry of ``CHECKS``.  Its measurement is a
helper below that the subcommand calls per point, the registry calls at
report-all's inputs and the acceptance suite calls on larger inputs; each
tolerance is one constant, read when the check runs.

A flat key=value file given by ``--config`` sets the chosen subcommand's own
options, ahead of the explicit flags, which win; other keys are ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import berezin as bz
from . import prequant as pq
from . import sut
from .errors import CohgeomError, DomainError, UnsupportedBasePoint, worst
from .pullback import (
    StateFamily,
    TangentSpec,
    analytic_tangent,
    family_state,
    form_dev,
    kahler_verdict,
    numeric_tangent,
    pullback_matrices,
    pullback_matrix,
    squeeze_prefactor,
)
from .statespace import project_orthogonal
from .states import (
    spin_matrices,
    su2_squeezed_vacuum,
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
    # pass is a bool from Check.passed; a str or a list is kept as its text
    if isinstance(x, bool):
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


class Check(NamedTuple):
    """The deviation a check reports and the bounds it must meet: each
    (value, limit) of ``below`` is an upper bound, met when value < limit,
    and each of ``above`` a floor, met when value > limit."""

    dev: float
    below: tuple = ()
    above: tuple = ()

    @property
    def passed(self) -> bool:
        """The one verdict: every bound met, so a NaN value fails."""
        return (all(value < limit for value, limit in self.below)
                and all(value > limit for value, limit in self.above))


def under(dev: float, tol: float) -> Check:
    """A check whose reported deviation is its one upper-bounded value."""
    return Check(dev, ((dev, tol),))


def write_report(args, rows: list[dict], check: Check, **extra) -> int:
    """Write the report of ``rows`` and the summary of ``check`` and
    ``extra``; the exit status is 0 if the check passed, else 1."""
    summary = {"pass": check.passed, "max_dev": check.dev, **extra}
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
        # every subcommand has a row or raises a CohgeomError
        cols = list(rows[0].keys())
        lines = [",".join(cols)]
        lines += [",".join(_fmt(row[c]) for c in cols) for row in rows]
        lines.append("# summary: " + " ".join(
            f"{k}={_fmt(v)}" for k, v in sorted(summary.items())))
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            # a usage error, reported like an unreadable --config
            sys.stderr.write(f"cohgeom: error: cannot write --out {args.out}: "
                             f"{exc.strerror}\n")
            raise SystemExit(2) from None
    else:
        sys.stdout.write(text)
    return 0 if check.passed else 1


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
    # a span hi - lo that overflows would overflow np.linspace's step too
    if name not in ("t", "s") or n < 1 or not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"bad range spec {spec!r}: expected t:lo..hi:count "
                                         f"or s:lo..hi:count with a finite hi - lo")
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
    form over the grid ``bases``, taken by ``pullback_matrices`` at once;
    ``relative`` takes the (1, i) entry relative to its reference instead.
    Every base point must carry a closed form (a squeezed family's origin
    alone): UnsupportedBasePoint otherwise."""
    G, R = pullback_matrices(fam, bases)
    if R is None:
        raise UnsupportedBasePoint("squeezed reference available at 0 only")
    return worst(np.abs(G[:, 0, 1] - R[:, 0, 1]) / np.abs(R[:, 0, 1]) if relative
                 else form_dev(G, R))


def tangent_dev(fam: StateFamily, bases) -> float:
    """Worst norm gap between projected analytic and numeric (step 1e-4)
    tangents."""
    gaps = []
    for base in bases:
        psi = family_state(fam, base).normalized()
        for spec in (TangentSpec(base, 1 + 0j), TangentSpec(base, 1j)):
            ta = project_orthogonal(psi, analytic_tangent(fam, spec))
            tn = project_orthogonal(psi, numeric_tangent(fam, spec, 1e-4))
            gaps.append(float(np.linalg.norm(ta.amps - tn.amps)))
    return worst(gaps)


def doubling_dev(fam: StateFamily, base: complex) -> float:
    """Largest move of the form at ``base`` when the truncation is doubled."""
    fam2 = replace(fam, trunc=2 * fam.dim(base))
    return form_dev(pullback_matrix(fam, base), pullback_matrix(fam2, base))


def oracle_dev(fam: StateFamily) -> float:
    """Worst of the tangent gap and the doubling move (off the spin family,
    whose size is fixed by j) at the origin and, for a coherent family, at
    one point off it."""
    bases = [0j] if fam.squeezed else [0j, 0.2 + 0.1j]
    doubling = [doubling_dev(fam, b) for b in bases if fam.family != "su2"]
    return worst([tangent_dev(fam, bases)] + doubling)


def saturation(q, p, psi, v: float = 0.0):
    """The Robertson-Schrodinger report of psi, its residual at the matched
    lambda = e^v, and the worst of the report's slack and that residual,
    both zero on coherent and squeezed states: each computed once."""
    rep = rs_report(q, p, psi)
    matched = min_uncertainty_residual(q, p, float(np.exp(v)), psi)
    return rep, matched, worst((abs(rep.slack_rs), matched))


def orbit_points(t_vals, s_vals) -> list:
    """The grid points P = (s, t), t major."""
    return [sut.OrbitPoint(float(s), float(t)) for t in t_vals for s in s_vals]


def orbit_max(fn, t_vals, s_vals) -> float:
    """Worst fn(P) over the grid points: the largest, or NaN if any is NaN."""
    return worst(fn(P) for P in orbit_points(t_vals, s_vals))


def coadjoint_dev() -> float:
    """Deviation of the worked example Ad*_(2, 1) (1, 4) = (3, 1)."""
    img = sut.coadjoint_action(sut.SutElement(2.0, 1.0), sut.SutDual(1.0, 4.0))
    return worst((abs(img.u - 3.0), abs(img.v - 1.0)))


_J1 = sut.Field2D(lambda s, t: t, lambda s, t: 0.0, lambda s, t: 1.0)
_J2 = sut.Field2D(lambda s, t: 2 * s, lambda s, t: 2.0, lambda s, t: 0.0)


def bracket_dev(P) -> float:
    """|{J1, J2} + 2 J1| at P, for the moments J1 = t and J2 = 2s."""
    return abs(sut.poisson(_J1, _J2, P) + 2.0 * P.t)


def chart_point(orbit: sut.Orbit, P) -> tuple[float, float]:
    """Round-trip error of the chart phi at P, and the coefficient of its
    chi pullback, which the half-plane form makes 2 sign(v0).  The error is
    measured at the point's own scale, |dt| / max(1, |t|) and
    |ds| / max(1, |s|, |u0|), so one ulp of a large coordinate stays
    round-off."""
    g = sut.phi_map(orbit, P)
    back = sut.phi_inv(orbit, g)
    return (worst((abs(back.s - P.s) / max(1.0, abs(P.s), abs(orbit.u0)),
                   abs(back.t - P.t) / max(1.0, abs(P.t)))),
            sut.chi_pullback_coefficient(orbit, g))


def chart_dev(t_vals, s_vals) -> float:
    """Worst |chi pullback coefficient - 2| on the orbit through (0, 1)."""
    orbit = sut.Orbit(0.0, 1.0)
    return orbit_max(lambda P: abs(chart_point(orbit, P)[1] - 2.0), t_vals, s_vals)


def flow_check(P, hbar: float = 1.0):
    """Flow/generator residuals (first flow, second flow as stated, second
    flow by its generator) on psi = 1 at P, and the worst gated residual
    of r1, r2g and |r2 - |s||: the stated second flow misses its generator
    by |s| (a factor-2 gap on the multiplication term) and the other two
    vanish."""
    one = pq.standard_fields()["1"]
    r1 = pq.flow_generator_residual(1, one, P, hbar)
    r2 = pq.flow_generator_residual(2, one, P, hbar)
    r2g = pq.flow_generator_residual(2, one, P, hbar, variant="generator")
    return worst((r1, r2g, abs(r2 - abs(P.s)))), (r1, r2, r2g)


def dirac_refined(t_vals, s_vals, hbar: float = 1.0):
    """Bracket-correspondence residuals on the grid and on the grid with
    twice the points per axis, and the largest change between them."""
    rep = pq.dirac_residual(t_vals, s_vals, hbar)
    fine = pq.dirac_residual(*(np.linspace(x[0], x[-1], 2 * len(x))
                               for x in (t_vals, s_vals)), hbar)
    return rep, fine, worst(abs(r - fine.residuals[key])
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
    """Star-product limits of Re z and Im z at ``point`` over ``h_seq``, and
    their check: dev is the worst deviation, each deviation's drop from one
    h to the next clears a floor of 0, and both fitted orders clear their
    floors.  DomainError for fewer than two distinct h, from which no order
    can be fitted."""
    if len(set(h_seq)) < 2:
        raise DomainError(f"the star gate needs two distinct h, got {list(h_seq)}")
    rep = bz.correspondence_report(
        lambda sp: bz.toeplitz_operator(lambda z: np.real(z) + 0j, sp),
        lambda sp: bz.toeplitz_operator(lambda z: np.imag(z) + 0j, sp),
        point, h_seq, cutoff=cutoff)
    devs = [(r.dev_product, r.dev_bracket) for r in rep.rows]
    drops = tuple((a[k] - b[k], 0.0) for a, b in zip(devs, devs[1:]) for k in (0, 1))
    return rep, Check(worst(x for d in devs for x in d), above=drops + (
        (rep.order_product, STAR_PRODUCT_ORDER_FLOOR),
        (rep.order_bracket, STAR_ORDER_FLOOR)))


# ---------------------------------------------------------------------------
# report-all: CHECKS holds (name, run) in report order; run() returns the
# row's Check

def _oscillator_64():
    q, p = quadrature_pair(64)
    return q, p, family_state(StateFamily("wh", v=0.5, trunc=64), 0j)


def _saturation() -> float:
    q, p, sq = _oscillator_64()
    return worst((saturation(q, p, wh_coherent(1.0, 64))[2],
                  saturation(q, p, sq, 0.5)[2]))


def _mismatch_gap() -> Check:
    q, p, sq = _oscillator_64()
    gap = min_uncertainty_residual(q, p, 1.0, sq)
    return Check(gap, above=((gap, MISMATCH_GAP),))


def _flow_defect() -> Check:
    # dev is the stated second flow's defect, |s| = 1.5; the gated residuals
    # vanish
    dev, (_, gap, _) = flow_check(sut.OrbitPoint(1.5, 2.0))
    return Check(gap, ((dev, FLOW_TOL),))


def _reproducing() -> float:
    space = bz.BerezinSpace(h=0.25, cutoff=12)
    return worst(reproducing_dev(space, p) for p in (1j, 2j, 1 + 1j))


WH_SQUEEZES = (1.0, -1.0, 0.5, -0.5)
SU2_CASES = ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (2.0, 0.5))
DISC_KS = (0.75, 1.0, 2.0)

CHECKS = (
    # the family's tail budget sizes its basis, which wh_squeezed enforces
    ("wh-coherent-kahler",
     lambda: under(pullback_dev(StateFamily("wh"), square_grid(2.0, 5)), FORM_TOL)),
    ("wh-squeezed-form",
     lambda: under(worst(pullback_dev(StateFamily("wh", v=v), [0j])
                         for v in WH_SQUEEZES), FORM_TOL)),
    ("wh-squeezed-symplectic-invariance",
     lambda: under(worst(kahler_verdict(StateFamily("wh", v=v)).symplectic_dev
                         for v in WH_SQUEEZES), FORM_TOL)),
    ("su2-form",
     lambda: under(worst(pullback_dev(StateFamily("su2", v=v, param=j), [0j])
                         for (j, v) in SU2_CASES), FORM_TOL)),
    # is_kahler implies is_symplectic, since |Im z| <= |z| entrywise
    ("su2-coherent-kahler-verdict",
     lambda: under(kahler_verdict(StateFamily("su2", param=1.0)).max_dev, FORM_TOL)),
    ("su11-kahler-relative",
     lambda: under(worst(pullback_dev(StateFamily("su11", param=k),
                                      square_grid(0.8, 4), relative=True)
                         for k in DISC_KS), DISC_REL_TOL)),
    ("uncertainty-saturation", lambda: under(_saturation(), SATURATION_TOL)),
    ("uncertainty-mismatch-gap", _mismatch_gap),
    ("sut-coadjoint-and-brackets",
     lambda: under(worst((coadjoint_dev(), orbit_max(bracket_dev, *orbit_grid(8)))),
                   ORBIT_TOL)),
    ("sut-chart-pullback", lambda: under(chart_dev(*orbit_grid(4)), CHART_TOL)),
    ("prequant-potential",
     lambda: under(pq.potential_residual(orbit_grid(8)[0]), PREQUANT_TOL)),
    ("prequant-dirac-defect-identified",
     lambda: under(pq.dirac_residual(*orbit_grid(8)).defect_dev, PREQUANT_TOL)),
    ("prequant-flow2-defect-detected", _flow_defect),
    ("berezin-gram",
     lambda: under(worst(gram_dev(bz.BerezinSpace(h=h, cutoff=8))
                         for h in (0.45, 0.25)), GRAM_TOL)),
    ("berezin-reproducing", lambda: under(_reproducing(), KERNEL_TOL)),
    # dev is the worst deviation, which a passing run has at the largest h
    ("berezin-star-monotone", lambda: star_report((0.2, 0.1, 0.05), 1.5j, 12)[1]),
)


def cmd_report_all(args) -> int:
    rows, below, above = [], (), ()
    for name, run in CHECKS:
        check = run()
        print(f"{'PASS' if check.passed else 'FAIL'} {name} (dev={check.dev:.3e})")
        rows.append({"check": name, "pass": check.passed, "dev": check.dev})
        below, above = below + check.below, above + check.above
    # the summary meets every row's bounds
    return write_report(args, rows, Check(worst(r["dev"] for r in rows), below, above))


# ---------------------------------------------------------------------------
# pullback and uncertainty

# each option that some runs never read, with its default: where a run
# leaves it unread, a value other than the default is a DomainError.  A spin
# state's size comes from j, not eps, and a squeezed family is claimed at the
# origin alone, so reads no grid (pullback); the spin moments read no
# oscillator option, and the oscillator ones no j (uncertainty)
UNREAD_DEFAULTS = {"eps": 1e-12, "grid": "5x5", "base_max": 2.0,
                   "alphas": "1,0.5+0.5j", "squeeze": "0,0.5", "N": 96,
                   "hbar": 1.0, "j": "0.5,1,2"}


def _unread(args, runs: str, *dests: str) -> None:
    """DomainError for the first of ``dests`` set away from its default,
    which ``runs`` never reads."""
    for dest in dests:
        if getattr(args, dest) != UNREAD_DEFAULTS[dest]:
            raise DomainError(f"--{dest.replace('_', '-')} is not read by {runs}")


def cmd_pullback(args) -> int:
    n_re, n_im = _grid_shape(args.grid)
    fams = [StateFamily(args.family, v=v, param=args.param, eps=args.eps)
            for v in _floats(args.squeeze)]
    if args.family == "su2":
        _unread(args, "--family su2", "eps")
    if all(fam.squeezed for fam in fams):
        _unread(args, "a squeezed family", "grid", "base_max")
    rows = []
    for fam in fams:
        # closed forms of squeezed families are claimed at the origin only
        bases = [0j] if fam.squeezed else square_grid(args.base_max, n_re, n_im)
        forms, refs = pullback_matrices(fam, bases)
        # forms + 0.0: no signed zeros in the report
        for base, G, R, dev in zip(bases, forms + 0.0, refs, form_dev(forms, refs)):
            rows.append({"re_alpha": base.real, "im_alpha": base.imag, "squeeze": fam.v,
                         "g11": G[0, 0].real, "g12": G[0, 1].real, "g22": G[1, 1].real,
                         "omega12": G[0, 1].imag, "ref_g11": R[0, 0].real, "dev": dev})
    max_dev = worst(row["dev"] for row in rows)
    below, extra = ((max_dev, args.tol),), {}
    if args.oracle:
        extra["oracle_dev"] = worst(oracle_dev(fam) for fam in fams)
        below += ((extra["oracle_dev"], ORACLE_TOL),)
    return write_report(args, rows, Check(max_dev, below), **extra)


def cmd_uncertainty(args) -> int:
    rows = []
    if args.family == "wh":
        _unread(args, "--family wh", "j")
        q, p = quadrature_pair(args.N, args.hbar)
        for alpha in _complexes(args.alphas):
            for v in _floats(args.squeeze):
                psi = family_state(StateFamily("wh", v=v, trunc=args.N), alpha)
                psi = psi.normalized()
                rep, matched, dev = saturation(q, p, psi, v)
                rows.append({
                    "re_alpha": alpha.real, "im_alpha": alpha.imag, "v": v,
                    "dq": rep.delta_a, "dp": rep.delta_b,
                    "slack_rs": rep.slack_rs, "resid_matched": matched,
                    "resid_lambda1": min_uncertainty_residual(q, p, 1.0, psi),
                    "dev": dev,
                })
    else:
        _unread(args, "--family su2", "alphas", "squeeze", "N", "hbar")
        for j in _floats(args.j):
            spin = spin_matrices(j)
            m = moments(spin.lx, spin.ly, su2_squeezed_vacuum(0.0, j))
            # <Lz> = -squeeze_prefactor on the lowest weight
            half_lz = abs(squeeze_prefactor(StateFamily("su2", param=j))) / 2.0
            rows.append({"j": j, "dLx_dLy": m.delta_a * m.delta_b,
                         "half_abs_lz": half_lz,
                         "dev": abs(m.delta_a * m.delta_b - half_lz),
                         "c_plus": m.c_plus})
    return write_report(args, rows, under(worst(row["dev"] for row in rows), args.tol))


# ---------------------------------------------------------------------------
# sut

def _sut_grid(args) -> tuple[np.ndarray, np.ndarray]:
    named = dict(_parse_range(spec) for spec in args.grid)
    if len(named) < 2:
        raise DomainError("grid must name both t and s ranges")
    return named["t"], named["s"]


def cmd_sut_kks(args) -> int:
    rows = [{"s": P.s, "t": P.t, "pb_dev": bracket_dev(P),
             "ham_dev": sut.hamiltonian_dev(P, sut.moment_and_fields(P))}
            for P in orbit_points(*_sut_grid(args))]
    example_dev = coadjoint_dev()
    dev = worst([example_dev] + [r[k] for r in rows for k in r if k.endswith("_dev")])
    return write_report(args, rows, under(dev, args.tol),
                        coadjoint_example_dev=example_dev)


def cmd_sut_charts(args) -> int:
    t_vals, s_vals = _sut_grid(args)
    orbit = sut.Orbit(args.u0, args.v0)
    rows = []
    for P in orbit_points(t_vals[np.sign(t_vals) == np.sign(args.v0)], s_vals):
        rt, coeff = chart_point(orbit, P)
        rows.append({"s": P.s, "t": P.t, "roundtrip_dev": rt, "pullback_coeff": coeff,
                     "pullback_dev": abs(coeff - math.copysign(2.0, args.v0))})
    if not rows:
        raise DomainError(f"no grid point lies on the orbit through v0 = {args.v0}")
    rt, pb = (worst(r[k] for r in rows) for k in ("roundtrip_dev", "pullback_dev"))
    return write_report(args, rows, Check(worst((rt, pb)),
                                          ((rt, ORBIT_TOL), (pb, args.tol))))


def cmd_sut_flow(args) -> int:
    t_vals, s_vals = _sut_grid(args)
    rows, devs = [], []
    for P in orbit_points(t_vals[t_vals > 0], s_vals):
        dev, (r1, r2, r2g) = flow_check(P, args.hbar)
        rows.append({"s": P.s, "t": P.t, "resid_flow1": r1,
                     "resid_flow2_stated": r2, "expected_defect": abs(P.s),
                     "resid_flow2_generator": r2g})
        devs.append(dev)
    if not rows:
        raise DomainError("no grid point has t > 0")
    return write_report(args, rows, under(worst(devs), args.tol))


def cmd_sut_dirac(args) -> int:
    t_vals, s_vals = _sut_grid(args)
    rep, fine, stability = dirac_refined(t_vals, s_vals, args.hbar)
    rows = [{"eps_field": ef, "eps_dirac": ed, "residual": r,
             "residual_refined": fine.residuals[(ef, ed)]}
            for (ef, ed), r in sorted(rep.residuals.items())]
    pot_log = pq.potential_residual(t_vals)
    return write_report(
        args, rows, under(worst((rep.defect_dev, stability, pot_log)), args.tol),
        best_eps_field=rep.best_pair[0], best_eps_dirac=rep.best_pair[1],
        best_residual=rep.best_residual, defect_dev=rep.defect_dev,
        grid_stability=stability, potential_residual_log=pot_log)


# ---------------------------------------------------------------------------
# berezin

def cmd_berezin_gram(args) -> int:
    rows = [{"h": h, "cutoff": args.cutoff,
             "gram_dev": gram_dev(bz.BerezinSpace(h=h, cutoff=args.cutoff))}
            for h in _floats(args.h)]
    return write_report(args, rows, under(worst(r["gram_dev"] for r in rows), args.tol))


def cmd_berezin_kernel(args) -> int:
    rows = []
    for h in _floats(args.h):
        space = bz.BerezinSpace(h=h, cutoff=args.cutoff)
        for p in _complexes(args.points):
            rows.append({"h": h, "re_p": p.real, "im_p": p.imag,
                         "reproducing_dev": reproducing_dev(space, p),
                         "kernel_p_i_dev": abs(bz.kernel(p, 1j, space) - 1.0),
                         "tail_bound": bz.kernel_tail_bound(p, p, space)})
    dev = worst(r[k] for r in rows for k in r if k.endswith("_dev"))
    return write_report(args, rows, under(dev, args.tol))


def cmd_berezin_symbol(args) -> int:
    spaces = [bz.BerezinSpace(h=h, cutoff=args.cutoff) for h in _floats(args.h)]
    eye = np.eye(args.cutoff, dtype=complex)
    diag = np.diag(np.arange(args.cutoff, dtype=complex) + 1.0)
    proj0 = np.outer(eye[0], eye[0])
    rows = []
    for space in spaces:
        # cutoff-model identities, exact at any basis size; two are taken at
        # the centre 1j, whatever the point
        d0 = abs(bz.symbol(diag, 1j, 1j, space).raw - 1.0)
        pr = abs(bz.symbol(proj0, 1j, 1j, space).raw - 1.0)
        for p in _complexes(args.points):
            dev_norm = abs(bz.symbol(eye, p, p, space).normalized - 1.0)
            rows.append({"h": space.h, "re_p": p.real, "im_p": p.imag,
                         "identity_norm_dev": dev_norm,
                         "diag_at_center_dev": d0,
                         "projector_at_center_dev": pr})
    dev = worst(r[k] for r in rows for k in r if k.endswith("_dev"))
    return write_report(args, rows, under(dev, args.tol))


def cmd_berezin_star(args) -> int:
    rep, check = star_report(_floats(args.h_seq), complex(args.point),
                             args.cutoff)
    rows = [{"h": r.h, "dev_product": r.dev_product,
             "dev_bracket": r.dev_bracket} for r in rep.rows]
    return write_report(args, rows, check, order_product=rep.order_product,
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


def _add_common(sp, func) -> None:
    """The options of every subcommand, and ``func``, the command it runs."""
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="report path (default stdout)")
    sp.add_argument("--config", default=None,
                    help="flat key=value file setting this subcommand's options")
    sp.set_defaults(func=func)


def _pullback_parser(sub, command: str) -> None:
    own = UNREAD_DEFAULTS
    sp = sub.add_parser(command, help="projective-form pullback vs closed forms")
    sp.add_argument("--family", choices=("wh", "su2", "su11"), default="wh")
    sp.add_argument("--squeeze", type=_checked(_floats), default="0",
                    help="comma list of v values")
    sp.add_argument("--param", type=_real, default=0.0, help="j or k")
    sp.add_argument("--grid", type=_checked(_grid_shape), default=own["grid"])
    sp.add_argument("--base-max", type=_real, default=own["base_max"])
    sp.add_argument("--tol", type=_real, default=FORM_TOL)
    sp.add_argument("--eps", type=_real, default=own["eps"])
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check tangents and truncation doubling")
    _add_common(sp, cmd_pullback)


def _uncertainty_parser(sub, command: str) -> None:
    own, floats = UNREAD_DEFAULTS, _checked(_floats)
    sp = sub.add_parser(command, help="moment and saturation checks")
    sp.add_argument("--family", choices=("wh", "su2"), default="wh")
    sp.add_argument("--alphas", type=_checked(_complexes), default=own["alphas"])
    sp.add_argument("--squeeze", type=floats, default=own["squeeze"])
    sp.add_argument("--j", type=floats, default=own["j"])
    sp.add_argument("--N", type=int, default=own["N"])
    sp.add_argument("--hbar", type=_positive, default=own["hbar"])
    sp.add_argument("--tol", type=_real, default=SATURATION_TOL)
    _add_common(sp, cmd_uncertainty)


def _sut_parser(sub, command: str) -> None:
    sub_sut = sub.add_parser(command, help="coadjoint orbit suite").add_subparsers(
        dest="subcommand", required=True)
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
        _add_common(sp, fn)


def _berezin_parser(sub, command: str) -> None:
    sub_bz = sub.add_parser(command, help="weighted Bergman space suite").add_subparsers(
        dest="subcommand", required=True)
    for name, fn, tol in (("gram", cmd_berezin_gram, GRAM_TOL),
                          ("kernel", cmd_berezin_kernel, KERNEL_TOL),
                          ("symbol", cmd_berezin_symbol, SYMBOL_TOL),
                          ("star", cmd_berezin_star, None)):
        sp = sub_bz.add_parser(name)
        sp.add_argument("--cutoff", type=int, default=8)
        if name == "star":
            sp.add_argument("--h-seq", type=_checked(_floats), default="0.2,0.1,0.05")
            sp.add_argument("--point", type=_checked(lambda t: _finite(complex, t)),
                            default="1.5j")
        else:
            sp.add_argument("--h", type=_checked(_floats), default="0.25")
            sp.add_argument("--tol", type=_real, default=tol)
        if name in ("kernel", "symbol"):
            sp.add_argument("--points", type=_checked(_complexes), default="1j,2j,1+1j")
        _add_common(sp, fn)


def _report_all_parser(sub, command: str) -> None:
    _add_common(sub.add_parser(command, help="run every suite at defaults"), cmd_report_all)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, with its subcommands, or the full
    parser of every command when ``command`` names none of them (None, an
    option, a typo), so that the top-level help and errors list them all.
    Each command parses, helps and fails in the one parser as in the full
    one."""
    ap = _Parser(
        prog="cohgeom",
        description="numerical verification suites for coherent-state "
                    "geometry, orbit quantization and Berezin calculus")
    sub = ap.add_subparsers(dest="command", required=True)
    builders = {"pullback": _pullback_parser, "uncertainty": _uncertainty_parser,
                "sut": _sut_parser, "berezin": _berezin_parser,
                "report-all": _report_all_parser}
    for name in [command] if command in builders else builders:
        builders[name](sub, name)
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
    ap = build_parser(argv[0] if argv else None)
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
