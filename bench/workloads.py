"""The benchmark's three workloads.

Each workload turns a seed into a list of operations (``plan``), executes them
through the public cohgeom API (``run``, the timed part), and checks every
result after the timed interval (``check``) against the benchmark's own
closed forms or against properties the method must have, never against a
stored copy of earlier output.

Seeds draw phases of base points and tangent directions; magnitudes, grid
sizes and truncations are fixed, so every seed gives the same amount of work
and the same calls into every layer.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math

import numpy as np

from cohgeom import cli
from cohgeom import prequant as pq
from cohgeom import pullback as pb
from cohgeom import states as st
from cohgeom import statespace as ss
from cohgeom import sut
from cohgeom import uncertainty as un
from cohgeom.errors import CohgeomError
from cohgeom.pullback import StateFamily, TangentSpec


def _unit(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _ring(rng, radius: float, count: int) -> list[complex]:
    return [radius * _unit(rng) for _ in range(count)]


def _bracket(v: float, u: complex, w: complex) -> complex:
    # squeezed form at the origin, first slot conjugated
    u1, u2, w1, w2 = u.real, u.imag, w.real, w.imag
    return ((u1 * w1 * math.exp(2 * v) + u2 * w2 * math.exp(-2 * v))
            + 1j * (u1 * w2 - u2 * w1))


def _spin_prefactor(j: float, v: float) -> float:
    """-<0;v| Lz |0;v> from spin matrices built here, not by cohgeom."""
    d = int(round(2 * j)) + 1
    m = j - np.arange(d)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), k=1)
    lx = (jp + jp.T) / 2.0
    ly = (jp - jp.T) / 2.0j
    _, _, vh = np.linalg.svd(np.exp(v) * lx - 1j * np.exp(-v) * ly)
    x = vh[-1].conj()
    return float(-np.real(np.vdot(x, m * x)))


def _squeezed_amplitudes(v: float, N: int) -> np.ndarray:
    """c_{2m} = (-tanh v)^m sqrt((2m)!) / (2^m m! sqrt(cosh v)), odd c = 0."""
    c = np.zeros(N)
    for m in range((N + 1) // 2):
        log_mag = (0.5 * math.lgamma(2 * m + 1) - m * math.log(2.0)
                   - math.lgamma(m + 1) - 0.5 * math.log(math.cosh(v)))
        c[2 * m] = (-math.tanh(v)) ** m * math.exp(log_mag)
    return c


class Workload:
    """Base of the workloads: ``plan(seed)`` gives operations ``(kind, *args)``,
    each run by ``op_<kind>`` and checked by ``check_<kind>``."""

    name = ""

    def run(self, ops: list[tuple]) -> list:
        """Execute every operation; a CohgeomError is kept as the result."""
        results = []
        for op in ops:
            try:
                results.append(getattr(self, "op_" + op[0])(*op[1:]))
            except CohgeomError as exc:
                results.append(exc)
        return results

    def check(self, ops: list[tuple], results: list) -> tuple[int, list[str], str]:
        """Return (failed operations, problems found, digest of the output)."""
        failed, problems = 0, []
        for op, res in zip(ops, results):
            if isinstance(res, CohgeomError):
                failed += 1
                continue
            for problem in getattr(self, "check_" + op[0])(op[1:], res):
                problems.append(f"{op[0]}{op[1:]}: {problem}")
        return failed, problems, ""


def _off(dev: float, tol: float, what: str) -> list[str]:
    return [] if dev < tol else [f"{what} deviates by {dev:.3e} (tol {tol:.0e})"]


# ---------------------------------------------------------------------------

# the acceptance tolerances of the report-all checks, kept here so that a
# loosened gate in the program fails the benchmark
REPORT_TOLERANCES = {
    "wh-coherent-kahler": 1e-8,
    "wh-squeezed-form": 1e-8,
    "wh-squeezed-symplectic-invariance": 1e-8,
    "su2-form": 1e-8,
    "su2-coherent-kahler-verdict": 1e-8,
    "su11-kahler-relative": 1e-6,
    "uncertainty-saturation": 1e-9,
    "uncertainty-mismatch-gap": None,   # dev is a gap that must exceed 0.01
    "sut-coadjoint-and-brackets": 1e-12,
    "sut-chart-pullback": 1e-6,
    "prequant-potential": 1e-8,
    "prequant-dirac-defect-identified": 1e-8,
    "prequant-flow2-defect-detected": None,  # dev is the gap |s psi| = 1.5
    "berezin-gram": 1e-8,
    "berezin-reproducing": 1e-6,
    "berezin-star-monotone": None,  # dev is the h = 0.2 deviation, > 0
}


class ReportAll(Workload):
    """``cohgeom report-all`` as shipped: one CLI call, 16 checks."""

    name = "report-all"

    def plan(self, seed):
        return [("report_all",)]

    def op_report_all(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["report-all"])
        return code, buf.getvalue()

    def check_report_all(self, _args, res):
        code, text = res
        problems = [] if code == 0 else [f"exit code {code}"]
        table = [line for line in text.splitlines()
                 if not line.startswith(("PASS ", "FAIL ", "# summary"))]
        rows = list(csv.DictReader(table))
        names = [row["check"] for row in rows]
        if sorted(names) != sorted(REPORT_TOLERANCES):
            problems.append(f"checks reported: {names}")
        for row in rows:
            name, dev = row["check"], float(row["dev"])
            tol = REPORT_TOLERANCES.get(name)
            if row["pass"] != "true" or f"PASS {name} " not in text:
                problems.append(f"{name} did not pass")
            if name == "uncertainty-mismatch-gap":
                ok = dev > 0.01
            elif name == "prequant-flow2-defect-detected":
                ok = abs(dev - 1.5) < 1e-6
            elif tol is None:
                ok = 0.0 < dev < math.inf
            else:
                ok = dev < tol
            if not ok:
                problems.append(f"{name}: dev {dev:.3e} outside the acceptance gate")
        return problems

    def check(self, ops, results):
        failed, problems, _ = super().check(ops, results)
        text = "" if isinstance(results[0], CohgeomError) else results[0][1]
        return failed, problems, hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------

class PullbackSweep(Workload):
    """Public pullback API over the oscillator, spin and disc families.

    Origin bases of the squeezed families are bound by kernel SVDs, off-origin
    bases by expm and expm_frechet.  Berezin does no work here.
    """

    name = "pullback-sweep"

    def plan(self, seed):
        rng = np.random.default_rng(seed)
        ops = []
        # coherent oscillator grid
        wh = StateFamily("wh")
        for base in [0j] + [b for r in (0.5, 1.0, 1.5, 2.0) for b in _ring(rng, r, 6)]:
            ops.append(("pair", wh, base, _unit(rng), _unit(rng)))
        # squeezed oscillator: origin, and off the origin where the value
        # must not change (displacement invariance)
        for v in (0.5, -0.5, 1.0, -1.0):
            fam = StateFamily("wh", v=v)
            for radius in (0.0, 0.5, 1.0):
                u, w = _unit(rng), _unit(rng)
                ops.append(("pair", fam, 0j, u, w))
                if radius:
                    ops.append(("shifted", fam, radius * _unit(rng), u, w))
        # spin, squeezed only for integer j
        for j in (0.5, 1.0, 2.0, 3.0):
            for v in ((0.0,) if j == 0.5 else (0.0, 0.5, -0.5)):
                fam = StateFamily("su2", v=v, param=j)
                for _ in range(2):
                    ops.append(("pair", fam, 0j, _unit(rng), _unit(rng)))
        # disc family
        for k in (0.75, 1.0, 2.0):
            fam = StateFamily("su11", param=k)
            for base in [0j] + [b for r in (0.2, 0.4, 0.6, 0.8) for b in _ring(rng, r, 4)]:
                ops.append(("pair", fam, base, _unit(rng), _unit(rng)))
        # embedding verdicts, one per family and squeezing
        ops.append(("verdict", wh, tuple(_ring(rng, 0.5, 3))))
        ops.append(("verdict", StateFamily("wh", v=0.5), None))
        ops.append(("verdict", StateFamily("su2", param=1.0), None))
        ops.append(("verdict", StateFamily("su2", v=0.5, param=2.0), None))
        ops.append(("verdict", StateFamily("su11", param=1.0), tuple(_ring(rng, 0.5, 3))))
        # numeric-tangent oracle
        for fam, radius in ((wh, 1.0), (StateFamily("wh", v=0.5), 0.0),
                            (StateFamily("wh", v=0.5), 0.75),
                            (StateFamily("su2", v=0.5, param=2.0), 0.0),
                            (StateFamily("su2", param=3.0), 0.5),
                            (StateFamily("su11", param=1.0), 0.6)):
            ops.append(("tangent", fam, radius * _unit(rng), _unit(rng)))
        return ops

    def op_pair(self, fam, base, u, w):
        return pb.pullback_form(fam, base, u, w), pb.pullback_form(fam, base, w, u)

    def op_shifted(self, fam, base, u, w):
        return pb.pullback_form(fam, base, u, w), pb.pullback_form(fam, 0j, u, w)

    def op_verdict(self, fam, bases):
        return pb.kahler_verdict(fam, bases=bases)

    def op_tangent(self, fam, base, u):
        psi = pb.family_state(fam, base).normalized()
        spec = TangentSpec(base, u)
        ta = ss.project_orthogonal(psi, pb.analytic_tangent(fam, spec))
        tn = ss.project_orthogonal(psi, pb.numeric_tangent(fam, spec, 1e-4))
        return float(np.linalg.norm(ta.amps - tn.amps))

    @staticmethod
    def _reference(fam, base, u, w) -> complex:
        if fam.family == "wh":
            return np.conj(u) * w if fam.v == 0.0 else _bracket(fam.v, u, w)
        if fam.family == "su2":
            return _spin_prefactor(fam.param, fam.v) * _bracket(fam.v, u, w)
        return 2.0 * fam.param * np.conj(u) * w / (1.0 - abs(base) ** 2) ** 2

    def check_pair(self, args, res):
        fam, base, u, w = args
        huw, hwu = res
        ref = self._reference(fam, base, u, w)
        if fam.family == "su11":
            problems = _off(abs(huw.value - ref) / abs(ref), 1e-6, "disc metric (relative)")
        else:
            problems = _off(abs(huw.value - ref), 1e-8, "closed form")
        problems += _off(abs(hwu.value - np.conj(huw.value)), 1e-12 * max(1.0, abs(ref)),
                         "H(w,u) - conj H(u,w)")
        return problems

    def check_shifted(self, args, res):
        shifted, origin = res
        return _off(abs(shifted.value - origin.value), 1e-9, "off-origin vs origin value")

    def check_verdict(self, args, res):
        fam = args[0]
        kahler = fam.v == 0.0
        if bool(res.is_symplectic) and bool(res.is_kahler) == kahler:
            return []
        return [f"verdict {res}, expected is_kahler={kahler}, is_symplectic=True"]

    def check_tangent(self, args, res):
        return _off(res, 1e-6, "numeric vs analytic tangent")


# ---------------------------------------------------------------------------

FIELD_VALUES = {  # the prequantization test fields, written out here
    "1": lambda a, s: 1.0,
    "s": lambda a, s: s,
    "t": lambda a, s: math.exp(a),
    "e^(i1.0s)": lambda a, s: complex(math.cos(s), math.sin(s)),
    "e^(0.7a)": lambda a, s: math.exp(0.7 * a),
}


class OrbitMoments(Workload):
    """Moments and uncertainty residuals of freshly built states, and the
    orbit and prequantization grid checks on a denser grid than report-all.

    Every state is built once and used once, so nothing is reused between
    operations.
    """

    name = "orbit-moments"
    GRID = 24

    def plan(self, seed):
        rng = np.random.default_rng(seed)
        ops = []
        for N in (48, 64, 96):
            alphas = [0j] + [a for r in (0.5, 1.0) for a in _ring(rng, r, 4)]
            for alpha in alphas:
                for v in (0.0, 0.5, -0.5):
                    ops.append(("state", N, alpha, v))
            for v in (0.5, -0.5):
                ops.append(("vacuum", N, v))
        t_vals = tuple(np.sort(rng.uniform(0.5, 4.0, self.GRID)))
        s_vals = tuple(np.sort(rng.uniform(-2.0, 2.0, self.GRID)))
        for t in t_vals:
            for s in s_vals:
                ops.append(("kks", float(s), float(t)))
                ops.append(("chart", float(s), float(t)))
                ops.append(("flow", float(s), float(t)))
        ops.append(("dirac", t_vals, s_vals))
        ops.append(("potential", t_vals))
        return ops

    def op_state(self, N, alpha, v):
        psi = pb.family_state(StateFamily("wh", v=v, trunc=N), alpha).normalized()
        q, p = un.quadrature_pair(N)
        m = un.moments(q, p, psi)
        rs = un.rs_report(q, p, psi)
        matched = un.min_uncertainty_residual(q, p, math.exp(v), psi)
        gap = un.min_uncertainty_residual(q, p, 1.0, psi) if v else None
        return m, rs, matched, gap

    def op_vacuum(self, N, v):
        return st.squeezed_vacuum(v, N).amps

    def op_kks(self, s, t):
        P = sut.OrbitPoint(s, t)
        mf = sut.moment_and_fields(P)
        fj1 = sut.Field2D(lambda s, t: t, lambda s, t: 0.0, lambda s, t: 1.0)
        fj2 = sut.Field2D(lambda s, t: 2 * s, lambda s, t: 2.0, lambda s, t: 0.0)
        es, et = sut.OrbitTangent(1.0, 0.0), sut.OrbitTangent(0.0, 1.0)
        forms = [sut.kks_form(P, X, e) for X in (mf.xj1, mf.xj2) for e in (es, et)]
        return mf.j1, mf.j2, sut.poisson(fj1, fj2, P), forms

    def op_chart(self, s, t):
        orbit = sut.Orbit(0.0, 1.0)
        g = sut.phi_map(orbit, orbit.point(s, t))
        back = sut.phi_inv(orbit, g)
        return g, back, sut.chi_pullback_coefficient(orbit, g)

    def op_flow(self, s, t):
        P = sut.OrbitPoint(s, t)
        out = {}
        for key, psi in pq.standard_fields().items():
            out[key] = (pq.flow_generator_residual(1, psi, P),
                        pq.flow_generator_residual(2, psi, P),
                        pq.flow_generator_residual(2, psi, P, variant="generator"))
        return out

    def op_dirac(self, t_vals, s_vals):
        return pq.dirac_residual(np.array(t_vals), np.array(s_vals))

    def op_potential(self, t_vals):
        return pq.potential_residual(np.array(t_vals))

    def check_state(self, args, res):
        N, alpha, v = args
        m, rs, matched, gap = res
        tol = 1e-10
        problems = _off(abs(m.alpha - math.exp(-2 * v) / 2), tol, "dq^2 - e^{-2v}/2")
        problems += _off(abs(m.beta - math.exp(2 * v) / 2), tol, "dp^2 - e^{2v}/2")
        problems += _off(abs(m.c_minus + 1.0), tol, "C- + hbar")
        problems += _off(abs(rs.slack_rs), tol, "RS slack")
        if not (rs.heisenberg_ok and rs.anticomm_ok and rs.rs_ok):
            problems.append(f"an uncertainty inequality is reported violated: {rs}")
        if v == 0.0:
            problems += _off(matched, 1e-9, "coherent minimum-uncertainty residual")
        elif not (gap > 0.01 and matched < 1e-3 * gap):
            # a displaced squeezed state is exact only up to its truncation
            # (2e-6 at N = 48, |alpha| = 1), so only the separation from the
            # mismatched lam = 1 residual is required of it
            problems.append(f"matched residual {matched:.3e} is not separated "
                            f"from the mismatched one {gap:.3e}")
        return problems

    def check_vacuum(self, args, res):
        N, v = args
        closed = _squeezed_amplitudes(v, N + 1)
        # a truncated kernel vector cannot be closer than the first dropped amplitude
        return _off(float(np.max(np.abs(res - closed[:N]))), 1e-10 + abs(closed[N]),
                    "squeezed vacuum amplitudes vs closed form")

    def check_kks(self, args, res):
        s, t = args
        j1, j2, bracket, forms = res
        dev = max(abs(j1 - t), abs(j2 - 2 * s), abs(bracket + 2 * t),
                  *(abs(f - e) for f, e in zip(forms, (0.0, 1.0, 2.0, 0.0))))
        return _off(dev, 1e-12, "moments, fields and {J1, J2} = -2 J1")

    def check_chart(self, args, res):
        s, t = args
        g, back, coeff = res
        problems = _off(max(abs(g.g1 - 1 / math.sqrt(t)), abs(g.g2 + s / math.sqrt(t)),
                            abs(back.s - s), abs(back.t - t)), 1e-12, "chart and its inverse")
        return problems + _off(abs(coeff - 2.0), 1e-6, "chi pullback coefficient")

    def check_flow(self, args, res):
        s, t = args
        if sorted(res) != sorted(FIELD_VALUES):
            return [f"test fields {sorted(res)}"]
        problems = []
        for key, (r1, r2, r2_generator) in res.items():
            size = abs(s * FIELD_VALUES[key](math.log(t), s))
            problems += _off(max(r1, r2_generator, abs(r2 - size)), 1e-6 * max(1.0, size),
                             f"flow generators on {key}")
        return problems

    def check_dirac(self, args, res):
        t_vals, s_vals = args
        expected = max(abs(4.0 * t * f(math.log(t), s))
                       for t in t_vals for s in s_vals for f in FIELD_VALUES.values())
        problems = _off(res.defect_dev, 1e-8, "defect vs 2 i hbar {J1, J2} psi")
        problems += _off(abs(res.best_residual - expected) / expected, 1e-10,
                         "best residual vs max |4 hbar t psi|")
        if res.best_pair[0] * res.best_pair[1] != 1:
            problems.append(f"best convention {res.best_pair}")
        return problems

    def check_potential(self, args, res):
        return _off(res, 1e-8, "d theta - omega")


WORKLOADS = {w.name: w for w in (ReportAll(), PullbackSweep(), OrbitMoments())}
