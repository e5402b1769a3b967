"""End-to-end acceptance suite.

One test per criterion; each prints a PASS line with the measured worst
deviation and its tolerance once the assertions hold.  Slot convention used
throughout: pullback_form(fam, base, u, w) = <T_u| P |T_w> with the first
tangent argument conjugated; the squeezed-family bracket formulas are then
reproduced under the identification (conjugated slot = dotted curve).
"""

import numpy as np
import pytest

from cohgeom import (
    KernelError,
    StateFamily,
    TangentSpec,
    analytic_tangent,
    closed_form,
    family_state,
    inner,
    kahler_verdict,
    min_uncertainty_residual,
    numeric_tangent,
    project_orthogonal,
    pullback_form,
    quadrature_pair,
    rs_report,
    squeeze_prefactor,
    squeezed_vacuum,
    truncation_dim,
    wh_coherent,
    wh_squeezed,
)
from cohgeom import berezin as bz
from cohgeom import prequant as pq
from cohgeom import sut

PAIRS = ((1 + 0j, 1 + 0j), (1 + 0j, 1j), (1j, 1j))


def report(num: int, label: str, dev: float, tol: float):
    print(f"PASS criterion {num}: {label} (max dev {dev:.3e}, tol {tol:.1e})")


def grid(radius: float, n: int):
    side = radius / np.sqrt(2.0)
    return [complex(x, y) for x in np.linspace(-side, side, n)
            for y in np.linspace(-side, side, n)]


def test_criterion_1_wh_coherent_kahler_embedding():
    tol = 1e-8
    dev = 0.0
    for base in grid(2.0, 5):
        fam = StateFamily("wh", eps=1e-12)
        # basis sized from the declared tail budget (plus tangent headroom)
        assert fam.dim(base) >= truncation_dim(base, "fock", eps=1e-12)
        for (u, w) in PAIRS:
            rep = pullback_form(fam, base, u, w)
            assert rep.reference == np.conj(u) * w
            dev = max(dev, rep.abs_deviation)
    assert dev < tol
    report(1, "oscillator coherent family is a Kahler embedding", dev, tol)


def test_criterion_2_wh_squeezed_form_and_symplectic_invariance():
    tol = 1e-8
    dev = 0.0
    dev_sympl = 0.0
    for v in (1.0, -1.0, 0.5, -0.5):
        fam = StateFamily("wh", v=v)
        for (u, w) in PAIRS:
            rep = pullback_form(fam, 0j, u, w)
            u1, u2, w1, w2 = u.real, u.imag, w.real, w.imag
            bracket = ((u1 * w1 * np.exp(2 * v) + u2 * w2 * np.exp(-2 * v))
                       + 1j * (u1 * w2 - u2 * w1))
            assert rep.reference == pytest.approx(bracket)
            dev = max(dev, abs(rep.value - bracket))
            v0_imag = (np.conj(u) * w).imag
            dev_sympl = max(dev_sympl, abs(rep.symplectic_part - v0_imag))
    assert dev < tol and dev_sympl < tol
    report(2, "squeezed oscillator: anisotropic metric, invariant "
              "symplectic part", max(dev, dev_sympl), tol)


def test_criterion_3_su2_bracket_and_verdict():
    tol = 1e-8
    dev = 0.0
    printed_gap = 0.0
    combos = ((0.5, 0.0), (1.0, 0.0), (2.0, 0.0), (1.0, 0.5), (2.0, 0.5))
    for (j, v) in combos:
        fam = StateFamily("su2", v=v, param=j)
        pref = squeeze_prefactor(fam)
        for (u, w) in PAIRS:
            rep = pullback_form(fam, 0j, u, w)
            u1, u2, w1, w2 = u.real, u.imag, w.real, w.imag
            bracket = ((u1 * w1 * np.exp(2 * v) + u2 * w2 * np.exp(-2 * v))
                       + 1j * (u1 * w2 - u2 * w1))
            dev = max(dev, abs(rep.value / pref - bracket))
            # the as-printed bracket variant is tracked, not hidden: for
            # v != 0 it disagrees with the oracle by the v-orientation flip
            printed = closed_form(fam, 0j, u, w, variant="printed") / pref
            printed_gap = max(printed_gap, abs(rep.value / pref - printed))
    assert dev < tol
    assert printed_gap > 1.0  # the printed variant is not what the oracle sees
    # half-integer spin admits no squeezed fiducial vector: parity obstruction
    with pytest.raises(KernelError):
        family_state(StateFamily("su2", v=0.5, param=0.5), 0j)
    for j in (0.5, 1.0, 2.0):
        verdict = kahler_verdict(StateFamily("su2", param=j))
        assert verdict.is_kahler and verdict.is_symplectic
    report(3, "spin bracket matches the oracle-consistent form; printed "
              f"variant off by {printed_gap:.2f}", dev, tol)


def test_criterion_4_su11_kahler_metric():
    tol = 1e-6
    dev = 0.0
    for k in (0.75, 1.0, 2.0):
        fam = StateFamily("su11", param=k)
        for base in grid(0.8, 4):
            for (u, w) in PAIRS:
                rep = pullback_form(fam, base, u, w)
                assert rep.reference == pytest.approx(
                    2 * k * np.conj(u) * w / (1 - abs(base) ** 2) ** 2)
                dev = max(dev, rep.abs_deviation / abs(rep.reference))
    assert dev < tol
    report(4, "disc coherent family pulls back the disc Kahler metric",
           dev, tol)


def test_criterion_5_uncertainty_saturation():
    tol = 1e-9
    N = 64
    q, p = quadrature_pair(N, hbar=1.0)
    dev = 0.0
    psi = wh_coherent(1.0, N)
    dev = max(dev, abs(rs_report(q, p, psi).slack_rs))
    dev = max(dev, min_uncertainty_residual(q, p, 1.0, psi))
    for v in (0.5, -0.5):
        sq = wh_squeezed(0.4, v, N)
        dev = max(dev, abs(rs_report(q, p, sq).slack_rs))
        dev = max(dev, min_uncertainty_residual(q, p, float(np.exp(v)), sq))
    assert dev < tol
    gap = min_uncertainty_residual(q, p, 1.0, squeezed_vacuum(0.5, N))
    assert gap > 0.01
    report(5, f"coherent/squeezed saturate; mismatched lam gap {gap:.3f}",
           dev, tol)


def test_criterion_6_sut_orbit_identities():
    tol = 1e-12
    img = sut.coadjoint_action(sut.SutElement(2.0, 1.0), sut.SutDual(1.0, 4.0))
    assert (img.u, img.v) == (3.0, 1.0)
    fj1 = sut.Field2D(lambda s, t: t, lambda s, t: 0.0, lambda s, t: 1.0)
    fj2 = sut.Field2D(lambda s, t: 2 * s, lambda s, t: 2.0, lambda s, t: 0.0)
    dev = 0.0
    es, et = sut.OrbitTangent(1, 0), sut.OrbitTangent(0, 1)
    for t in np.linspace(0.5, 4.0, 8):
        for s in np.linspace(-2.0, 2.0, 8):
            P = sut.OrbitPoint(float(s), float(t))
            mf = sut.moment_and_fields(P)
            dev = max(dev, abs(sut.poisson(fj1, fj2, P) + 2.0 * mf.j1))
            dev = max(dev, abs(sut.kks_form(P, mf.xj1, es)),
                      abs(sut.kks_form(P, mf.xj1, et) - 1.0),
                      abs(sut.kks_form(P, mf.xj2, es) - 2.0),
                      abs(sut.kks_form(P, mf.xj2, et)))
    assert dev < tol
    orbit = sut.Orbit(0.0, 1.0)
    chart_dev = 0.0
    for t in np.linspace(0.5, 4.0, 5):
        for s in np.linspace(-2.0, 2.0, 5):
            g = sut.phi_map(orbit, orbit.point(float(s), float(t)))
            chart_dev = max(chart_dev,
                            abs(sut.chi_pullback_coefficient(orbit, g) - 2.0))
    assert chart_dev < 1e-6
    report(6, "coadjoint example, brackets, Hamiltonian fields (chart "
              f"pullback dev {chart_dev:.2e} < 1e-6)", dev, tol)


def test_criterion_7_prequant_checkers():
    # symplectic potential: d theta = omega for theta = -log(t) ds
    pot = pq.potential_residual(np.linspace(0.5, 4.0, 30))
    assert pot < 1e-8
    # alternative with |log t| demonstrably fails below t = 1
    assert pq.potential_residual(np.linspace(0.5, 0.9, 5),
                                 variant="abs_log") > 1.0
    # flow/generator mismatch for the second operator: detected, not hidden
    P = sut.OrbitPoint(1.5, 2.0)
    one = pq.standard_fields()["1"]
    gap = pq.flow_generator_residual(2, one, P)
    assert gap == pytest.approx(1.5, abs=1e-6)
    assert pq.flow_generator_residual(2, one, P, variant="generator") < 1e-6
    assert pq.flow_generator_residual(1, one, P) < 1e-6
    # bracket-correspondence residual: four conventions, stable defect
    t_vals = np.linspace(0.5, 4.0, 8)
    s_vals = np.linspace(-2.0, 2.0, 8)
    rep = pq.dirac_residual(t_vals, s_vals)
    fine = pq.dirac_residual(np.linspace(0.5, 4.0, 16),
                             np.linspace(-2.0, 2.0, 16))
    assert len(rep.residuals) == 4
    stability = max(abs(rep.residuals[k] - fine.residuals[k])
                    for k in rep.residuals)
    assert stability < 1e-10
    assert min(rep.residuals.values()) > 1.0  # no convention closes it
    assert rep.defect_dev < 1e-8  # defect == 2 i hbar {J1, J2} psi exactly
    report(7, "potential, flow defect and bracket-correspondence defect all "
              f"quantified (best pair {rep.best_pair})",
           max(pot, rep.defect_dev, stability), 1e-8)


def test_criterion_8_berezin_quantization():
    gram_dev = 0.0
    for h in (0.45, 0.25):
        space = bz.BerezinSpace(h=h, cutoff=8)
        G = bz.gram_matrix(space)
        gram_dev = max(gram_dev, float(np.max(np.abs(G - np.eye(8)))))
    assert gram_dev < 1e-8
    space = bz.BerezinSpace(h=0.25, cutoff=12)
    rep_dev = 0.0
    for p in (1j, 2j, 1 + 1j):
        tau = bz.coherent_state_fn(p, space)
        f2 = lambda w: np.asarray(bz.basis_psi(2, bz.cayley_grid(w),
                                               space.h))
        rep_dev = max(rep_dev, abs(bz.halfplane_inner(tau, f2, space)
                                   - bz.basis_f(2, p, space.h)))
    assert rep_dev < 1e-6
    rep = bz.correspondence_report(
        lambda sp: bz.toeplitz_operator(lambda z: np.real(z) + 0j, sp),
        lambda sp: bz.toeplitz_operator(lambda z: np.imag(z) + 0j, sp),
        1.5j, (0.2, 0.1, 0.05), cutoff=12)
    prods = [r.dev_product for r in rep.rows]
    bracks = [r.dev_bracket for r in rep.rows]
    assert prods[0] > prods[1] > prods[2]
    assert bracks[0] > bracks[1] > bracks[2]
    assert rep.order_bracket >= 1.75  # theory: 2
    report(8, "Gram orthonormality, reproducing property, star-product "
              f"limits (orders {rep.order_product:.2f}/{rep.order_bracket:.2f})",
           max(gram_dev, rep_dev), 1e-6)


def test_criterion_9_oracle_cross_checks():
    tol = 1e-6
    # finite-difference tangents vs analytic ones, projected, per family
    dev = 0.0
    cases = [
        (StateFamily("wh"), grid(1.5, 5)),
        (StateFamily("su2", param=1.0), grid(1.0, 5)),
        (StateFamily("su11", param=1.0), grid(0.55, 5)),
        (StateFamily("wh", v=0.5), [0j, 0.3 + 0.2j]),
        (StateFamily("su2", v=0.5, param=1.0), [0j]),
    ]
    for fam, bases in cases:
        for base in bases:
            psi = family_state(fam, base).normalized()
            for direction in (1 + 0j, 1j):
                spec = TangentSpec(base, direction)
                ta = project_orthogonal(psi, analytic_tangent(fam, spec))
                tn = project_orthogonal(psi, numeric_tangent(fam, spec, 1e-4))
                dev = max(dev, float(np.linalg.norm(ta.amps - tn.amps)))
    assert dev < tol

    # doubling truncation / quadrature budgets moves nothing beyond 10 x tol
    stab = 0.0
    for fam, base in ((StateFamily("wh"), 0.8 + 0.5j),
                      (StateFamily("wh", v=0.5), 0j),
                      (StateFamily("su11", param=2.0), 0.4 - 0.3j)):
        fam2 = StateFamily(fam.family, fam.v, fam.param,
                           trunc=2 * fam.dim(base))
        for (u, w) in PAIRS:
            stab = max(stab, abs(pullback_form(fam, base, u, w).value
                                 - pullback_form(fam2, base, u, w).value))
    assert stab < 10 * 1e-8
    space = bz.BerezinSpace(h=0.45, cutoff=8)
    double = bz.BerezinSpace(h=0.45, cutoff=8, n_radial=128, n_angular=512)
    g1 = float(np.max(np.abs(bz.gram_matrix(space) - np.eye(8))))
    g2 = float(np.max(np.abs(bz.gram_matrix(double) - np.eye(8))))
    assert abs(g1 - g2) < 10 * 1e-8
    space24 = bz.BerezinSpace(h=0.25, cutoff=24)
    space48 = bz.BerezinSpace(h=0.25, cutoff=48)
    kdev = abs(bz.kernel(2j, 1 + 1j, space24) - bz.kernel(2j, 1 + 1j, space48))
    assert kdev < 10 * space24.tail_tol
    report(9, "independent oracles agree; parameter doubling is inert",
           max(dev, stab), tol)
