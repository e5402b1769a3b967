import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgeom import (
    CohgeomError,
    DomainError,
    StateFamily,
    StateVector,
    StepError,
    TangentSpec,
    UnsupportedBasePoint,
    analytic_tangent,
    closed_form,
    family_state,
    inner,
    kahler_verdict,
    numeric_tangent,
    project_orthogonal,
    pullback_form,
    pullback_matrix,
    reference_matrix,
    spin_matrices,
    squeeze_prefactor,
    su2_squeezed_vacuum,
    su2_state,
    wh_squeezed,
)
from cohgeom import cli
from cohgeom import pullback as pullback_module
from cohgeom.pullback import PAIR_ENTRIES
from conftest import pullback_hermitian

PAIRS = ((1 + 0j, 1 + 0j), (1 + 0j, 1j), (1j, 1j))

WH = StateFamily("wh")
SU2_J1 = StateFamily("su2", param=1.0)
SU11_K1 = StateFamily("su11", param=1.0)


# ---------------------------------------------------------------------------
# tangents

def test_wh_tangent_at_origin_is_first_level():
    t = analytic_tangent(WH, TangentSpec(0, 1))
    # |1> plus a norm-derivative term along |0> (zero coefficient here)
    assert t.amps[1] == pytest.approx(1.0)
    assert np.max(np.abs(t.amps[2:])) < 1e-14


def test_su2_tangent_at_origin_is_raising_direction():
    # d/ds D(alpha)|lowest> = -alpha' L+ |lowest> at the origin
    fam = StateFamily("su2", param=0.5)
    t = analytic_tangent(fam, TangentSpec(0, 1))
    spin = spin_matrices(0.5)
    lowest = np.array([0.0, 1.0], dtype=complex)
    expected = -(spin.lplus @ lowest)
    assert np.allclose(t.amps, expected)


def test_zero_direction_gives_zero_tangent():
    for fam in (WH, SU2_J1, SU11_K1, StateFamily("wh", v=0.4)):
        t = analytic_tangent(fam, TangentSpec(0.1, 0))
        assert np.max(np.abs(t.amps)) == 0
        n = numeric_tangent(fam, TangentSpec(0.1, 0), 1e-4)
        assert np.max(np.abs(n.amps)) == 0


def test_family_state_matches_the_public_constructors():
    # family_state builds D(base)|0;v> through the tangent frame
    for base in (0j, 0.4 - 0.3j):
        fam = StateFamily("wh", v=0.5)
        assert np.array_equal(family_state(fam, base).amps,
                              wh_squeezed(base, 0.5, fam.dim(base)).amps)
        assert np.array_equal(family_state(StateFamily("su2", v=0.5, param=2.0), base).amps,
                              su2_state(base, 0.5, 2.0).amps)


def test_numeric_tangent_step_guard():
    with pytest.raises(StepError):
        numeric_tangent(WH, TangentSpec(0, 1), 1e-8)
    with pytest.raises(StepError):
        numeric_tangent(WH, TangentSpec(0, 1), 1e-2)


@pytest.mark.parametrize("fam,base,direction", [
    (WH, 0.3 + 0.4j, 1 + 0j),
    (WH, 0.3 + 0.4j, 1j),
    (SU11_K1, 0.2, 1j),
    (SU11_K1, 0.1 - 0.4j, 1 + 0j),
    (StateFamily("su2", param=1.5), 0.5 + 0.2j, 1 + 0j),
    (StateFamily("wh", v=0.5), 0.4, 1j),
])
def test_numeric_vs_analytic_tangent(fam, base, direction):
    # central difference agrees after projection to O(h^2)
    psi = family_state(fam, base).normalized()
    spec = TangentSpec(base, direction)
    ta = project_orthogonal(psi, analytic_tangent(fam, spec))
    tn = project_orthogonal(psi, numeric_tangent(fam, spec, 1e-4))
    assert np.linalg.norm(ta.amps - tn.amps) < 1e-7


def numeric_pullback(fam, base, u, w, h=1e-4):
    """H(u, w) from central-difference tangents, projected: the oracle that
    shares no tangent code with ``pullback_matrix``."""
    psi = family_state(fam, base).normalized()
    tu, tw = (project_orthogonal(psi, numeric_tangent(fam, TangentSpec(base, d), h))
              for d in (u, w))
    return complex(np.vdot(tu.amps, tw.amps))


def test_oracle_grid_all_families():
    # 5x5 grids per family; numeric and analytic pullbacks agree to 1e-6
    grids = {
        WH: 1.5, SU2_J1: 1.0, SU11_K1: 0.55,
    }
    for fam, radius in grids.items():
        side = radius / np.sqrt(2)
        for x in np.linspace(-side, side, 5):
            for y in np.linspace(-side, side, 5):
                base = complex(x, y)
                v_num = numeric_pullback(fam, base, 1, 1j)
                v_ana = pullback_form(fam, base, 1, 1j).value
                assert abs(v_num - v_ana) < 1e-6


# ---------------------------------------------------------------------------
# closed forms and reports

def test_wh_coherent_pullback_grid():
    # the form is exactly conj(u) w at every base point
    for x in np.linspace(-1.4, 1.4, 5):
        for y in np.linspace(-1.4, 1.4, 5):
            rep = pullback_form(WH, complex(x, y), 1, 1j)
            assert rep.reference == 1j
            assert rep.abs_deviation < 1e-8
            assert rep.value.real == pytest.approx(0.0, abs=1e-8)
            assert rep.value.imag == pytest.approx(1.0, abs=1e-8)


def test_wh_squeezed_closed_form_all_pairs():
    for v in (-1.0, -0.5, 0.5, 1.0):
        fam = StateFamily("wh", v=v)
        for (u, w) in PAIRS:
            rep = pullback_form(fam, 0j, u, w)
            assert rep.abs_deviation < 1e-8


def test_wh_squeezed_metric_anisotropy():
    # metric in the real direction scales by e^{2v}
    base_val = pullback_form(WH, 0j, 1, 1).value.real
    for v in (-1.0, -0.5, 0.5, 1.0):
        val = pullback_form(StateFamily("wh", v=v), 0j, 1, 1).value.real
        assert val == pytest.approx(np.exp(2 * v) * base_val, abs=1e-8)


def test_wh_squeezed_symplectic_invariance():
    ref = pullback_form(WH, 0j, 1, 1j).value.imag
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        val = pullback_form(StateFamily("wh", v=v), 0j, 1, 1j).value.imag
        assert val == pytest.approx(ref, abs=1e-8)


def test_su2_symplectic_invariance_of_normalized_bracket():
    # after dividing out -<Lz>, the imaginary part is squeeze-independent
    ref = (pullback_form(SU2_J1, 0j, 1, 1j).value
           / squeeze_prefactor(SU2_J1)).imag
    for v in (-1.0, -0.5, 0.0, 0.5, 1.0):
        fam = StateFamily("su2", v=v, param=1.0)
        val = (pullback_form(fam, 0j, 1, 1j).value
               / squeeze_prefactor(fam)).imag
        assert val == pytest.approx(ref, abs=1e-8)


def test_wh_squeezed_value_translation_invariant():
    # displacements act transitively, so the value matches the origin value
    fam = StateFamily("wh", v=0.5)
    at0 = pullback_form(fam, 0j, 1, 1j).value
    rep = pullback_form(fam, 0.7 + 0.3j, 1, 1j)
    assert rep.reference is None  # no closed-form claim off the origin
    assert abs(rep.value - at0) < 1e-9


def test_squeezed_oscillator_pullback_takes_no_eigh(monkeypatch):
    # states and tangents of every oscillator family come from the
    # recurrence: a squeezed sweep, off the origin too, takes no eigh and
    # builds no N x N ladder matrix, while a displaced spin state still
    # takes its one eigh per spin
    from cohgeom import states

    calls = []
    eigh = np.linalg.eigh

    def counting(M):
        calls.append(len(M))
        return eigh(M)

    def refuse(N):
        raise AssertionError(f"an {N} x {N} ladder matrix on the oscillator path")

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(states, "ladder_matrices", refuse)
    pullback_module._pullback_matrix.cache_clear()
    for v in (0.0, 0.5, -1.0, 2.0):
        fam = StateFamily("wh", v=v)
        for base in (0j, 0.5, 1j, -1 + 2j):
            pullback_matrix(fam, base)
            numeric_tangent(fam, TangentSpec(base, 1j), 1e-4)
    assert calls == []
    states._unit_spectrum.cache_clear()
    pullback_matrix(StateFamily("su2", v=0.5, param=2.0), 0.3)
    assert calls == [5]


def test_su2_closed_form_j_half_v0():
    # prefactor -<Lz> = j = 1/2; bracket at u = w = 1 is 1
    rep = pullback_form(StateFamily("su2", param=0.5), 0j, 1, 1)
    assert rep.reference == pytest.approx(0.5)
    assert rep.abs_deviation < 1e-12


@pytest.mark.parametrize("j,v", [(0.5, 0.0), (1.0, 0.0), (2.0, 0.0),
                                 (1.0, 0.5), (2.0, 0.5)])
def test_su2_closed_form_all_pairs(j, v):
    fam = StateFamily("su2", v=v, param=j)
    pref = squeeze_prefactor(fam)
    for (u, w) in PAIRS:
        rep = pullback_form(fam, 0j, u, w)
        assert rep.abs_deviation < 1e-8
        # normalized bracket matches the quadrature-form expression
        u1, u2, w1, w2 = u.real, u.imag, w.real, w.imag
        bracket = ((u1 * w1 * np.exp(2 * v) + u2 * w2 * np.exp(-2 * v))
                   + 1j * (u1 * w2 - u2 * w1))
        assert rep.value / pref == pytest.approx(bracket, abs=1e-8)


def test_su2_printed_variant_differs_by_v_flip_and_conjugation():
    # the as-printed spin bracket equals the consistent one at -v, conjugated
    fam = StateFamily("su2", v=0.5, param=1.0)
    fam_neg = StateFamily("su2", v=-0.5, param=1.0)
    for (u, w) in PAIRS:
        printed = closed_form(fam, 0j, u, w, variant="printed")
        flipped = np.conj(closed_form(fam_neg, 0j, u, w))
        ratio = squeeze_prefactor(fam) / squeeze_prefactor(fam_neg)
        assert printed == pytest.approx(flipped * ratio, abs=1e-12)


def test_su2_prefactor_is_minus_lz_mean():
    for (j, v) in ((1.0, 0.5), (2.0, 0.3)):
        vac = su2_squeezed_vacuum(v, j)
        lz = spin_matrices(j).lz
        expected = -np.real(np.vdot(vac.amps, lz @ vac.amps))
        assert squeeze_prefactor(StateFamily("su2", v=v, param=j)) == \
            pytest.approx(expected)


def test_su11_closed_form_examples():
    rep = pullback_form(SU11_K1, 0j, 1, 1)
    assert rep.reference == pytest.approx(2.0)
    assert rep.abs_deviation < 1e-10
    # k = 2 at alpha = 0.5: 4/(0.75)^2
    rep = pullback_form(StateFamily("su11", param=2.0), 0.5, 1, 1)
    assert rep.reference == pytest.approx(4.0 / 0.75**2)
    assert rep.abs_deviation / abs(rep.reference) < 1e-9


@pytest.mark.parametrize("k", [0.75, 1.0, 2.0])
def test_su11_relative_accuracy_grid(k):
    fam = StateFamily("su11", param=k)
    side = 0.8 / np.sqrt(2)
    for x in np.linspace(-side, side, 4):
        for y in np.linspace(-side, side, 4):
            base = complex(x, y)
            rep = pullback_form(fam, base, 1, 1j)
            assert rep.abs_deviation / abs(rep.reference) < 1e-6


def test_closed_form_errors():
    with pytest.raises(UnsupportedBasePoint):
        closed_form(StateFamily("wh", v=0.5), 0.3, 1, 1)
    with pytest.raises(UnsupportedBasePoint):
        closed_form(SU2_J1, 0.3, 1, 1)
    with pytest.raises(DomainError):
        closed_form(SU11_K1, 1.2, 1, 1)


def test_unknown_closed_form_variant_rejected():
    for fam in (WH, StateFamily("wh", v=0.5), SU2_J1, SU11_K1):
        with pytest.raises(DomainError):
            closed_form(fam, 0j, 1, 1j, variant="bogus")


def test_reference_matrix_is_the_closed_form_on_the_pairs():
    for fam, base in ((WH, 0.4 - 1.1j), (StateFamily("wh", v=-0.7), 0j),
                      (StateFamily("su2", v=0.5, param=2.0), 0j),
                      (StateFamily("su11", param=1.5), 0.3 + 0.5j)):
        R = reference_matrix(fam, base)
        assert R[PAIR_ENTRIES].tolist() == [closed_form(fam, base, u, w)
                                            for (u, w) in PAIRS]
    with pytest.raises(UnsupportedBasePoint):
        reference_matrix(StateFamily("wh", v=0.5), 0.3)
    with pytest.raises(DomainError):
        reference_matrix(SU11_K1, 1.0)


def test_truncation_doubling_stability():
    # doubling the basis moves values by less than 10 x the declared budget
    for fam, base in ((WH, 0.8 + 0.3j), (SU11_K1, 0.4 - 0.2j),
                      (StateFamily("su11", param=2.0), 0.55 + 0.2j),
                      (StateFamily("wh", v=0.5), 0j)):
        n = fam.dim(base)
        fam2 = StateFamily(fam.family, fam.v, fam.param, trunc=2 * n)
        for (u, w) in PAIRS:
            v1 = pullback_form(fam, base, u, w).value
            v2 = pullback_form(fam2, base, u, w).value
            assert abs(v1 - v2) < 10 * fam.eps


# ---------------------------------------------------------------------------
# embedding verdicts

def test_verdict_wh_coherent():
    verdict = kahler_verdict(WH)
    assert verdict.is_kahler and verdict.is_symplectic
    assert verdict.max_dev < 1e-8


def test_verdict_wh_squeezed():
    verdict = kahler_verdict(StateFamily("wh", v=0.7))
    assert not verdict.is_kahler
    assert verdict.is_symplectic
    assert verdict.symplectic_dev < 1e-8 < verdict.max_dev


def test_verdict_su2_coherent():
    verdict = kahler_verdict(SU2_J1)
    assert verdict.is_kahler and verdict.is_symplectic


def test_verdict_su2_squeezed():
    verdict = kahler_verdict(StateFamily("su2", v=0.5, param=1.0))
    assert not verdict.is_kahler
    assert verdict.is_symplectic


def test_verdict_squeezed_only_at_the_origin():
    for fam in (StateFamily("wh", v=0.5), StateFamily("su2", v=0.5, param=2.0)):
        assert kahler_verdict(fam, bases=[0j]) == kahler_verdict(fam)
        with pytest.raises(UnsupportedBasePoint):
            kahler_verdict(fam, bases=[0j, 0.3])
    with pytest.raises(UnsupportedBasePoint):
        kahler_verdict(StateFamily("wh", v=0.5), bases=[5 + 5j])


def test_verdict_without_base_points_rejected():
    for fam in (WH, StateFamily("wh", v=0.5), SU2_J1):
        for bases in ((), [], np.array([], dtype=complex)):
            with pytest.raises(DomainError):
                kahler_verdict(fam, bases=bases)


def test_verdict_with_a_nan_form_is_neither(monkeypatch):
    # a NaN form at the second base point fails both gates, whatever the
    # other points read
    real = pullback_module.pullback_matrices

    def nan_at_second(fam, bases):
        G, ref = real(fam, bases)
        return np.where(np.equal(bases, 0.3 + 0.1j)[:, None, None], np.nan, G), ref

    monkeypatch.setattr(pullback_module, "pullback_matrices", nan_at_second)
    verdict = kahler_verdict(WH, bases=[0j, 0.3 + 0.1j, -0.2 + 0.4j])
    assert not verdict.is_kahler and not verdict.is_symplectic
    assert np.isnan(verdict.max_dev) and np.isnan(verdict.symplectic_dev)


def test_verdict_su11():
    verdict = kahler_verdict(SU11_K1, bases=[0j, 0.3, 0.2 + 0.4j])
    assert verdict.is_kahler and verdict.is_symplectic


# ---------------------------------------------------------------------------
# the cached 2x2 form: properties over random families, bases and directions

def _families():
    wh = st.builds(lambda v: StateFamily("wh", v=v),
                   st.sampled_from([0.0]) | st.floats(-1.0, 1.0).filter(lambda v: v))
    su2_coherent = st.builds(lambda j: StateFamily("su2", param=j),
                             st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    su2_squeezed = st.builds(lambda j, v: StateFamily("su2", v=v, param=j),
                             st.sampled_from([1.0, 2.0, 3.0]), st.floats(-1.0, 1.0))
    su11 = st.builds(lambda k: StateFamily("su11", param=k), st.floats(0.6, 2.0))
    return wh | su2_coherent | su2_squeezed | su11


def _point(radius):
    return st.builds(lambda r, t: complex(r * np.cos(t), r * np.sin(t)),
                     st.floats(0.0, radius), st.floats(0.0, 2 * np.pi))


_directions = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_case = st.tuples(_families(), _point(1.0), _directions, _directions)
_settings = settings(max_examples=40, deadline=None)


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


def _base(fam, base):
    # the disc family lives on |alpha| < 1; keep its samples inside 0.7
    return 0.7 * base if fam.family == "su11" else base


def _bracket(v, u, w):
    """The squeezed bracket, written out apart from ``reference_matrix``."""
    u1, u2, w1, w2 = u.real, u.imag, w.real, w.imag
    return ((u1 * w1 * np.exp(2 * v) + u2 * w2 * np.exp(-2 * v))
            + 1j * (u1 * w2 - u2 * w1))


_bracket_families = (
    st.builds(lambda v: StateFamily("wh", v=v), st.floats(-2.0, 2.0))
    | st.builds(lambda j, v: StateFamily("su2", v=v, param=j),
                st.sampled_from([1.0, 2.0, 3.0]), st.floats(-1.0, 1.0))
    | st.builds(lambda k: StateFamily("su11", param=k),
                st.floats(0.5, 3.0, exclude_min=True)))


@_settings
@given(_bracket_families, _point(0.89), _directions, _directions)
def test_closed_form_is_the_bracket(fam, base, u, w):
    # the spin scale -<Lz> has its own test; the bracket is checked here
    if fam.family == "su11":
        expected = 2 * fam.param * np.conj(u) * w / (1 - abs(base) ** 2) ** 2
    else:
        base, expected = 0j, squeeze_prefactor(fam) * _bracket(fam.v, u, w)
    assert _close(closed_form(fam, base, u, w), expected)


@_settings
@given(st.floats(-2.0, 2.0), st.floats(0.5, 3.0, exclude_min=True), _point(0.89),
       _directions, _directions)
def test_printed_variant_of_oscillator_and_disc(v, k, base, u, w):
    # the printed oscillator bracket is the conjugate of the consistent one
    # for v != 0; the coherent oscillator and the disc family have no printed
    # reading of their own
    printed = closed_form(StateFamily("wh", v=v), 0j, u, w, variant="printed")
    expected = np.conj(_bracket(v, u, w)) if v else np.conj(u) * w
    assert _close(printed, expected)
    assert closed_form(WH, 0j, u, w, "printed") == closed_form(WH, 0j, u, w)
    disc = StateFamily("su11", param=k)
    assert closed_form(disc, base, u, w, "printed") == closed_form(disc, base, u, w)


@_settings
@given(_point(1.5))
def test_doubling_oscillator_truncation_is_inert(base):
    assert cli.doubling_dev(WH, base) < 1e-7


@_settings
@given(_point(0.6), st.floats(0.75, 3.0))
def test_doubling_disc_truncation_is_inert(base, k):
    assert cli.doubling_dev(StateFamily("su11", param=k), base) < 1e-7


@_settings
@given(_case)
def test_form_equals_projected_tangent_product(case):
    fam, base, u, w = case
    base = _base(fam, base)
    psi = family_state(fam, base).normalized()
    tu = project_orthogonal(psi, analytic_tangent(fam, TangentSpec(base, u)))
    tw = project_orthogonal(psi, analytic_tangent(fam, TangentSpec(base, w)))
    assert _close(pullback_form(fam, base, u, w).value, inner(tu, tw))


@_settings
@given(_case)
def test_form_is_hermitian(case):
    fam, base, u, w = case
    base = _base(fam, base)
    huw = pullback_form(fam, base, u, w).value
    assert _close(pullback_form(fam, base, w, u).value, np.conj(huw))


@_settings
@given(_case, _directions, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_form_is_real_bilinear(case, z, a, b):
    fam, base, u, w = case
    base = _base(fam, base)

    def H(x, y):
        return pullback_form(fam, base, x, y).value

    assert _close(H(a * u + b * z, w), a * H(u, w) + b * H(z, w), 1e-11)
    assert _close(H(u, a * w + b * z), a * H(u, w) + b * H(u, z), 1e-11)


@_settings
@given(_case, st.floats(0.0, 2 * np.pi), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_form_is_phase_invariant(case, theta, c1, c2):
    # a phase e^{i theta(alpha)} on the family, with d theta = c1 dx + c2 dy,
    # multiplies the state and adds i d theta(u) psi to each tangent
    fam, base, u, w = case
    base = _base(fam, base)
    psi = family_state(fam, base).normalized()
    phase = np.exp(1j * theta)
    rotated = StateVector(phase * psi.amps, psi.basis, psi.tol)

    def gauged(x):
        t = analytic_tangent(fam, TangentSpec(base, x)).amps
        return StateVector(phase * (t + 1j * (c1 * x.real + c2 * x.imag) * psi.amps),
                           psi.basis, psi.tol)

    value = pullback_hermitian(rotated, gauged(u), gauged(w))
    assert _close(value, pullback_form(fam, base, u, w).value, 1e-11)


# ---------------------------------------------------------------------------
# caching and input validation

def test_pullback_matrix_is_cached_and_read_only(monkeypatch):
    pullback_module._pullback_matrix.cache_clear()
    fam = StateFamily("wh", v=0.5)
    calls = []
    real = pullback_module._frames
    monkeypatch.setattr(pullback_module, "_frames",
                        lambda *a: calls.append(a) or real(*a))
    base = 0.3 - 0.2j
    G = pullback_matrix(fam, base)
    # one frame (state and both tangents) per family and base point
    assert len(calls) == 1
    for (u, w) in PAIRS:
        pullback_form(fam, base, u, w)
    assert len(calls) == 1
    assert pullback_matrix(fam, base) is G
    assert not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 0.0
    assert G[0, 1] == pytest.approx(np.conj(G[1, 0]), abs=1e-14)


FRAME_CASES = [
    (WH, 0j), (WH, 1.3 - 0.4j), (StateFamily("wh", v=0.5), 0j),
    (StateFamily("wh", v=-1.0, eps=1e-10), 0.7j), (SU2_J1, 0j), (SU2_J1, 0.4 + 0.2j),
    (StateFamily("su2", v=0.5, param=2.0), 0j), (StateFamily("su2", param=2.5), -0.3j),
    (SU11_K1, 0j), (StateFamily("su11", param=2.0), 0.6 - 0.5j),
]


@pytest.mark.parametrize("fam, base", FRAME_CASES)
def test_pullback_matrix_is_the_state_vector_route_bit_for_bit(fam, base):
    # projecting the tangents on their arrays gives the bits of
    # StateVector.normalized and project_orthogonal
    pullback_module._pullback_matrix.cache_clear()
    psi, tangents = pullback_module._frame(fam, base, (1, 1j))
    x = psi.normalized()
    P = np.array([project_orthogonal(x, StateVector(t, psi.basis, psi.tol)).amps
                  for t in tangents])
    assert np.array_equal(pullback_matrix(fam, base), P.conj() @ P.T)


@pytest.mark.parametrize("fam, base", FRAME_CASES)
def test_reference_is_kept_beside_the_form(fam, base, monkeypatch):
    # pullback_form contracts the reference cached with G, the closed form's
    # own matrix, and claims none where the closed form raises
    pullback_module._pullback_matrix.cache_clear()
    G, ref = pullback_module._pullback_matrix(fam, complex(base))
    calls = []
    real = pullback_module.reference_matrix
    monkeypatch.setattr(pullback_module, "reference_matrix",
                        lambda *a: calls.append(a) or real(*a))
    for u, w in PAIRS + ((0.3 - 1j, 2 + 0.5j),):
        rep = pullback_form(fam, base, u, w)
        assert not calls
        try:
            assert rep.reference == closed_form(fam, base, u, w)
        except UnsupportedBasePoint:
            assert rep.reference is None and ref is None
        calls.clear()
    if ref is not None:
        assert np.array_equal(ref, real(fam, base)) and not ref.flags.writeable


def test_non_positive_budget_rejected():
    for eps in (0.0, -1.0):
        with pytest.raises(DomainError):
            StateFamily("su2", param=1.0, eps=eps)


def test_unknown_family_and_disc_squeezing_rejected():
    with pytest.raises(DomainError):
        StateFamily("nosuch")
    with pytest.raises(DomainError):
        StateFamily("su11", v=0.5, param=1.0)
    for k in (0.5, 0.25, -1.0):
        with pytest.raises(DomainError, match="k > 1/2"):
            StateFamily("su11", param=k)


def test_oscillator_family_takes_no_param():
    # the oscillator reads neither j nor k, so a value for them is an error
    for param in (3.0, -1.0, 0.5):
        with pytest.raises(DomainError, match="param applies to family su2 and su11"):
            StateFamily("wh", param=param)
    assert StateFamily("wh", param=0.0) == StateFamily("wh")


def test_squeezed_families():
    assert not WH.squeezed and not SU11_K1.squeezed
    assert StateFamily("wh", v=-0.5).squeezed and SU2_J1.squeezed


def test_non_finite_input_rejected_before_caching():
    nan = float("nan")
    for kwargs in ({"v": nan}, {"param": float("inf")}, {"eps": nan}):
        with pytest.raises(DomainError):
            StateFamily("wh", **kwargs)
    before = pullback_module._pullback_matrix.cache_info()
    for bad in (complex(nan, 0.0), complex(0.0, float("inf"))):
        for fam in (WH, SU2_J1, SU11_K1, StateFamily("wh", v=0.5)):
            with pytest.raises(DomainError):
                family_state(fam, bad)
            with pytest.raises(DomainError):
                pullback_matrix(fam, bad)
            with pytest.raises(DomainError):
                analytic_tangent(fam, TangentSpec(bad, 1))
    after = pullback_module._pullback_matrix.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


# ---------------------------------------------------------------------------
# the grid kernel: every row is its base point's one-point form

# a row's zeros past its own levels change only the order of BLAS sums: the
# largest relative gap |G_row - G_point| / max |G_point| over a sweep of
# 3,000 grids (1-30 bases, the families below) was 7.6 ulps; the bound is
# twice that, rounded up
GRID_ROUNDOFF = 16 * np.finfo(float).eps


@st.composite
def _grids(draw):
    size = draw(st.integers(1, 30))
    family = draw(st.sampled_from(["wh", "su11", "su2"]))
    # near and far radii in one grid, so that the rows run to different N
    small, large = {"wh": (0.5, 8.0), "su11": (0.2, 0.95), "su2": (0.5, 3.0)}[family]
    radii = draw(st.lists(st.one_of(st.floats(0, small), st.floats(0, large)),
                          min_size=size, max_size=size))
    phases = draw(st.lists(st.floats(0, 1), min_size=size, max_size=size))
    if family == "wh":
        fam = StateFamily("wh")
    elif family == "su11":
        fam = StateFamily("su11", param=draw(st.floats(0.6, 3.0)))
    else:
        fam = StateFamily("su2", param=draw(st.integers(1, 12)) / 2)
    return fam, [r * np.exp(2j * np.pi * p) for r, p in zip(radii, phases)]


def _error(fn):
    try:
        fn()
    except CohgeomError as exc:
        return type(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(_grids(), st.sampled_from(["nan", "inf", "disc", "tail"]), st.floats(0, 1))
def test_grid_rows_match_single_base(grid, bad, where):
    fam, bases = grid
    G, ref = pullback_module.pullback_matrices(fam, bases)
    assert G.shape == (len(bases), 2, 2) and not G.flags.writeable
    for row, base in zip(G, bases):
        one = pullback_matrix(fam, base)
        assert np.max(np.abs(row - one)) <= GRID_ROUNDOFF * np.max(np.abs(one))
    if ref is None:  # spin, claimed at the origin only
        assert fam.family == "su2" and any(base != 0 for base in bases)
    else:
        assert not ref.flags.writeable
        for row, base in zip(ref, bases):
            assert np.array_equal(row, reference_matrix(fam, base))
    # one bad base point raises what that point raises alone: a non-finite
    # alpha, |alpha| >= 1 on the disc, or a tail over the budget of a basis
    # of fixed size
    if bad == "disc" and fam.family != "su11":
        bad = "nan"
    if bad == "tail":
        fam, bases = StateFamily("wh", trunc=24), [base / 8 for base in bases]
    point = {"nan": complex(np.nan, 1.0), "inf": complex(0.0, np.inf),
             "disc": 1.0 + 0.5j, "tail": 6.0 + 0j}[bad]
    bad_grid = list(bases)
    bad_grid.insert(int(where * len(bad_grid)), point)
    alone = _error(lambda: pullback_matrix(fam, point))
    assert alone is not None
    assert _error(lambda: pullback_module.pullback_matrices(fam, bad_grid)) is alone
