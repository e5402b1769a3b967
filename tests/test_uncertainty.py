import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohgeom import (
    CohgeomError,
    DomainError,
    NonHermitian,
    NormalizationError,
    StateVector,
    fock_tag,
    ladder_matrices,
    min_uncertainty_residual,
    moments,
    quadrature_pair,
    rs_report,
    spin_matrices,
    squeezed_vacuum,
    su2_squeezed_vacuum,
    wh_coherent,
    wh_squeezed,
)
from cohgeom import uncertainty
from cohgeom.uncertainty import SLACK_TOL
from conftest import basis_state, random_state

FOCK = fock_tag()


def test_quadrature_commutator_interior():
    q, p = quadrature_pair(32)
    comm = q @ p - p @ q
    assert np.max(np.abs(comm[:30, :30] - 1j * np.eye(32)[:30, :30])) < 1e-12


def test_vacuum_moments():
    # matrix oracle: variances 1/2 each discussed at hbar = 1, C- = -hbar
    q, p = quadrature_pair(32)
    vac = wh_coherent(0, 32)
    m = moments(q, p, vac)
    assert m.alpha == pytest.approx(0.5, abs=1e-12)
    assert m.beta == pytest.approx(0.5, abs=1e-12)
    assert m.c_minus == pytest.approx(-1.0, abs=1e-12)
    assert m.c_plus == pytest.approx(0.0, abs=1e-12)


def test_moments_with_explicit_hbar():
    q, p = quadrature_pair(32, hbar=2.0)
    vac = wh_coherent(0, 32)
    m = moments(q, p, vac)
    assert m.c_minus == pytest.approx(-2.0, abs=1e-12)
    assert m.alpha * m.beta == pytest.approx(1.0, abs=1e-12)


def test_operator_commuting_with_itself():
    q, _ = quadrature_pair(16)
    psi = wh_coherent(0.3, 16)
    m = moments(q, q, psi)
    assert m.c_minus == pytest.approx(0.0, abs=1e-12)


def test_eigenvector_has_zero_variance():
    from cohgeom import spin_tag

    spin = spin_matrices(1.0)
    psi = basis_state(3, 0, spin_tag(1.0))  # m = +1 eigenvector of Lz
    m = moments(spin.lz, spin.lx, psi)
    assert m.alpha == pytest.approx(0.0, abs=1e-14)


def test_moments_rejects_non_hermitian():
    q, p = quadrature_pair(8)
    psi = wh_coherent(0, 8)
    with pytest.raises(NonHermitian):
        moments(q + 1j * np.eye(8), p, psi)


def test_moments_rejects_unnormalized():
    q, p = quadrature_pair(8)
    bad = StateVector(np.full(8, 0.1 + 0j), FOCK)
    with pytest.raises(NormalizationError):
        moments(q, p, bad)


def test_coherent_state_saturates():
    q, p = quadrature_pair(64)
    psi = wh_coherent(1.0, 64)
    rep = rs_report(q, p, psi)
    assert rep.heisenberg_ok and rep.anticomm_ok and rep.rs_ok
    assert abs(rep.slack_rs) < 1e-9
    assert rep.delta_a * rep.delta_b == pytest.approx(0.5, abs=1e-9)


def test_squeezed_state_saturates_with_anisotropy():
    q, p = quadrature_pair(64)
    psi = wh_squeezed(0, 0.5, 64)
    rep = rs_report(q, p, psi)
    assert abs(rep.slack_rs) < 1e-9
    assert rep.delta_a * rep.delta_b == pytest.approx(0.5, abs=1e-9)
    # q variance shrinks, p variance grows for v > 0
    assert rep.delta_a / rep.delta_b == pytest.approx(np.exp(-2 * 0.5), abs=1e-8)


def test_squeezed_variance_ratio_scaling():
    q, p = quadrature_pair(96)
    base = rs_report(q, p, wh_squeezed(0, 0.0, 96))
    ratio0 = base.delta_a / base.delta_b
    for v in (-0.5, 0.3, 0.8):
        rep = rs_report(q, p, wh_squeezed(0, v, 96))
        assert rep.delta_a / rep.delta_b == pytest.approx(
            np.exp(-2 * v) * ratio0, abs=1e-8)


def test_random_states_satisfy_all_inequalities(rng):
    q, p = quadrature_pair(16)
    for _ in range(100):
        psi = random_state(rng, 16, FOCK)
        rep = rs_report(q, p, psi)
        assert rep.heisenberg_ok and rep.anticomm_ok and rep.rs_ok
        # the strongest bound implies the weaker two on computed values
        if rep.rs_ok:
            assert rep.heisenberg_ok and rep.anticomm_ok


def test_min_uncertainty_coherent():
    q, p = quadrature_pair(64)
    psi = wh_coherent(1.0, 64)
    assert min_uncertainty_residual(q, p, 1.0, psi) < 1e-9


def test_min_uncertainty_matched_squeezed():
    q, p = quadrature_pair(64)
    for v in (0.25, 0.5):
        psi = wh_squeezed(0.3, v, 64)
        lam = float(np.exp(v))
        assert min_uncertainty_residual(q, p, lam, psi) < 1e-9


def test_min_uncertainty_mismatched_gap():
    # wrong lambda leaves a residual sqrt(2) |sinh(v - v0)|
    q, p = quadrature_pair(64)
    psi = squeezed_vacuum(0.5, 64)
    resid = min_uncertainty_residual(q, p, 1.0, psi)
    assert resid > 0.01
    assert resid == pytest.approx(np.sqrt(2) * np.sinh(0.5), abs=1e-8)


def test_min_uncertainty_rejects_bad_lambda():
    q, p = quadrature_pair(16)
    psi = wh_coherent(0, 16)
    for lam in (-1.0, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            min_uncertainty_residual(q, p, lam, psi)


def test_su2_coherent_saturation():
    # lowest weight: dLx dLy = |<Lz>| / 2 with zero anticommutator part
    for j in (0.5, 1.0, 2.0):
        spin = spin_matrices(j)
        vac = su2_squeezed_vacuum(0.0, j)
        m = moments(spin.lx, spin.ly, vac)
        assert m.c_plus == pytest.approx(0.0, abs=1e-12)
        lz_mean = np.real(np.vdot(vac.amps, spin.lz @ vac.amps))
        assert m.delta_a * m.delta_b == pytest.approx(abs(lz_mean) / 2, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_uncertainty_inequalities_hold_on_random_states(dim, seed):
    rng = np.random.default_rng(seed)
    A, B = (M + M.conj().T for M in (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(2)))
    rep = rs_report(A, B, random_state(rng, dim, FOCK))
    assert rep.heisenberg_ok and rep.anticomm_ok and rep.rs_ok
    assert rep.slack_rs >= -1e-10


def _random_hermitian(rng, dim):
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return M + M.conj().T


def _dense_oracle(A, B, lam, psi):
    """Moments and residual through the N x N operators A - a, B - b and
    lam A + i B / lam, as the uncertainty layer once computed them."""
    x, N = psi.amps, psi.dim
    a = np.real(np.vdot(x, A @ x))
    b = np.real(np.vdot(x, B @ x))
    Ax, Bx = (A - a * np.eye(N)) @ x, (B - b * np.eye(N)) @ x
    alpha, beta = np.real(np.vdot(Ax, Ax)), np.real(np.vdot(Bx, Bx))
    c_plus = 2.0 * np.real(np.vdot(Ax, Bx))
    c_minus = np.real(1j * (np.vdot(Ax, Bx) - np.vdot(Bx, Ax)))
    r = (lam * A + 1j * B / lam) @ x - (lam * a + 1j * b / lam) * x
    if psi.basis.kind == "fock":
        r = r[:-1]
    return dict(a=a, b=b, alpha=alpha, beta=beta, c_plus=c_plus,
                c_minus=c_minus, residual=np.linalg.norm(r))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 96), st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0),
       st.booleans())
def test_moments_match_dense_oracle(dim, seed, log_lam, quadratures):
    rng = np.random.default_rng(seed)
    if quadratures:
        A, B = quadrature_pair(dim)
    else:
        A, B = _random_hermitian(rng, dim), _random_hermitian(rng, dim)
    psi = random_state(rng, dim, FOCK)
    lam = 10.0 ** log_lam
    ref = _dense_oracle(A, B, lam, psi)
    # relative to the scale of each field: |A|, |A||B| and the residual's
    na, nb = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
    scale = dict(a=na, b=nb, alpha=na * na, beta=nb * nb, c_plus=na * nb,
                 c_minus=na * nb, residual=lam * na + nb / lam)
    m = moments(A, B, psi)
    got = dict(vars(m), residual=min_uncertainty_residual(A, B, lam, psi))
    for key, want in ref.items():
        assert abs(got[key] - want) <= 1e-12 * scale[key], key
    rep = rs_report(A, B, psi)
    prod = np.sqrt(ref["alpha"]) * np.sqrt(ref["beta"])
    bounds = (abs(ref["c_minus"]), abs(ref["c_plus"]),
              np.hypot(ref["c_plus"], ref["c_minus"]))
    assert (rep.heisenberg_ok, rep.anticomm_ok, rep.rs_ok) == tuple(
        prod >= bound / 2 - SLACK_TOL for bound in bounds)
    assert abs(rep.slack_rs - (prod - bounds[2] / 2)) <= 1e-12 * na * nb
    assert abs(rep.delta_a - np.sqrt(ref["alpha"])) <= 1e-12 * na
    assert abs(rep.delta_b - np.sqrt(ref["beta"])) <= 1e-12 * nb


class _CountedOperator(np.ndarray):
    """An operator that counts, per source name, every product taken by it or
    by a matrix derived from it (A - a I, lam A + i B / lam), with a vector or
    with a matrix, whether through ``@`` or through one of numpy's product
    functions."""

    PRODUCTS = (np.einsum, np.dot, np.inner, np.tensordot, np.matmul)

    def __array_finalize__(self, obj):
        self.names = getattr(obj, "names", frozenset())
        self.products = getattr(obj, "products", None)

    def _count(self, operands):
        tagged = [arr for arr in operands if isinstance(arr, _CountedOperator)]
        if tagged:
            tagged[0].products.update(frozenset().union(*(arr.names for arr in tagged)))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        tagged = [arr for arr in inputs if isinstance(arr, _CountedOperator)]
        names = frozenset().union(*(arr.names for arr in tagged))
        out = getattr(ufunc, method)(*(np.asarray(arr) for arr in inputs), **kwargs)
        if ufunc is np.matmul:
            self._count(inputs)
        elif isinstance(out, np.ndarray) and out.ndim == 2:
            out = out.view(_CountedOperator)
            out.names, out.products = names, tagged[0].products
        return out

    def __array_function__(self, func, types, args, kwargs):
        if func in self.PRODUCTS:
            self._count(args)
        plain = [np.asarray(a) if isinstance(a, _CountedOperator) else a for a in args]
        return func(*plain, **kwargs)


@pytest.mark.parametrize("call", [
    lambda A, B, psi: moments(A, B, psi),
    lambda A, B, psi: rs_report(A, B, psi),
    lambda A, B, psi: min_uncertainty_residual(A, B, 0.7, psi),
], ids=["moments", "rs_report", "min_uncertainty_residual"])
def test_each_operator_applied_once(call):
    q, p = quadrature_pair(24)
    psi = wh_squeezed(0.4 - 0.2j, 0.3, 24)
    products = Counter()
    A, B = q.view(_CountedOperator), p.view(_CountedOperator)
    A.names, B.names = frozenset("A"), frozenset("B")
    A.products = B.products = products
    assert call(A, B, psi) == call(q, p, psi)
    assert products == {"A": 1, "B": 1}


@pytest.mark.parametrize("apply", [
    lambda M, x: M @ x,
    lambda M, x: np.einsum("ij,j->i", M, x),
    lambda M, x: np.dot(M, x),
    lambda M, x: (M - 0.5 * M) @ x,
    lambda M, x: (M @ M) @ x,
    lambda M, x: np.einsum("ij,jk,k->i", M, M, x),
], ids=["matmul", "einsum", "dot", "derived", "squared", "einsum-squared"])
def test_counted_operator_sees_every_kernel(apply):
    # the counter behind test_each_operator_applied_once: a second
    # application by any of these kernels would show as a count of 2, and a
    # product with the operator itself (A @ A) counts like one with a vector
    q, _ = quadrature_pair(6)
    A = q.view(_CountedOperator)
    A.names, A.products = frozenset("A"), Counter()
    x = np.arange(6.0) + 1j
    for _ in range(2):
        assert np.array_equal(apply(A, x), apply(q, x))
    assert A.products == {"A": 2}


def test_hermiticity_gate_is_entrywise():
    # many entries just inside the gate: the Frobenius norm of A - A+ is far
    # above HERMITICITY_TOL, yet every entry passes, so A is accepted
    from cohgeom.uncertainty import HERMITICITY_TOL

    q, p = quadrature_pair(32)
    psi = wh_coherent(0.3, 32)
    skew = np.triu(np.full((32, 32), 0.45 * HERMITICITY_TOL), 1)
    inside = q + 1j * (skew + skew.T)  # |A - A+| = 0.9 tol off the diagonal
    assert np.linalg.norm(inside - inside.conj().T) > 10 * HERMITICITY_TOL
    assert moments(inside, p, psi).c_minus == pytest.approx(-1.0, abs=1e-9)
    outside = q.copy()
    outside[3, 7] += 0.6j * HERMITICITY_TOL  # |A - A+| = 1.2 tol at one pair
    outside[7, 3] += 0.6j * HERMITICITY_TOL
    with pytest.raises(NonHermitian, match="1.200e-12"):
        moments(q, outside, psi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2)])
def test_non_finite_operator_is_not_hermitian(bad, where):
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    A = q.astype(complex)
    A[where] = bad
    for call in (lambda: moments(A, p, psi), lambda: moments(p, A, psi),
                 lambda: rs_report(A, p, psi),
                 lambda: min_uncertainty_residual(A, p, 1.0, psi)):
        with pytest.raises(NonHermitian):
            call()


def test_operator_shape_mismatch_is_typed():
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    q9, _ = quadrature_pair(9)
    for A, B in ((q, q9), (q9, p), (q[:, :7], p), (q, p[0]), (q[0], p)):
        for call in (moments, rs_report,
                     lambda A, B, psi: min_uncertainty_residual(A, B, 1.0, psi)):
            with pytest.raises(NormalizationError):
                call(A, B, psi)


def test_quadrature_pair_is_cached_and_read_only():
    q, p = quadrature_pair(40, 0.5)
    again = quadrature_pair(40, 0.5)
    assert again[0] is q and again[1] is p
    assert quadrature_pair(40)[0] is not q  # another hbar, another pair
    for arr in (q, p):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    # the shared arrays still hold [q, p] = i hbar on the interior block
    comm = q @ p - p @ q
    assert np.max(np.abs(comm[:38, :38] - 0.5j * np.eye(38))) < 1e-12


def test_quadrature_pair_cannot_be_made_writeable():
    # the cached arrays are backed by bytes, so the read-only promise holds
    for arr in quadrature_pair(12):
        for view in (arr, arr.base):
            with pytest.raises(ValueError):
                view.setflags(write=True)
            assert not view.flags.writeable


def _bytes_backed(M):
    return np.frombuffer(M.tobytes(), dtype=M.dtype).reshape(M.shape)


def _full_checks(monkeypatch):
    """Names of the operators the full Hermiticity check runs on, from an
    empty memo."""
    seen = []
    full = uncertainty._full_check

    def counted(M, name):
        seen.append(name)
        return full(M, name)

    monkeypatch.setattr(uncertainty, "_full_check", counted)
    monkeypatch.setattr(uncertainty, "_PASSED", type(uncertainty._PASSED)())
    monkeypatch.setattr(uncertainty, "_LAST_CENTRED", None)
    return seen


def test_one_full_check_per_cached_operator(monkeypatch):
    q, p = quadrature_pair(28, 0.7)
    psi = wh_squeezed(0.3 + 0.1j, -0.2, 28)
    seen = _full_checks(monkeypatch)
    moments(q, p, psi)
    rs_report(q, p, psi)
    min_uncertainty_residual(q, p, 0.9, psi)
    moments(p, q, psi)
    assert seen == ["A", "B"]


@pytest.mark.parametrize("immutable", [False, True], ids=["writeable", "bytes-backed"])
def test_non_hermitian_raises_on_every_call(monkeypatch, immutable):
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    bad = q + 1e-9j * np.eye(8)
    if immutable:
        bad = _bytes_backed(bad)
    seen = _full_checks(monkeypatch)
    for _ in range(2):
        with pytest.raises(NonHermitian, match="2.000e-09"):
            moments(bad, p, psi)
    assert seen == ["A", "A"]


def test_writeable_operator_is_checked_on_every_call(monkeypatch):
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    A = q.copy()
    seen = _full_checks(monkeypatch)
    moments(A, p, psi)
    A[2, 5] += 1e-6  # no longer Hermitian
    with pytest.raises(NonHermitian, match="1.000e-06"):
        moments(A, p, psi)
    assert seen == ["A", "B", "A"]
    # read-only arrays whose memory is writeable are not trusted either
    A[2, 5] = q[2, 5]
    for frozen in (A[:, :], q.copy()):
        frozen.setflags(write=False)
        for _ in range(2):
            rs_report(frozen, p, psi)
    assert seen == ["A", "B", "A"] + ["A"] * 4


def test_pass_is_trusted_only_for_the_same_array(monkeypatch):
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    seen = _full_checks(monkeypatch)
    A = _bytes_backed(q)
    for _ in range(2):
        moments(A, p, psi)
    assert seen == ["A", "B"]
    # the memo forgets a dead array, and an array that takes its id is
    # checked afresh
    assert len(uncertainty._PASSED) == 2
    del A
    assert len(uncertainty._PASSED) == 1
    flat = _bytes_backed(q + 1e-9j * np.eye(8)).base
    reused = 0
    for _ in range(20):
        good = _bytes_backed(q)
        moments(good, p, psi)
        key = id(good)
        del good
        bad = flat.reshape(8, 8)  # a new view, likely where good was
        reused += id(bad) == key
        with pytest.raises(NonHermitian):
            moments(bad, p, psi)
    assert reused
    # a dtype reassigned in place is another matrix, checked afresh
    B = _bytes_backed(p)
    moments(q, B, psi)
    B.dtype = np.dtype(">c16")
    with pytest.raises(NonHermitian):
        moments(q, B, psi)


def _counted_pair(N):
    # read-only views of the cached quadrature pair that count their products
    q, p = quadrature_pair(N)
    A, B = q.view(_CountedOperator), p.view(_CountedOperator)
    A.names, B.names = frozenset("A"), frozenset("B")
    A.products = B.products = Counter()
    return A, B


def _three_calls(A, B, psi):
    return (moments(A, B, psi), rs_report(A, B, psi),
            min_uncertainty_residual(A, B, 1.3, psi),
            min_uncertainty_residual(A, B, 0.7, psi))


def test_one_state_is_centred_once_across_the_calls():
    # moments, rs_report and two residuals on one state apply each immutable
    # operator once in all, and give the bits of operators that are never
    # kept (writeable copies)
    A, B = _counted_pair(24)
    psi = wh_squeezed(0.4 - 0.2j, 0.3, 24)
    got = _three_calls(A, B, psi)
    assert A.products == {"A": 1, "B": 1}
    q, p = quadrature_pair(24)
    assert got == _three_calls(q.copy(), p.copy(), psi)
    # a new StateVector with the same amplitudes and tol is the same state
    _three_calls(A, B, StateVector(psi.amps, psi.basis, psi.tol))
    assert A.products == {"A": 1, "B": 1}
    # the centred vectors handed out are read-only
    for v in uncertainty._centred(A, B, psi)[2:]:
        assert not v.flags.writeable


def test_writeable_operator_is_never_kept():
    # a change made in place between calls is seen: doubling A quadruples
    # its variance exactly
    q, p = quadrature_pair(32)
    psi = wh_squeezed(0.2 + 0.1j, -0.4, 32)
    A = q.copy()
    before = moments(A, p, psi)
    A *= 2.0
    after = moments(A, p, psi)
    assert after.alpha == 4.0 * before.alpha and after.a == 2.0 * before.a
    products = Counter()
    C = q.copy().view(_CountedOperator)
    C.names, C.products = frozenset("A"), products
    for _ in range(2):
        moments(C, p, psi)
    assert products == {"A": 2}


def test_another_tol_runs_the_normalization_gate_again():
    q, p = quadrature_pair(8)
    amps = wh_coherent(0.2, 8).amps * (1 + 1e-6)
    loose = StateVector(amps, fock_tag(), tol=1e-3)
    moments(q, p, loose)
    for call in (moments, rs_report,
                 lambda A, B, psi: min_uncertainty_residual(A, B, 1.0, psi)):
        with pytest.raises(NormalizationError):
            call(q, p, StateVector(amps, fock_tag(), tol=1e-12))
    assert moments(q, p, loose) == moments(q.copy(), p, loose)


def test_failed_checks_raise_on_every_call():
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    bad = _bytes_backed(q + 1e-9j * np.eye(8))
    off = StateVector(psi.amps * 1.01, psi.basis)
    for _ in range(2):
        for call in (moments, rs_report,
                     lambda A, B, psi: min_uncertainty_residual(A, B, 1.0, psi)):
            with pytest.raises(NonHermitian):
                call(bad, p, psi)
            with pytest.raises(NonHermitian):
                call(q, bad, psi)
            with pytest.raises(NormalizationError):
                call(q, p, off)


def test_kept_centring_holds_no_live_reference():
    # the memo refers to its operators weakly: deleting them frees them,
    # and an array that takes the dead one's place is not trusted
    q, p = quadrature_pair(8)
    psi = wh_coherent(0.2, 8)
    A, B = _bytes_backed(q), _bytes_backed(p)
    refs = weakref.ref(A), weakref.ref(B)
    moments(A, B, psi)
    assert uncertainty._LAST_CENTRED is not None
    del A, B
    assert [r() for r in refs] == [None, None]
    assert moments(_bytes_backed(q), _bytes_backed(p), psi) == moments(q, p, psi)


@pytest.mark.parametrize("hbar", [0.0, -1.0, -0.0, np.nan, np.inf, -np.inf])
def test_quadrature_pair_rejects_bad_hbar(hbar):
    before = quadrature_pair.cache_info().currsize
    with pytest.raises(DomainError, match="hbar must be finite and positive"):
        quadrature_pair(8, hbar)
    assert quadrature_pair.cache_info().currsize == before


@pytest.mark.parametrize("N", [2.5, 7.01, np.nan, np.inf])
def test_non_integral_levels_raise_before_caching(N):
    caches = (quadrature_pair.cache_info, ladder_matrices.cache_info)
    before = [info().currsize for info in caches]
    for call in (lambda: quadrature_pair(N), lambda: ladder_matrices(N)):
        with pytest.raises(CohgeomError, match="whole number of levels"):
            call()
    assert [info().currsize for info in caches] == before
    # a whole number given as a float is a size
    assert np.array_equal(quadrature_pair(7.0)[0], quadrature_pair(7)[0])
    assert ladder_matrices(7.0).dim == 7 and type(ladder_matrices(7.0).dim) is int
