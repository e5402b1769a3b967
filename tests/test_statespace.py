import numpy as np
import pytest

from cohgeom import (
    BasisMismatch,
    DomainError,
    NormalizationError,
    PullbackReport,
    StateVector,
    basis_state,
    fock_tag,
    fs_distance,
    inner,
    project_orthogonal,
    pullback_hermitian,
    spin_tag,
)
from conftest import random_state

FOCK = fock_tag()


def test_inner_orthonormal_basis_vectors():
    e0 = basis_state(4, 0, FOCK)
    e1 = basis_state(4, 1, FOCK)
    assert inner(e0, e0) == 1
    assert inner(e0, e1) == 0


def test_inner_hand_expansion():
    # (1, i)/sqrt2 against itself: (1*1 + (-i)(i))/2 = 1
    v = StateVector(np.array([1, 1j]) / np.sqrt(2), FOCK)
    assert inner(v, v) == pytest.approx(1)


def test_inner_conjugate_linear_first_slot(rng):
    u = random_state(rng, 6, FOCK)
    v = random_state(rng, 6, FOCK)
    c = 0.3 - 1.2j
    cu = StateVector(c * u.amps, FOCK, tol=1.0)
    assert inner(cu, v) == pytest.approx(np.conj(c) * inner(u, v))


def test_inner_basis_mismatch():
    u = basis_state(4, 0, FOCK)
    v = basis_state(5, 0, FOCK)
    w = basis_state(4, 0, spin_tag(1.5))
    with pytest.raises(BasisMismatch):
        inner(u, v)
    with pytest.raises(BasisMismatch):
        inner(u, w)


def test_fs_distance_identical_and_orthogonal():
    e0 = basis_state(3, 0, FOCK)
    e1 = basis_state(3, 1, FOCK)
    assert fs_distance(e0, e0) == 0
    assert fs_distance(e0, e1) == pytest.approx(np.pi)


def test_fs_distance_equal_superposition():
    # |overlap| = 1/sqrt2 so delta = 2 arccos(1/sqrt2) = pi/2
    e0 = basis_state(2, 0, FOCK)
    plus = StateVector(np.array([1, 1]) / np.sqrt(2), FOCK)
    assert fs_distance(e0, plus) == pytest.approx(np.pi / 2)


def test_fs_distance_requires_normalized():
    e0 = basis_state(2, 0, FOCK)
    big = StateVector([2.0, 0.0], FOCK)
    with pytest.raises(NormalizationError):
        fs_distance(e0, big)


def test_fs_distance_is_ray_metric(rng):
    # symmetry, identity of indiscernibles up to phase, triangle inequality
    for _ in range(200):
        a = random_state(rng, 5, FOCK)
        b = random_state(rng, 5, FOCK)
        c = random_state(rng, 5, FOCK)
        dab = fs_distance(a, b)
        assert dab == pytest.approx(fs_distance(b, a), abs=1e-12)
        assert dab <= fs_distance(a, c) + fs_distance(c, b) + 1e-10
        phase = np.exp(1j * 0.7)
        assert fs_distance(a, StateVector(phase * a.amps, FOCK)) < 1e-6


def test_fs_distance_resolves_small_angles():
    # 2 arccos |<a|b>| cannot see angles below about 3e-8: the overlap
    # cos(delta/2) rounds to 1 there; the chord formula returns delta itself
    for delta in (1e-12, 1e-9, 3e-8, 1e-4):
        a = StateVector([1.0, 0.0], FOCK)
        b = StateVector(np.exp(0.3j) * np.array([np.cos(delta / 2), np.sin(delta / 2)]),
                        FOCK)
        assert fs_distance(a, b) == pytest.approx(delta, rel=1e-6)


@pytest.mark.parametrize("amps, tol", [([], 1e-12), ([[1.0]], 1e-12),
                                       ([1.0], 0.0), ([1.0], -1e-12)])
def test_statevector_rejects_bad_input_with_a_typed_error(amps, tol):
    with pytest.raises(DomainError):
        StateVector(amps, FOCK, tol)


def test_project_orthogonal_annihilates_own_ray():
    e0 = basis_state(3, 0, FOCK)
    out = project_orthogonal(e0, e0)
    assert np.allclose(out.amps, 0)


def test_project_orthogonal_leaves_orthogonal_untouched():
    e0 = basis_state(3, 0, FOCK)
    e1 = basis_state(3, 1, FOCK)
    assert np.allclose(project_orthogonal(e0, e1).amps, e1.amps)


def test_project_orthogonal_subtracts_component():
    e0 = basis_state(2, 0, FOCK)
    b = StateVector([1.0, 1.0], FOCK)
    out = project_orthogonal(e0, b)
    assert np.allclose(out.amps, [0.0, 1.0])
    assert inner(e0, out) == 0


def test_pullback_hermitian_examples():
    e0 = basis_state(2, 0, FOCK)
    e1 = basis_state(2, 1, FOCK)
    assert pullback_hermitian(e0, e1, e1) == pytest.approx(1)
    assert pullback_hermitian(e0, e0, e0) == pytest.approx(0)
    a = StateVector([1.0, 1.0], FOCK)
    assert pullback_hermitian(e0, a, e1) == pytest.approx(1)


def test_pullback_hermitian_is_hermitian(rng):
    for _ in range(100):
        psi = random_state(rng, 6, FOCK)
        a = StateVector(rng.standard_normal(6) + 1j * rng.standard_normal(6), FOCK)
        b = StateVector(rng.standard_normal(6) + 1j * rng.standard_normal(6), FOCK)
        lhs = pullback_hermitian(psi, a, b)
        rhs = np.conj(pullback_hermitian(psi, b, a))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pullback_hermitian_gauge_invariance(rng):
    for _ in range(50):
        psi = random_state(rng, 5, FOCK)
        a = StateVector(rng.standard_normal(5) + 1j * rng.standard_normal(5), FOCK)
        b = StateVector(rng.standard_normal(5) + 1j * rng.standard_normal(5), FOCK)
        rotated = StateVector(np.exp(1j * 1.3) * psi.amps, FOCK)
        v1 = pullback_hermitian(psi, a, b)
        v2 = pullback_hermitian(rotated, a, b)
        assert v1 == pytest.approx(v2, abs=1e-12)


def test_statevector_records_declared_tolerance():
    loose = StateVector([1.0, 1e-5], FOCK, tol=1e-3)
    assert loose.is_normalized()
    tight = StateVector([1.0, 1e-5], FOCK, tol=1e-12)
    assert not tight.is_normalized()


def test_statevector_amps_read_only():
    psi = basis_state(3, 0, FOCK)
    with pytest.raises(ValueError):
        psi.amps[0] = 2.0


def test_pullback_report_fields():
    rep = PullbackReport.from_value(1 + 2j, reference=1 + 1j)
    assert rep.value.real == 1.0
    assert rep.value.imag == 2.0
    assert rep.abs_deviation == pytest.approx(1.0)
    free = PullbackReport.from_value(0.5j)
    assert free.reference is None and free.abs_deviation is None
