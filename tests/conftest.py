import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def su2_tilde_minus(spin, v: float) -> np.ndarray:
    """Squeezed spin lowering combination e^v Lx - i e^{-v} Ly.

    Equals sqrt(2) (sinh v L+ + cosh v L-) with L+- = (Lx +- i Ly)/sqrt(2);
    the scale does not affect its kernel.
    """
    return np.exp(v) * spin.lx - 1j * np.exp(-v) * spin.ly


def random_state(rng, dim, basis, tol=1e-12):
    """Random normalized state on the given basis."""
    from cohgeom import StateVector

    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amps / np.linalg.norm(amps), basis, tol)


def basis_state(dim, index, basis):
    """The basis vector e_index of the given space; DomainError unless dim is
    a whole number."""
    from cohgeom import StateVector
    from cohgeom.errors import check_levels

    amps = np.zeros(check_levels(dim), dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, basis)


def fs_distance(psi, phi):
    """Geodesic distance between the rays of two normalized states: the
    tests' oracle of ray equality.

    Returns delta in [0, pi] with |<psi|phi>| = cos(delta/2).  Orthogonal
    rays are at distance pi; equal rays at distance 0.  It is taken as
    4 arcsin(|u - w| / 2) for the unit vectors u, w of the two rays with
    <u|w> >= 0, which resolves small distances that 2 arccos |<psi|phi>|
    loses below about 3e-8.
    """
    from cohgeom.statespace import _require_normalized, _require_same_basis, inner

    _require_same_basis(psi, phi)
    _require_normalized(psi, "fs_distance")
    _require_normalized(phi, "fs_distance")
    overlap = inner(psi, phi)
    phase = np.conj(overlap) / abs(overlap) if overlap else 1.0
    chord = psi.amps / psi.norm - phase * phi.amps / phi.norm
    return 4.0 * float(np.arcsin(0.5 * np.linalg.norm(chord)))


def pullback_hermitian(psi, a, b):
    """Projected Hermitian form <a|b> - <a|psi><psi|b> at the ray of psi,
    from inner products alone: the tests' oracle of the pulled-back form.

    Hermitian in (a, b): swapping the arguments conjugates the result.  The
    value is unchanged if psi is replaced by a unit-phase multiple.
    """
    from cohgeom.statespace import _require_normalized, _require_same_basis, inner

    _require_same_basis(psi, a)
    _require_same_basis(psi, b)
    _require_normalized(psi, "pullback_hermitian")
    return inner(a, b) - inner(a, psi) * inner(psi, b)


class Poly2:
    """Exact bivariate polynomial in (s, t): {(i, j): coeff}.

    Test-side oracle for bracket identities; partial derivatives and products
    are exact, so Jacobi-identity checks carry no differentiation error.
    """

    def __init__(self, coeffs):
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}

    def __call__(self, s, t):
        return sum(c * s**i * t**j for (i, j), c in self.coeffs.items())

    def d_s(self):
        return Poly2({(i - 1, j): c * i for (i, j), c in self.coeffs.items()
                      if i > 0})

    def d_t(self):
        return Poly2({(i, j - 1): c * j for (i, j), c in self.coeffs.items()
                      if j > 0})

    def __mul__(self, other):
        out = {}
        for (i, j), c in self.coeffs.items():
            for (k, l), d in other.coeffs.items():
                out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
        return Poly2(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return Poly2(out)

    def scale(self, c):
        return Poly2({k: c * v for k, v in self.coeffs.items()})

    def as_field(self):
        from cohgeom.sut import Field2D

        ds, dt = self.d_s(), self.d_t()
        return Field2D(value=self, d_s=ds, d_t=dt)


def poly_poisson(f: Poly2, g: Poly2) -> Poly2:
    """Exact orbit bracket t (f_s g_t - f_t g_s) for polynomial fields."""
    t = Poly2({(0, 1): 1.0})
    return t * (f.d_s() * g.d_t() - f.d_t() * g.d_s())


def doubling_sized_amplitudes(alpha, family: str, param: float, eps: float):
    """The truncation rule of ``states._sized_amplitudes``, with each
    doubling n = 32, 64, ... built again from level 0: the oracle for the
    one run whose prefixes the library tests.  Same (amplitudes, N) and the
    same DomainErrors."""
    import cmath
    import itertools
    from functools import partial

    from cohgeom import states
    from cohgeom.errors import DomainError

    if not eps > 0:
        raise DomainError("eps")
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise DomainError("alpha")
    if family in ("fock", "squeezed_fock"):
        v = param if family == "squeezed_fock" else 0.0
        build, limit = partial(states._fock_amplitudes, alpha, v), np.tanh(v) ** 2
    elif family == "discrete_series":
        if not param > 0 or abs(alpha) >= 1.0:
            raise DomainError("disc")
        build, limit = partial(states._disc_amplitudes, alpha, param), abs(alpha) ** 2
    else:
        raise DomainError("family")
    for n in (32 << k for k in itertools.count()):
        c = build(n)
        t = np.abs(c) ** 2
        if not abs(c[0]) >= np.finfo(float).tiny:
            raise DomainError("c_0 underflows")
        last, before = t[-2:].sum(), t[-4:-2].sum()
        ratio = last / before if last < before else np.inf
        rest = states.geometric_tail(last, max(ratio, limit)) if last else 0.0
        if rest < 1e-3 * eps and t.sum() > 0.5:
            tail = np.cumsum(t[::-1])[::-1] + rest
            return c, max(1, int(np.argmax(np.append(tail, rest) < eps)))
