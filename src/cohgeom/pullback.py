"""Pullback of the projective-space Hermitian form along state families.

For a family alpha -> |psi(alpha)> the pushforward of a tangent direction u
at a base point is d/ds |psi(alpha + s u)>.  After projecting orthogonally to
the ray, the Hermitian form

    H(u, w) = <T_u| (1 - |psi><psi|) |T_w>

has the induced metric as its real part and the induced symplectic form as
its imaginary part.  Tangents are R-linear in u, so H is fixed at each base
point by the 2x2 matrix H(e_a, e_b) over the directions e = (1, i).
``pullback_matrices`` computes it for a whole grid of base points as one
read-only (B, 2, 2) array, with the closed form's ``reference_matrix`` at
the same points beside it: the grid's states are the rows of one amplitude
array, each zero past its own levels, and the tangents, projections and
Gram matrices are one array operation each (``_frames``).
``pullback_matrix`` is the one-point call of the same kernel, cached per
(family, base) with the form and its reference also kept as Python scalars,
so ``pullback_form`` contracts them with no array call; ``kahler_verdict``
and the command-line checks pass whole grids.  A one-point miss runs the
grid's code on one row: one amplitude run sized by ``states``' sizer (its
terms squared once per run), the state and its two tangents as (1, levels)
rows, and the tables it reads (raising elements, level roots,
normalizations, the closed forms' scaled bracket, the spin prefactor and
generators) each built once and cached read-only.  ``family_state``,
``analytic_tangent`` and ``numeric_tangent`` at one point share one sizing
through ``_state``, which keeps the last one; the central difference builds
its two states on that state's levels.  Every oscillator family, coherent or
squeezed, takes its state D(base)|0;v> from the amplitude runs of ``states``
(one cumulative product per grid for the coherent state) and its tangents
from those amplitudes shifted by one level and the state itself, with no
matrix exponential; the disc family differentiates its amplitude series.
Only the spin family displaces its kernel state through the cached spectrum
of the generator (the Daleckii-Krein Frechet derivative, see ``states``),
one base point at a time.  Tangents stay amplitude arrays: they are
projected orthogonally to the state on their arrays, and only
``analytic_tangent`` wraps one in a ``StateVector``.

Slot convention (fixed once, used everywhere): the FIRST tangent argument u
sits in the conjugated slot.  The closed form is one matrix in the basis of
``pullback_matrix``, ``reference_matrix``:

    s [[e^{2v}, i], [-i, e^{-2v}]],

with s = 1 for the oscillator, s = -<0;v| Lz |0;v> for spin (j at v = 0)
and s = 2k / (1 - |base|^2)^2 for the discrete series (v = 0).  At v = 0 it
is s conj(u) w, a Kahler form; for v != 0 the symplectic part is unchanged
and the metric turns anisotropic.  Squeezed families (oscillator v != 0, and
spin) are claimed at the origin only.  The finite-difference oracle
(``numeric_tangent``) confirms the exponent orientation for both squeezed
families.

Where the source material orders the slots the other way the value is the
complex conjugate; ``closed_form(..., variant="printed")`` exposes that
reading for the squeezed families so the discrepancy is observable rather
than silent.  It is the conjugate of the reference for the oscillator, and
of the v -> -v reference for spin, whose printed bracket carries e^{-2v} on
the (1, 1) entry.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, StepError, UnsupportedBasePoint, worst
from .statespace import PullbackReport, StateVector, disc_tag, fock_tag
from .states import (
    _displace,
    _read_only,
    _root_levels,
    _sized_amplitudes,
    _tail_checked,
    spin_matrices,
    su2_squeezed_vacuum,
    su11_coherent,
    wh_squeezed,
)

FAMILIES = ("wh", "su2", "su11")

DEFAULT_PAIRS = ((1 + 0j, 1 + 0j), (1 + 0j, 1j), (1j, 1j))
# the entries (0, 0), (0, 1), (1, 1) of a 2x2 form: its values on DEFAULT_PAIRS
PAIR_ENTRIES = ([0, 0, 1], [0, 1, 1])


@dataclass(frozen=True)
class StateFamily:
    """A coherent/squeezed embedding family.

    family: "wh" (oscillator), "su2" (spin), "su11" (discrete series).
    v: squeeze parameter (lambda = e^v); must be 0 for su11.
    param: j for su2, k for su11; must be 0 for wh, which reads none.
    trunc: number-basis truncation; 0 sizes it from the tail budget eps,
    by the one truncation rule of ``states``, whose amplitude run then
    gives the state.
    """

    family: str
    v: float = 0.0
    param: float = 0.0
    trunc: int = 0
    eps: float = 1e-12

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if not all(map(cmath.isfinite, (self.v, self.param, self.eps))):
            raise DomainError(f"non-finite family parameter in {self}")
        if not self.eps > 0:
            raise DomainError(f"tail budget eps must be positive, got {self.eps}")
        if self.family == "wh" and self.param != 0.0:
            raise DomainError(f"param applies to family su2 and su11 only, "
                              f"got {self.param} for wh")
        if self.family == "su11" and self.param <= 0.5:
            raise DomainError("su11 family needs k > 1/2")
        if self.family == "su11" and self.v != 0.0:
            raise DomainError(f"the su11 family has no squeezing, got v = {self.v}")

    @property
    def squeezed(self) -> bool:
        """Spin and squeezed oscillator families, whose closed forms are
        claimed at the origin only."""
        return self.family == "su2" or self.v != 0.0

    def dim(self, base: complex) -> int:
        """Number of basis levels of the state at ``base``: 2j + 1 for spin,
        ``trunc`` if set, and otherwise as many as the tail budget asks."""
        return self.trunc if self.trunc > 0 else _state(self, _base_point(base))[0].shape[1]


@dataclass(frozen=True)
class TangentSpec:
    """Base point and complex tangent direction d(alpha)/ds."""

    base: complex
    direction: complex


def _base_point(base) -> complex:
    base = complex(base)
    if not cmath.isfinite(base):
        raise DomainError(f"base point {base} is not finite")
    return base


def family_state(fam: StateFamily, base: complex) -> StateVector:
    """The family member at the given base point."""
    return _frame(fam, _base_point(base), ())[0]


def _basis(fam: StateFamily) -> tuple:
    # the basis of the family's states and their declared tail budget
    if fam.family == "su2":
        vac = su2_squeezed_vacuum(fam.v, fam.param)
        return vac.basis, vac.tol
    return disc_tag(fam.param) if fam.family == "su11" else fock_tag(), fam.eps


@lru_cache(maxsize=1)
def _state(fam: StateFamily, base: complex) -> tuple:
    """The one-point ``_states``, read-only, kept for the last (fam, base)
    asked for, so that a state and its tangents at one point share one
    sizing."""
    psi, size = _states(fam, np.array([base]))
    return _read_only(psi), size


def _frame(fam: StateFamily, base: complex, directions) -> tuple[StateVector, list]:
    """The state at ``base`` and the amplitudes of its un-projected tangents
    along ``directions``, on the state's basis: the one-point ``_frames``,
    whose state comes from ``_state``."""
    psi, size = _state(fam, base)
    if not directions:
        tangents = []
    elif fam.family == "su2":
        vac = su2_squeezed_vacuum(fam.v, fam.param)
        tangents = _displace(fam.param, base, vac.amps, directions)[1]
    else:
        tangents = list(_tangents(fam, np.array([base]), psi, size, directions)[0])
    return StateVector(psi[0], *_basis(fam)), tangents


def _frames(fam: StateFamily, bases: np.ndarray, directions) -> tuple[np.ndarray, ...]:
    """The states at ``bases`` as the rows of one amplitude array, and their
    un-projected tangents along ``directions`` as one array of shape
    (bases, directions, levels); both are zero past each row's own levels.

    Spin families differentiate D(base)|0;v> = e^X |0;v>; the state and
    every tangent L(X, Xdot_u)|0;v> come from the cached spectrum of the
    generator (``states._displace``), one base point at a time.  The other
    families take their states from ``_states`` and their tangents from
    ``_tangents``.
    """
    if fam.family == "su2":
        vac = su2_squeezed_vacuum(fam.v, fam.param)
        return tuple(map(np.array, zip(*(_displace(fam.param, base, vac.amps, directions)
                                          for base in bases))))
    psi, size = _states(fam, bases)
    return psi, _tangents(fam, bases, psi, size, directions)


def _states(fam: StateFamily, bases: np.ndarray) -> tuple[np.ndarray, list]:
    """The states at ``bases`` as the rows of one amplitude array, each zero
    past its own number of levels, and those numbers.

    A spin state is its displaced fiducial, on 2j + 1 levels.  An oscillator
    or disc state with ``trunc`` set is built by its constructor on
    ``trunc`` levels.  Otherwise each row is a prefix of the one amplitude
    run that ``states``' sizer builds for all rows at once and tests, under
    the constructors' tail check (TruncationError), with no second
    amplitude pass: tangent series weigh amplitudes by the level index, so
    the sizer's budget is three decades below eps, and the state keeps two
    levels of headroom beyond its N for the one-level shift of the
    derivative itself, and at least 8 levels.  The sized prefix reaches two
    levels past N and at least 32, so it covers them.
    """
    if fam.family == "su2":
        vac = su2_squeezed_vacuum(fam.v, fam.param)
        psi = np.array([_displace(fam.param, base, vac.amps)[0] for base in bases])
        return psi, [psi.shape[1]] * len(bases)
    family, param = (("discrete_series", fam.param) if fam.family == "su11"
                     else ("squeezed_fock", fam.v))
    if fam.trunc > 0:
        build = wh_squeezed if fam.family == "wh" else su11_coherent
        psi = np.array([build(b, param, fam.trunc, fam.eps).amps for b in bases])
        return psi, [fam.trunc] * len(bases)
    c, n = _sized_amplitudes(bases, family, param, 1e-3 * fam.eps)
    size = [max(k + 2, 8) for k in n]
    levels = max(size)
    psi = c[:, :levels].copy()
    for i, (row, k) in enumerate(zip(psi, size)):
        if k < levels:
            row[k:] = 0  # past the row's own levels
        if not 1.0 - np.vdot(row, row).real <= fam.eps:  # a deficit over budget raises
            _tail_checked(row[:k], fam.eps, complex(bases[i]), family, param)
    return psi, size


@lru_cache(maxsize=32)
def _raising(family: str, param: float, n: int) -> np.ndarray:
    """The elements sqrt(m) of a+, or sqrt(m (m - 1 + 2k)) of K+ on the disc,
    that raise level m - 1 to m, for m = 1 .. n - 1, as complex numbers, the
    type numpy casts them to against complex amplitudes; read-only
    (cached)."""
    m = np.arange(1, n)
    return _read_only((_root_levels(n)[1:] if family == "wh"
                       else np.sqrt(m * (m - 1 + 2 * param))).astype(complex))


def _tangents(fam: StateFamily, bases: np.ndarray, psi: np.ndarray, size: list,
              directions) -> np.ndarray:
    """The un-projected tangents along ``directions`` of the oscillator or
    disc states ``psi`` at ``bases``, zero past each row's ``size``: one
    array of shape (bases, directions, levels).

    They are banded: each is A_u R psi - b_u psi for the raising operator R
    (a+, or K+ on the disc) and scalars A_u, b_u, taken in complex scalars
    as at one point.  The disc family differentiates its amplitude series
    term by term.  The oscillator tangent along u is
    (u a+ - conj(u) a) psi - i Im(u conj(base)) psi, the derivative of
    D(base + s u) = e^{-i s Im(u conj(base))} D(s u) D(base) at s = 0;
    a psi = (beta psi - sinh v a+ psi) / cosh v, since psi is the
    eigenvector of a_v with eigenvalue beta (see ``states``).
    """
    if not directions:
        return np.empty((len(bases), 0, psi.shape[1]))
    if fam.family == "wh":
        th = float(np.tanh(fam.v))
        a = [u + u.conjugate() * th for u in directions]
        b = [[u.conjugate() * (z + z.conjugate() * th)  # beta / cosh v
              + 1j * (u * z.conjugate()).imag for u in directions] for z in bases.tolist()]
    else:
        a = directions
        # 2k conj(base) / (1 - |base|^2), divided as numpy divides by a real
        b = [[(2 * fam.param * z.conjugate() * (1.0 / (1 - abs(z) ** 2)) * u).real
              for u in directions] for z in bases.tolist()]
    levels = psi.shape[1]
    deriv = np.zeros(psi.shape, complex)  # R psi, zero past each row's own levels
    # one table of at least 256 elements serves every shorter state
    table = _raising(fam.family, fam.param, max(256, 1 << (levels - 1).bit_length()))
    np.multiply(table[:levels - 1], psi[:, :-1], out=deriv[:, 1:])
    for row, k in zip(deriv, size):
        if k < levels:
            row[k:] = 0
    tangents = np.array(a)[:, None] * deriv[:, None]
    tangents -= np.array(b, dtype=complex)[..., None] * psi[:, None]
    return tangents


def analytic_tangent(fam: StateFamily, t: TangentSpec) -> StateVector:
    """Pushforward of the tangent ``t.direction`` at ``t.base``, un-projected.

    Oscillator and disc tangents are banded in the amplitudes; spin tangents
    are the Frechet derivative of the displacement acting on the fiducial
    state (see ``_frames``).
    """
    psi, (tangent,) = _frame(fam, _base_point(t.base), (complex(t.direction),))
    return StateVector(tangent, psi.basis, psi.tol)


def numeric_tangent(fam: StateFamily, t: TangentSpec, h: float) -> StateVector:
    """Central-difference tangent (psi(base + h u) - psi(base - h u)) / 2h.

    Independent of ``analytic_tangent``; agrees with it to O(h^2) after both
    are projected orthogonally to the state.  Both states are built on the
    levels of the state at ``base``.  The step must lie in [1e-6, 1e-3].
    """
    if not (1e-6 <= h <= 1e-3):
        raise StepError(f"step {h:.2e} outside [1e-6, 1e-3]")
    base, u = _base_point(t.base), complex(t.direction)
    fixed = replace(fam, trunc=fam.dim(base))
    plus, minus = _states(fixed, np.array([_base_point(base + s * h * u) for s in (1, -1)]))[0]
    return StateVector((plus - minus) / (2.0 * h), *_basis(fam))


def squeeze_prefactor(fam: StateFamily) -> float:
    """The v-dependent scale of the family's closed form.

    -<0;v| Lz |0;v> for spin (equal to j at v = 0); 1 for the oscillator and
    disc families, whose ``reference_matrix`` scale does not depend on v.
    """
    return _spin_prefactor(fam.v, fam.param) if fam.family == "su2" else 1.0


@lru_cache(maxsize=128)
def _spin_prefactor(v: float, j: float) -> float:
    # -<0;v| Lz |0;v>, once per fiducial
    vac = su2_squeezed_vacuum(v, j)
    return float(-np.real(np.vdot(vac.amps, spin_matrices(j).lz @ vac.amps)))


def reference_matrix(fam: StateFamily, base: complex) -> np.ndarray:
    """The closed form as a 2x2 matrix in ``pullback_matrix``'s basis.

    s [[e^{2v}, i], [-i, e^{-2v}]] with s = 1 (oscillator),
    ``squeeze_prefactor`` (spin) or 2k / (1 - |base|^2)^2 (discrete series).
    Squeezed families are referenced at the origin only: elsewhere
    UnsupportedBasePoint is raised and callers report the computed value
    with no claim.  DomainError for a disc base point with |base| >= 1.
    """
    return _references(fam, np.array([_base_point(base)]))[0]


@lru_cache(maxsize=32)
def _bracket(v: float, scale: float) -> np.ndarray:
    # scale [[e^{2v}, i], [-i, e^{-2v}]]: the closed forms' common factor
    # times their scale, 2k on the disc (read-only)
    B = scale * np.array([[np.exp(2 * v), 1j], [-1j, np.exp(-2 * v)]])
    B.setflags(write=False)
    return B


def _references(fam: StateFamily, bases: np.ndarray) -> np.ndarray:
    # reference_matrix at each of the checked base points, as one array
    if fam.family == "su11":
        r = [abs(z) for z in bases.tolist()]
        if max(r) >= 1.0:
            raise DomainError("disc base point must satisfy |alpha| < 1")
        return _bracket(0.0, 2.0 * fam.param) / np.array(
            [(1.0 - x ** 2) ** 2 for x in r])[:, None, None]
    if fam.squeezed and any(bases.tolist()):
        raise UnsupportedBasePoint("squeezed reference available at 0 only")
    return _bracket(fam.v, squeeze_prefactor(fam))[None].repeat(len(bases), axis=0)


def closed_form(fam: StateFamily, base: complex, u: complex, w: complex,
                variant: str = "consistent") -> complex:
    """Closed-form reference H(u, w) at ``base``: ``reference_matrix``
    contracted with the real components of u and w.

    ``variant="consistent"`` (default) is the oracle-validated form in this
    module's slot convention.  ``variant="printed"`` evaluates the squeezed
    bracket as printed in the source derivations under the identification
    (u = prime slot, w = dot slot): the conjugate for the squeezed
    oscillator, and the conjugate of the v -> -v reference for spin; it
    equals the consistent value for the other families.  Any other variant
    is a DomainError.
    """
    if variant not in ("consistent", "printed"):
        raise DomainError(f"unknown closed-form variant {variant!r}")
    if variant == "consistent" or not fam.squeezed:
        return _contract(reference_matrix(fam, base).tolist(), u, w)
    if fam.family == "su2":
        fam = replace(fam, v=-fam.v)
    return np.conj(_contract(reference_matrix(fam, base).tolist(), u, w))


def pullback_matrix(fam: StateFamily, base: complex) -> np.ndarray:
    """The 2x2 matrix G_ab = H(e_a, e_b) at ``base`` for the directions (1, i):
    the one-point ``pullback_matrices``, cached per (fam, base); the
    returned array is read-only."""
    return _pullback_matrix(fam, _base_point(base))[0]


@lru_cache(maxsize=1024)
def _pullback_matrix(fam: StateFamily, base: complex) -> tuple:
    """G of ``pullback_matrix`` and ``reference_matrix`` at the same point,
    None where no closed form is claimed, both read-only, and then both
    again as nested lists of Python complex, which ``pullback_form``
    contracts."""
    G, ref = _pullback_rows(fam, np.array([base]))
    G, ref = G[0], None if ref is None else ref[0]
    return G, ref, G.tolist(), None if ref is None else ref.tolist()


def pullback_matrices(fam: StateFamily, bases) -> tuple[np.ndarray, np.ndarray | None]:
    """G_ab = H(e_a, e_b) for the directions (1, i) at each of ``bases``, as
    one read-only (B, 2, 2) array, and the closed form's
    ``reference_matrix`` at the same points as another, or None unless a
    closed form is claimed at every one of them.

    G is the Gram matrix of the two tangents after projecting them
    orthogonally to the normalized state, which removes the norm and phase
    derivative terms.  Tangents are R-linear in the direction, so
    H(u, w) = [u1, u2] G [w1, w2]^T for u = u1 + i u2 and w = w1 + i w2.
    ``_frames`` builds the grid's states and tangents as the rows of one
    array, and the norms, projections and Gram matrices are one array
    operation each.  Their sums along a row are BLAS dot products
    (``np.vecdot``), those of ``np.linalg.norm`` and ``np.vdot``, so a
    one-point grid gives the bits of ``StateVector.normalized`` and
    ``project_orthogonal``; in a larger grid a row's zeros past its own
    levels move its G by round-off only.  A one-point grid is read from
    ``pullback_matrix``'s cache.  DomainError for an empty grid or a
    non-finite base point.
    """
    bases = np.array([_base_point(base) for base in bases], dtype=complex)
    if not bases.size:
        raise DomainError("a pullback grid needs at least one base point")
    if bases.size == 1:
        return tuple(m if m is None else m[None] for m in _pullback_matrix(fam, bases[0])[:2])
    return _pullback_rows(fam, bases)


def _pullback_rows(fam: StateFamily, bases: np.ndarray):
    # the kernel of pullback_matrices, on checked base points
    psi, tangents = _frames(fam, bases, (1, 1j))
    norm = np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))
    x = (psi / norm[:, None])[:, None]
    P = tangents - np.vecdot(x, tangents)[..., None] * x
    G = P.conj() @ P.transpose(0, 2, 1)
    G.setflags(write=False)
    try:
        ref = _references(fam, bases)
        ref.setflags(write=False)
    except UnsupportedBasePoint:
        ref = None
    return G, ref


def form_dev(A: np.ndarray, B: np.ndarray) -> float | list[float]:
    """Largest |A - B| over ``PAIR_ENTRIES``: how far two 2x2 forms differ
    on DEFAULT_PAIRS; one value per form for stacks of them."""
    return np.abs((A - B)[(Ellipsis, *PAIR_ENTRIES)]).max(axis=-1).tolist()


def _contract(G: list, u: complex, w: complex) -> complex:
    # (u1, u2) G (w1, w2)^T for u = u1 + i u2 and w = w1 + i w2, in scalars,
    # for G a 2x2 form as nested lists
    (g00, g01), (g10, g11) = G
    return complex((u.real * g00 + u.imag * g10) * w.real
                   + (u.real * g01 + u.imag * g11) * w.imag)


def pullback_form(fam: StateFamily, base: complex, u: complex,
                  w: complex) -> PullbackReport:
    """Evaluate H(u, w) at ``base`` and compare with the closed form.

    The value contracts ``pullback_matrix``, and the reference the
    ``reference_matrix`` kept beside it, with the real components of u and
    w, so every pair at one base point shares one set of tangents and one
    reference.
    """
    _, _, G, ref = _pullback_matrix(fam, _base_point(base))
    return PullbackReport.from_value(
        _contract(G, u, w), None if ref is None else _contract(ref, u, w))


@dataclass(frozen=True)
class KahlerVerdict:
    """Outcome of the embedding-type check on a sample grid."""

    is_kahler: bool
    is_symplectic: bool
    max_dev: float
    symplectic_dev: float


def kahler_verdict(fam: StateFamily, bases=None,
                   tol: float = 1e-8) -> KahlerVerdict:
    """Decide whether the family embeds symplectically and/or Kahler-ly.

    The grid's ``pullback_matrices`` are compared with the v = 0
    ``reference_matrix`` at each sample by ``form_dev``, after dividing out
    the family's overall constant, which for spin depends on v.
    ``symplectic_dev`` is the worst imaginary-part deviation, which
    ``is_symplectic`` gates; ``max_dev`` is the worst full-value deviation,
    which ``is_kahler`` gates: metric and symplectic parts are then mutually
    compatible.  Both are taken by ``errors.worst``, so a NaN form at any
    sample fails both gates.  Squeezed families are judged at the origin,
    their default and only base point (UnsupportedBasePoint for any other).
    An empty ``bases`` is a DomainError: a verdict needs at least one
    sample.
    """
    if bases is None:
        bases = [0j] if fam.squeezed else [0j, 0.3 + 0.1j, -0.2 + 0.4j]
    elif fam.squeezed and any(base != 0 for base in bases):
        raise UnsupportedBasePoint("squeezed families are judged at 0 only")
    fam0 = replace(fam, v=0.0)
    G = pullback_matrices(fam, bases)[0] / squeeze_prefactor(fam)
    R = _references(fam0, np.array(bases, dtype=complex)) / squeeze_prefactor(fam0)
    dev_full, dev_sympl = worst(form_dev(G, R)), worst(form_dev(G.imag, R.imag))
    return KahlerVerdict(is_kahler=dev_full < tol, is_symplectic=dev_sympl < tol,
                         max_dev=dev_full, symplectic_dev=dev_sympl)


def __getattr__(name):
    # expm_frechet is called nowhere in the package, but the benchmark's
    # span recorder still resolves pullback.expm_frechet for a layer metric;
    # import it from scipy only when that name is read
    if name == "expm_frechet":
        from scipy.linalg import expm_frechet
        return expm_frechet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
