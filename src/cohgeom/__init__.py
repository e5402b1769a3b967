"""Numerical geometry of coherent and squeezed states.

The package builds coherent / squeezed states for the oscillator, spin and
disc families, pulls the projective-space Hermitian form back along their
embeddings, verifies the layered uncertainty inequalities, quantizes the
upper-triangular coadjoint orbit (symplectic form, moment maps,
prequantization, flows), and carries out Berezin quantization of the upper
half plane; every closed form is checked against an independent numerical
oracle.
"""

import os as _os
import sys as _sys


def _load_numpy():
    """Load numpy, and with it OpenBLAS, with one BLAS thread.

    OpenBLAS reads its thread count once, when the library loads, and its
    default pool's worker spins on another core for a while after start-up.
    No product in this package can use a second thread, so a process that
    imports cohgeom before numpy, and sets none of the thread variables,
    loads numpy with OPENBLAS_NUM_THREADS=1; the variable is removed again
    afterwards, so that subprocesses see the caller's environment.  A count
    the user set, or a numpy some other module loaded first, is left as it is.
    """
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "numpy" in _sys.modules or any(name in _os.environ for name in blas_vars):
        return
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]


_load_numpy()

from .errors import (  # noqa: E402  (numpy is loaded above, before any module)
    BasisMismatch,
    CohgeomError,
    DegenerateOrbit,
    DimensionTooSmall,
    DomainError,
    InvalidSpin,
    KernelError,
    NonHermitian,
    NormalizationError,
    QuadratureError,
    StepError,
    TruncationError,
    UnsupportedBasePoint,
    VerificationError,
)
from .statespace import (
    BasisTag,
    PullbackReport,
    StateVector,
    disc_tag,
    fock_tag,
    inner,
    project_orthogonal,
    spin_tag,
)
from .states import (
    LadderPair,
    SpinTriple,
    ladder_matrices,
    spin_matrices,
    squeezed_vacuum,
    su2_displacement,
    su2_squeezed_vacuum,
    su2_state,
    su11_coherent,
    truncation_dim,
    wh_coherent,
    wh_displacement,
    wh_squeezed,
)
from .pullback import (
    KahlerVerdict,
    StateFamily,
    TangentSpec,
    analytic_tangent,
    closed_form,
    family_state,
    kahler_verdict,
    numeric_tangent,
    pullback_form,
    pullback_matrix,
    reference_matrix,
    squeeze_prefactor,
)
from .uncertainty import (
    MomentReport,
    RsReport,
    min_uncertainty_residual,
    moments,
    quadrature_pair,
    rs_report,
)

__version__ = "0.1.0"
