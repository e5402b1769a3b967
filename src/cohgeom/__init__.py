"""Numerical geometry of coherent and squeezed states.

The package builds coherent / squeezed states for the oscillator, spin and
disc families, pulls the projective-space Hermitian form back along their
embeddings, verifies the layered uncertainty inequalities, quantizes the
upper-triangular coadjoint orbit (symplectic form, moment maps,
prequantization, flows), and carries out Berezin quantization of the upper
half plane; every closed form is checked against an independent numerical
oracle.
"""

from .errors import (
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
