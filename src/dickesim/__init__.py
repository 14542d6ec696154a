"""Heralded generation of symmetric multi-qubit entangled states.

Simulates a cascade of polarized photodetections on a chain of three-level
emitters, inverse-designs polarizer settings for arbitrary symmetric targets,
classifies three-qubit outputs into their entanglement families, and
estimates realistic preparation fidelities under finite detection windows.
"""

from .cascade import (
    PolarizerConfig,
    PyramidLevel,
    build_pyramid,
    dicke_coefficients,
    pyramid_edges,
)
from .core import (
    NORM_TOL,
    ORIENT_TOL,
    RESIDUAL_TOL,
    EmitterRegister,
    Polarizer,
    SymmetricState,
    apply_detection,
    fidelity,
    project_symmetric,
    same_orientation,
)
from .entanglement import (
    CLASS_TOL,
    GHZ_CLASS,
    S_CLASS,
    W_CLASS,
    ClassPrediction,
    EntanglementReport,
    classify_from_config,
    entanglement_report,
    tangle_closed_form,
    tangle_hyperdeterminant,
)
from .errors import (
    AsymmetricResidueError,
    ConfigError,
    DickesimError,
    DimensionMismatchError,
    ResidualExcitationError,
    RootFindingError,
    TooLargeError,
    ZeroStateError,
)
from .synthesis import (
    DEGREE_TOL,
    ghz_config,
    s_config,
    synthesize,
    w_config,
)
from .window import (
    DetectionGeometry,
    FidelityEstimate,
    estimate_fidelity,
)

__version__ = "0.1.0"
