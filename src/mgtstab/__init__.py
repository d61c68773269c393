"""Simulation and stability analysis of a third-order acoustic model.

The model is ``tau u_ttt + alpha u_tt - c^2 Lap u - b Lap u_t = f`` on an
interval or polygonal domain whose boundary splits into a Robin part
(``gamma0``) and an absorbing velocity-feedback part (``gamma1``).  The
package assembles piecewise-linear finite-element semi-discretizations,
integrates them with invariant-preserving implicit schemes, and verifies
the structural facts behind the stability theory at desk scale: the
energy identity, the exact conjugacy with a damped-wave form under
``z = u_t + (c^2/b) u``, spectral abscissas against fitted decay rates,
the geometric multiplier construction with its certification, and the
integration-by-parts identities the decay estimates rest on.
"""

from .config import Scenario, config_hash, load_config, load_config_file
from .discretization import (
    MaterialParams,
    Mesh,
    OperatorBundle,
    assemble_operators,
    build_mesh,
    check_adjoint_identity,
    solve_neumann_map,
)
from .dynamics import (
    Generator,
    State,
    Stepper,
    Trajectory,
    assemble_generator,
    check_compatibility,
    m_transform,
    simulate,
)
from .energy import (
    energy_E0,
    energy_E1,
    energy_identity_residual,
    energy_quadratic_form,
    fit_decay_rate,
    norm_equivalence_constants,
)
from .errors import (
    CertificationError,
    ConfigError,
    GeometryError,
    IllPosedMapError,
    MeshError,
    MGTError,
    NumericalError,
    UndefinedWeightError,
)
from .geometry import (
    GAMMA0,
    GAMMA1,
    Geometry,
    VectorFieldH,
    build_vector_field_h,
    check_convex_gamma0,
    check_star_shaped,
    verify_field_properties,
)
from .multiplier import (
    ManufacturedField,
    bc_satisfying_1d,
    refinement_slope,
    residual_hgradz,
    residual_zdivh,
    residual_zmul,
    trig_1d,
    trig_2d,
)
from .presets import (
    named_geometry,
    preset,
    robin_mode_frequency,
    robin_mode_profile,
)
from .spectral import (
    SpectrumReport,
    abscissa_vs_decay,
    modal_cubic_roots,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "ConfigError",
    "GAMMA0",
    "GAMMA1",
    "Generator",
    "Geometry",
    "GeometryError",
    "IllPosedMapError",
    "ManufacturedField",
    "MaterialParams",
    "Mesh",
    "MeshError",
    "MGTError",
    "NumericalError",
    "OperatorBundle",
    "Scenario",
    "SpectrumReport",
    "State",
    "Stepper",
    "Trajectory",
    "UndefinedWeightError",
    "abscissa_vs_decay",
    "assemble_generator",
    "assemble_operators",
    "bc_satisfying_1d",
    "build_mesh",
    "build_vector_field_h",
    "check_adjoint_identity",
    "check_compatibility",
    "check_convex_gamma0",
    "check_star_shaped",
    "config_hash",
    "energy_E0",
    "energy_E1",
    "energy_identity_residual",
    "energy_quadratic_form",
    "fit_decay_rate",
    "load_config",
    "load_config_file",
    "m_transform",
    "modal_cubic_roots",
    "named_geometry",
    "norm_equivalence_constants",
    "preset",
    "refinement_slope",
    "residual_hgradz",
    "residual_zdivh",
    "residual_zmul",
    "robin_mode_frequency",
    "robin_mode_profile",
    "simulate",
    "solve_neumann_map",
    "spectrum",
    "trig_1d",
    "trig_2d",
    "verify_field_properties",
]
