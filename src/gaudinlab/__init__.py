"""gaudinlab: integrable hierarchies on coadjoint orbits with a spectral
parameter on the sphere or the torus.

Builds explicit Lax matrices for the rational and elliptic Gaudin models
(and the elliptic spin Calogero-Moser model as the one-site torus case),
runs their mutually commuting Hamiltonian flows in multi-time, accumulates
the phase-space action along multi-time curves, and ships a property-test
harness for the structural identities: involutivity, isospectrality, zero
curvature, Weierstrass function laws, and gauge equivalence of the two
torus trivialisations.
"""

from .errors import (
    ConfigError,
    DimensionError,
    GaudinLabError,
    NumericalAbort,
    PoleError,
    ResonanceError,
)
from .liealg import (
    InvariantPolynomial,
    LieBasis,
    build_slm_basis,
    matrix_exponential,
    trace_pairing,
)
from .weierstrass import (
    EllipticCache,
    LatticeSumOracle,
    build_cache,
    kernel_phi,
    quasi_periodicity_check,
    sigma_eval,
    weierstrass_eval,
    zeta_eval,
)
from .models import (
    GaudinModel,
    PhaseState,
    grad_hamiltonian,
    hamiltonian,
    lax_matrix,
    m_matrix,
    make_gaudin_model,
    model_from_dict,
    model_to_dict,
    orbit_elements,
    random_elliptic_ensemble,
    random_phase_state,
    random_rational_ensemble,
    retrivialize,
    state_from_dict,
    state_to_dict,
    transition_gamma,
)
from .flows import (
    DiagnosticsReport,
    FlowCurve,
    Trajectory,
    action_along_curve,
    diagnostics,
    evolve,
    plaquette_residual,
    poisson_bracket,
    step,
    write_trajectory_csv,
)
from .univar import (
    GaugeField,
    ToyHamiltonian,
    ToySystem,
    check_closure,
    check_flatness,
    gauged_rhs,
    integrate_toy,
    make_toy_system,
    noether_moment,
    pure_gauge_field,
)

__version__ = "0.1.0"
