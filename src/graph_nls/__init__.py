"""Structure-preserving Schrodinger dynamics on finite weighted graphs."""

from .errors import (
    ConfigError,
    DisconnectedGraph,
    DuplicateEdge,
    GraphNLSError,
    IncommensurateWaveNumber,
    MaxIterations,
    NearSingular,
    NewtonDivergence,
    NonInteriorDensity,
    NonPositiveWeight,
    NonZeroMean,
    SelfLoop,
    StepLeftSimplex,
    ZeroModulus,
)
from .graph import (
    Graph,
    build_graph,
    build_path_lattice,
    build_torus,
    divergence,
    edge_means,
    grad,
    inner_product,
    load_graph_json,
    save_graph_json,
)
from .energy import (
    PotentialSpec,
    energy_terms,
    fisher_gradient,
    fisher_hessian,
    fisher_information,
    hamiltonian,
    interaction_energy,
    potential_energy,
    wave_energy_components,
)
from .transport import (
    PathSample,
    hodge_decompose,
    metric_tangent_norm,
    nelson_action,
    pseudo_inverse_apply,
    weighted_laplacian,
)
from .dynamics import (
    IntegratorConfig,
    SystemState,
    Trajectory,
    from_wave,
    graph_laplacian_wave,
    plane_wave_residual,
    rhs,
    rhs_jacobian,
    schrodinger_operator,
    simulate,
    step,
    to_wave,
)
from .ground_state import (
    GroundStateResult,
    eigen_residual,
    ground_energy,
    ground_gradient,
    solve_ground_state,
)
from .stability import (
    HamiltonianMatrix,
    SpectrumReport,
    gpe_spectrum_closed_form,
    hamiltonian_matrix,
    plain_laplacian,
    spectrum,
)
from .verify import run_suites

__version__ = "0.1.0"
