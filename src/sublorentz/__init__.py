"""Sub-Lorentzian geometry of the Heisenberg group and causal optimal transport.

Core layers:

* :mod:`sublorentz.heisenberg` -- group arithmetic, covector conventions;
* :mod:`sublorentz.causality` -- causal classification, time separation tau;
* :mod:`sublorentz.geodesics` -- Hamiltonian flow, exp/log maps;
* :mod:`sublorentz.transport` -- causal Kantorovich problem, duals, monotonicity;
* :mod:`sublorentz.brenier` -- semi-discrete potentials, forward and backward
  transport maps, displacement interpolation, mass-conservation residuals;
* :mod:`sublorentz.minkowski` -- Minkowski-plane reference problem on the
  (x, y) projection of a measure, right-translation verdicts;
* :mod:`sublorentz.measures_io` -- measure/plan file formats and samplers.

The ``sublorentz`` command line tool fronts the same operations.
"""

__version__ = "0.1.0"

from .heisenberg import (
    IDENTITY,
    CoordCovector,
    FrameCovector,
    GroupPoint,
    coord_to_frame,
    energy,
    group_difference,
    mul,
)
from .causality import (
    CausalRelation,
    PlanarPoint,
    alpha,
    beta,
    causal_diamond_bbox,
    classify,
    minkowski_tau,
    tau,
    tau_partition_length,
)
from .geodesics import (
    GeodesicArc,
    HamiltonianState,
    exp_map,
    flow,
    log_map,
)
from .transport import (
    CostMatrix,
    CostParams,
    DiscreteMeasure,
    DualPotentials,
    TransportPlan,
    brute_force_plan,
    check_cyclical_monotonicity,
    cost_matrix,
    duality_gap,
    lorentz_wasserstein,
    solve_kantorovich,
    strengthen_duals,
)
from .brenier import (
    MapSample,
    SemiDiscretePotential,
    backward_map_from_duals,
    brenier_map,
    interpolate,
    inverse_roundtrip_check,
    monge_ampere_residual,
    potential_from_duals,
    potential_gradient,
    transport_map_from_duals,
)
from .minkowski import (
    right_translation_verdict,
    seeded_verdict_instance,
    solve_minkowski,
)
from .measures_io import (
    load_measure,
    sample_chronological_pair,
    sample_diamond,
    save_measure,
    save_plan,
    save_trajectory,
)

__all__ = [
    "__version__",
    "IDENTITY",
    "GroupPoint",
    "CoordCovector",
    "FrameCovector",
    "mul",
    "group_difference",
    "coord_to_frame",
    "energy",
    "CausalRelation",
    "PlanarPoint",
    "classify",
    "tau",
    "minkowski_tau",
    "alpha",
    "beta",
    "causal_diamond_bbox",
    "tau_partition_length",
    "HamiltonianState",
    "GeodesicArc",
    "flow",
    "exp_map",
    "log_map",
    "CostParams",
    "CostMatrix",
    "DiscreteMeasure",
    "TransportPlan",
    "DualPotentials",
    "cost_matrix",
    "solve_kantorovich",
    "strengthen_duals",
    "lorentz_wasserstein",
    "duality_gap",
    "brute_force_plan",
    "check_cyclical_monotonicity",
    "SemiDiscretePotential",
    "MapSample",
    "potential_from_duals",
    "potential_gradient",
    "brenier_map",
    "interpolate",
    "transport_map_from_duals",
    "backward_map_from_duals",
    "inverse_roundtrip_check",
    "monge_ampere_residual",
    "solve_minkowski",
    "right_translation_verdict",
    "seeded_verdict_instance",
    "load_measure",
    "save_measure",
    "save_plan",
    "save_trajectory",
    "sample_diamond",
    "sample_chronological_pair",
]
