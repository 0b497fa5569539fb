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

Importing the package loads none of these modules.  Each exported name is
listed once below with its home module, which is imported on the first
access to the name (PEP 562).  So a process pays only for the layers it
uses; ``heisenberg``, ``causality``, ``geodesics`` and ``errors`` import
no numpy, and the CLI's ``tau``, ``logmap`` and plain ``geodesic`` commands
must keep running without it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "heisenberg": "IDENTITY GroupPoint FrameCovector mul group_difference energy",
    "causality": "CausalRelation classify tau minkowski_tau alpha beta causal_diamond_bbox tau_partition_length",
    "geodesics": "HamiltonianState GeodesicArc flow exp_map log_map",
    "transport": "CostParams CostMatrix DiscreteMeasure TransportPlan DualPotentials cost_matrix "
                 "solve_kantorovich strengthen_duals lorentz_wasserstein duality_gap brute_force_plan "
                 "check_cyclical_monotonicity",
    "brenier": "SemiDiscretePotential MapSample potential_from_duals potential_gradient brenier_map "
               "interpolate transport_map_from_duals backward_map_from_duals inverse_roundtrip_check "
               "monge_ampere_residual",
    "minkowski": "solve_minkowski right_translation_verdict seeded_verdict_instance",
    "measures_io": "load_measure save_measure save_plan save_trajectory sample_diamond "
                   "sample_chronological_pair",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
