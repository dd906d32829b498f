"""Compartmental propagation models for networked populations: the
classical SIR system and a delayed SEIRS variant in which recovery grants
temporary immunity only with probability p, plus scale-free network
generation, threshold analysis and reporting tools."""

from .core import (CompartmentState, ConstantHistory, HistoryFunction,
                   PseirsParams, SampledHistory, SirParams, SirState,
                   Trajectory, kappa, validate_pseirs)
from .dde import (consistent_initial_exposed, consistent_initial_recovered,
                  default_step, reconstruct_trajectory, simulate_pseirs)
from .errors import (EmptyWindow, InconsistentInit, InsufficientTail,
                     InvalidGraphParams, InvalidParameter, NoPeak, NotEndemic,
                     OutOfDomain, PseirsError, QuadratureNotConverged,
                     StepTooLarge, TrajectoryTooShort, ZeroPopulation)
from .integro import EquivalenceReport, exposed_integral, recovered_integral, verify_integral_equivalence
from .netgen import (DegreeHistogram, Graph, degree_histogram, edge_list_text,
                     gamma_from_graph, generate_ba, graph_to_dict, mean_degree,
                     powerlaw_slope)
from .sir import (SirDerivative, SirPrediction, simulate_sir, sir_derivatives,
                  sir_disease_free_prediction, sir_endemic_prediction,
                  sir_peak_oracle, sir_r0)
from .stats import PhasePlaneSeries, StatsTable, compartment_stats, phase_plane
from .threshold import (EquilibriumClass, EquilibriumKind, StabilityClass,
                        classify_equilibrium, r0_linearized, r0_nominal,
                        stability_probe)

__version__ = "0.1.0"
