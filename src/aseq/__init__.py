"""Active sequential multi-hypothesis testing: exact error-exponent regions,
the exploration-mixed adaptive test, and Monte Carlo verification."""

from .divergence import DivergenceTable, build_instance_table, build_table, exponent, kl
from .model import (ActionSpace, AvailabilityDist, BudgetSpec, Instance,
                    JointModel, ValidationReport, in_constraint_set, marginal,
                    omega, validate_model)
from .modelio import dump_instance, instance_from_dict, instance_to_dict, load_instance
from .policy import (ExplorationPlan, TestParams, TrialKernel, TrialResult,
                     action_pmf, build_params, choose_exploration_rate,
                     run_trial)
from .region import (ConstraintPolytope, ExponentRegion, PerMRegion,
                     build_polytope, compute_region,
                     decision_risk_exponents, enumerate_vertices,
                     individual_hypothesis_region_slice, membership,
                     nonadaptive_membership, region_polytope, tuncel_membership)
from .sim import (ExperimentConfig, ExperimentReport, estimate_errors,
                  fit_exponents, verify_constraints, wilson_interval)

__version__ = "0.1.0"
