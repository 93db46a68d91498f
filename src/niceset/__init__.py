"""niceset: maximum low-redundancy ("nice") subsets of features.

A nice set of a conflict-graph instance spans no collinearity edge and no
conflict-set membership.  The package samples random instances, decides
niceness, finds maximum nice sets exactly and heuristically, evaluates the
model's closed-form size bounds, implements the generic mutually-good
constrained-set machinery with its randomized constructor, and derives
instances from numeric datasets via correlation thresholding and variance
inflation factors.
"""

from .bounds import (BoundParams, BoundValue, chernoff_bound, size_lower_bound,
                     size_upper_bound)
from .errors import BudgetError, CsvError
from .features import (FeatureMatrix, SelectionReport, build_instance,
                       collinearity_graph, conflict_sets, load_csv, pearson_matrix,
                       select_features, vif, VIF_MAX)
from .goodness import (AxiomReport, AxiomViolation, FractionTable, GoodnessSystem,
                       attempt_success_bound, brute_force_mutually_good,
                       check_goodness_axioms, construction_success_bound,
                       existence_violations, fraction_table, graph_system, h_set,
                       instance_system, is_constrained, is_mutually_good,
                       randomized_construct, system_from_singletons)
from .harness import (BoundReport, ChernoffReport, ExperimentConfig, LemmaReport,
                      binomial_deviation_tail, run_bound_experiment,
                      run_chernoff_check, run_lemma_verification)
from .instance import ConflictSpec, Instance, is_nice, sample_instance
from .rng import derive_seed
from .solvers import NiceSetResult, greedy_nice, max_nice_exact, randomized_nice, solve

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "AxiomViolation", "BoundParams", "BoundReport",
    "BoundValue", "BudgetError", "ChernoffReport", "ConflictSpec", "CsvError",
    "ExperimentConfig", "FeatureMatrix", "FractionTable", "GoodnessSystem",
    "Instance", "LemmaReport", "NiceSetResult", "SelectionReport", "VIF_MAX",
    "attempt_success_bound", "binomial_deviation_tail",
    "brute_force_mutually_good", "build_instance", "check_goodness_axioms",
    "chernoff_bound", "collinearity_graph", "conflict_sets",
    "construction_success_bound", "derive_seed", "existence_violations",
    "fraction_table", "graph_system", "greedy_nice", "h_set",
    "instance_system", "is_constrained", "is_mutually_good", "is_nice",
    "load_csv", "max_nice_exact", "pearson_matrix", "randomized_construct",
    "randomized_nice", "run_bound_experiment", "run_chernoff_check",
    "run_lemma_verification", "sample_instance", "select_features", "size_lower_bound",
    "size_upper_bound", "solve", "system_from_singletons", "vif",
]
