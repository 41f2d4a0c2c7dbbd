"""Solvers for cursedness-based equilibria of finite extensive games,
with a numerical module for clock-cursed bidding in common-value auctions."""

from .bayesian import (BayesianGame, crosscheck_equivalence, embed_bayesian, solve_ce,
                       solve_ice, trading_bayesian)
from .bestresponse import check_local_best_response, local_best_response_value
from .conjectures import (Belief, Conjecture, belief, check_cursed_plausible, compatible,
                          cursed_conjecture, limit_conjecture_system)
from .gamefile import ParseError, parse_game, serialize_game
from .games import ComputerPlayerSet, ExperimentSpec, generate_experiment
from .golden import run_golden_predictions
from .partition import (CoarsePartition, check_valid_partition, coarsest_valid_partition,
                        f_of, is_coarse)
from .solvers import (EquilibriumResult, NonConvergenceError, SolverConfig, check_wpce,
                      sce_witness_check, solve_causal_sce, solve_chi_sce, solve_sce, solve_wpce)
from .tree import (NATURE, BehaviorProfile, GameBuilder, GameError, GameTree, InfoSet,
                   OutcomeMeasure, ValidationReport, ZeroProbabilityError,
                   continuation_utility, expected_utility, n_predecessor,
                   outcome_measure, reach_probability, validate_game)

__version__ = "0.1.0"
