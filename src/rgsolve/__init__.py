"""Solver suite for zero-sum repeated games with an informed controller.

Validates the structural hypotheses (informedness, transition control),
builds the auxiliary belief-space game, computes finite-horizon, shifted
and prefix-guarantee values with certified bounds, estimates the uniform
value over an inf-sup window, extracts near-optimal strategies for both
players, and audits guarantees by seeded simulation.
"""

from .beliefs import (
    BeliefMeasure,
    ChoquetCertificate,
    barycenter,
    choquet_dominates,
    disintegrate,
    mix_measures,
    split_decomposition,
    splitting_action,
    wasserstein,
)
from .config import TOL, Tolerances
from .game_model import (
    AuxGame,
    HypothesisReport,
    RepeatedGameSpec,
    auxiliary_game,
    belief_transition,
    build_aumann_maschler,
    build_markov_chain_game,
    build_single_controller,
    canonical_signal,
    initial_belief_measure,
    load_spec,
    save_spec,
    spec_from_json,
    spec_to_json,
    stage_payoff,
    transition_marginal,
    validate_ha,
    validate_ha_prime,
    validate_hb,
    validate_hb_prime,
)
from .lp import (
    LPError,
    LPSolution,
    MatrixGameSolution,
    matrix_game_value,
    solve_lp,
    transport_lp,
)
from .simulator import (
    GuaranteeReport,
    PayoffStats,
    PlayoutConfig,
    guarantee_check,
    simulate,
)
from .strategies import (
    BlockStrategy2,
    CavUOracle,
    MarkovStrategy1,
    build_p2_cyclic,
    build_p2_growing,
    cavu_oracle,
    extract_p1_markov,
    load_strategy,
    save_strategy,
)
from .values import (
    SimplexGrid,
    ThetaWeights,
    UniformValueReport,
    ValueGrid,
    WValueResult,
    evaluate_measure,
    markov_strategy_of_play,
    play_of_markov_strategy,
    theta_lift,
    theta_plus,
    theta_shift,
    uniform_value_estimate,
    value_mn,
    value_theta_exact,
    value_theta_grid,
    w_mn,
)

__version__ = "0.1.0"
