"""Value computations on the belief game: certified grids, tree cross-check,
shifted and prefix-guarantee values, windowed uniform-value estimation."""

from .engine import (
    StageRule,
    UniformValueReport,
    ValueGrid,
    WValueResult,
    default_resolution,
    evaluate_measure,
    uniform_value_estimate,
    value_mn,
    value_theta_grid,
    w_mn,
)
from .exact import value_theta_exact
from .grid import SimplexGrid
from .mdp import markov_strategy_of_play, play_of_markov_strategy
from .stage import one_shot_lp
from .thetas import ThetaWeights, suffix_chain, theta_lift, theta_plus, theta_shift

__all__ = [
    "StageRule",
    "SimplexGrid",
    "ThetaWeights",
    "UniformValueReport",
    "ValueGrid",
    "WValueResult",
    "default_resolution",
    "evaluate_measure",
    "markov_strategy_of_play",
    "one_shot_lp",
    "play_of_markov_strategy",
    "suffix_chain",
    "theta_lift",
    "theta_plus",
    "theta_shift",
    "uniform_value_estimate",
    "value_mn",
    "value_theta_exact",
    "value_theta_grid",
    "w_mn",
]
