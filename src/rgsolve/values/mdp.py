"""One-player view: deterministic belief-measure dynamics of a Markov plan.

With the opponent removed, a stage-indexed plan (one stacked action per
belief) drives a deterministic sequence of belief measures and guaranteed
payoffs. Both directions are provided: rolling a plan forward into its
play, and recovering per-atom action maps that realize a given play.

The recovery inverts the splitting construction one step at a time with
one mixed-integer model per step, solved through ``lp.solve_lp``: binary
variables send each (atom, signal) posterior column to one atom of the
target measure and pick the column where player 2 attains each atom's
guaranteed payoff; everything else is linear in the stacked actions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from ..beliefs import BeliefMeasure, mix_measures
from ..game_model import AuxGame, RepeatedGameSpec, auxiliary_game
from ..lp import LPError, normalize_mixtures, solve_lp

if TYPE_CHECKING:
    from ..strategies import MarkovStrategy1

_TOL = 1e-7  # payoff tolerance of a recovered step


def play_of_markov_strategy(
    spec: RepeatedGameSpec | AuxGame,
    u: BeliefMeasure,
    strategy,
    horizon: int,
) -> list[tuple[BeliefMeasure, float]]:
    """Deterministic play induced by a Markov plan from the measure u.

    ``strategy`` exposes ``stacked_action(t, p)``. Step t of the result is
    the pair (next belief measure, guaranteed payoff collected at stage t).
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    out: list[tuple[BeliefMeasure, float]] = []
    current = u
    for t in range(1, horizon + 1):
        actions = [strategy.stacked_action(t, p) for p in current.atoms]
        payoff = float(
            sum(
                w * aux.guaranteed_payoff(p, a)
                for p, a, w in zip(current.atoms, actions, current.weights)
            )
        )
        nxt = mix_measures(
            [
                (float(w), aux.belief_step(p, a))
                for p, a, w in zip(current.atoms, actions, current.weights)
            ]
        )
        out.append((nxt, payoff))
        current = nxt
    return out


def markov_strategy_of_play(
    spec: RepeatedGameSpec | AuxGame,
    u: BeliefMeasure,
    play: list[tuple[BeliefMeasure, float]],
) -> MarkovStrategy1:
    """Recover per-atom action maps that realize the given play, as an
    informed-player strategy with no maintenance tail.

    Each step is one mixed-integer model: every (atom, signal) posterior
    column must land on one atom of the target measure, the masses landing
    on each target atom must reproduce its weight, and the weighted
    guaranteed payoffs (each atom's minimum over player 2's columns) must
    match the step's payoff within ``_TOL``; the model minimizes that
    deviation. Raises identifying the first unrealizable step.
    """
    # strategies imports the value engine, which imports this module
    from ..strategies import MarkovStrategy1

    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    current = u
    stage_atoms: list[np.ndarray] = []
    stage_actions: list[np.ndarray] = []
    for step, (target, payoff) in enumerate(play, start=1):
        try:
            actions = _recover_step(aux, current, target, payoff)
        except _StepInfeasible as exc:
            raise ValueError(f"play is not realizable at step {step}: {exc}") from exc
        stage_atoms.append(current.atoms.copy())
        stage_actions.append(actions)
        current = target
    return MarkovStrategy1(
        stage_atoms=tuple(stage_atoms),
        stage_actions=tuple(stage_actions),
        slack=0.0,
        meta={"kind": "realized-play"},
    )


class _StepInfeasible(RuntimeError):
    pass


def _recover_step(
    aux: AuxGame,
    current: BeliefMeasure,
    target: BeliefMeasure,
    payoff: float,
) -> np.ndarray:
    K, I, J, D = aux.nK, aux.nI, aux.nJ, aux.nD
    R, L = current.size, target.size
    w = current.weights
    # per-atom linear maps of the stacked action a_j: rows (signal, next
    # state) of its posterior columns, rows j' of player 2's payoff columns
    cols = sp.block_diag(
        [np.einsum("k,kind->dnki", p, aux.qbar).reshape(D * K, K * I) for p in current.atoms]
    )
    pays = sp.block_diag(
        [np.einsum("k,kij->jki", p, aux.payoff).reshape(J, K * I) for p in current.atoms]
    )
    # variables: actions a (R*K*I); column masses s[j, d, l] and binary
    # target choices z[j, d, l] (R*D*L each); binary attaining columns
    # b[j, j'] (R*J); guaranteed payoffs y (R); payoff deviation e
    nA, nS, nB = R * K * I, R * D * L, R * J
    n = nA + 2 * nS + nB + R + 1
    eye_s, per_y = sp.eye(nS), sp.kron(sp.eye(R), np.ones((J, 1)))
    A_eq = sp.bmat([
        # each a[j, k] is a mixture
        [sp.kron(sp.eye(R * K), np.ones((1, I))), None, None, None, None],
        # posterior column (j, d) is sum_l s[j, d, l] r_l
        [cols, -sp.kron(sp.eye(R * D), target.atoms.T), None, None, None],
        # ... and lands on one target atom
        [None, None, sp.kron(sp.eye(R * D), np.ones((1, L))), None, None],
        # the masses landing on r_l add up to its weight
        [None, sp.kron(np.repeat(w, D)[None, :], sp.eye(L)), None, None, None],
        # one attaining column per atom
        [None, None, None, sp.kron(sp.eye(R), np.ones((1, J))), sp.csc_array((R, R + 1))],
    ])
    b_eq = np.concatenate([np.ones(R * K), np.zeros(R * D * K), np.ones(R * D),
                           target.weights, np.ones(R)])
    # big-M = 1 in both switches: a column's mass and a payoff are at most 1
    A_ub = sp.bmat([
        [None, eye_s, -eye_s, None, None, None],  # s <= z
        [-pays, None, None, None, per_y, None],  # y_j <= G_j[j'] a_j
        [pays, None, None, sp.eye(nB), -per_y, None],  # y_j >= G_j[j'] a_j - (1 - b)
        [None, None, None, None, np.vstack([w, -w]), -np.ones((2, 1))],  # |w.y - payoff| <= e
    ])
    b_ub = np.concatenate([np.zeros(nS + nB), np.ones(nB), [payoff, -payoff]])
    binary = np.zeros(n, dtype=np.int32)
    binary[nA + nS : nA + 2 * nS + nB] = 1
    lo, hi = np.zeros(n), np.where(binary == 1, 1.0, np.inf)
    lo[n - R - 1 : n - 1] = -np.inf
    hi[-1] = _TOL
    # minimize e: any feasible point would do, but a vertex may then sit a
    # whole _TOL off the payoff
    c = np.zeros(n)
    c[-1] = 1.0
    try:
        sol = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                       bounds=np.column_stack([lo, hi]), integrality=binary)
    except LPError as exc:
        raise _StepInfeasible(str(exc)) from exc
    if sol.status != "optimal":
        raise _StepInfeasible("no action map reaches the target measure at the given payoff")
    return normalize_mixtures(sol.primal[:nA].reshape(R, K, I))
