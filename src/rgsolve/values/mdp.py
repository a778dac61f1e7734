"""One-player view: deterministic belief-measure dynamics of a Markov plan.

With the opponent removed, a stage-indexed plan (one stacked action per
belief) drives a deterministic sequence of belief measures and guaranteed
payoffs. Both directions are provided: rolling a plan forward into its
play, and recovering per-atom action maps that realize a given play.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

import numpy as np

from ..beliefs import BeliefMeasure, mix_measures
from ..game_model import AuxGame, RepeatedGameSpec, auxiliary_game
from ..lp import LPError, normalize_mixtures, solve_lp

if TYPE_CHECKING:
    from ..strategies import MarkovStrategy1

_TOL = 1e-7  # payoff and alignment tolerance of a recovered step
MAX_ASSIGNMENTS = 4096  # posterior alignment patterns tried per step
MAX_COLUMN_COMBOS = 729  # payoff-attaining column patterns tried per alignment


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

    Each step is a coupled linear system: every (atom, signal) posterior
    column must align with some atom of the target measure, aggregated
    weights must reproduce the target weights, and the guaranteed payoffs
    must match. Alignment patterns and payoff-attaining columns are
    enumerated (the counts are tiny at desk scale) and each pattern is one
    LP feasibility problem. Raises identifying the first unrealizable step.
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
    # variable layout: actions (R*K*I), scales s[j, d] (R*D)
    nv = R * K * I + R * D

    def a_slice(j):
        return slice(j * K * I, (j + 1) * K * I)

    def s_col(j, d):
        return R * K * I + j * D + d

    # per-atom linear maps: columns of the next (state, signal) table
    col_maps = []  # per atom j: (D, K, K*I) tensor
    pay_maps = []  # per atom j: (J, K*I)
    for p in current.atoms:
        col_maps.append(np.einsum("k,kind->dnki", p, aux.qbar).reshape(D, K, K * I))
        pay_maps.append(np.einsum("k,kij->jki", p, aux.payoff).reshape(J, K * I))

    candidates = _assignment_candidates(col_maps, target, K, I)
    combos = 1
    for opts in candidates:
        combos *= len(opts)
    if combos > MAX_ASSIGNMENTS:
        raise _StepInfeasible(
            f"{combos} posterior alignment patterns exceed the cap {MAX_ASSIGNMENTS}"
        )
    if J**R > MAX_COLUMN_COMBOS:
        raise _StepInfeasible(
            f"{J**R} payoff-column patterns exceed the cap {MAX_COLUMN_COMBOS}"
        )

    for assignment in itertools.product(*candidates):
        rows_eq, rhs_eq = [], []
        # simplex rows
        for j in range(R):
            for k in range(K):
                row = np.zeros(nv)
                row[a_slice(j)][k * I : (k + 1) * I] = 1.0
                rows_eq.append(row)
                rhs_eq.append(1.0)
        # column alignment: M_d(a_j) - s[j,d] * target_atom = 0
        for j in range(R):
            for d in range(D):
                l = assignment[j * D + d]
                for kap in range(K):
                    row = np.zeros(nv)
                    row[a_slice(j)] = col_maps[j][d, kap]
                    row[s_col(j, d)] = -target.atoms[l][kap]
                    rows_eq.append(row)
                    rhs_eq.append(0.0)
        # aggregated weights reproduce the target weights
        for l in range(L):
            row = np.zeros(nv)
            for j in range(R):
                for d in range(D):
                    if assignment[j * D + d] == l:
                        row[s_col(j, d)] = current.weights[j]
            rows_eq.append(row)
            rhs_eq.append(float(target.weights[l]))
        base_eq = (np.array(rows_eq), np.array(rhs_eq))

        for attaining in itertools.product(range(J), repeat=R):
            x = _solve_step_lp(current, payoff, base_eq, pay_maps, attaining, a_slice)
            if x is not None:
                return normalize_mixtures(x[: R * K * I].reshape(R, K, I))
    raise _StepInfeasible("no alignment pattern admits a realizing action map")


def _assignment_candidates(col_maps, target, K, I):
    """Per (atom, signal): target atoms reachable as that signal's posterior,
    i.e. some a in the action polytope and s >= 0 have cols[d] @ a = s * r."""
    out = []
    for j, cols in enumerate(col_maps):
        for d, col in enumerate(cols):
            opts = [l for l, r in enumerate(target.atoms) if _column_can_align(col, r, K, I)]
            if not opts:
                raise _StepInfeasible(f"signal {d} of atom {j} can reach no target atom")
            out.append(opts)
    return out


def _column_can_align(col_map, r, K, I) -> bool:
    nv = K * I + 1
    A_eq = np.zeros((K + K, nv))
    b_eq = np.zeros(K + K)
    for k in range(K):
        A_eq[k, k * I : (k + 1) * I] = 1.0
        b_eq[k] = 1.0
    for kap in range(K):
        A_eq[K + kap, : K * I] = col_map[kap]
        A_eq[K + kap, K * I] = -r[kap]
    sol = solve_lp(np.zeros(nv), A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
    return sol.status == "optimal"


def _solve_step_lp(current, payoff, base_eq, pay_maps, attaining, a_slice):
    """Minimize |guaranteed payoff - target| inside the alignment polytope;
    return the primal vector when the optimum is within tolerance. One
    extra slack variable, last."""
    A_eq, b_eq = base_eq
    n_all = A_eq.shape[1] + 1  # trailing slack e >= |payoff(a) - target|
    A_eq = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
    rows_ub, rhs_ub = [], []
    # chosen column attains the per-atom minimum
    for j, jh in enumerate(attaining):
        for other in range(len(pay_maps[j])):
            if other == jh:
                continue
            row = np.zeros(n_all)
            row[a_slice(j)] = pay_maps[j][jh] - pay_maps[j][other]
            rows_ub.append(row)
            rhs_ub.append(0.0)
    pay_row = np.zeros(n_all)
    for j, jh in enumerate(attaining):
        pay_row[a_slice(j)] += current.weights[j] * pay_maps[j][jh]
    plus = pay_row.copy()
    plus[-1] = -1.0
    rows_ub.append(plus)
    rhs_ub.append(payoff)
    minus = -pay_row
    minus[-1] = -1.0
    rows_ub.append(minus)
    rhs_ub.append(-payoff)
    c = np.zeros(n_all)
    c[-1] = 1.0
    try:
        sol = solve_lp(
            c,
            A_ub=np.array(rows_ub),
            b_ub=np.array(rhs_ub),
            A_eq=A_eq,
            b_eq=b_eq,
            bounds=(0, None),
        )
    except LPError:
        return None
    if sol.status != "optimal" or sol.primal[-1] > _TOL:
        return None
    return sol.primal
