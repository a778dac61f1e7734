"""Exact theta-weighted value at one belief, as one sequence-form LP.

Player 2's action moves neither the state nor player 2's signal
(``validate_hb_prime``), so player 2 best-replies stage by stage to its
signal history h. Player 1's plan is then a flow x_t(h, k, i) >= 0 over
(history, state, action): the sequence form of Koller, Megiddo & von
Stengel (GEB 14(2), 1996), which Ponssard & Sorin (IJGT 9(2), 1980) used
for finite games with incomplete information. With a free y_t(h) for the
payoff that player 2 concedes at stage t after h,

    v_theta(p) = max  sum_t theta_t sum_h y_t(h)
    s.t.  sum_i x_1(k, i) = p[k],
          sum_i x_t((h, d), k', i) = sum_{k,i} x_{t-1}(h, k, i) qbar[k, i, k', d],
          y_t(h) <= sum_{k,i} x_t(h, k, i) G_k[i, j]   for every j,

for t = 1..T (T is theta's last stage), where h runs over the signal
histories of length t - 1 made of signals that some (k, i) can emit. The
value is exact up to LP tolerance, and the LP shares no code with the grid
engine except ``solve_lp``, so it is an independent reference for the
grid brackets. The histories form a D-ary tree, so the LP has
(D^T - 1) / (D - 1) * (K I + 1) columns; ``MAX_COLUMNS`` caps that count
before the model is built.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..beliefs import check_belief
from ..game_model import AuxGame, RepeatedGameSpec, auxiliary_game
from ..lp import LPError, solve_lp
from .thetas import ThetaWeights

MAX_COLUMNS = 50_000  # Aumann-Maschler uniform(13) needs 40,955; uniform(14) 81,915


def value_theta_exact(
    spec: RepeatedGameSpec | AuxGame,
    theta: ThetaWeights,
    p: np.ndarray,
) -> tuple[float, float]:
    """The theta-weighted value at belief p, as the bracket (v, v).

    Raises ValueError for a belief off the simplex or of the wrong length,
    and when the LP would have more than ``MAX_COLUMNS`` columns; raises
    LPError when the solve does not end optimal.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    p = check_belief(p)
    if p.size != aux.nK:
        raise ValueError(f"belief {p} has {p.size} entries; the game has {aux.nK} states")
    T = theta.max_stage
    # nodes of the history tree in breadth-first order: the children of
    # node g are g*D + 1 .. g*D + D, one per emittable signal
    qbar = aux.qbar[..., aux.qbar.sum(axis=(0, 1, 2)) > 0]
    K, I, _, D = qbar.shape
    nodes = (D**T - 1) // (D - 1) if D > 1 else T
    columns = nodes * (K * I + 1)
    if columns > MAX_COLUMNS:
        raise ValueError(
            f"exact LP at belief {p} through stage {T} needs {columns} columns, "
            f"beyond the cap MAX_COLUMNS = {MAX_COLUMNS}"
        )
    Q = qbar.transpose(3, 2, 0, 1).reshape(D * K, K * I)  # (d, k') x (k, i)
    G = aux.payoff.transpose(2, 0, 1).reshape(aux.nJ, K * I)  # j x (k, i)
    # rows (node, k') from node 1 on, columns x of the nodes with children
    inflow = sp.kron(sp.eye(nodes - D ** (T - 1)), Q, format="coo")
    inflow = sp.coo_matrix(
        (inflow.data, (inflow.row + K, inflow.col)), shape=(nodes * K, nodes * K * I)
    )
    flow = sp.kron(sp.eye(nodes * K), np.ones((1, I))) - inflow
    A_eq = sp.hstack([flow, sp.csr_matrix((nodes * K, nodes))])
    A_ub = sp.hstack([sp.kron(sp.eye(nodes), -G), sp.kron(sp.eye(nodes), np.ones((aux.nJ, 1)))])
    depth_weight = np.repeat(theta.dense(), D ** np.arange(T))
    sol = solve_lp(
        np.concatenate([np.zeros(nodes * K * I), depth_weight]),
        A_ub=A_ub,
        b_ub=np.zeros(nodes * aux.nJ),
        A_eq=A_eq,
        b_eq=np.concatenate([p, np.zeros((nodes - 1) * K)]),
        bounds=np.repeat([[0.0, np.inf], [-np.inf, np.inf]], [nodes * K * I, nodes], axis=0),
        maximize=True,
    )
    if sol.status != "optimal":
        raise LPError(f"exact LP at belief {p} through stage {T} ended {sol.status}")
    return sol.objective, sol.objective
