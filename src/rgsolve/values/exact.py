"""Exact theta-weighted and prefix-guarantee values, as sequence-form LPs.

Player 2's action moves neither the state nor player 2's signal
(``validate_hb_prime``), so player 2 best-replies stage by stage to its
signal history h. Player 1's plan is then a flow x_t(h, k, i) >= 0 over
(history, state, action): the sequence form of Koller, Megiddo & von
Stengel (GEB 14(2), 1996), which Ponssard & Sorin (IJGT 9(2), 1980) used
for finite games with incomplete information. Over a belief measure
sum_a w_a delta_{p_a} each atom a roots its own history tree (player 2
knows the atom), and with a free y_t(h) for the payoff that player 2
concedes at stage t after h the constraints are

    sum_i x_1(a, k, i) = w_a p_a[k],
    sum_i x_t((h, d), k', i) = sum_{k,i} x_{t-1}(h, k, i) qbar[k, i, k', d],
    y_t(h) <= sum_{k,i} x_t(h, k, i) G_k[i, j]   for every j,

for t = 1..T, where h runs over the signal histories of length t - 1 made
of signals that some (k, i) can emit. Two objectives share this model:

* ``value_theta_exact``: v_theta(p) = max sum_t theta_t sum_h y_t(h) at a
  Dirac measure, with T theta's last stage;
* ``w_exact``: w_{m,n}(u) = max z with T = m + n and a free z below every
  prefix average, z <= (1/t) sum_{s=m+1}^{m+t} sum_h y_s(h) for t = 1..n.
  By the minimax theorem this is the infimum over stage measures theta on
  {1..n} of the lifted value, and the duals of the n prefix rows, which
  sum to 1, are a minimizing theta.

Both values are exact up to LP tolerance, and the LPs share no code with
the grid engine except ``solve_lp``, so they are an independent reference
for the grid brackets. The histories form a D-ary tree, so the model has
|u| (D^T - 1) / (D - 1) (K I + 1) columns (``model_columns``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..beliefs import BeliefMeasure, check_belief
from ..game_model import AuxGame, RepeatedGameSpec, auxiliary_game
from ..lp import LPError, normalize_mixtures, solve_lp
from .thetas import ThetaWeights

MAX_COLUMNS = 50_000  # Aumann-Maschler uniform(13) needs 40,955; uniform(14) 81,915
# largest w LP that w_mn solves: on two cores one solve took 0.12 s at 3,070
# columns, 0.54 s at 6,142 and 1.8 s at 20,476
W_MAX_COLUMNS = 4_096


def _signal_tree(aux: AuxGame, T: int) -> tuple[np.ndarray, int]:
    """The kernel restricted to the signals some (k, i) can emit, and the
    number of nodes of one history tree through stage T."""
    qbar = aux.qbar[..., aux.qbar.sum(axis=(0, 1, 2)) > 0]
    D = qbar.shape[-1]
    return qbar, (D**T - 1) // (D - 1) if D > 1 else T


def model_columns(aux: AuxGame, atoms: int, T: int) -> int:
    """Columns of the sequence-form model over ``atoms`` roots through stage T."""
    qbar, nodes = _signal_tree(aux, T)
    return atoms * nodes * (qbar.shape[0] * qbar.shape[1] + 1)


def _sequence_form(aux: AuxGame, u: BeliefMeasure, T: int, z: bool = False):
    """The shared constraints over the belief measure u through stage T.

    Columns are every x (atom, node, k, i), then every y (atom, node), then
    the free z when ``z`` is set, with the nodes of each atom's tree in
    breadth-first order: the children of node g are g*D + 1 .. g*D + D, one
    per emittable signal. Returns (A_ub, A_eq, b_eq, bounds, stage), where
    ``stage`` is the stage of each y column; A_ub holds the payoff rows and
    A_eq the flow rows. The matrices are built from index arrays: scipy's
    sparse kron and stack calls cost more than the solve of a small model.
    """
    qbar, N = _signal_tree(aux, T)
    K, I, _, D = qbar.shape
    J, KI, trees = aux.nJ, K * I, u.size * N
    nx, ncol = trees * KI, trees * (KI + 1) + z
    # flow row (tree node, k'): its own x(., k', .) minus the inflow from
    # the parent, sum_{k,i} x(parent, k, i) qbar[k, i, k', d] for child d
    parent = (np.arange(u.size)[:, None] * N + np.arange(N - D ** (T - 1))).ravel()
    child = parent[:, None] + parent[:, None] % N * (D - 1) + 1 + np.arange(D)  # (P, D)
    row_in, col_in = np.broadcast_arrays(
        child[:, :, None, None] * K + np.arange(K)[:, None],  # (P, D, K', 1)
        (parent[:, None, None, None] * KI + np.arange(KI)),  # (P, 1, 1, KI)
    )
    val_in = np.broadcast_to(-qbar.transpose(3, 2, 0, 1).reshape(D, K, KI), row_in.shape)
    A_eq = sp.coo_array(
        (
            np.concatenate([np.ones(nx), val_in.ravel()]),
            (
                np.concatenate([np.arange(nx) // I, row_in.ravel()]),
                np.concatenate([np.arange(nx), col_in.ravel()]),
            ),
        ),
        shape=(trees * K, ncol),
    )
    # payoff row (tree node, j): y(node) - sum_{k,i} x(node, k, i) G_k[i, j]
    row_x, col_x = np.broadcast_arrays(
        (np.arange(trees)[:, None] * J + np.arange(J))[..., None],
        (np.arange(trees)[:, None, None] * KI + np.arange(KI)),
    )
    val_x = np.broadcast_to(-aux.payoff.transpose(2, 0, 1).reshape(J, KI), row_x.shape)
    A_ub = sp.coo_array(
        (
            np.concatenate([val_x.ravel(), np.ones(trees * J)]),
            (
                np.concatenate([row_x.ravel(), np.arange(trees * J)]),
                np.concatenate([col_x.ravel(), nx + np.arange(trees * J) // J]),
            ),
        ),
        shape=(trees * J, ncol),
    )
    roots = np.zeros((u.size, N * K))
    roots[:, :K] = u.weights[:, None] * u.atoms
    bounds = np.repeat([[0.0, np.inf], [-np.inf, np.inf]], [nx, ncol - nx], axis=0)
    stage = np.tile(np.repeat(np.arange(1, T + 1), D ** np.arange(T)), u.size)
    return A_ub, A_eq, roots.ravel(), bounds, stage


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
    columns = model_columns(aux, 1, T)
    if columns > MAX_COLUMNS:
        raise ValueError(
            f"exact LP at belief {p} through stage {T} needs {columns} columns, "
            f"beyond the cap MAX_COLUMNS = {MAX_COLUMNS}"
        )
    A_ub, A_eq, b_eq, bounds, stage = _sequence_form(aux, BeliefMeasure.dirac(p), T)
    nx = A_eq.shape[1] - stage.size
    sol = solve_lp(
        np.concatenate([np.zeros(nx), theta.dense()[stage - 1]]),
        A_ub=A_ub,
        b_ub=np.zeros(A_ub.shape[0]),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        maximize=True,
    )
    if sol.status != "optimal":
        raise LPError(f"exact LP at belief {p} through stage {T} ended {sol.status}")
    return sol.objective, sol.objective


def w_exact(aux: AuxGame, m: int, n: int) -> tuple[float, ThetaWeights] | None:
    """w_{m,n} at the game's initial belief measure and a minimizing stage
    measure theta* on {1..n} (prefix lengths, as ``theta_lift`` takes it);
    None when the model, with its z column, has more than ``W_MAX_COLUMNS``
    columns. Raises LPError when the solve does not end optimal.
    """
    if model_columns(aux, aux.pihat.size, m + n) + 1 > W_MAX_COLUMNS:
        return None
    A_ub, A_eq, b_eq, bounds, stage = _sequence_form(aux, aux.pihat, m + n, z=True)
    nx = A_eq.shape[1] - stage.size - 1
    # prefix row t: z - (1/t) sum of y over stages m+1 .. m+t <= 0
    t = np.arange(1, n + 1)[:, None]
    prefix = np.where((stage > m) & (stage <= m + t), -1.0 / t, 0.0)
    prefix = np.hstack([np.zeros((n, nx)), prefix, np.ones((n, 1))])
    sol = solve_lp(
        np.eye(1, A_eq.shape[1], A_eq.shape[1] - 1).ravel(),
        A_ub=sp.vstack([A_ub, sp.coo_array(prefix)]),
        b_ub=np.zeros(A_ub.shape[0] + n),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        maximize=True,
    )
    if sol.status != "optimal":
        raise LPError(f"exact w LP with m = {m}, n = {n} ended {sol.status}")
    weights = normalize_mixtures(sol.dual_ub[-n:])
    theta_star = ThetaWeights.from_map({s + 1: w for s, w in enumerate(weights) if w > 0})
    return sol.objective, theta_star
