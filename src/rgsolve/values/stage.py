"""One-stage operators of the belief game.

The stage problem at belief p blends the guaranteed stage payoff (weight
alpha) with a continuation functional of the belief transition. Against a
continuation represented by a concave piecewise-linear function
min_m w_m . q (``w_m``, a row of the (M, K) pieces, holds piece m's values
at the simplex vertices), positive homogeneity makes its contribution through
each signal column linear, so the step is one "upper-form" LP: maximize
alpha * z + (1 - alpha) * sum_d t_d over stacked actions, with z below the
expected payoff against every opposing action and t_d below every piece
applied to column d. The duals of the payoff rows are a minimizing opponent
mixture, and the optimizer is a playable stacked action.

* upper: the continuation is a concave majorant of the upper values;
* lower: the continuation of each posterior atom is its best barycentric
  combination of grid lower values, which is exactly the upper concave
  hull of the lower values (``grid.hull_pieces``, for every K). So the
  lower step is the same upper-form LP against the hull's pieces, and its
  optimum is a true guarantee.

Upper-form LPs are assembled for many beliefs at once and solved as
block-diagonal models of at most ``BLOCK`` beliefs each.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np
import scipy.sparse as sp

from ..game_model import AuxGame
from ..lp import LPError, normalize_mixtures, solve_lp
from .grid import SimplexGrid, hull_pieces

# most beliefs per HiGHS model: a resolution-64 grid is five models. HiGHS
# memory grows with the model, by about 0.45 MB per belief on a six-signal
# game with 64 continuation pieces, while larger models save little time
BLOCK = 13


def stage_upper_lp(
    aux: AuxGame,
    points: np.ndarray,
    alpha: float,
    pieces: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified upper Shapley step against a concave PWL continuation majorant.

    ``points`` is a (P, K) array of beliefs. Returns per belief the value
    (P,), the maximizing stacked action of the relaxed game (P, K, I) and
    the opponent mixture read from the payoff-row duals (P, J). ``pieces``
    is the (M, K) continuation: piece m applied to a signal column x is
    pieces[m] @ x.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    q_weights = np.einsum("kind,mn->kidm", aux.qbar, pieces)  # (K, I, D, M)
    blocks = np.array_split(points, -(-len(points) // BLOCK))
    parts = [_solve_upper_form(aux, block, alpha, q_weights) for block in blocks]
    values, actions, opponents = (np.concatenate(arrs) for arrs in zip(*parts))
    return values, actions, opponents


def stage_lower_lp(
    aux: AuxGame,
    grid: SimplexGrid,
    alpha: float,
    vlow: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Certified lower Shapley step at every lattice point against the
    lower values ``vlow``; returns per point the value (G,) and the
    maximizing stacked action (G, K, I), whose value it guarantees."""
    values, actions, _ = stage_upper_lp(aux, grid.points, alpha, hull_pieces(grid.points, vlow))
    return values, actions


def _solve_upper_form(aux, points, alpha, q_weights):
    """Solve the upper-form LPs of ``points`` as one block-diagonal model;
    if it fails, solve the beliefs one per model."""
    try:
        return _upper_form_model(aux, points, alpha, q_weights)
    except LPError as exc:
        if len(points) == 1:
            raise _failed_at(alpha, points[0], exc) from exc
    parts = [_solve_upper_form(aux, p[None, :], alpha, q_weights) for p in points]
    return tuple(np.concatenate(arrs) for arrs in zip(*parts))


def _upper_form_model(aux, points, alpha, q_weights):
    """One HiGHS model holding the upper-form LP of every belief in
    ``points`` as a diagonal block.

    Per belief the variables are the stacked action a (K*I), the payoff
    floor z in [0, 1] and the continuation terms t (D). Its <= rows are J
    payoff rows (z <= payoff against j) and then D*M piece rows (t_d <=
    piece m on column d); its K equality rows make each a[k] a mixture.
    """
    K, I, J, D = aux.nK, aux.nI, aux.nJ, aux.nD
    M = q_weights.shape[-1]
    B, KI = len(points), K * I
    nv, nr = KI + 1 + D, J + D * M
    # column by column: every a column meets all nr rows; z meets the
    # payoff rows and t_d its piece rows with coefficient 1, which
    # together are the nr rows once more
    pay = np.einsum("gk,kij->gkij", points, aux.payoff)
    piece = np.einsum("gk,kidm->gkidm", points, q_weights).reshape(B, K, I, D * M)
    values = np.concatenate(
        [-np.concatenate([pay, piece], axis=3).reshape(B, KI * nr), np.ones((B, nr))],
        axis=1,
    )
    rows = np.tile(np.arange(nr), KI + 1) + nr * np.arange(B)[:, None]
    start = np.concatenate([[0], np.cumsum(np.tile([nr] * KI + [J] + [M] * D, B))])
    A_ub = sp.csc_array((values.ravel(), rows.ravel(), start), shape=(B * nr, B * nv))
    # equality rows: belief g's row k sums the block a[k]
    A_eq = np.zeros((B * K, B * nv))
    A_eq[np.arange(B * KI) // I, (np.arange(KI) + nv * np.arange(B)[:, None]).ravel()] = 1.0
    c = np.concatenate([np.zeros(KI), [alpha], np.full(D, 1.0 - alpha)])
    bounds = np.array([(0.0, np.inf)] * KI + [(0.0, 1.0)] + [(-np.inf, np.inf)] * D)
    sol = solve_lp(
        np.tile(c, B), A_ub=A_ub, b_ub=np.zeros(B * nr), A_eq=A_eq, b_eq=np.ones(B * K),
        bounds=np.tile(bounds, (B, 1)), maximize=True,
    )
    if sol.status != "optimal":
        raise LPError(f"upper-form stage LP ended with status {sol.status}")
    x = sol.primal.reshape(B, nv)
    duals = sol.dual_ub.reshape(B, nr)[:, :J]
    return x @ c, normalize_mixtures(x[:, :KI].reshape(B, K, I)), _dual_mixture(duals, alpha)


def _failed_at(alpha: float, p: np.ndarray, exc: LPError) -> LPError:
    return LPError(f"stage LP failed at alpha={alpha}, belief {p.tolist()}: {exc}")


_one_shot_memo: "weakref.WeakKeyDictionary[AuxGame, dict]" = weakref.WeakKeyDictionary()


def one_shot_lp(aux: AuxGame, points: np.ndarray):
    """Exact value of the one-stage informed game (memoized per game and
    belief set).

    A (P, K) array of beliefs gives read-only arrays of values (P,),
    stacked actions (P, K, I) and opponent mixtures (P, J); a single belief
    gives one (value, action, mixture) triple.
    """
    pts = np.asarray(points, dtype=float)
    store = _one_shot_memo.setdefault(aux, {})
    # a digest keeps the key small: the memo lives as long as the game
    key = (pts.shape, hashlib.blake2b(pts.tobytes(), digest_size=16).digest())
    if key not in store:
        store[key] = stage_upper_lp(aux, pts, 1.0, np.zeros((1, aux.nK)))
        for arr in store[key]:
            arr.flags.writeable = False
    values, actions, opponents = store[key]
    if pts.ndim == 1:
        return float(values[0]), actions[0], opponents[0]
    return values, actions, opponents


def _dual_mixture(duals: np.ndarray, alpha: float) -> np.ndarray:
    """Opponent mixtures from payoff-row duals (last axis); uniform when the
    stage payoff carries no weight or the duals vanish."""
    nJ = duals.shape[-1]
    if alpha <= 0.0:
        return np.full(duals.shape, 1.0 / nJ)
    return normalize_mixtures(duals)
