"""Depth-first tree backend, independent of the lattice engine.

Bounds are produced pointwise, with no interpolation from a precomputed
lattice:

* lower: the exact value of a concrete plan on the reachable posterior
  tree. Plans are built greedily (candidates scored by stage payoff plus
  a memoized one-shot proxy of the continuation), multi-started over the
  root candidates, and the best plan is evaluated exactly, so the bound
  is a true guarantee.
* upper: the one-stage LP against a concave majorant of recursively
  computed upper values at a small anchor set (the lattice at
  ``ANCHOR_RESOLUTION``, the simplex vertices, the current point and the
  incumbent posteriors), iterated so the majorant tightens around the
  maximizer. The majorant is the grid engine's ``concave_majorant``; the
  anchors contain its lattice, so the bound holds for every number of
  states (for K >= 3 it is the anchors' concave hull raised by a lattice
  cell's l1 diameter).

Both bounds are clipped to the payoff range, as the grid sweep's are.
Guarded by a maximum stage: the posterior tree grows with the horizon.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..game_model import AuxGame, RepeatedGameSpec, auxiliary_game
from .grid import SimplexGrid, concave_majorant
from .stage import one_shot_lp, stage_upper_lp
from .thetas import ThetaWeights, suffix_chain

MAX_STAGE_GUARD = 4  # deepest stage an evaluation measure may charge
ACTION_RESOLUTION = 4  # lattice of per-state mixtures tried at the root
ANCHOR_RESOLUTION = 8  # lattice the upper majorant is anchored on


def _candidate_actions(nK: int, nI: int, resolution: int) -> np.ndarray:
    """Product lattice over the per-state action simplices, plus the
    state-independent (non-revealing) rows."""
    per_state = SimplexGrid.create(nI, resolution).points
    combos = [
        per_state[list(ix)]
        for ix in itertools.product(range(len(per_state)), repeat=nK)
    ]
    rows = np.array(combos)
    constants = np.array([np.tile(row, (nK, 1)) for row in per_state])
    out = np.vstack([rows, constants])
    return np.unique(np.round(out, 12), axis=0)


class _TreeSolver:
    def __init__(self, aux: AuxGame, theta: ThetaWeights):
        self.aux = aux
        self.chain = suffix_chain(theta)
        self.root_candidates = _candidate_actions(aux.nK, aux.nI, ACTION_RESOLUTION)
        self.deep_candidates = _candidate_actions(aux.nK, aux.nI, min(ACTION_RESOLUTION, 2))
        self.anchors = SimplexGrid.create(aux.nK, ANCHOR_RESOLUTION).points
        self.pay_lo, self.pay_hi = float(aux.payoff.min()), float(aux.payoff.max())
        self.lower_memo: dict[tuple[int, bytes], float] = {}
        self.upper_memo: dict[tuple[int, bytes], float] = {}

    @staticmethod
    def _key(level: int, p: np.ndarray) -> tuple[int, bytes]:
        return level, np.round(np.asarray(p, float), 12).tobytes()

    # -- lower bound: greedy plans evaluated exactly -----------------------

    def _proxy(self, p: np.ndarray) -> float:
        return one_shot_lp(self.aux, p)[0]

    def _score(self, level: int, p: np.ndarray, a: np.ndarray) -> float:
        alpha = self.chain[level].first_weight
        val = alpha * self.aux.guaranteed_payoff(p, a)
        if alpha < 1.0:
            step = self.aux.belief_step(p, a)
            val += (1.0 - alpha) * sum(
                w * self._proxy(atom) for atom, w in zip(step.atoms, step.weights)
            )
        return val

    def _candidates(self, pool: np.ndarray, p: np.ndarray) -> list[np.ndarray]:
        # the myopically optimal stacked action joins the lattice; it makes
        # single-state recursions exact and anchors the search elsewhere
        return [one_shot_lp(self.aux, p)[1], *pool]

    def _greedy_value(self, level: int, p: np.ndarray) -> float:
        """Exact value of the proxy-greedy plan rooted at (level, p)."""
        key = self._key(level, p)
        if key in self.lower_memo:
            return self.lower_memo[key]
        node = self.chain[level]
        if node.max_stage == 1:
            out = self._proxy(p)
        else:
            cands = self._candidates(self.deep_candidates, p)
            scores = [self._score(level, p, a) for a in cands]
            a = cands[int(np.argmax(scores))]
            out = self._plan_value(level, p, a)
        self.lower_memo[key] = out
        return out

    def _plan_value(self, level: int, p: np.ndarray, a: np.ndarray) -> float:
        """Exact value of: play a now, continue with the greedy plan."""
        alpha = self.chain[level].first_weight
        val = alpha * self.aux.guaranteed_payoff(p, a)
        if alpha < 1.0:
            step = self.aux.belief_step(p, a)
            val += (1.0 - alpha) * sum(
                w * self._greedy_value(level + 1, atom)
                for atom, w in zip(step.atoms, step.weights)
            )
        return val

    def lower(self, p: np.ndarray) -> tuple[float, np.ndarray]:
        """Multi-start over root candidates, greedy continuation below."""
        if self.chain[0].max_stage == 1:
            return self._proxy(p), one_shot_lp(self.aux, p)[1]
        cands = self._candidates(self.root_candidates, p)
        scores = np.array([self._score(0, p, a) for a in cands])
        order = np.argsort(-scores)[: max(8, len(scores) // 4)]
        best_val, best_a = -np.inf, cands[0]
        for idx in order:
            a = cands[idx]
            val = self._plan_value(0, p, a)
            if val > best_val:
                best_val, best_a = val, a
        return best_val, best_a

    # -- upper bound: anchored concave majorants ---------------------------

    def upper(self, level: int, p: np.ndarray, hint_action: np.ndarray | None = None) -> float:
        key = self._key(level, p)
        if key in self.upper_memo:
            return self.upper_memo[key]
        node = self.chain[level]
        if node.max_stage == 1:
            out = self._proxy(p)
        else:
            alpha = node.first_weight
            pts = [self.anchors, np.eye(self.aux.nK), np.asarray(p, float)[None, :]]
            if hint_action is not None:
                pts.append(self.aux.belief_step(p, hint_action).atoms)
            anchor_pts = np.unique(np.round(np.vstack(pts), 12), axis=0)
            out = np.inf
            for _ in range(2):
                vals = np.array(
                    [self.upper(level + 1, q) for q in anchor_pts]
                )
                pieces = concave_majorant(anchor_pts, vals, ANCHOR_RESOLUTION)
                bound, a_up, _ = stage_upper_lp(self.aux, p[None, :], alpha, pieces)
                out = min(out, float(bound[0]))
                new_atoms = self.aux.belief_step(p, a_up[0]).atoms
                merged = np.unique(
                    np.round(np.vstack([anchor_pts, new_atoms]), 12), axis=0
                )
                if merged.shape[0] == anchor_pts.shape[0]:
                    break
                anchor_pts = merged
            out = min(max(float(out), self.pay_lo), self.pay_hi)
        self.upper_memo[key] = out
        return out


def value_theta_exact(
    spec: RepeatedGameSpec | AuxGame,
    theta: ThetaWeights,
    p: np.ndarray,
) -> tuple[float, float]:
    """Bracketing bounds for the theta-weighted value at a single belief.

    Raises when the evaluation measure charges stages beyond
    ``MAX_STAGE_GUARD``.
    """
    if theta.max_stage > MAX_STAGE_GUARD:
        raise ValueError(
            f"evaluation measure reaches stage {theta.max_stage}, "
            f"beyond the tree guard {MAX_STAGE_GUARD}"
        )
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    solver = _TreeSolver(aux, theta)
    p = np.asarray(p, float)
    lower, best_a = solver.lower(p)
    lower = min(max(lower, solver.pay_lo), solver.pay_hi)
    upper = solver.upper(0, p, hint_action=best_a)
    if upper < lower - 1e-6:
        raise RuntimeError(f"tree backend bound inversion: {lower} > {upper}")
    return float(lower), float(max(lower, upper))
