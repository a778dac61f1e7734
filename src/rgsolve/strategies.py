"""Strategy extraction for both players, plus the concavification oracle.

Player 1's finite-horizon rules come from the maximizing stacked actions
stored during backward induction, and its long-run rules from one split of
the belief onto the concave hull of the non-revealing value; player 2's
from the minimizing mixtures of the upper stage LPs. Off-lattice beliefs
fall back to the nearest lattice point in l1, so each extracted object
reports a guarantee slack: certification gap plus the nonexpansiveness
loss of the lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .beliefs import splitting_action
from .config import TOL
from .game_model import AuxGame, RepeatedGameSpec, auxiliary_game
from .lp import MatrixGameSolution, matrix_game_value
from .values.engine import ValueGrid, default_resolution, value_mn, value_theta_grid
from .values.grid import (
    SimplexGrid,
    eval_pieces,
    hull_pieces,
    hull_weights,
    nearest,
)
from .values.thetas import ThetaWeights


def _nonrevealing_game(p: np.ndarray, payoff: np.ndarray) -> MatrixGameSolution:
    """The one-shot game at belief p when player 1 plays the same mixture in
    every state: val(sum_k p^k G^k) is the non-revealing value u(p)."""
    return matrix_game_value(np.einsum("k,kij->ij", p, payoff))


@dataclass(frozen=True, eq=False)
class MarkovStrategy1:
    """Stage-indexed informed-player rules: belief -> stacked mixed action.

    Beyond the computed stages the strategy switches to maintenance: the
    optimal mixture of the belief-averaged one-shot game, played in every
    state. Being state-independent it reveals nothing, so the belief
    freezes and the stage guarantee holds at the non-revealing value;
    repeating the finite-horizon rules instead would keep spending the
    informational advantage and collapse the long-run average.
    """

    stage_atoms: tuple[np.ndarray, ...]
    stage_actions: tuple[np.ndarray, ...]  # per stage: (R, K, I)
    slack: float
    payoff_tensor: np.ndarray | None = None  # (K, I, J) for the maintenance rule
    meta: dict = field(default_factory=dict)

    takes_stacks = True  # lookups accept an (R, K) stack of beliefs

    def __post_init__(self):
        object.__setattr__(self, "_tail_cache", {})

    def stacked_action(self, t: int, p: np.ndarray) -> np.ndarray:
        """(K, I) at a belief p, or (R, K, I) for an (R, K) stack."""
        if t > len(self.stage_atoms) and self.payoff_tensor is not None:
            return self._maintenance(p)
        idx = min(t, len(self.stage_atoms)) - 1
        return self.stage_actions[idx][nearest(self.stage_atoms[idx], p)]

    def _maintenance(self, p: np.ndarray) -> np.ndarray:
        """The tail's rule, solved at the belief rounded to 12 digits and
        cached under it, so beliefs that round alike get the same row
        whatever the order of the calls."""
        out = []
        for q in np.round(np.atleast_2d(np.asarray(p, float)), 12):
            key = q.tobytes()
            if key not in self._tail_cache:
                row = _nonrevealing_game(q, self.payoff_tensor).row_strategy
                self._tail_cache[key] = np.tile(row, (self.payoff_tensor.shape[0], 1))
            out.append(self._tail_cache[key])
        return out[0] if np.ndim(p) == 1 else np.stack(out)

    def to_json(self) -> dict:
        return {
            "player": 1,
            "slack": self.slack,
            "meta": self.meta,
            "payoff_tensor": (
                self.payoff_tensor.tolist() if self.payoff_tensor is not None else None
            ),
            "stages": [
                {
                    "beliefs": atoms.tolist(),
                    "actions": acts.tolist(),
                }
                for atoms, acts in zip(self.stage_atoms, self.stage_actions)
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "MarkovStrategy1":
        stages = doc["stages"]
        tensor = doc.get("payoff_tensor")
        return MarkovStrategy1(
            stage_atoms=tuple(np.asarray(s["beliefs"], float) for s in stages),
            stage_actions=tuple(np.asarray(s["actions"], float) for s in stages),
            slack=float(doc.get("slack", 0.0)),
            payoff_tensor=np.asarray(tensor, float) if tensor is not None else None,
            meta=doc.get("meta", {}),
        )


@dataclass(frozen=True, eq=False)
class BlockStrategy2:
    """Blockwise uninformed-player rules: belief -> mixture over own actions.

    The schedule lists block lengths; ``cyclic`` repeats it forever,
    otherwise play continues with the last block's rules. Rules are
    indexed per block and in-block stage.
    """

    schedule: tuple[int, ...]
    block_atoms: tuple[tuple[np.ndarray, ...], ...]  # [block][in-block stage]
    block_mixtures: tuple[tuple[np.ndarray, ...], ...]  # [block][stage]: (R, J)
    cyclic: bool
    slack: float
    meta: dict = field(default_factory=dict)

    takes_stacks = True  # lookups accept an (R, K) stack of beliefs

    def _locate(self, t: int) -> tuple[int, int]:
        total = sum(self.schedule)
        t0 = t - 1
        if self.cyclic:
            t0 %= total
        elif t0 >= total:
            return len(self.schedule) - 1, self.schedule[-1] - 1
        for b, length in enumerate(self.schedule):
            if t0 < length:
                return b, t0
            t0 -= length
        return len(self.schedule) - 1, self.schedule[-1] - 1

    def mixture(self, t: int, p: np.ndarray) -> np.ndarray:
        """(J,) at a belief p, or (R, J) for an (R, K) stack."""
        b, s = self._locate(t)
        atoms = self.block_atoms[b][s]
        return self.block_mixtures[b][s][nearest(atoms, p)]

    def to_json(self) -> dict:
        return {
            "player": 2,
            "cyclic": self.cyclic,
            "schedule": list(self.schedule),
            "slack": self.slack,
            "meta": self.meta,
            "blocks": [
                [
                    {"beliefs": atoms.tolist(), "mixtures": mix.tolist()}
                    for atoms, mix in zip(batoms, bmix)
                ]
                for batoms, bmix in zip(self.block_atoms, self.block_mixtures)
            ],
        }

    @staticmethod
    def from_json(doc: dict) -> "BlockStrategy2":
        blocks = doc["blocks"]
        return BlockStrategy2(
            schedule=tuple(doc["schedule"]),
            block_atoms=tuple(
                tuple(np.asarray(s["beliefs"], float) for s in blk) for blk in blocks
            ),
            block_mixtures=tuple(
                tuple(np.asarray(s["mixtures"], float) for s in blk) for blk in blocks
            ),
            cyclic=bool(doc.get("cyclic", True)),
            slack=float(doc.get("slack", 0.0)),
            meta=doc.get("meta", {}),
        )


def load_strategy(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("player") == 1:
        return MarkovStrategy1.from_json(doc)
    if doc.get("player") == 2:
        return BlockStrategy2.from_json(doc)
    raise ValueError("strategy file must declare player 1 or 2")


def save_strategy(strategy, path) -> None:
    with open(path, "w") as fh:
        json.dump(strategy.to_json(), fh, indent=2)


def _strategy_slack(vg: ValueGrid) -> float:
    return vg.gap + vg.grid.covering_radius


def _horizon_grid(
    aux: AuxGame, n: int | None, resolution: int | None, vgrid: ValueGrid | None
) -> ValueGrid:
    """The given value grid, checked against the horizon n when both are
    given, or the uniform(n) grid at ``resolution``."""
    if vgrid is None:
        if n is None:
            raise ValueError("provide a horizon or a value grid")
        return value_theta_grid(aux, ThetaWeights.uniform(n), resolution)
    if n is not None and len(vgrid.stage_rules) != n:
        raise ValueError(
            f"value grid has {len(vgrid.stage_rules)} stage rules, not the horizon {n}"
        )
    return vgrid


def extract_p1_markov(
    spec: RepeatedGameSpec | AuxGame,
    n: int | None = None,
    resolution: int | None = None,
    vgrid: ValueGrid | None = None,
    long_run: bool = False,
) -> MarkovStrategy1:
    """Informed-player rules from the backward-induction argmax tables of
    ``vgrid``, or of the uniform(n) grid when no grid is given.

    ``long_run`` trims the endgame rules (stages whose remaining weight is
    at least half on the current stage, which spend information myopically)
    and relies on the maintenance tail; use it when auditing horizons far
    beyond the extraction horizon.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    vgrid = _horizon_grid(aux, n, resolution, vgrid)
    atoms = vgrid.grid.points
    rules = vgrid.stage_rules
    if long_run:
        kept = [r for r in rules if r.alpha < 0.5]
        rules = tuple(kept) if kept else rules[:1]
    return MarkovStrategy1(
        stage_atoms=tuple(atoms for _ in rules),
        stage_actions=tuple(rule.argmax for rule in rules),
        slack=_strategy_slack(vgrid),
        payoff_tensor=aux.payoff,
        meta={"kind": "markov-argmax", "long_run": long_run, **vgrid.meta},
    )


def extract_p1_longrun(
    spec: RepeatedGameSpec | AuxGame,
    prep_stages: int = 4,
    resolution: int | None = None,
) -> MarkovStrategy1:
    """Long-horizon informed-player strategy: position, then maintain.

    On fixed-state games the long-run value is cav u, the concave hull of
    the non-revealing value u (Aumann and Maschler). The positioning rule
    at a belief p splits it onto the lattice points of its best barycentric
    combination of tabulated u values, each of which has u = cav u of the
    lattice data; the maintenance tail then plays the non-revealing row,
    which reveals nothing. Rules are built at every lattice point and at
    every atom of the prior, and one table serves all ``prep_stages``
    stages, since splitting again at a split point cannot raise cav u.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    res = default_resolution(aux.nK) if resolution is None else resolution
    grid = SimplexGrid.create(aux.nK, res)
    level = np.array([_nonrevealing_game(p, aux.payoff).value for p in grid.points])
    atoms = np.unique(np.vstack([grid.points, aux.pihat.atoms]), axis=0)
    rule = np.array([_split_or_stay(aux, grid, level, p) for p in atoms])
    return MarkovStrategy1(
        stage_atoms=tuple(atoms for _ in range(prep_stages)),
        stage_actions=tuple(rule for _ in range(prep_stages)),
        slack=grid.covering_radius,
        payoff_tensor=aux.payoff,
        meta={"kind": "longrun-positioning", "prep_stages": prep_stages},
    )


def _split_or_stay(
    aux: AuxGame, grid: SimplexGrid, level: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Stacked action splitting p onto the support of its hull weights, with
    component s played as pure action s in every state; the maintenance row
    when the split has one point, has more points than player 1 has
    actions, or is not what player 2's signals reveal."""
    lam = hull_weights(grid, level, p)
    support = np.flatnonzero(lam > TOL.structural)
    if 2 <= support.size <= aux.nI:
        points = grid.points[support]
        weights = lam[support] / lam[support].sum()
        pure = np.repeat(np.eye(aux.nI)[: support.size, None, :], aux.nK, axis=1)
        a = splitting_action(p, list(zip(weights, points)), list(pure))
        posteriors = aux.belief_step(p, a).atoms
        if len(posteriors) == len(points) and all(
            np.abs(posteriors - q).sum(axis=1).min() <= 1e-9 for q in points
        ):
            return a
    return np.tile(_nonrevealing_game(p, aux.payoff).row_strategy, (aux.nK, 1))


def build_p2_cyclic(
    spec: RepeatedGameSpec | AuxGame,
    n: int,
    resolution: int | None = None,
    vgrid: ValueGrid | None = None,
) -> BlockStrategy2:
    """Cyclic repetition of the n-stage minimizing rules.

    The payoff-stage rules of any shifted n-stage game coincide, so the
    cycle is simultaneously optimal (up to certification slack) in every
    block-aligned shifted game; the guarantee at horizons divisible by n
    is the windowed sup over shifts of the shifted values. A given
    ``vgrid`` must have n stage rules.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    vgrid = _horizon_grid(aux, n, resolution, vgrid)
    atoms = vgrid.grid.points
    rules = vgrid.stage_rules
    return BlockStrategy2(
        schedule=(n,),
        block_atoms=(tuple(atoms for _ in rules),),
        block_mixtures=(tuple(rule.opponent for rule in rules),),
        cyclic=True,
        slack=_strategy_slack(vgrid),
        meta={"kind": "cyclic", "n": n, **vgrid.meta},
    )


def build_p2_growing(
    spec: RepeatedGameSpec | AuxGame,
    resolution: int | None = None,
    max_block: int = 10,
) -> BlockStrategy2:
    """Blocks of growing length: block m (length m) plays the minimizing
    rules of the game averaging stages m(m-1)/2 + 1 .. m(m+1)/2."""
    if max_block < 1:
        raise ValueError(f"max_block must be at least 1, got {max_block}")
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    block_atoms = []
    block_mixtures = []
    slack = 0.0
    for m in range(1, max_block + 1):
        offset = m * (m - 1) // 2
        vg = value_mn(aux, offset, m, resolution)
        payoff_rules = vg.stage_rules[offset:]
        atoms = vg.grid.points
        block_atoms.append(tuple(atoms for _ in payoff_rules))
        block_mixtures.append(tuple(rule.opponent for rule in payoff_rules))
        slack = max(slack, _strategy_slack(vg))
    return BlockStrategy2(
        schedule=tuple(range(1, max_block + 1)),
        block_atoms=tuple(block_atoms),
        block_mixtures=tuple(block_mixtures),
        cyclic=False,
        slack=slack,
        meta={"kind": "growing", "max_block": max_block},
    )


# ---------------------------------------------------------------------------
# Concavification oracle for the fixed-state perfect-monitoring subclass
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CavUOracle:
    """Least concave majorant of the one-shot mixed value p -> val(sum p^k G^k).

    Ground truth for the fixed-state subclass: interpolation error of the
    sampled envelope is at most the payoff Lipschitz constant times the
    sample covering radius.
    """

    points: np.ndarray  # (G, K)
    u_values: np.ndarray
    pieces: np.ndarray  # (M, K): values at the simplex vertices
    error_bound: float

    def u(self, p: np.ndarray) -> float:
        return float(self.u_values[nearest(self.points, p)])

    def cav(self, p: np.ndarray) -> float:
        return eval_pieces(self.pieces, np.asarray(p, float))


def cavu_oracle(matrices: list[np.ndarray], resolution: int = 64) -> CavUOracle:
    """Tabulate the non-revealing value on a simplex lattice and build its
    upper concave envelope (exact hull of the sampled graph)."""
    mats = np.stack([np.asarray(m, float) for m in matrices])
    K = mats.shape[0]
    if K > 3:
        raise ValueError("concavification oracle supports at most 3 states")
    grid = SimplexGrid.create(K, resolution)
    u_vals = np.array([_nonrevealing_game(p, mats).value for p in grid.points])
    lip = float(np.abs(mats).max())
    rho = grid.covering_radius
    return CavUOracle(
        points=grid.points,
        u_values=u_vals,
        pieces=hull_pieces(grid.points, u_vals),
        error_bound=lip * rho,
    )
