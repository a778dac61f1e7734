"""Backward induction on the belief grid with certified sandwich bounds.

Each computed object carries lower and upper arrays over the lattice; the
true value function is pinned between them. One backward sweep applies the
one-stage operator to both envelopes (lower via barycentric interpolation,
upper via a concave majorant) and clips both to the payoff range, so the
gap grows by at most the per-stage interpolation error, which is reported.
A sweep hands all grid points to each stage operator at once; the ``jobs``
keyword of ``value_theta_grid`` and ``uniform_value_estimate`` is ignored.

A sweep's output depends only on the game, the lattice and the alphas of
the suffix chain from its stage inward, so sweeps are memoized on
(resolution, exact alpha tail, outermost first). Shifts are exact, so the
chain of v_{m,n} is m zero alphas on top of the chain of v_{0,n}. The memo
belongs to the outermost of ``value_theta_grid``, ``w_mn`` and
``uniform_value_estimate`` running on a game, is shared by the calls
nested in it, and is dropped when that call returns or raises; its arrays
are read-only.
"""

from __future__ import annotations

import logging
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..beliefs import BeliefMeasure
from ..game_model import AuxGame, RepeatedGameSpec, auxiliary_game
from .grid import (
    SimplexGrid,
    concave_majorant,
    lipschitz_upper,
    lower_value,
)
from .stage import one_shot_lp, stage_lower_lp, stage_upper_lp
from .thetas import ThetaWeights, suffix_chain, theta_lift, theta_shift

log = logging.getLogger(__name__)

DEFAULT_RESOLUTION = {1: 1, 2: 32, 3: 16}
# resolution of the stage-measure lattice behind the window's w cells
WINDOW_THETA_RESOLUTION = 2


def default_resolution(nK: int) -> int:
    if nK >= 4:
        log.warning("grids over %d states are expensive; consider a coarse resolution", nK)
    return DEFAULT_RESOLUTION.get(nK, 8)


@dataclass(frozen=True, eq=False)
class StageRule:
    """Per-stage decision data attached to each lattice point."""

    alpha: float
    argmax: np.ndarray  # (G, K, I)
    opponent: np.ndarray  # (G, J)


@dataclass(frozen=True, eq=False)
class ValueGrid:
    grid: SimplexGrid
    lower: np.ndarray
    upper: np.ndarray
    stage_rules: tuple[StageRule, ...]  # forward order: rules for stage 1, 2, ...
    payoff_range: tuple[float, float]  # (min, max) payoff: every value lies in it
    meta: dict = field(default_factory=dict)

    @property
    def gap(self) -> float:
        return float(np.max(self.upper - self.lower))

    @property
    def argmax(self) -> np.ndarray:
        """(G, K, I): the stage-1 optimizing stacked action at each point."""
        return self.stage_rules[0].argmax

    @property
    def opponent(self) -> np.ndarray:
        """(G, J): player 2's stage-1 mixture at each point."""
        return self.stage_rules[0].opponent


def _sweep(
    aux: AuxGame,
    grid: SimplexGrid,
    alpha: float,
    vlow: np.ndarray,
    vup: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One application of the stage operator to the bound pair."""
    if grid.size == 1:
        # single belief point: the stage decomposes exactly, so the memoized
        # one-shot LP stands in for both stage LPs; a one-state w_mn runs
        # thousands of sweeps, and two LPs per sweep make it ~70x slower
        v1, a, b = one_shot_lp(aux, grid.points)
        return alpha * v1 + (1 - alpha) * vlow, alpha * v1 + (1 - alpha) * vup, a, b
    pieces = concave_majorant(grid.points, vup, grid.resolution)
    lo, argmax = stage_lower_lp(aux, grid.points, alpha, grid, vlow)
    up, _, opponent = stage_upper_lp(aux, grid.points, alpha, pieces)
    inverted = np.flatnonzero(up < lo - 1e-6)
    if inverted.size:
        g = int(inverted[0])
        raise RuntimeError(
            f"bound inversion at grid point {g}: lower {lo[g]} > upper {up[g]}"
        )
    # guard LP noise at the 1e-9 scale; every value lies in the payoff range
    lo, up = np.minimum(lo, up), np.maximum(lo, up)
    pay_lo, pay_hi = aux.payoff.min(), aux.payoff.max()
    return np.clip(lo, pay_lo, pay_hi), np.clip(up, pay_lo, pay_hi), argmax, opponent


# per game: {(resolution, alpha tail): (lower, upper, argmax, opponent)},
# alive only while the outermost public call on that game runs
_sweep_memos: "weakref.WeakKeyDictionary[AuxGame, dict]" = weakref.WeakKeyDictionary()


@contextmanager
def _memo_scope(aux: AuxGame):
    """The game's sweep memo: created by the outermost public call, shared
    by the calls nested in it, and dropped when the outermost one ends."""
    memo = _sweep_memos.get(aux)
    if memo is not None:
        yield memo
        return
    memo = _sweep_memos[aux] = {}
    try:
        yield memo
    finally:
        _sweep_memos.pop(aux, None)


def value_theta_grid(
    spec: RepeatedGameSpec | AuxGame,
    theta: ThetaWeights,
    resolution: int | None = None,
    jobs: int = 1,
) -> ValueGrid:
    """Certified bounds for the theta-weighted game on the belief lattice.

    ``jobs`` is accepted for compatibility and ignored, here and in
    ``uniform_value_estimate``: each sweep solves its whole grid as a few
    block LPs in one thread. The returned arrays are read-only.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    res = resolution or default_resolution(aux.nK)
    grid = SimplexGrid.create(aux.nK, res)
    alphas = tuple(th.first_weight for th in suffix_chain(theta))

    # innermost suffix is the one-stage game: exact at lattice points
    # the memo's read-only arrays, shared rather than copied
    vlow, argmax, opponent = one_shot_lp(aux, grid.points)
    vup = vlow
    rules = [StageRule(alpha=alphas[-1], argmax=argmax, opponent=opponent)]
    with _memo_scope(aux) as memo:
        for idx in range(len(alphas) - 2, -1, -1):
            key = (res, alphas[idx:])
            out = memo.get(key)
            if out is None:
                out = memo[key] = _sweep(aux, grid, alphas[idx], vlow, vup)
                for arr in out:
                    arr.flags.writeable = False
            vlow, vup, argmax, opponent = out
            rules.append(StageRule(alpha=alphas[idx], argmax=argmax, opponent=opponent))
    rules.reverse()  # rules[0] now belongs to stage 1
    gap = float(np.max(vup - vlow))
    if gap > 0.5:
        log.warning("grid too coarse to certify: max gap %.3f exceeds 0.5", gap)
    return ValueGrid(
        grid=grid,
        lower=vlow,
        upper=vup,
        stage_rules=tuple(rules),
        payoff_range=(float(aux.payoff.min()), float(aux.payoff.max())),
        meta={
            "theta": theta.as_map(),
            "resolution": res,
            "gap": gap,
            "states": aux.nK,
            "certification": "tight" if aux.nK <= 2 else "cell-diameter",
        },
    )


def value_mn(
    spec: RepeatedGameSpec | AuxGame,
    m: int,
    n: int,
    resolution: int | None = None,
) -> ValueGrid:
    """Bounds for the game averaging stages m+1 .. m+n."""
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    vg = value_theta_grid(spec, theta_shift(ThetaWeights.uniform(n), m), resolution)
    vg.meta["mn"] = (m, n)
    return vg


def evaluate_measure(vgrid: ValueGrid, u: BeliefMeasure) -> tuple[float, float]:
    """Weight-averaged certified bounds of the affine extension at u, each
    atom's bounds clipped to the payoff range."""
    if u.dim != vgrid.grid.dim:
        raise ValueError("measure lives on a different simplex")
    return _measure_bounds(vgrid.grid, vgrid.lower, vgrid.upper, u, vgrid.payoff_range)


def _measure_bounds(
    grid, vlow, vup, u: BeliefMeasure, payoff_range=(-np.inf, np.inf)
) -> tuple[float, float]:
    pay_lo, pay_hi = payoff_range
    lo = hi = 0.0
    for a, w in zip(u.atoms, u.weights):
        lo += w * min(max(lower_value(grid, vlow, a), pay_lo), pay_hi)
        hi += w * min(max(lipschitz_upper(grid, vup, a), pay_lo), pay_hi)
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Prefix-average guarantee values (min over initial segments)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WValueResult:
    lower: float  # certified over all evaluation measures (lattice + modulus)
    upper: float  # certified: min over sampled measures of their upper bound
    theta_star: ThetaWeights
    sampled: int
    theta_cover: float
    meta: dict = field(default_factory=dict)


def _theta_lattice(n: int, resolution: int) -> list[ThetaWeights]:
    lattice = SimplexGrid.create(n, resolution)
    out = []
    for row in lattice.points:
        out.append(ThetaWeights.from_map({t + 1: w for t, w in enumerate(row) if w > 0}))
    return out


def w_mn(
    spec: RepeatedGameSpec | AuxGame,
    m: int,
    n: int,
    u: BeliefMeasure | None = None,
    resolution: int | None = None,
    theta_resolution: int = 4,
    guard: int = 4,
) -> WValueResult:
    """Best payoff securable on every prefix average between stages m+1
    and m+t, t <= n: the infimum over lifted evaluation measures.

    Minimizes the certified bounds over a lattice of stage measures and
    the upper bound also over the best one's neighbours on the doubled
    lattice; the lower bound subtracts the total-variation modulus of the
    value in the evaluation measure (payoffs lie in [0, 1], so values move
    by at most half the l1 distance between lifted measures, which the lift
    does not expand).
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    if n > guard:
        raise ValueError(f"n={n} exceeds the guard {guard} for the theta search")
    if u is None:
        u = aux.pihat
    thetas = _theta_lattice(n, theta_resolution) if n > 1 else [ThetaWeights.dirac(1)]

    def bounds_for(th: ThetaWeights):
        vg = value_theta_grid(aux, theta_lift(th, m), resolution)
        return evaluate_measure(vg, u)

    # the lifted chains share their inner tails
    with _memo_scope(aux):
        evals = [(th, *bounds_for(th)) for th in thetas]
        best = min(evals, key=lambda t: t[2])
        theta_star, lo_star, up_star = best
        cover = 0.0 if n == 1 else (n - 1) / theta_resolution
        if n > 1:
            for th in _neighbor_thetas(theta_star, n, theta_resolution * 2):
                lo, up = bounds_for(th)
                if up < up_star:
                    theta_star, lo_star, up_star = th, lo, up
    lower = min(e[1] for e in evals) - cover / 2.0
    return WValueResult(
        lower=float(lower),
        upper=float(up_star),
        theta_star=theta_star,
        sampled=len(evals),
        theta_cover=cover,
        meta={"m": m, "n": n},
    )


def _neighbor_thetas(theta: ThetaWeights, n: int, resolution: int) -> list[ThetaWeights]:
    base = np.zeros(n)
    for t, w in zip(theta.stages, theta.weights):
        base[t - 1] = w
    out = []
    step = 1.0 / resolution
    for i in range(n):
        for j in range(n):
            if i == j or base[i] < step:
                continue
            cand = base.copy()
            cand[i] -= step
            cand[j] += step
            out.append(ThetaWeights.from_map({t + 1: w for t, w in enumerate(cand) if w > 0}))
    return out


# ---------------------------------------------------------------------------
# Windowed uniform-value estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UniformValueReport:
    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    v_lower: np.ndarray  # (M+1, N)
    v_upper: np.ndarray
    infsup_lower: float
    infsup_upper: float
    supinf_lower: float
    supinf_upper: float
    w_cells: dict  # (m, n) -> WValueResult
    diagnostics: dict

    def rows(self):
        for mi, m in enumerate(self.m_values):
            for ni, n in enumerate(self.n_values):
                yield m, n, float(self.v_lower[mi, ni]), float(self.v_upper[mi, ni])

    def to_json(self) -> dict:
        return {
            "m_values": list(self.m_values),
            "n_values": list(self.n_values),
            "v_lower": self.v_lower.tolist(),
            "v_upper": self.v_upper.tolist(),
            "infsup": [self.infsup_lower, self.infsup_upper],
            "supinf": [self.supinf_lower, self.supinf_upper],
            "w": {
                f"{m},{n}": {
                    "lower": r.lower,
                    "upper": r.upper,
                    "theta_star": {str(t): w for t, w in r.theta_star.as_map().items()},
                }
                for (m, n), r in self.w_cells.items()
            },
            "diagnostics": self.diagnostics,
        }


def uniform_value_estimate(
    spec: RepeatedGameSpec | AuxGame,
    max_m: int = 8,
    max_n: int = 8,
    resolution: int | None = None,
    u: BeliefMeasure | None = None,
    w_guard: int = 3,
    jobs: int = 1,
) -> UniformValueReport:
    """Fill the windowed tables of shifted values and prefix-guarantee
    values at the initial belief measure, and report the inf-sup / sup-inf
    estimates with all certificate slack aggregated.

    Cell (m, n) of the shifted table reads ``value_mn(m, n)``. Under one
    sweep memo each cell adds one payoff-free sweep to cell (m - 1, n), and
    the w cells, whose lifted chains end in the same tails, reuse them.
    The w cells search stage measures on the lattice at
    ``WINDOW_THETA_RESOLUTION``.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    if u is None:
        u = aux.pihat
    res = resolution or default_resolution(aux.nK)

    M, N = max_m, max_n
    v_lower = np.empty((M + 1, N))
    v_upper = np.empty((M + 1, N))
    max_gap = 0.0
    w_cells: dict[tuple[int, int], WValueResult] = {}
    with _memo_scope(aux):
        for n in range(1, N + 1):
            for m in range(M + 1):
                vg = value_mn(aux, m, n, res)
                v_lower[m, n - 1], v_upper[m, n - 1] = evaluate_measure(vg, u)
            max_gap = max(max_gap, vg.gap)

        for n in range(1, min(N, w_guard) + 1):
            for m in range(0, min(M, w_guard) + 1):
                w_cells[(m, n)] = w_mn(
                    aux, m, n, u=u, resolution=res,
                    theta_resolution=WINDOW_THETA_RESOLUTION, guard=w_guard,
                )

    infsup_lower = float(np.min(np.max(v_lower, axis=0)))
    infsup_upper = float(np.min(np.max(v_upper, axis=0)))
    supinf_lower = float(np.max(np.min(v_lower, axis=1)))
    supinf_upper = float(np.max(np.min(v_upper, axis=1)))

    # window-truncation flags: the estimate is trustworthy only when the
    # inf over n has flattened and the sup over m has stopped climbing
    infsup_col = np.max(v_upper, axis=0)
    supinf_row = np.min(v_lower, axis=1)
    window_small = bool(
        (N >= 2 and infsup_col[-1] < infsup_col[-2] - 1e-9)
        or (M >= 1 and supinf_row[-1] > supinf_row[-2] + 1e-9)
    )
    return UniformValueReport(
        m_values=tuple(range(M + 1)),
        n_values=tuple(range(1, N + 1)),
        v_lower=v_lower,
        v_upper=v_upper,
        infsup_lower=infsup_lower,
        infsup_upper=infsup_upper,
        supinf_lower=supinf_lower,
        supinf_upper=supinf_upper,
        w_cells=w_cells,
        diagnostics={
            "grid_resolution": res,
            "max_cell_gap": max_gap,
            "theta_resolution": WINDOW_THETA_RESOLUTION,
            "window_too_small": window_small,
        },
    )
