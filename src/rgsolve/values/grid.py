"""Simplex lattice and certified interpolation of concave 1-Lipschitz data.

Value functions on the belief simplex are concave and nonexpansive for the
l1 ground distance, so grid values bracket them between two computable
envelopes:

* lower: the concave hull of the grid lower values (any barycentric
  combination of grid points is a valid lower bound), combined with the
  Lipschitz lower envelope max_g v[g] - d(x, g);
* upper: pointwise, the Lipschitz upper envelope min_g v[g] + d(x, g);
  for optimization inside a stage step, a concave piecewise-linear
  majorant of that envelope (its concave hull), which is the tightest
  concave function consistent with the data.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ..lp import solve_lp


@dataclass(frozen=True, eq=False)
class SimplexGrid:
    """Regular lattice {x : resolution * x integer} on the belief simplex."""

    dim: int
    resolution: int
    points: np.ndarray  # (G, K), lexicographically ordered

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def create(dim: int, resolution: int) -> "SimplexGrid":
        """The lattice of this dimension and resolution; built once and
        shared, so its points are read-only."""
        if dim < 1 or resolution < 1:
            raise ValueError("dimension and resolution must be positive")
        rows = []
        for cut in itertools.combinations(range(resolution + dim - 1), dim - 1):
            prev = -1
            parts = []
            for c in cut:
                parts.append(c - prev - 1)
                prev = c
            parts.append(resolution + dim - 2 - prev)
            rows.append(parts)
        pts = np.array(rows, dtype=float) / resolution
        pts = pts[np.lexsort(pts.T[::-1])]
        pts.flags.writeable = False
        return SimplexGrid(dim=dim, resolution=resolution, points=pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def spacing(self) -> float:
        return 1.0 / self.resolution

    @property
    def covering_radius(self) -> float:
        """Upper bound on the l1 distance from any belief to the lattice."""
        return (self.dim - 1) / self.resolution

    def l1_to(self, x: np.ndarray) -> np.ndarray:
        return np.abs(self.points - np.asarray(x, float)).sum(axis=1)

    def nearest_index(self, x: np.ndarray) -> int:
        return nearest(self.points, x)


def nearest(atoms: np.ndarray, p: np.ndarray):
    """Row of ``atoms`` closest to the belief p in l1; on a tie, the lower
    row, so lookups (and seeded playouts) are reproducible. An (R, K) stack
    of beliefs gives the (R,) array of rows."""
    dist = np.abs(atoms - np.asarray(p, float)[..., None, :]).sum(axis=-1)
    return int(np.argmin(dist)) if dist.ndim == 1 else np.argmin(dist, axis=-1)


def lipschitz_upper(grid: SimplexGrid, values: np.ndarray, x: np.ndarray) -> float:
    """min_g values[g] + d(x, g): valid above any 1-Lipschitz function."""
    return float(np.min(values + grid.l1_to(x)))


def lipschitz_lower(grid: SimplexGrid, values: np.ndarray, x: np.ndarray) -> float:
    return float(np.max(values - grid.l1_to(x)))


def hull_weights(grid: SimplexGrid, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Weights lam >= 0 over the grid points with sum lam_g g = x that
    maximize sum lam_g values[g]: the concave hull of the grid data at x.
    The optimum is basic, so at most K weights are nonzero, and each point
    they weight has values[g] equal to the hull there."""
    G = grid.size
    A_eq = np.vstack([grid.points.T, np.ones(G)])
    b_eq = np.concatenate([np.asarray(x, float), [1.0]])
    sol = solve_lp(values, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), maximize=True)
    if sol.status != "optimal":
        raise RuntimeError(f"barycentric interpolation LP failed: {sol.status}")
    return sol.primal


def concave_comb_lower(grid: SimplexGrid, values: np.ndarray, x: np.ndarray) -> float:
    """Best barycentric lower bound: max sum lam_g values[g] over
    decompositions of x into grid points (the concave hull at x)."""
    return float(np.asarray(values, float) @ hull_weights(grid, values, x))


def lower_value(grid: SimplexGrid, values: np.ndarray, x: np.ndarray) -> float:
    """Certified lower interpolation of a concave 1-Lipschitz function."""
    return max(
        lipschitz_lower(grid, values, x), concave_comb_lower(grid, values, x)
    )


# ---------------------------------------------------------------------------
# Concave piecewise-linear majorants: value = min over pieces of c + s . x
# ---------------------------------------------------------------------------

Pieces = list[tuple[float, np.ndarray]]


def eval_pieces(pieces: Pieces, x: np.ndarray) -> float:
    x = np.asarray(x, float)
    return min(c + float(s @ x) for c, s in pieces)


def concave_majorant(grid: SimplexGrid, upper_values: np.ndarray) -> Pieces:
    """Concave PWL function dominating every concave nonexpansive function
    that is below ``upper_values`` at the grid points.

    For one- and two-state games this is exactly the concave hull of the
    Lipschitz upper envelope. For more states it is the concave hull of
    the grid graph lifted by a covering correction, which is valid but
    looser (flagged by the engine's diagnostics).
    """
    K = grid.dim
    vals = np.asarray(upper_values, float)
    if K <= 2:
        return cav_pieces_from_points(grid.points, vals)
    return _hull_majorant_highdim(grid, vals)


def cav_pieces_from_points(points: np.ndarray, values: np.ndarray) -> Pieces:
    """Concave hull of the Lipschitz upper envelope of arbitrary sample
    points with valid upper values; exact for one- and two-state simplices,
    vacuous (constant) beyond that."""
    points = np.atleast_2d(np.asarray(points, float))
    vals = np.asarray(values, float)
    K = points.shape[1]
    if K > 2:
        return [(float(vals.max()) + 2.0, np.zeros(K))]
    return _cav_env_dim2(points, vals)


def _cav_env_dim2(points: np.ndarray, vals: np.ndarray) -> Pieces:
    xs = points[:, 0]
    # The envelope N(x) = min_g vals[g] + 2|x0 - g0| is piecewise linear in
    # x0; kinks sit at grid abscissae and at crossings of a rising branch
    # of one cone with a falling branch of another.
    cross = (vals[None, :] - vals[:, None] + 2.0 * (xs[:, None] + xs[None, :])) / 4.0
    cx = np.unique(np.concatenate([xs, cross[(cross >= 0.0) & (cross <= 1.0)]]))
    cy = np.full(cx.shape, np.inf)
    for x, v in zip(xs, vals):
        np.minimum(cy, v + 2.0 * np.abs(cx - x), out=cy)
    # simplex points of the input's K: (x0, 1 - x0), or (1) for one state
    return hull_pieces_1d(np.column_stack([cx, 1.0 - cx][: points.shape[1]]), cy)


def hull_pieces_1d(points: np.ndarray, ys: np.ndarray) -> Pieces:
    """Upper concave hull of the graph of ``ys`` over (G, K) points of a
    simplex with K <= 2 states and distinct first coordinates, as pieces
    c + s . x with s = (slope, 0); a single point gives one constant piece
    with s = 0 of length K."""
    xs = points[:, 0]
    order = np.argsort(xs)
    hx: list[float] = []
    hy: list[float] = []
    # Python floats: the same double arithmetic as numpy scalars, faster
    for x3, y3 in zip(xs[order].tolist(), ys[order].tolist()):
        while len(hx) >= 2 and (
            (hy[-1] - hy[-2]) * (x3 - hx[-2]) <= (y3 - hy[-2]) * (hx[-1] - hx[-2]) + 1e-15
        ):
            hx.pop()
            hy.pop()
        hx.append(x3)
        hy.append(y3)
    pieces: Pieces = []
    for x1, y1, x2, y2 in zip(hx[:-1], hy[:-1], hx[1:], hy[1:]):
        slope = (y2 - y1) / (x2 - x1)
        pieces.append((float(y1 - slope * x1), np.array([slope, 0.0])))
    if not pieces:
        pieces.append((float(hy[0]), np.zeros(points.shape[1])))
    return pieces


def upper_facets(points: np.ndarray, vals: np.ndarray) -> Pieces:
    """Affine pieces c + s . x of the upper facets of the convex hull of the
    graph of ``vals`` over simplex ``points`` (K >= 3); empty when qhull
    fails."""
    K = points.shape[1]
    # hull in free coordinates: drop the last barycentric coordinate
    coords = np.column_stack([points[:, : K - 1], vals])
    try:
        hull = ConvexHull(coords, qhull_options="QJ")
    except QhullError:
        return []
    pieces: Pieces = []
    for eq in hull.equations:
        normal, offset = eq[:-1], eq[-1]
        nv = normal[-1]
        # upper facets have outward normals pointing up in the value
        # coordinate; near-vertical side walls would extend to wild affine
        # functions, and dropping facets of a concave hull keeps validity
        if nv <= 1e-6 * float(np.linalg.norm(normal)):
            continue
        s_free = -normal[:-1] / nv
        c0 = -offset / nv
        pieces.append((float(c0), np.concatenate([s_free, [0.0]])))
    return pieces


def _hull_majorant_highdim(grid: SimplexGrid, vals: np.ndarray) -> Pieces:
    rho = grid.covering_radius
    pieces = upper_facets(grid.points, vals) if grid.size > grid.dim else []
    if not pieces:
        return [(float(vals.max()) + rho, np.zeros(grid.dim))]
    lip = max((float(s.max()) - float(s.min())) / 2.0 for _, s in pieces)
    # Concave data can bulge above the facet interpolation between grid
    # points by at most (1 + Lip(hull)) * covering radius.
    bump = (1.0 + lip) * rho
    return [(c + bump, s) for c, s in pieces]
