"""Simplex lattice and certified interpolation of concave 1-Lipschitz data.

Value functions on the belief simplex are concave and nonexpansive for the
l1 ground distance, so grid values bracket them between two computable
envelopes:

* lower: the concave hull of the grid lower values (any barycentric
  combination of grid points is a valid lower bound);
* upper: pointwise, the Lipschitz upper envelope min_g v[g] + d(x, g);
  for optimization inside a stage step, a concave piecewise-linear
  majorant (``concave_majorant``).

On data that is 1-Lipschitz in l1, as sweep output is, the Lipschitz lower
envelope max_g v[g] - d(x, g) adds nothing to the hull: d(x, g) is affine
on each lattice cell, so the combination of x's cell vertices already
reaches v[g] - d(x, g). The lower interpolation is the hull alone.

One routine, ``hull_pieces``, gives the exact upper concave hull of grid
data for every K: a scan for K <= 2, and for K >= 3 qhull's upper facets
(Barber, Dobkin & Huhdanpaa, ACM TOMS 22(4), 1996), re-fitted through
their lattice vertices and checked in numpy. The stage lower step uses
the hull of the lower values as it is; the K >= 3 majorant raises the
hull of the upper values by the l1 diameter of a lattice cell. The
sweep takes its majorants from ``concave_majorant``, and every concave
piecewise-linear function has one format: the (M, K) array of its
pieces' values at the simplex vertices.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from ..lp import solve_lp

log = logging.getLogger(__name__)


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


def nearest(atoms: np.ndarray, p: np.ndarray):
    """Row of ``atoms`` closest to the belief p in l1; on a tie, the lower
    row, so lookups (and seeded playouts) are reproducible. An (R, K) stack
    of beliefs gives the (R,) array of rows."""
    dist = np.abs(atoms - np.asarray(p, float)[..., None, :]).sum(axis=-1)
    return int(np.argmin(dist)) if dist.ndim == 1 else np.argmin(dist, axis=-1)


def lipschitz_upper(grid: SimplexGrid, values: np.ndarray, x: np.ndarray) -> float:
    """min_g values[g] + d(x, g): valid above any 1-Lipschitz function."""
    return float(np.min(values + grid.l1_to(x)))


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


def lower_value(grid: SimplexGrid, values: np.ndarray, x: np.ndarray) -> float:
    """Certified lower interpolation of a concave function: the best
    barycentric combination max sum lam_g values[g] over decompositions of
    x into grid points (the concave hull of the data at x)."""
    return float(np.asarray(values, float) @ hull_weights(grid, values, x))


# ---------------------------------------------------------------------------
# Concave piecewise-linear functions: an (M, K) array whose row m holds piece
# m's values at the K simplex vertices, so the function at x is min(pieces @ x)
# ---------------------------------------------------------------------------


def eval_pieces(pieces: np.ndarray, x: np.ndarray) -> float:
    return float((pieces @ np.asarray(x, float)).min())


def concave_majorant(
    points: np.ndarray, upper_values: np.ndarray, resolution: int
) -> np.ndarray:
    """Concave PWL function dominating every concave nonexpansive function
    that is below ``upper_values`` at the (G, K) simplex ``points``.

    For one- and two-state simplices this is exactly the concave hull of the
    Lipschitz upper envelope of the data, at any points. For K >= 3 the
    bound holds when ``points`` contain the lattice at ``resolution``: it is
    the concave hull H of the data raised by 2 * floor(K / 2) / resolution,
    the l1 diameter of a cell of the lattice's Freudenthal triangulation
    (the Lovejoy grid bound, Oper. Res. 39(1), 1991). If x = sum_i lam_i g_i
    over the vertices g_i of its cell, a 1-Lipschitz V below the data has
    V(x) <= sum_i lam_i (v_i + |x - g_i|) <= H_lattice(x) + diam, and the
    hull over a superset of the lattice is at least H_lattice. Each hull
    piece is raised by the most any data point lies above it, so it is a
    plane above all the data and at least H, whatever qhull's rounding.
    """
    points = np.atleast_2d(np.asarray(points, float))
    vals = np.asarray(upper_values, float)
    if points.shape[1] <= 2:
        return _cav_env_dim2(points, vals)
    return _hull_majorant_highdim(points, vals, resolution)


def _cav_env_dim2(points: np.ndarray, vals: np.ndarray) -> np.ndarray:
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


def hull_pieces_1d(points: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Upper concave hull of the graph of ``ys`` over (G, K) points of a
    simplex with K <= 2 states and distinct first coordinates, as (M, K)
    pieces: the segment c + slope * x0 is the row (c + slope, c). A single
    point gives one constant row of length K."""
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
    if len(hx) == 1:
        return np.full((1, points.shape[1]), hy[0])
    rows = []
    for x1, y1, x2, y2 in zip(hx[:-1], hy[:-1], hx[1:], hy[1:]):
        slope = (y2 - y1) / (x2 - x1)
        c = y1 - slope * x1
        rows.append((c + slope, c))
    return np.array(rows)


def hull_pieces(points: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Exact upper concave hull of the graph of ``vals`` over (G, K)
    simplex ``points`` (a lattice, perhaps with extra points), as (M, K)
    pieces whose minimum is the hull.

    K <= 2 reads ``hull_pieces_1d``. For K >= 3 each upper facet of qhull's
    hull is re-fitted exactly through the K vertices of one of its
    triangles, and the pieces are kept only when every data point lies on
    or below every piece and the facets' projections fill the simplex
    (their volumes sum to its volume); the minimum of the pieces is then
    the hull at every belief.
    Affine data, which qhull rejects as flat, has one piece: the affine
    function through the values at the simplex vertices. When qhull fails
    otherwise or a check fails, that vertex-affine piece is returned too,
    with a logged warning; it is a barycentric combination of the data, so
    it stays below the hull.
    """
    points = np.asarray(points, float)
    vals = np.asarray(vals, float)
    K = points.shape[1]
    if K <= 2:
        return hull_pieces_1d(points, vals)
    vertex = vals[points.argmax(axis=0)][None, :]
    pieces, tiled = vertex, True
    try:
        hull = ConvexHull(np.column_stack([points[:, : K - 1], vals]))
    except QhullError:
        pass  # flat data; the checks below accept the vertex-affine piece
    else:
        is_upper = hull.equations[:, K - 1] > 0
        upper, planes = hull.simplices[is_upper], hull.equations[is_upper]
        corners = points[upper]  # (F, K, K): rows are the facet's vertices
        # |det| of a facet's barycentric corners is (K - 1)! times its
        # projected volume, so the simplex's facets sum to 1; Qt may add
        # facets of zero volume, which carry no piece (a lattice facet's
        # |det| is at least resolution^-K)
        dets = np.abs(np.linalg.det(corners))
        keep = dets > 1e-12
        tiled = abs(dets[keep].sum() - 1.0) <= 1e-9
        # Qt splits a coplanar facet into triangles that share its equation
        # row bit for bit; one triangle per row carries the plane
        first = np.sort(np.unique(planes[keep], axis=0, return_index=True)[1])
        rows = np.flatnonzero(keep)[first]
        pieces = np.linalg.solve(corners[rows], vals[upper[rows]][..., None])[..., 0]
    tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
    if tiled and float((points @ pieces.T - vals[:, None]).min()) >= -tol:
        return pieces
    log.warning("hull check failed on %d points; using the vertex-affine piece", len(points))
    return vertex


def _hull_majorant_highdim(points: np.ndarray, vals: np.ndarray, resolution: int) -> np.ndarray:
    pieces = hull_pieces(points, vals)
    # lift each piece over the data it misses (qhull's rounding), then by
    # the l1 diameter of a Freudenthal lattice cell
    pad = np.maximum((vals[:, None] - points @ pieces.T).max(axis=0), 0.0)
    diam = 2 * (points.shape[1] // 2) / resolution
    return pieces + (pad + diam)[:, None]
