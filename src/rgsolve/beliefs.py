"""Finite-support probability measures on the belief simplex.

A belief is a point of the simplex over the state set; a belief measure is
a finitely supported probability over beliefs. This module implements the
disintegration of a joint (state, signal) law into a belief measure, the
Wasserstein-1 distance with l1 ground cost, the sweeping (Choquet) order
with coupling certificates, and the splitting construction by which an
informed player realizes a barycenter decomposition of the current belief.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TOL
from .lp import plan_marginal_rows, solve_lp, transport_lp


def check_belief(p: np.ndarray) -> np.ndarray:
    """Validate simplex membership to 1e-9 and return the belief as a float
    array, negative noise clipped to zero."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("belief must be a vector")
    if p.min() < -1e-9:
        raise ValueError(f"belief has negative entry {p.min()}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"belief sums to {p.sum()}, expected 1")
    return np.clip(p, 0.0, None)


def l1(p: np.ndarray, q: np.ndarray) -> float:
    """Ground distance between beliefs."""
    return float(np.abs(np.asarray(p) - np.asarray(q)).sum())


@dataclass(frozen=True)
class BeliefMeasure:
    """Finitely supported probability on the belief simplex.

    Atoms within atom-merge tolerance (l1) are merged at construction and
    the support is sorted lexicographically, so equal measures have equal
    representations.
    """

    atoms: np.ndarray  # (n, K)
    weights: np.ndarray  # (n,)

    @staticmethod
    def from_support(atoms, weights, renormalize: bool = False) -> "BeliefMeasure":
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        weights = np.asarray(weights, dtype=float)
        keep = weights > 0.0
        atoms, weights = atoms[keep], weights[keep]
        if atoms.shape[0] == 0:
            raise ValueError("belief measure needs at least one atom")
        total = weights.sum()
        if renormalize:
            weights = weights / total
        elif abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")
        for row in atoms:
            check_belief(row)
        atoms, weights = _merge_atoms(atoms, weights)
        order = np.lexsort(atoms.T[::-1])
        return BeliefMeasure(atoms=atoms[order], weights=weights[order])

    @staticmethod
    def dirac(p) -> "BeliefMeasure":
        return BeliefMeasure.from_support([p], [1.0])

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def expect(self, f) -> float:
        """Integral of a function over the measure: sum_p u(p) f(p)."""
        return float(sum(w * f(a) for a, w in zip(self.atoms, self.weights)))

    def to_json(self) -> list[dict]:
        return [
            {"atom": a.tolist(), "weight": float(w)}
            for a, w in zip(self.atoms, self.weights)
        ]


def _merge_atoms(atoms: np.ndarray, weights: np.ndarray):
    merged_a: list[np.ndarray] = []
    merged_w: list[float] = []
    for a, w in zip(atoms, weights):
        for idx, b in enumerate(merged_a):
            if np.abs(a - b).sum() <= TOL.atom_merge:
                total = merged_w[idx] + w
                merged_a[idx] = (merged_w[idx] * b + w * a) / total
                merged_w[idx] = total
                break
        else:
            merged_a.append(a.copy())
            merged_w.append(float(w))
    return np.array(merged_a), np.array(merged_w)


def mix_measures(parts: list[tuple[float, BeliefMeasure]]) -> BeliefMeasure:
    """Weighted mixture of belief measures (weights need not be normalized)."""
    atoms = np.vstack([m.atoms for _, m in parts])
    weights = np.concatenate([w * m.weights for w, m in parts])
    return BeliefMeasure.from_support(atoms, weights, renormalize=True)


def disintegrate(joint: np.ndarray) -> BeliefMeasure:
    """Belief measure induced by a joint law on states x signals.

    Columns are signals; each column with positive mass contributes the
    normalized conditional as an atom, weighted by the signal probability.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint table must be 2-d (states x signals)")
    if joint.min() < -1e-9:
        raise ValueError("joint table has negative entries")
    if abs(joint.sum() - 1.0) > 1e-9:
        raise ValueError(f"joint table sums to {joint.sum()}, expected 1")
    masses = joint.sum(axis=0)
    atoms, weights = [], []
    for d in range(joint.shape[1]):
        if masses[d] <= 0.0:
            continue
        atoms.append(joint[:, d] / masses[d])
        weights.append(masses[d])
    return BeliefMeasure.from_support(atoms, weights, renormalize=True)


def barycenter(u: BeliefMeasure) -> np.ndarray:
    return u.weights @ u.atoms


def wasserstein(u: BeliefMeasure, v: BeliefMeasure) -> tuple[float, np.ndarray]:
    """Wasserstein-1 distance with l1 ground cost, plus an optimal plan."""
    if u.dim != v.dim:
        raise ValueError("measures live on different simplices")
    cost = np.abs(u.atoms[:, None, :] - v.atoms[None, :, :]).sum(axis=2)
    sol = transport_lp(cost, u.weights, v.weights)
    plan = sol.primal.reshape(u.size, v.size)
    return max(0.0, float(sol.objective)), plan


@dataclass(frozen=True)
class ChoquetCertificate:
    """Witness for a sweeping-order query.

    When ``dominates`` holds, ``coupling[r, s]`` carries the mass sent from
    atom r of u to atom s of v; rows preserve barycenters. Otherwise the
    separator is a concave piecewise-linear test function (values and
    supergradients on the sampled atoms) with u(f) < v(f).
    """

    dominates: bool
    coupling: np.ndarray | None = None
    separator_points: np.ndarray | None = None
    separator_values: np.ndarray | None = None
    separator_gradients: np.ndarray | None = None
    separator_gap: float = 0.0

    def separator_eval(self, x: np.ndarray) -> float:
        """Evaluate the separator at x (min over its affine pieces)."""
        if self.separator_points is None:
            raise ValueError("certificate carries no separator")
        vals = self.separator_values + np.einsum(
            "rk,k->r", self.separator_gradients, np.asarray(x, float)
        ) - np.einsum("rk,rk->r", self.separator_gradients, self.separator_points)
        return float(vals.min())


def choquet_dominates(u: BeliefMeasure, v: BeliefMeasure) -> tuple[bool, ChoquetCertificate]:
    """Test whether u is better than v in the sweeping order.

    Equivalent to the existence of a coupling x >= 0 over supp(u) x supp(v)
    with row sums u, column sums v, and each row's conditional barycenter
    equal to its source atom (a one-step martingale from u to v). Candidate
    target points are restricted to supp(v): the decomposition reconstitutes
    v exactly, so no other targets can carry mass.
    """
    if u.dim != v.dim:
        raise ValueError("measures live on different simplices")
    R, S, K = u.size, v.size, u.dim
    n = R * S
    # rows: row sums (R), per-row barycenter (R*K), column sums (S)
    marginals = plan_marginal_rows(R, S)
    barycenters = np.zeros((R * K, n))
    for r in range(R):
        barycenters[r * K : (r + 1) * K, r * S : (r + 1) * S] = (v.atoms - u.atoms[r]).T
    A_eq = np.vstack([marginals[:R], barycenters, marginals[R:]])
    b_eq = np.concatenate([u.weights, np.zeros(R * K), v.weights])
    # solved directly: a failure is certified by the separating concave
    # function, so a Farkas vector would be wasted work
    sol = solve_lp(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
    if sol.status == "optimal":
        coupling = sol.primal.reshape(R, S)
        return True, ChoquetCertificate(dominates=True, coupling=coupling)
    return False, _separating_concave_function(u, v)


def _separating_concave_function(u: BeliefMeasure, v: BeliefMeasure) -> ChoquetCertificate:
    """Maximize v(f) - u(f) over concave 1-Lipschitz-box PWL functions.

    f is parametrized by values and supergradients at the union of the two
    supports; concavity is the finite system f(y) <= f(x) + g_x . (y - x).
    A positive optimum certifies that u does not dominate v.
    """
    pts = np.vstack([u.atoms, v.atoms])
    m, K = pts.shape
    # vars: f (m), g (m*K)
    n = m + m * K
    c = np.zeros(n)
    for r, w in enumerate(u.weights):
        c[r] -= w
    for s, w in enumerate(v.weights):
        c[u.size + s] += w
    rows, rhs = [], []
    for r in range(m):
        for s in range(m):
            if r == s:
                continue
            row = np.zeros(n)
            row[s] = 1.0
            row[r] = -1.0
            row[m + r * K : m + (r + 1) * K] = -(pts[s] - pts[r])
            rows.append(row)
            rhs.append(0.0)
    bounds = [(-1.0, 1.0)] * m + [(-1.0, 1.0)] * (m * K)
    sol = solve_lp(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, maximize=True)
    gap = float(sol.objective) if sol.objective is not None else 0.0
    return ChoquetCertificate(
        dominates=False,
        separator_points=pts,
        separator_values=sol.primal[:m],
        separator_gradients=sol.primal[m:].reshape(m, K),
        separator_gap=gap,
    )


def split_decomposition(u: BeliefMeasure, v: BeliefMeasure):
    """Express v as a per-atom barycentric splitting of u.

    Returns a list, one entry per atom p of u, of ``(weights, points)``
    with weights summing to one and weighted points averaging back to p.
    Requires u to dominate v.
    """
    ok, cert = choquet_dominates(u, v)
    if not ok:
        raise ValueError("split decomposition requires Choquet dominance")
    out = []
    for r in range(u.size):
        row = cert.coupling[r]
        mask = row > TOL.structural
        lam = row[mask] / u.weights[r]
        pts = v.atoms[mask]
        out.append((lam / lam.sum(), pts))
    return out


def splitting_action(
    p: np.ndarray,
    components: list[tuple[float, np.ndarray]],
    actions: list[np.ndarray],
) -> np.ndarray:
    """Single stacked mixed action realizing a barycentric split of p.

    Given p = sum_s lam_s p_s and one stacked action per component, mixes
    the components state by state with posterior weights lam_s p_s^k / p^k.
    States with p^k = 0 get the uniform mixed action. The result makes the
    stage payoff and the (state, signal) transition exact mixtures of the
    per-component ones.
    """
    p = check_belief(p)
    lams = np.array([lam for lam, _ in components], dtype=float)
    comps = np.array([check_belief(ps) for _, ps in components])
    if lams.min() < -1e-12 or abs(lams.sum() - 1.0) > 1e-9:
        raise ValueError("component weights must form a probability vector")
    recon = lams @ comps
    if np.abs(recon - p).sum() > 1e-9:
        raise ValueError(
            f"components do not average to p (l1 error {np.abs(recon - p).sum():.2e})"
        )
    acts = np.array([np.asarray(a, float) for a in actions])
    if acts.shape[0] != len(components):
        raise ValueError("one action per component required")
    K, I = acts.shape[1], acts.shape[2]
    out = np.empty((K, I))
    for k in range(K):
        if p[k] > 0.0:
            w = lams * comps[:, k] / p[k]
            out[k] = w @ acts[:, k, :]
        else:
            out[k] = np.full(I, 1.0 / I)
    return out
