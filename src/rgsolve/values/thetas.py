"""Evaluation measures over stage indices and their shift/lift calculus."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import TOL


@dataclass(frozen=True)
class ThetaWeights:
    """Finitely supported probability over positive stage indices."""

    stages: tuple[int, ...]
    weights: tuple[float, ...]

    @staticmethod
    def from_map(mapping: dict[int, float]) -> "ThetaWeights":
        items = sorted((int(t), float(w)) for t, w in mapping.items() if w > 0.0)
        if not items:
            raise ValueError("stage-weight measure needs positive support")
        stages = tuple(t for t, _ in items)
        weights = tuple(w for _, w in items)
        if stages[0] < 1:
            raise ValueError("stage indices start at 1")
        if abs(sum(weights) - 1.0) > max(TOL.structural, 1e-9):
            raise ValueError(f"weights sum to {sum(weights)}, expected 1")
        total = sum(weights)
        return ThetaWeights(stages, tuple(w / total for w in weights))

    @staticmethod
    def uniform(n: int) -> "ThetaWeights":
        if n < 1:
            raise ValueError("horizon must be at least 1")
        return ThetaWeights(tuple(range(1, n + 1)), tuple(1.0 / n for _ in range(n)))

    @staticmethod
    def dirac(t: int) -> "ThetaWeights":
        return ThetaWeights((int(t),), (1.0,))

    @property
    def max_stage(self) -> int:
        return self.stages[-1]

    @property
    def first_weight(self) -> float:
        """Weight on stage 1 (zero when the support starts later)."""
        return self.weights[0] if self.stages[0] == 1 else 0.0

    def as_map(self) -> dict[int, float]:
        return dict(zip(self.stages, self.weights))

    def dense(self) -> np.ndarray:
        out = np.zeros(self.max_stage)
        for t, w in zip(self.stages, self.weights):
            out[t - 1] = w
        return out


def theta_plus(theta: ThetaWeights) -> ThetaWeights:
    """Law of the selected stage minus one, conditioned on being at least 2.

    By convention the measure concentrated on stage 1 is its own shift. A
    measure with no weight on stage 1 shifts exactly, weights untouched, so
    ``theta_plus(theta_shift(theta, 1)) == theta``.
    """
    if theta.stages[0] > 1:
        return ThetaWeights(tuple(t - 1 for t in theta.stages), theta.weights)
    t1 = theta.first_weight
    if abs(t1 - 1.0) <= TOL.structural:
        return theta
    mapping = {
        t - 1: w / (1.0 - t1) for t, w in zip(theta.stages, theta.weights) if t >= 2
    }
    return ThetaWeights.from_map(mapping)


def theta_shift(theta: ThetaWeights, m: int) -> ThetaWeights:
    """Push the support m stages to the right (evaluation after a warm-up)."""
    if m < 0:
        raise ValueError("shift must be nonnegative")
    return ThetaWeights(tuple(t + m for t in theta.stages), theta.weights)


def theta_lift(theta: ThetaWeights, m: int) -> ThetaWeights:
    """Stage weights of the prefix-average aggregate.

    A measure theta on {1..n} weighting the running averages over stages
    m+1..m+t turns into per-stage weights: stage m+s collects sum over
    t >= s of theta_t / t, and nothing before stage m+1.
    """
    if m < 0:
        raise ValueError("shift must be nonnegative")
    n = theta.max_stage
    dense = theta.dense()
    out: dict[int, float] = {}
    for s in range(1, n + 1):
        w = float(sum(dense[t - 1] / t for t in range(s, n + 1)))
        if w > 0.0:
            out[m + s] = w
    return ThetaWeights.from_map(out)


def suffix_chain(theta: ThetaWeights) -> list[ThetaWeights]:
    """All shift iterates down to the one-stage measure, starting at theta.

    Element s is the law governing play from stage s+1 on; the chain has
    max_stage entries and ends with the measure concentrated on stage 1.
    """
    chain = [theta]
    while chain[-1].max_stage > 1:
        chain.append(theta_plus(chain[-1]))
    return chain
