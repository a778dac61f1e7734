"""Seeded Monte Carlo playout of the repeated game under strategy pairs.

Each replication draws from its own Philox stream keyed by (seed,
replication index), so results are reproducible bit for bit and
independent of scheduling. The simulator tracks the public belief (the
uninformed player's posterior over states given their signals and the
declared informed strategy) and hands it to belief-indexed strategies.

Guarantee audits run a strategy against a fixed adversary suite; they are
sampling-based checks against certified targets, labeled "audit", never a
proof of the universal guarantee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game_model import AuxGame, RepeatedGameSpec, auxiliary_game

ADVERSARY_SUITE_VERSION = "v1"


@dataclass(frozen=True)
class PlayoutConfig:
    horizon: int
    replications: int
    seed: int

    def __post_init__(self):
        if self.horizon < 1 or self.replications < 1:
            raise ValueError("horizon and replications must be at least 1")


@dataclass(frozen=True, eq=False)
class PayoffStats:
    mean: float
    stderr: float
    stage_means: np.ndarray
    replications: int

    @property
    def ci_halfwidth(self) -> float:
        return 1.96 * self.stderr

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "ci95_halfwidth": self.ci_halfwidth,
            "replications": self.replications,
            "stage_means": self.stage_means.tolist(),
        }


def _draw(rng, probs: np.ndarray) -> int:
    c = np.cumsum(probs)
    return int(np.searchsorted(c, rng.random() * c[-1], side="right").clip(0, len(probs) - 1))


def _replication_rng(seed: int, rep: int):
    return np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))


def simulate(
    spec: RepeatedGameSpec | AuxGame,
    sigma,
    tau,
    config: PlayoutConfig,
    trace: list | None = None,
) -> PayoffStats:
    """Estimate the average payoff of the strategy pair over the horizon.

    ``sigma`` exposes ``stacked_action(t, belief) -> (K, I)``; ``tau``
    exposes ``mixture(t, belief) -> (J,)``. When ``trace`` is a list,
    per-stage records (replication, stage, state, actions, payoff) are
    appended to it.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    sp = aux.spec
    flat_init = sp.initial.ravel()
    shape_init = sp.initial.shape
    flat_q = sp.transition.reshape(sp.nK, sp.nI, sp.nJ, -1)
    shape_next = (sp.nK, sp.nC, sp.nD)
    joint0 = sp.initial.sum(axis=1)  # (K, D)

    totals = np.empty(config.replications)
    stage_sum = np.zeros(config.horizon)
    for rep in range(config.replications):
        rng = _replication_rng(config.seed, rep)
        idx = _draw(rng, flat_init)
        k, c, d = np.unravel_index(idx, shape_init)
        col = joint0[:, d]
        belief = col / col.sum() if col.sum() > 0 else np.full(sp.nK, 1.0 / sp.nK)
        acc = 0.0
        for t in range(1, config.horizon + 1):
            a = np.asarray(sigma.stacked_action(t, belief), dtype=float)
            _validate_mixture(a[k], f"player 1 at stage {t}")
            i = _draw(rng, a[k])
            b = np.asarray(tau.mixture(t, belief), dtype=float)
            _validate_mixture(b, f"player 2 at stage {t}")
            j = _draw(rng, b)
            g = float(sp.payoff[k, i, j])
            acc += g
            if trace is not None:
                trace.append((rep, t, sp.states[k], sp.actions1[i], sp.actions2[j], g))
            stage_sum[t - 1] += g
            nxt = _draw(rng, flat_q[k, i, j])
            k, c, d = np.unravel_index(nxt, shape_next)
            col = np.einsum("k,ki,kin->n", belief, a, aux.qbar[:, :, :, d])
            belief = col / col.sum() if col.sum() > 0 else np.full(sp.nK, 1.0 / sp.nK)
        totals[rep] = acc / config.horizon
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(config.replications)) if config.replications > 1 else 0.0
    return PayoffStats(
        mean=mean,
        stderr=stderr,
        stage_means=stage_sum / config.replications,
        replications=config.replications,
    )


def _validate_mixture(v: np.ndarray, who: str) -> None:
    if v.min() < -1e-9 or abs(v.sum() - 1.0) > 1e-6:
        raise ValueError(f"{who} emitted an invalid distribution (sum {v.sum()})")


# ---------------------------------------------------------------------------
# Fixed adversary suite (versioned)
# ---------------------------------------------------------------------------


class UniformP2:
    def __init__(self, nJ: int):
        self.nJ = nJ

    def mixture(self, t, p):
        return np.full(self.nJ, 1.0 / self.nJ)


class PureP2:
    def __init__(self, nJ: int, j: int):
        self.v = np.eye(nJ)[j]

    def mixture(self, t, p):
        return self.v


class MyopicP2:
    """Minimizes the current expected payoff given the tracked belief and
    the audited strategy's declared action."""

    def __init__(self, aux: AuxGame, sigma):
        self.aux = aux
        self.sigma = sigma

    def mixture(self, t, p):
        a = self.sigma.stacked_action(t, p)
        per_j = self.aux.gbar(np.asarray(p, float), np.asarray(a, float))
        return np.eye(self.aux.nJ)[int(np.argmin(per_j))]


class UniformP1:
    def __init__(self, nK: int, nI: int):
        self.a = np.full((nK, nI), 1.0 / nI)

    def stacked_action(self, t, p):
        return self.a


class PureP1:
    """Stationary state-indexed pure actions."""

    def __init__(self, nI: int, choice: tuple[int, ...]):
        self.a = np.eye(nI)[list(choice)]

    def stacked_action(self, t, p):
        return self.a


class MyopicP1:
    """Maximizes the current expected payoff given the audited mixture."""

    def __init__(self, aux: AuxGame, tau):
        self.aux = aux
        self.tau = tau

    def stacked_action(self, t, p):
        b = np.asarray(self.tau.mixture(t, p), dtype=float)
        scores = np.einsum("kij,j->ki", self.aux.payoff, b)
        return np.eye(self.aux.nI)[np.argmax(scores, axis=1)]


def adversary_suite_p2(aux: AuxGame, sigma) -> dict[str, object]:
    """Opponents for auditing an informed-player strategy."""
    suite: dict[str, object] = {"uniform": UniformP2(aux.nJ)}
    for j in range(aux.nJ):
        suite[f"pure-{aux.spec.actions2[j]}"] = PureP2(aux.nJ, j)
    suite["myopic"] = MyopicP2(aux, sigma)
    return suite


def adversary_suite_p1(aux: AuxGame, tau, max_pure: int = 16) -> dict[str, object]:
    """Opponents for auditing an uninformed-player strategy."""
    suite: dict[str, object] = {"uniform": UniformP1(aux.nK, aux.nI)}
    count = 0
    for combo in itertools.product(range(aux.nI), repeat=aux.nK):
        name = "pure-" + "".join(str(i) for i in combo)
        suite[name] = PureP1(aux.nI, combo)
        count += 1
        if count >= max_pure:
            break
    suite["myopic"] = MyopicP1(aux, tau)
    return suite


@dataclass(frozen=True, eq=False)
class GuaranteeReport:
    player: int
    target: float
    epsilon: float
    rows: list  # (adversary, horizon, mean, ci_halfwidth, passed)
    passed: bool
    suite_version: str = ADVERSARY_SUITE_VERSION

    def to_json(self) -> dict:
        return {
            "player": self.player,
            "target": self.target,
            "epsilon": self.epsilon,
            "suite_version": self.suite_version,
            "passed": self.passed,
            "rows": [
                {
                    "adversary": adv,
                    "horizon": h,
                    "mean": m,
                    "ci95_halfwidth": ci,
                    "passed": ok,
                }
                for adv, h, m, ci, ok in self.rows
            ],
        }


def guarantee_check(
    spec: RepeatedGameSpec | AuxGame,
    strategy,
    target: float,
    epsilon: float,
    horizons: list[int],
    config: PlayoutConfig,
    player: int = 1,
    adversaries: dict[str, object] | None = None,
) -> GuaranteeReport:
    """Audit a guarantee claim against the adversary suite.

    Player-1 mode asserts mean >= target - epsilon - CI for every
    adversary and horizon; player-2 mode asserts mean <= target + epsilon
    + CI. Sampling-based: a pass is an audit, not a proof.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    if adversaries is None:
        adversaries = (
            adversary_suite_p2(aux, strategy)
            if player == 1
            else adversary_suite_p1(aux, strategy)
        )
    rows = []
    all_ok = True
    for name, adv in adversaries.items():
        for h in horizons:
            cfg = PlayoutConfig(horizon=h, replications=config.replications, seed=config.seed)
            stats = (
                simulate(aux, strategy, adv, cfg)
                if player == 1
                else simulate(aux, adv, strategy, cfg)
            )
            if player == 1:
                ok = stats.mean >= target - epsilon - stats.ci_halfwidth
            else:
                ok = stats.mean <= target + epsilon + stats.ci_halfwidth
            rows.append((name, h, stats.mean, stats.ci_halfwidth, bool(ok)))
            all_ok = all_ok and ok
    return GuaranteeReport(
        player=player, target=target, epsilon=epsilon, rows=rows, passed=all_ok
    )
