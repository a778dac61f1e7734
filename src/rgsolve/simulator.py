"""Seeded Monte Carlo playout of the repeated game under strategy pairs.

Each replication draws from its own Philox stream keyed by (seed,
replication index), so results are reproducible bit for bit and
independent of scheduling. All replications advance together, one stage
at a time. The simulator tracks the public belief (the uninformed player's
posterior over states given their signals and the declared informed
strategy) and hands it to belief-indexed strategies.

Guarantee audits run a strategy against a fixed adversary suite; they are
sampling-based checks against certified targets, labeled "audit", never a
proof of the universal guarantee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game_model import AuxGame, RepeatedGameSpec, auxiliary_game
from .lp import normalize_mixtures

ADVERSARY_SUITE_VERSION = "v1"
MAX_PURE_ADVERSARIES = 16  # state-indexed pure player-1 opponents in the suite


@dataclass(frozen=True)
class PlayoutConfig:
    horizon: int
    replications: int
    seed: int

    def __post_init__(self):
        if self.horizon < 1 or self.replications < 1:
            raise ValueError("horizon and replications must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


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


# stages whose uniforms each replication draws at once: the draws held in
# memory are replications x 3 x _CHUNK floats, whatever the horizon
_CHUNK = 64


def _replication_rng(seed: int, rep: int):
    return np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))


def _takes_stacks(obj) -> bool:
    """Whether ``obj``'s lookup accepts an (R, K) stack of beliefs; its class
    declares so with ``takes_stacks = True``."""
    return getattr(obj, "takes_stacks", False) is True


def _lookup(obj, method: str, t: int, beliefs: np.ndarray) -> np.ndarray:
    """One stage's lookups for all replications, stacked along the first
    axis: one call on the stack, or one call per replication in order."""
    fn = getattr(obj, method)
    if _takes_stacks(obj):
        return np.asarray(fn(t, beliefs), dtype=float)
    return np.stack([np.asarray(fn(t, p), dtype=float) for p in beliefs])


def _draw_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one index per row of ``probs`` from the uniforms u:
    the count of cumulative sums at most u times the row's total, capped at
    the last index."""
    c = np.cumsum(probs, axis=1)
    return np.minimum((c <= (u * c[:, -1])[:, None]).sum(axis=1), probs.shape[1] - 1)


def _validate(rows: np.ndarray, who: str, t: int, beliefs: np.ndarray) -> None:
    sums = rows.sum(axis=1)
    bad = ~((rows.min(axis=1) >= -1e-9) & (np.abs(sums - 1.0) <= 1e-6))
    if bad.any():
        r = int(np.argmax(bad))
        raise ValueError(
            f"{who} emitted an invalid distribution at stage {t}, replication {r}, "
            f"belief {beliefs[r].tolist()} (sum {sums[r]})"
        )


def simulate(
    spec: RepeatedGameSpec | AuxGame,
    sigma,
    tau,
    config: PlayoutConfig,
    trace: list | None = None,
) -> PayoffStats:
    """Estimate the average payoff of the strategy pair over the horizon.

    ``sigma`` exposes ``stacked_action(t, belief) -> (K, I)``; ``tau``
    exposes ``mixture(t, belief) -> (J,)``. All replications advance one
    stage at a time: a strategy whose class sets ``takes_stacks = True``
    gets the (R, K) stack of beliefs and returns (R, K, I) or (R, J); any
    other is called once per replication, in replication order. Each
    replication consumes its own stream as one uniform for the initial
    state, then three per stage. When ``trace`` is a list, per-stage
    records (replication, stage, state, actions, payoff) are appended to it
    in (replication, stage) order.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    sp = aux.spec
    R, H = config.replications, config.horizon
    flat_init = sp.initial.ravel()
    flat_q = sp.transition.reshape(sp.nK, sp.nI, sp.nJ, -1)
    shape_next = (sp.nK, sp.nC, sp.nD)
    joint0 = sp.initial.sum(axis=1)  # (K, D)
    rngs = [_replication_rng(config.seed, rep) for rep in range(R)]
    reps = np.arange(R)

    u0 = np.array([rng.random() for rng in rngs])
    idx = _draw_rows(np.broadcast_to(flat_init, (R, flat_init.size)), u0)
    k, _, d = np.unravel_index(idx, sp.initial.shape)
    beliefs = normalize_mixtures(joint0.T[d])
    acc = np.zeros(R)
    stage_sum = np.zeros(H)
    steps = []  # (k, i, j, g) of every stage, kept only for the trace
    for t in range(1, H + 1):
        s = (t - 1) % _CHUNK
        if s == 0:
            n = min(_CHUNK, H - t + 1)
            u = np.stack([rng.random(3 * n) for rng in rngs]).reshape(R, n, 3)
        a = _lookup(sigma, "stacked_action", t, beliefs)  # (R, K, I)
        rows = a[reps, k]
        _validate(rows, "player 1", t, beliefs)
        i = _draw_rows(rows, u[:, s, 0])
        b = _lookup(tau, "mixture", t, beliefs)  # (R, J)
        _validate(b, "player 2", t, beliefs)
        j = _draw_rows(b, u[:, s, 1])
        g = sp.payoff[k, i, j]
        acc += g
        # summed in replication order, one addition after another
        stage_sum[t - 1] += np.cumsum(g)[-1]
        if trace is not None:
            steps.append((k, i, j, g))
        k, _, d = np.unravel_index(_draw_rows(flat_q[k, i, j], u[:, s, 2]), shape_next)
        cols = np.einsum("rk,rki,kinr->rn", beliefs, a, aux.qbar[:, :, :, d])
        beliefs = normalize_mixtures(cols)
    if trace is not None:
        ks, i1, j2, gs = (np.stack(col, axis=1).tolist() for col in zip(*steps))  # (R, H)
        for rep in range(R):
            for t in range(H):
                state, a1, a2 = sp.states[ks[rep][t]], sp.actions1[i1[rep][t]], sp.actions2[j2[rep][t]]
                trace.append((rep, t + 1, state, a1, a2, gs[rep][t]))
    totals = acc / H
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(R)) if R > 1 else 0.0
    return PayoffStats(
        mean=mean,
        stderr=stderr,
        stage_means=stage_sum / R,
        replications=R,
    )


# ---------------------------------------------------------------------------
# Fixed adversary suite (versioned)
# ---------------------------------------------------------------------------


def _per_belief(x: np.ndarray, p) -> np.ndarray:
    """A belief-independent answer x: itself for one belief, repeated along
    the rows of an (R, K) stack."""
    return x if np.ndim(p) == 1 else np.broadcast_to(x, (len(p),) + x.shape)


class UniformP2:
    takes_stacks = True

    def __init__(self, nJ: int):
        self.v = np.full(nJ, 1.0 / nJ)

    def mixture(self, t, p):
        return _per_belief(self.v, p)


class PureP2:
    takes_stacks = True

    def __init__(self, nJ: int, j: int):
        self.v = np.eye(nJ)[j]

    def mixture(self, t, p):
        return _per_belief(self.v, p)


class MyopicP2:
    """Minimizes the current expected payoff given the tracked belief and
    the audited strategy's declared action."""

    def __init__(self, aux: AuxGame, sigma):
        self.aux = aux
        self.sigma = sigma

    @property
    def takes_stacks(self) -> bool:
        return _takes_stacks(self.sigma)

    def mixture(self, t, p):
        a = self.sigma.stacked_action(t, p)
        per_j = self.aux.gbar(np.asarray(p, float), np.asarray(a, float))
        return np.eye(self.aux.nJ)[np.argmin(per_j, axis=-1)]


class UniformP1:
    takes_stacks = True

    def __init__(self, nK: int, nI: int):
        self.a = np.full((nK, nI), 1.0 / nI)

    def stacked_action(self, t, p):
        return _per_belief(self.a, p)


class PureP1:
    """Stationary state-indexed pure actions."""

    takes_stacks = True

    def __init__(self, nI: int, choice: tuple[int, ...]):
        self.a = np.eye(nI)[list(choice)]

    def stacked_action(self, t, p):
        return _per_belief(self.a, p)


class MyopicP1:
    """Maximizes the current expected payoff given the audited mixture."""

    def __init__(self, aux: AuxGame, tau):
        self.aux = aux
        self.tau = tau

    @property
    def takes_stacks(self) -> bool:
        return _takes_stacks(self.tau)

    def stacked_action(self, t, p):
        b = np.asarray(self.tau.mixture(t, p), dtype=float)
        scores = np.einsum("kij,...j->...ki", self.aux.payoff, b)
        return np.eye(self.aux.nI)[np.argmax(scores, axis=-1)]


def adversary_suite_p2(aux: AuxGame, sigma) -> dict[str, object]:
    """Opponents for auditing an informed-player strategy."""
    suite: dict[str, object] = {"uniform": UniformP2(aux.nJ)}
    for j in range(aux.nJ):
        suite[f"pure-{aux.spec.actions2[j]}"] = PureP2(aux.nJ, j)
    suite["myopic"] = MyopicP2(aux, sigma)
    return suite


def adversary_suite_p1(aux: AuxGame, tau) -> dict[str, object]:
    """Opponents for auditing an uninformed-player strategy: the first
    ``MAX_PURE_ADVERSARIES`` state-indexed pure actions among them."""
    suite: dict[str, object] = {"uniform": UniformP1(aux.nK, aux.nI)}
    combos = itertools.product(range(aux.nI), repeat=aux.nK)
    for combo in itertools.islice(combos, MAX_PURE_ADVERSARIES):
        suite["pure-" + "".join(str(i) for i in combo)] = PureP1(aux.nI, combo)
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
) -> GuaranteeReport:
    """Audit a guarantee claim against the player's adversary suite.

    Player-1 mode asserts mean >= target - epsilon - CI for every
    adversary and horizon; player-2 mode asserts mean <= target + epsilon
    + CI. Sampling-based: a pass is an audit, not a proof.
    """
    aux = spec if isinstance(spec, AuxGame) else auxiliary_game(spec)
    adversaries = (
        adversary_suite_p2(aux, strategy) if player == 1 else adversary_suite_p1(aux, strategy)
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
