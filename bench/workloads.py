"""The benchmark's workloads: seeded inputs, one timed op each, output checks.

Inputs are generated here from the workload seed and never shared between
ops: every value op gets a game object no earlier op used, because
``values.stage`` memoizes one-shot LPs per ``AuxGame`` and a fresh ``rgs``
process never sees that saving. The program is called only through its
public API (and the module attributes the tracer wraps).
"""

from __future__ import annotations

import numpy as np

import rgsolve as rg
from rgsolve import game_model, strategies
from rgsolve.values import one_shot_lp

TOL = 1e-7  # LP noise allowed in bracket comparisons


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def random_informed_game(rng: np.random.Generator, nK: int) -> rg.RepeatedGameSpec:
    """Random game whose signal 1 encodes (state, signal 2) and whose
    transition ignores player 2's action, so both hypotheses hold; two
    actions each and two signals for player 2 (D = 2)."""
    nI = nJ = nD = 2
    qbar = rng.random((nK, nI, nK, nD)) + 0.05
    qbar /= qbar.sum(axis=(2, 3), keepdims=True)
    transition = np.zeros((nK, nI, nJ, nK, nK * nD, nD))
    initial = np.zeros((nK, nK * nD, nD))
    init = rng.random((nK, nD)) + 0.05
    init /= init.sum()
    for k in range(nK):
        for d in range(nD):
            transition[:, :, :, k, k * nD + d, d] = qbar[:, :, None, k, d]
            initial[k, k * nD + d, d] = init[k, d]
    states = tuple(f"k{k}" for k in range(nK))
    signals2 = tuple(f"d{d}" for d in range(nD))
    return rg.RepeatedGameSpec(
        states=states,
        actions1=tuple(f"i{i}" for i in range(nI)),
        actions2=tuple(f"j{j}" for j in range(nJ)),
        signals1=tuple(f"{s}+{d}" for s in states for d in signals2),
        signals2=signals2,
        initial=initial,
        payoff=rng.random((nK, nI, nJ)),
        transition=transition,
    )


def random_am_game(rng: np.random.Generator) -> rg.RepeatedGameSpec:
    """Fixed hidden state, perfect monitoring, random 2x2 matrices (D = 3)."""
    mats = [rng.random((2, 2)), rng.random((2, 2))]
    return rg.build_aumann_maschler(mats, rng.dirichlet(np.ones(2)))


def random_revealed_chain(rng: np.random.Generator) -> rg.RepeatedGameSpec:
    """Controlled two-state chain with the fresh state revealed (D = 6)."""
    kernel = rng.random((2, 2, 2)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    mats = [rng.random((2, 2)), rng.random((2, 2))]
    return rg.build_markov_chain_game(
        mats, kernel, rng.dirichlet(np.ones(2)), reveal_state_to_p2=True
    )


# ---------------------------------------------------------------------------
# Checks shared by the value workloads
# ---------------------------------------------------------------------------


def bracket_errors(vg, lo: float, hi: float) -> list[str]:
    errs = []
    if lo > hi + TOL:
        errs.append(f"bracket at the prior inverted: lower {lo} > upper {hi}")
    worst = float(np.max(vg.lower - vg.upper))
    if worst > TOL:
        errs.append(f"grid bounds inverted by {worst:.3e}")
    return errs


def fixed_state_errors(aux, lo: float, hi: float) -> list[str]:
    """On fixed-state games cav u <= v_n <= v_1 at every belief."""
    oracle = rg.cavu_oracle(list(aux.payoff), resolution=64)
    atoms, weights = aux.pihat.atoms, aux.pihat.weights
    cav = sum(w * oracle.cav(a) for a, w in zip(atoms, weights))
    one_shot = sum(w * one_shot_lp(aux, a)[0] for a, w in zip(atoms, weights))
    errs = []
    if hi < cav - oracle.error_bound - TOL:
        errs.append(f"upper {hi} below cav u {cav} - {oracle.error_bound}")
    if lo > one_shot + TOL:
        errs.append(f"lower {lo} above the one-shot value {one_shot}")
    return errs


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """``setup`` runs once before the first op, ``make_input`` builds op i's
    input outside the op timer, ``run`` is the timed op, and ``check``
    returns the failed correctness checks of one op's output (empty when
    correct)."""

    name = ""
    tag = 0  # separates the input streams of workloads sharing a seed
    trace_ops = 1  # fixed op count of a traced run, so its counts repeat
    # wrappers that must record calls in a traced run
    expected = (
        "lp.solve_lp@values.stage",
        "lp.solve_lp@values.grid",
        "lp.highs_run",
        "values.stage.stage_lower_lp",
        "values.stage.stage_upper_lp",
        "values.stage.one_shot_lp",
        "values.engine._sweep",
        "values.grid.concave_majorant",
        "values.grid.lower_value",
        "game_model.auxiliary_game",
    )

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.tag, self.seed, i])

    def setup(self) -> None:
        pass

    def make_input(self, i: int):
        raise NotImplementedError

    def steps(self, out) -> int:
        """Simulated stage-steps in one op's output."""
        return 0


class ValueFine(Workload):
    """value_theta_grid(uniform(4)) at resolution 64 on a round-robin of
    fixed-state, random informed and revealed-chain games."""

    name = "value-fine"
    tag = 1
    trace_ops = 3
    kinds = ("am", "informed", "chain")

    def make_input(self, i):
        kind = self.kinds[i % len(self.kinds)]
        rng = self.rng(i)
        if kind == "am":
            spec = random_am_game(rng)
        elif kind == "informed":
            spec = random_informed_game(rng, 2)
        else:
            spec = random_revealed_chain(rng)
        return kind, game_model.auxiliary_game(spec)

    def run(self, game):
        _, aux = game
        vg = rg.value_theta_grid(aux, rg.ThetaWeights.uniform(4), resolution=64, jobs=1)
        return vg, rg.evaluate_measure(vg, aux.pihat)

    def check(self, game, out):
        kind, aux = game
        vg, (lo, hi) = out
        errs = bracket_errors(vg, lo, hi)
        if kind == "am":
            errs += fixed_state_errors(aux, lo, hi)
        return errs

    def gap(self, out):
        lo, hi = out[1]
        return hi - lo


class ValueK3(ValueFine):
    """value_theta_grid(uniform(4)) at resolution 8 (45 points) on random
    three-state informed games: the only workload on the qhull majorant."""

    name = "value-k3"
    tag = 4
    expected = ValueFine.expected + ("values.grid._hull_majorant_highdim",)

    def make_input(self, i):
        return "informed", game_model.auxiliary_game(random_informed_game(self.rng(i), 3))

    def run(self, game):
        _, aux = game
        vg = rg.value_theta_grid(aux, rg.ThetaWeights.uniform(4), resolution=8, jobs=1)
        return vg, rg.evaluate_measure(vg, aux.pihat)


class WindowCorpus(Workload):
    """uniform_value_estimate over a 4x4 window at resolution 16 with
    w_guard 2 on random two-state informed games."""

    name = "window-corpus"
    tag = 2
    trace_ops = 2

    def make_input(self, i):
        return game_model.auxiliary_game(random_informed_game(self.rng(i), 2))

    def run(self, aux):
        return rg.uniform_value_estimate(aux, max_m=4, max_n=4, resolution=16, w_guard=2, jobs=1)

    def check(self, aux, rep):
        errs = []
        pairs = [
            ("inf-sup", rep.infsup_lower, rep.infsup_upper),
            ("sup-inf", rep.supinf_lower, rep.supinf_upper),
            ("sup-inf <= inf-sup", rep.supinf_lower, rep.infsup_upper),
        ]
        pairs += [(f"w{mn}", w.lower, w.upper) for mn, w in rep.w_cells.items()]
        for label, lo, hi in pairs:
            if lo > hi + TOL:
                errs.append(f"{label}: lower {lo} > upper {hi}")
        worst = float(np.max(rep.v_lower - rep.v_upper))
        if worst > TOL:
            errs.append(f"shifted-value table inverted by {worst:.3e}")
        return errs

    def gap(self, rep):
        return rep.infsup_upper - rep.infsup_lower


class AuditAM(Workload):
    """Guarantee audits at horizon 512 of the long-run player-1 strategy and
    the cyclic player-2 strategy of one random fixed-state game, extracted
    in set-up; each op uses a fresh playout seed."""

    name = "audit-am"
    tag = 3
    expected = Workload.expected + (
        "lp.solve_lp@lp",
        "strategies.extract",
        "strategies.lookup",
        "simulator.simulate",
    )
    horizon = 512
    # tens of replications, as audits are run in practice: the pass rule's
    # normal interval needs them, and a simulator that steps replications
    # together can only show its gain with that many
    replications = 32
    epsilon = 0.05

    def setup(self):
        aux = game_model.auxiliary_game(random_am_game(self.rng(0)))
        vg4 = rg.value_theta_grid(aux, rg.ThetaWeights.uniform(4), resolution=32, jobs=1)
        # extracted as a user extracting every strategy would; auditing it
        # too would make an op half as long again
        strategies.extract_p1_markov(aux, vgrid=vg4, long_run=True)
        longrun = strategies.extract_p1_longrun(aux, prep_stages=2, resolution=32)
        cyclic = strategies.build_p2_cyclic(aux, 4, vgrid=vg4)
        # player 1 holds cav u in the long run; player 2's cycle holds v_4,
        # because the state is fixed and v_4 is concave in the belief
        oracle = rg.cavu_oracle(list(aux.payoff), resolution=64)
        atoms, weights = aux.pihat.atoms, aux.pihat.weights
        cav = sum(w * oracle.cav(a) for a, w in zip(atoms, weights))
        lo4, hi4 = rg.evaluate_measure(vg4, aux.pihat)
        self.aux = aux
        self.bracket_gap = hi4 - lo4
        self.audits = [(longrun, cav - oracle.error_bound, 1), (cyclic, hi4, 2)]

    def make_input(self, i):
        # stream 0 made the game
        return int(self.rng(i + 1).integers(0, 2**31))

    def steps(self, reports):
        return self.horizon * self.replications * sum(len(rep.rows) for rep in reports)

    def run(self, playout_seed):
        cfg = rg.PlayoutConfig(
            horizon=self.horizon, replications=self.replications, seed=playout_seed
        )
        return [
            rg.guarantee_check(
                self.aux, strat, target=target, epsilon=self.epsilon,
                horizons=[self.horizon], config=cfg, player=player,
            )
            for strat, target, player in self.audits
        ]

    def margins(self, reports) -> list[float]:
        """Distance from each row's mean to its pass threshold (> 0: pass)."""
        out = []
        for rep in reports:
            for _, _, mean, ci, _ in rep.rows:
                if rep.player == 1:
                    out.append(mean - (rep.target - rep.epsilon - ci))
                else:
                    out.append(rep.target + rep.epsilon + ci - mean)
        return out

    def check(self, playout_seed, reports):
        errs = []
        for rep in reports:
            for adv, _, mean, ci, ok in rep.rows:
                if not ok:
                    errs.append(
                        f"player {rep.player} audit failed against {adv}: mean {mean:.4f}, "
                        f"target {rep.target:.4f}, epsilon {rep.epsilon}, ci {ci:.4f}"
                    )
        return errs

    def gap(self, reports):
        return self.bracket_gap


WORKLOADS = {w.name: w for w in (ValueFine, WindowCorpus, AuditAM, ValueK3)}
