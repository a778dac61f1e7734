"""Seeded simulation: determinism, estimator consistency, belief tracking,
guarantee audits."""

import numpy as np
import pytest

import rgsolve as rg
from rgsolve.simulator import (
    UniformP1,
    UniformP2,
    _takes_stacks,
    adversary_suite_p1,
    adversary_suite_p2,
)
from rgsolve.values import play_of_markov_strategy

from conftest import make_k1_spec


class NonRevealingPlan:
    def __init__(self, nK, row):
        self.a = np.tile(np.asarray(row, float), (nK, 1))

    def stacked_action(self, t, p):
        return self.a


class TestDeterminism:
    def test_bit_identical_runs(self, am_aux):
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=8)
        tau = rg.build_p2_cyclic(am_aux, 2, resolution=8)
        cfg = rg.PlayoutConfig(horizon=32, replications=30, seed=123)
        s1 = rg.simulate(am_aux, sigma, tau, cfg)
        s2 = rg.simulate(am_aux, sigma, tau, cfg)
        assert s1.mean == s2.mean
        assert s1.stderr == s2.stderr
        assert np.array_equal(s1.stage_means, s2.stage_means)

    def test_matches_recorded_values(self, am_aux):
        # recorded from the simulator that stepped one replication at a time
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=8)
        tau = rg.build_p2_cyclic(am_aux, 2, resolution=8)
        cfg = rg.PlayoutConfig(horizon=32, replications=30, seed=123)
        stats = rg.simulate(am_aux, sigma, tau, cfg)
        assert stats.mean == 0.025
        assert stats.stderr == 0.004075878721983989
        assert stats.stage_means[:4].tolist() == [
            0.16666666666666666, 0.6333333333333333, 0.0, 0.0
        ]

    def test_matches_recorded_values_across_draw_chunks(self, random_corpus):
        # 130 stages span three chunks of pre-drawn uniforms; recorded from
        # the simulator that drew one uniform at a time
        aux = rg.auxiliary_game(random_corpus[3])
        sigma = rg.extract_p1_markov(aux, n=2, resolution=8)
        tau = rg.build_p2_cyclic(aux, 2, resolution=8)
        cfg = rg.PlayoutConfig(horizon=130, replications=5, seed=123)
        stats = rg.simulate(aux, sigma, tau, cfg)
        assert stats.mean == 0.6599377680769123
        assert stats.stderr == 0.002520831324179763
        assert stats.stage_means[[63, 64, 129]].tolist() == [
            0.5687912597062296, 0.7416262535776266, 0.5687912597062296
        ]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(horizon=0), "horizon and replications"),
            (dict(replications=0), "horizon and replications"),
            (dict(seed=-1), "seed must lie in"),
            (dict(seed=2**64), "seed must lie in"),
        ],
        ids=["horizon", "replications", "negative-seed", "wide-seed"],
    )
    def test_config_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            rg.PlayoutConfig(**{"horizon": 4, "replications": 2, "seed": 0, **kwargs})

    def test_seed_changes_samples(self, am_aux):
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=8)
        tau = rg.build_p2_cyclic(am_aux, 2, resolution=8)
        s1 = rg.simulate(am_aux, sigma, tau, rg.PlayoutConfig(32, 30, seed=1))
        s2 = rg.simulate(am_aux, sigma, tau, rg.PlayoutConfig(32, 30, seed=2))
        assert s1.mean != s2.mean

    def test_trace_records_stages(self, am_aux):
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=8)
        tau = rg.build_p2_cyclic(am_aux, 2, resolution=8)
        trace = []
        rg.simulate(am_aux, sigma, tau, rg.PlayoutConfig(4, 3, seed=0), trace=trace)
        assert len(trace) == 12
        rep, stage, k, i, j, g = trace[0]
        assert (rep, stage) == (0, 1)


class OneBelief:
    """Forwards lookups one belief at a time: it has no ``takes_stacks``
    marker, so the simulator calls it once per replication."""

    def __init__(self, inner):
        self.inner = inner

    def stacked_action(self, t, p):
        assert np.ndim(p) == 1
        return self.inner.stacked_action(t, p)

    def mixture(self, t, p):
        assert np.ndim(p) == 1
        return self.inner.mixture(t, p)


def _playout(aux, sigma, tau, cfg):
    trace = []
    stats = rg.simulate(aux, sigma, tau, cfg, trace=trace)
    return stats, trace


class TestStackedLookups:
    """Stacked lookups and per-replication calls give the same playout, bit
    for bit, on every pair of both adversary suites."""

    @pytest.mark.parametrize("game", ["am", "informed", "one-state"])
    def test_stacked_equals_per_replication(self, game, am_aux, random_corpus):
        if game == "am":
            aux = am_aux
        elif game == "informed":
            aux = rg.auxiliary_game(random_corpus[3])
        else:
            aux = rg.auxiliary_game(make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]])))
        sigma = rg.extract_p1_markov(aux, n=2, resolution=8)  # tail from stage 3
        tau = rg.build_p2_cyclic(aux, 2, resolution=8)
        cfg = rg.PlayoutConfig(horizon=9, replications=7, seed=31)
        pairs = []
        stacked_p2 = adversary_suite_p2(aux, sigma)
        single_p2 = adversary_suite_p2(aux, OneBelief(sigma))
        for name in stacked_p2:
            pairs.append(((sigma, stacked_p2[name]), (OneBelief(sigma), OneBelief(single_p2[name]))))
        stacked_p1 = adversary_suite_p1(aux, tau)
        single_p1 = adversary_suite_p1(aux, OneBelief(tau))
        for name in stacked_p1:
            pairs.append(((stacked_p1[name], tau), (OneBelief(single_p1[name]), OneBelief(tau))))
        for (s1, t1), (s2, t2) in pairs:
            assert _takes_stacks(s1) and _takes_stacks(t1)
            assert not _takes_stacks(s2) and not _takes_stacks(t2)
            a, trace_a = _playout(aux, s1, t1, cfg)
            b, trace_b = _playout(aux, s2, t2, cfg)
            assert a.mean == b.mean
            assert a.stderr == b.stderr
            assert np.array_equal(a.stage_means, b.stage_means)
            assert trace_a == trace_b

    def test_trace_in_replication_then_stage_order(self, am_aux):
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=8)
        tau = rg.build_p2_cyclic(am_aux, 2, resolution=8)
        _, trace = _playout(am_aux, sigma, tau, rg.PlayoutConfig(70, 3, seed=4))
        # 70 stages cross the boundary of one block of pre-drawn uniforms
        assert [row[:2] for row in trace] == [
            (rep, t) for rep in range(3) for t in range(1, 71)
        ]


class TestEstimator:
    def test_constant_payoff_zero_stderr(self):
        spec = make_k1_spec(np.array([[0.7, 0.7], [0.7, 0.7]]))
        aux = rg.auxiliary_game(spec)
        sigma = rg.extract_p1_markov(aux, n=1)
        stats = rg.simulate(aux, sigma, UniformP2(2), rg.PlayoutConfig(16, 20, seed=3))
        # constant tables rescale to a constant; exact mean, zero spread
        assert stats.stderr == 0.0
        assert spec.to_original_scale(stats.mean) == pytest.approx(0.7, abs=1e-12)

    def test_k1_consistency_meta(self):
        spec = make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]]))
        aux = rg.auxiliary_game(spec)
        sigma = rg.extract_p1_markov(aux, n=1)
        tau = rg.build_p2_cyclic(aux, 1)
        hits = 0
        for seed in range(100):
            stats = rg.simulate(aux, sigma, tau, rg.PlayoutConfig(64, 40, seed=seed))
            if abs(stats.mean - 0.5) <= max(3 * stats.stderr, 1e-12):
                hits += 1
        assert hits >= 99

    def test_mean_within_unit_interval(self, random_corpus):
        spec = random_corpus[0]
        aux = rg.auxiliary_game(spec)
        sigma = rg.extract_p1_markov(aux, n=2, resolution=8)
        stats = rg.simulate(aux, sigma, UniformP2(aux.nJ), rg.PlayoutConfig(16, 10, seed=1))
        assert 0.0 <= stats.mean <= 1.0
        assert stats.ci_halfwidth == pytest.approx(1.96 * stats.stderr)


class TestBeliefTracker:
    def test_matches_plan_dynamics_along_signal_path(self, random_corpus):
        # under a declared plan, the tracked belief must follow one atom of
        # the deterministic measure recursion at every stage
        spec = random_corpus[7]
        aux = rg.auxiliary_game(spec)
        plan = NonRevealingPlan(aux.nK, np.full(aux.nI, 1.0 / aux.nI))
        play = play_of_markov_strategy(aux, aux.pihat, plan, horizon=5)

        class Recorder:
            def __init__(self):
                self.beliefs = []

            def mixture(self, t, p):
                self.beliefs.append(np.asarray(p, float).copy())
                return np.full(aux.nJ, 1.0 / aux.nJ)

        rec = Recorder()
        rg.simulate(aux, plan, rec, rg.PlayoutConfig(horizon=5, replications=1, seed=9))
        # stage t >= 2 belief must be an atom of the step-(t-1) measure
        for t, belief in enumerate(rec.beliefs[1:], start=1):
            atoms = play[t - 1][0].atoms
            assert np.abs(atoms - belief).sum(axis=1).min() <= 1e-9


class TestGuaranteeCheck:
    def test_k1_optimal_passes(self):
        spec = make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]]))
        aux = rg.auxiliary_game(spec)
        sigma = rg.extract_p1_markov(aux, n=4)
        report = rg.guarantee_check(
            aux, sigma, target=0.5, epsilon=0.02, horizons=[64, 128],
            config=rg.PlayoutConfig(horizon=64, replications=60, seed=21),
        )
        assert report.passed

    def test_negative_control_fails(self):
        # uniform play guarantees only 0.45 in this game of value 0.5
        spec = make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))
        aux = rg.auxiliary_game(spec)
        sigma = UniformP1(aux.nK, aux.nI)
        oracle = rg.matrix_game_value(spec.payoff[0]).value
        report = rg.guarantee_check(
            aux, sigma, target=oracle, epsilon=0.02, horizons=[256],
            config=rg.PlayoutConfig(horizon=256, replications=60, seed=22),
        )
        assert not report.passed

    def test_player2_mode_direction(self):
        spec = make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]]))
        aux = rg.auxiliary_game(spec)
        tau = rg.build_p2_cyclic(aux, 1)
        report = rg.guarantee_check(
            aux, tau, target=0.5, epsilon=0.02, horizons=[128],
            config=rg.PlayoutConfig(horizon=128, replications=60, seed=23),
            player=2,
        )
        assert report.passed

    def test_invalid_strategy_distribution_rejected(self, am_aux):
        class Broken:
            def stacked_action(self, t, p):
                return np.array([[0.5, 0.2], [0.5, 0.5]])

        with pytest.raises(ValueError, match="invalid distribution"):
            rg.simulate(
                am_aux, Broken(), UniformP2(2), rg.PlayoutConfig(4, 2, seed=0)
            )

    def test_invalid_distribution_names_stage_and_replication(self, am_aux):
        class BadStack:
            """Stacked lookups; replication 2 goes bad at stage 3 only."""

            takes_stacks = True

            def stacked_action(self, t, beliefs):
                a = np.full((len(beliefs), 2, 2), 0.5)
                if t == 3:
                    a[2] = [[0.9, 0.3], [0.9, 0.3]]
                return a

        with pytest.raises(ValueError, match="invalid distribution") as err:
            rg.simulate(am_aux, BadStack(), UniformP2(2), rg.PlayoutConfig(6, 4, seed=0))
        message = str(err.value)
        assert "player 1" in message
        assert "stage 3," in message
        assert "replication 2," in message
        assert "belief [" in message

        class BadSecondCall:
            """Called once per replication in replication order; the second
            call at stage 5 goes bad."""

            def __init__(self):
                self.calls = 0

            def mixture(self, t, p):
                if t == 5:
                    self.calls += 1
                    if self.calls == 2:
                        return np.array([0.7, 0.7])
                return np.array([0.5, 0.5])

        with pytest.raises(ValueError, match="invalid distribution") as err:
            rg.simulate(
                am_aux, UniformP1(2, 2), BadSecondCall(), rg.PlayoutConfig(8, 4, seed=0)
            )
        message = str(err.value)
        assert "player 2" in message
        assert "stage 5," in message
        assert "replication 1," in message
