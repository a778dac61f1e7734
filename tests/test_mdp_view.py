"""One-player view: plan rollouts and play realization."""

import numpy as np
import pytest

import rgsolve as rg
from rgsolve.values import markov_strategy_of_play, play_of_markov_strategy

from conftest import make_k1_spec


class ConstantPlan:
    def __init__(self, a):
        self.a = np.asarray(a, float)

    def stacked_action(self, t, p):
        return self.a


class SplitThenHold:
    def stacked_action(self, t, p):
        if t == 1:
            return np.array([[0.75, 0.25], [0.25, 0.75]])
        return np.array([[0.5, 0.5], [0.5, 0.5]])


class TestForward:
    def test_constant_single_state(self):
        spec = make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))
        aux = rg.auxiliary_game(spec)
        plan = ConstantPlan([[0.5, 0.5]])
        play = play_of_markov_strategy(aux, aux.pihat, plan, horizon=4)
        payoffs = [y for _, y in play]
        # guaranteed payoff of the uniform row, constant across stages
        expect = float(np.min(0.5 * spec.payoff[0].sum(axis=0)))
        assert payoffs == pytest.approx([expect] * 4, abs=1e-12)

    def test_nonrevealing_plan_fixes_belief(self, am_aux):
        plan = ConstantPlan([[0.5, 0.5], [0.5, 0.5]])
        play = play_of_markov_strategy(am_aux, am_aux.pihat, plan, horizon=3)
        for u, _ in play:
            assert u.size == 1
            assert u.atoms[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_states_feasible_under_transition_map(self, am_aux):
        plan = SplitThenHold()
        play = play_of_markov_strategy(am_aux, am_aux.pihat, plan, horizon=2)
        u1 = play[0][0]
        # stage-1 split of the uniform prior by the 3/4-1/4 rule
        assert sorted(np.round(u1.atoms[:, 0], 6).tolist()) == pytest.approx([0.25, 0.75])
        assert u1.weights == pytest.approx([0.5, 0.5], abs=1e-12)


class TestRoundTrip:
    def test_reproduces_payoffs(self, am_aux):
        play = play_of_markov_strategy(am_aux, am_aux.pihat, SplitThenHold(), horizon=3)
        rule = markov_strategy_of_play(am_aux, am_aux.pihat, play)
        replay = play_of_markov_strategy(am_aux, am_aux.pihat, rule, horizon=3)
        for (u1, y1), (u2, y2) in zip(play, replay):
            assert y2 == pytest.approx(y1, abs=1e-8)
            d, _ = rg.wasserstein(u1, u2)
            assert d <= 1e-8

    def test_single_state_payoff_matching(self):
        spec = make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))
        aux = rg.auxiliary_game(spec)
        play = play_of_markov_strategy(aux, aux.pihat, ConstantPlan([[0.3, 0.7]]), horizon=2)
        rule = markov_strategy_of_play(aux, aux.pihat, play)
        replay = play_of_markov_strategy(aux, aux.pihat, rule, horizon=2)
        assert [y for _, y in replay] == pytest.approx([y for _, y in play], abs=1e-8)

    def test_realized_strategy_survives_json(self, am_aux, tmp_path):
        play = play_of_markov_strategy(am_aux, am_aux.pihat, SplitThenHold(), horizon=3)
        rule = markov_strategy_of_play(am_aux, am_aux.pihat, play)
        rg.save_strategy(rule, tmp_path / "rule.json")
        loaded = rg.load_strategy(tmp_path / "rule.json")
        # stage t acts on the atoms of the measure reached after t - 1 stages;
        # past the last stage the last rule is held
        measures = [am_aux.pihat] + [u for u, _ in play]
        for t, u in enumerate(measures, start=1):
            for p in u.atoms:
                assert np.array_equal(loaded.stacked_action(t, p), rule.stacked_action(t, p))

    def test_infeasible_play_identifies_step(self, am_aux):
        play = play_of_markov_strategy(am_aux, am_aux.pihat, SplitThenHold(), horizon=2)
        # corrupt the second step's payoff beyond anything realizable
        bad = [(play[0][0], play[0][1]), (play[1][0], 0.99)]
        with pytest.raises(ValueError, match="step 2"):
            markov_strategy_of_play(am_aux, am_aux.pihat, bad)
