"""Game model: validation, hypothesis checks, builders, belief primitives."""

import numpy as np
import pytest

import rgsolve as rg
from rgsolve.game_model import SpecValidationError

from conftest import AM_MATRICES


def tiny_spec(initial, transition, payoff=None):
    """2-state, 1-action instance with signals1 = K x D pairs."""
    K, C, D = initial.shape
    if payoff is None:
        payoff = np.full((K, 1, 1), 0.5)
    return rg.RepeatedGameSpec(
        states=tuple(f"k{i}" for i in range(K)),
        actions1=("i0",),
        actions2=("j0",),
        signals1=tuple(f"c{i}" for i in range(C)),
        signals2=tuple(f"d{i}" for i in range(D)),
        initial=initial,
        payoff=payoff,
        transition=transition,
    )


class TestValidation:
    def test_initial_must_sum_to_one(self):
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 0.5
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[:, :, :, 0, 0, 0] = 1.0
        with pytest.raises(SpecValidationError, match="initial"):
            tiny_spec(init, trans)

    def test_transition_rows_must_be_stochastic(self):
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 1.0
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[0, :, :, 0, 0, 0] = 0.7  # short row, names offending table
        trans[1, :, :, 0, 0, 0] = 1.0
        with pytest.raises(SpecValidationError, match=r"transition\(k0"):
            tiny_spec(init, trans)

    def test_payoff_range_enforced(self):
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 1.0
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[:, :, :, 0, 0, 0] = 1.0
        with pytest.raises(SpecValidationError, match="payoff"):
            tiny_spec(init, trans, payoff=np.full((2, 1, 1), 1.5))


class TestHypotheses:
    def test_am_game_satisfies_both(self, am_quadratic):
        assert rg.validate_ha_prime(am_quadratic).holds
        assert rg.validate_hb_prime(am_quadratic).holds

    def test_perfect_monitoring_has_full_ha(self, am_quadratic):
        assert rg.validate_ha(am_quadratic).holds
        assert not rg.validate_hb(am_quadratic).holds  # signals carry j

    def test_ha_prime_violation_reports_mass(self):
        # one signal compatible with two states in the initial support
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 0.7
        init[1, 0, 0] = 0.3
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[:, :, :, 0, 0, 0] = 1.0
        spec = tiny_spec(init, trans)
        report = rg.validate_ha_prime(spec)
        assert not report.holds
        # the off-assignment mass is exactly the conflicting initial mass
        assert report.max_violation == pytest.approx(0.3, abs=1e-9)
        assert report.witness["conflicts"]

    def test_ha_prime_structured_signals(self):
        # signals1 encode (state, signal2): projections recovered
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 0.5
        init[1, 3, 1] = 0.5
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[:, :, :, 0, 0, 0] = 0.5
        trans[:, :, :, 1, 3, 1] = 0.5
        spec = tiny_spec(init, trans)
        report = rg.validate_ha_prime(spec)
        assert report.holds
        assert report.witness["khat"]["c0"] == "k0"
        assert report.witness["dhat"]["c3"] == "d1"
        assert set(report.witness["unreachable_signals"]) == {"c1", "c2"}

    def test_hb_prime_independent_transition(self, random_corpus):
        for spec in random_corpus[:3]:
            report = rg.validate_hb_prime(spec)
            assert report.holds
            qbar = report.witness["qbar"]
            assert qbar.shape == (spec.nK, spec.nI, spec.nK, spec.nD)

    def test_hb_prime_violation_names_pair(self):
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 1.0
        trans = np.zeros((2, 1, 2, 2, 4, 2))
        trans[:, :, 0, 0, 0, 0] = 1.0
        trans[:, :, 1, 1, 3, 1] = 1.0  # second column flips the state
        spec = rg.RepeatedGameSpec(
            states=("k0", "k1"),
            actions1=("i0",),
            actions2=("j0", "j1"),
            signals1=("c0", "c1", "c2", "c3"),
            signals2=("d0", "d1"),
            initial=init,
            payoff=np.full((2, 1, 2), 0.5),
            transition=trans,
        )
        report = rg.validate_hb_prime(spec)
        assert not report.holds
        assert report.witness["offender"]["action2_pair"] == ("j0", "j1")
        assert report.max_violation == pytest.approx(2.0)


class TestCanonicalSignal:
    def test_structured_identity(self, random_corpus):
        spec = random_corpus[0]
        assert rg.canonical_signal(spec, "k1", "d0") == "k1+d0"

    def test_lexicographic_tie_break(self):
        # two signals compatible with the same (state, signal2) pair
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 0.5
        init[0, 1, 0] = 0.5
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[:, :, :, 0, 0, 0] = 1.0
        spec = tiny_spec(init, trans)
        assert rg.canonical_signal(spec, "k0", "d0") == "c0"

    def test_missing_pair_errors(self, random_corpus):
        with pytest.raises(ValueError, match="no signal compatible"):
            rg.canonical_signal(random_corpus[0], "k0", "nonexistent")


class TestInitialBeliefMeasure:
    def test_independent_signal_single_atom(self):
        init = np.zeros((2, 4, 2))
        # d independent of k: conditionals all equal (0.6, 0.4)
        init[0, 0, 0] = 0.3
        init[0, 1, 1] = 0.3
        init[1, 2, 0] = 0.2
        init[1, 3, 1] = 0.2
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[:, :, :, 0, 0, 0] = 1.0
        spec = tiny_spec(init, trans)
        u = rg.initial_belief_measure(spec)
        assert u.size == 1
        assert u.atoms[0] == pytest.approx([0.6, 0.4])

    def test_fully_revealing_vertices(self):
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 0.3
        init[1, 3, 1] = 0.7
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[:, :, :, 0, 0, 0] = 1.0
        spec = tiny_spec(init, trans)
        u = rg.initial_belief_measure(spec)
        assert u.size == 2
        for atom in u.atoms:
            assert max(atom) == pytest.approx(1.0)

    def test_hand_bayes(self):
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 0.3
        init[0, 1, 1] = 0.2
        init[1, 2, 0] = 0.1
        init[1, 3, 1] = 0.4
        trans = np.zeros((2, 1, 1, 2, 4, 2))
        trans[:, :, :, 0, 0, 0] = 1.0
        spec = tiny_spec(init, trans)
        u = rg.initial_belief_measure(spec)
        got = {round(float(w), 6): atom for atom, w in zip(u.atoms, u.weights)}
        assert got[0.4] == pytest.approx([0.75, 0.25], abs=1e-12)
        assert got[0.6] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


class TestBeliefGamePrimitives:
    def test_stage_payoff_vertex_pure(self, am_quadratic):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([1.0, 0.0])
        val = rg.stage_payoff(am_quadratic, np.array([1.0, 0.0]), a, b)
        assert val == pytest.approx(float(am_quadratic.payoff[0, 0, 0]))

    def test_stage_payoff_uniform_mean(self, am_quadratic):
        a = np.full((2, 2), 0.5)
        b = np.array([0.5, 0.5])
        val = rg.stage_payoff(am_quadratic, np.array([0.5, 0.5]), a, b)
        assert val == pytest.approx(float(am_quadratic.payoff.mean()))

    def test_stage_payoff_in_unit_interval(self, random_corpus):
        rng = np.random.default_rng(0)
        for spec in random_corpus[:3]:
            for _ in range(20):
                p = rng.dirichlet(np.ones(spec.nK))
                a = rng.dirichlet(np.ones(spec.nI), size=spec.nK)
                b = rng.dirichlet(np.ones(spec.nJ))
                assert -1e-12 <= rg.stage_payoff(spec, p, a, b) <= 1 + 1e-12

    def test_transition_marginal_vertex_pure(self, random_corpus):
        spec = random_corpus[0]
        report = rg.validate_hb_prime(spec)
        a = np.zeros((spec.nK, spec.nI))
        a[:, 1] = 1.0
        marg = rg.transition_marginal(spec, np.array([1.0, 0.0]), a)
        assert marg == pytest.approx(report.witness["qbar"][0, 1], abs=1e-12)

    def test_transition_marginal_affine_in_action(self, random_corpus):
        rng = np.random.default_rng(1)
        spec = random_corpus[1]
        for _ in range(20):
            p = rng.dirichlet(np.ones(spec.nK))
            a1 = rng.dirichlet(np.ones(spec.nI), size=spec.nK)
            a2 = rng.dirichlet(np.ones(spec.nI), size=spec.nK)
            lam = float(rng.random())
            mix = rg.transition_marginal(spec, p, lam * a1 + (1 - lam) * a2)
            parts = lam * rg.transition_marginal(spec, p, a1) + (
                1 - lam
            ) * rg.transition_marginal(spec, p, a2)
            assert np.abs(mix - parts).sum() <= 1e-12

    def test_transition_marginal_brute_force(self, random_corpus):
        rng = np.random.default_rng(2)
        spec = random_corpus[2]
        qbar = rg.validate_hb_prime(spec).witness["qbar"]
        p = rng.dirichlet(np.ones(spec.nK))
        a = rng.dirichlet(np.ones(spec.nI), size=spec.nK)
        direct = sum(
            p[k] * a[k, i] * qbar[k, i]
            for k in range(spec.nK)
            for i in range(spec.nI)
        )
        assert rg.transition_marginal(spec, p, a) == pytest.approx(direct, abs=1e-14)

    def test_belief_transition_requires_hb(self):
        init = np.zeros((2, 4, 2))
        init[0, 0, 0] = 1.0
        trans = np.zeros((2, 1, 2, 2, 4, 2))
        trans[:, :, 0, 0, 0, 0] = 1.0
        trans[:, :, 1, 1, 3, 1] = 1.0
        spec = rg.RepeatedGameSpec(
            states=("k0", "k1"),
            actions1=("i0",),
            actions2=("j0", "j1"),
            signals1=("c0", "c1", "c2", "c3"),
            signals2=("d0", "d1"),
            initial=init,
            payoff=np.full((2, 1, 2), 0.5),
            transition=trans,
        )
        with pytest.raises(ValueError, match="marginal"):
            rg.transition_marginal(spec, np.array([1.0, 0.0]), np.ones((2, 1)))

    def test_belief_transition_barycenter_preserved(self, random_corpus):
        rng = np.random.default_rng(3)
        for spec in random_corpus[:5]:
            p = rng.dirichlet(np.ones(spec.nK))
            a = rng.dirichlet(np.ones(spec.nI), size=spec.nK)
            u = rg.belief_transition(spec, p, a)
            marg = rg.transition_marginal(spec, p, a)
            assert np.abs(rg.barycenter(u) - marg.sum(axis=1)).sum() <= 1e-12

    def test_belief_transition_hand_bayes(self, random_corpus):
        spec = random_corpus[3]
        rng = np.random.default_rng(4)
        p = rng.dirichlet(np.ones(spec.nK))
        a = rng.dirichlet(np.ones(spec.nI), size=spec.nK)
        marg = rg.transition_marginal(spec, p, a)
        u = rg.belief_transition(spec, p, a)
        for d in range(spec.nD):
            col = marg[:, d]
            if col.sum() <= 0:
                continue
            target = col / col.sum()
            dist = np.abs(u.atoms - target).sum(axis=1).min()
            assert dist <= 1e-10


class TestBuilders:
    def test_am_single_state_is_matrix_game(self):
        spec = rg.build_aumann_maschler([np.array([[0.2, 0.8], [0.6, 0.4]])], np.array([1.0]))
        assert spec.nK == 1
        assert rg.validate_ha_prime(spec).holds
        assert rg.validate_hb_prime(spec).holds

    def test_am_rescaling_round_trip(self):
        mats = [np.array([[-1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 3.0]])]
        spec = rg.build_aumann_maschler(mats, np.array([0.5, 0.5]))
        assert spec.payoff.min() >= 0 and spec.payoff.max() <= 1
        for k, mat in enumerate(mats):
            back = spec.payoff[k] * spec.payoff_scale + spec.payoff_offset
            assert back == pytest.approx(mat, abs=1e-12)

    def test_am_rejects_empty(self):
        with pytest.raises(ValueError):
            rg.build_aumann_maschler([], np.array([1.0]))

    def test_absorbing_kernel_matches_am(self):
        kernel = np.zeros((2, 2, 2))
        kernel[0, :, 0] = 1.0
        kernel[1, :, 1] = 1.0
        mc = rg.build_markov_chain_game(AM_MATRICES, kernel, np.array([0.5, 0.5]))
        am = rg.build_aumann_maschler(AM_MATRICES, np.array([0.5, 0.5]))
        assert np.array_equal(mc.payoff, am.payoff)
        assert np.array_equal(mc.initial, am.initial)
        assert np.array_equal(mc.transition, am.transition)

    def test_cycling_kernel_hypotheses(self):
        kernel = np.zeros((2, 2, 2))
        kernel[0, :, 1] = 1.0
        kernel[1, :, 0] = 1.0
        spec = rg.build_markov_chain_game(AM_MATRICES, kernel, np.array([0.5, 0.5]))
        assert rg.validate_ha_prime(spec).holds
        assert rg.validate_hb_prime(spec).holds

    def test_controlled_chain_instance(self):
        kernel = np.zeros((2, 2, 2))
        kernel[0, 0] = [0.9, 0.1]
        kernel[0, 1] = [0.2, 0.8]
        kernel[1, 0] = [0.5, 0.5]
        kernel[1, 1] = [0.0, 1.0]
        spec = rg.build_markov_chain_game(AM_MATRICES, kernel, np.array([0.3, 0.7]))
        assert rg.validate_ha_prime(spec).holds
        assert rg.validate_hb_prime(spec).holds

    def test_kernel_rows_checked(self):
        with pytest.raises(ValueError, match="kernel"):
            rg.build_markov_chain_game(AM_MATRICES, np.full((2, 2, 2), 0.3), np.array([0.5, 0.5]))

    def test_single_controller_reveals_state(self, single_controller):
        spec, _, _, _ = single_controller
        assert rg.validate_ha_prime(spec).holds
        assert rg.validate_hb_prime(spec).holds
        u = rg.initial_belief_measure(spec)
        for atom in u.atoms:
            assert max(atom) == pytest.approx(1.0)

    def test_builders_always_pass_validators(self, random_corpus):
        for spec in random_corpus:
            assert rg.validate_ha_prime(spec).holds
            assert rg.validate_hb_prime(spec).holds


class TestJsonInterface:
    def test_round_trip(self, am_quadratic, tmp_path):
        path = tmp_path / "spec.json"
        rg.save_spec(am_quadratic, path)
        loaded = rg.load_spec(path)
        assert loaded.states == am_quadratic.states
        assert np.array_equal(loaded.initial, am_quadratic.initial)
        assert np.array_equal(loaded.payoff, am_quadratic.payoff)
        assert np.array_equal(loaded.transition, am_quadratic.transition)

    def test_missing_payoff_entry_rejected(self, am_quadratic, tmp_path):
        doc = rg.spec_to_json(am_quadratic)
        key = next(iter(doc["payoff"]))
        del doc["payoff"][key]
        with pytest.raises(SpecValidationError, match="payoff missing"):
            rg.spec_from_json(doc)

    def test_unknown_label_rejected(self, am_quadratic):
        doc = rg.spec_to_json(am_quadratic)
        doc["initial"][0]["k"] = "bogus"
        with pytest.raises(SpecValidationError, match="unknown state"):
            rg.spec_from_json(doc)

    @pytest.mark.parametrize("key", ["k", "c", "d", "prob"])
    def test_initial_entry_missing_key_named(self, am_quadratic, key):
        doc = rg.spec_to_json(am_quadratic)
        del doc["initial"][1][key]
        with pytest.raises(SpecValidationError, match=rf"^initial\[1\] lacks key '{key}'$"):
            rg.spec_from_json(doc)

    def test_transition_entry_missing_key_named(self, am_quadratic):
        doc = rg.spec_to_json(am_quadratic)
        key = next(iter(doc["transition"]))
        del doc["transition"][key][0]["prob"]
        with pytest.raises(
            SpecValidationError, match=rf"^transition\['{key}'\]\[0\] lacks key 'prob'$"
        ):
            rg.spec_from_json(doc)

    @pytest.mark.parametrize("prob", ["half", None, [0.5]])
    def test_non_numeric_prob_named(self, am_quadratic, prob):
        doc = rg.spec_to_json(am_quadratic)
        doc["initial"][0]["prob"] = prob
        with pytest.raises(SpecValidationError, match=r"^initial\[0\] has non-numeric prob"):
            rg.spec_from_json(doc)

    def test_loader_enforces_probabilities(self, am_quadratic):
        doc = rg.spec_to_json(am_quadratic)
        doc["initial"][0]["prob"] = 0.2  # breaks normalization
        with pytest.raises(SpecValidationError):
            rg.spec_from_json(doc)
