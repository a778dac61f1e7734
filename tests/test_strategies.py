"""Strategy extraction, serialization, and the concavification oracle."""

import dataclasses

import numpy as np
import pytest

import rgsolve as rg
from rgsolve.strategies import MarkovStrategy1, _nonrevealing_game, extract_p1_longrun
from rgsolve.values import SimplexGrid, ThetaWeights
from rgsolve.values.grid import lower_value, nearest

from conftest import AM_MATRICES, make_k1_spec


class TestExtractP1:
    def test_single_state_rules_are_matrix_optimal(self):
        spec = make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sigma = rg.extract_p1_markov(spec, n=3)
        for t in (1, 2, 3):
            a = sigma.stacked_action(t, np.array([1.0]))
            assert a[0] == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_am_one_shot_revealing_split(self, am_aux):
        sigma = rg.extract_p1_markov(am_aux, n=1, resolution=64)
        a = sigma.stacked_action(1, np.array([0.5, 0.5]))
        # the one-shot optimum at 1/2 plays each state's own best row
        assert a[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert a[1, 1] == pytest.approx(1.0, abs=1e-6)

    def test_off_grid_lookup_and_slack(self, am_aux):
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=16)
        a = sigma.stacked_action(1, np.array([0.501, 0.499]))
        assert a.shape == (2, 2)
        assert sigma.slack > 0

    def test_maintenance_tail_is_nonrevealing(self, am_aux):
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=16)
        a = sigma.stacked_action(99, np.array([0.5, 0.5]))
        assert np.abs(a[0] - a[1]).sum() <= 1e-9

    def test_maintenance_row_ignores_call_order(self, am_aux):
        # beliefs that differ in the last bit share one tail entry
        p = np.array([0.3, 0.7])
        q = np.array([np.nextafter(0.3, 1.0), 0.7])
        rows = []
        for order in ((p, q), (q, p)):
            sigma = MarkovStrategy1(
                stage_atoms=(), stage_actions=(), slack=0.0, payoff_tensor=am_aux.payoff
            )
            got = {b.tobytes(): sigma.stacked_action(1, b) for b in order}
            rows.append([got[p.tobytes()], got[q.tobytes()]])
        assert all(np.array_equal(a, b) for a, b in zip(rows[0], rows[1]))
        assert np.array_equal(rows[0][0], rows[0][1])

    def test_long_run_trims_endgame(self, am_aux):
        full = rg.extract_p1_markov(am_aux, n=8, resolution=16)
        trimmed = rg.extract_p1_markov(am_aux, n=8, resolution=16, long_run=True)
        assert len(trimmed.stage_atoms) < len(full.stage_atoms)


class TestP2Strategies:
    def test_cyclic_single_state_repeats_column_optimum(self):
        spec = make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]]))
        tau = rg.build_p2_cyclic(spec, 2)
        for t in range(1, 7):
            assert tau.mixture(t, np.array([1.0])) == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_n_one_is_myopic_minimax(self, am_aux):
        tau = rg.build_p2_cyclic(am_aux, 1, resolution=32)
        b = tau.mixture(1, np.array([0.5, 0.5]))
        assert b.sum() == pytest.approx(1.0, abs=1e-9)

    def test_given_grid_must_match_the_horizon(self, am_aux):
        vg8 = rg.value_theta_grid(am_aux, ThetaWeights.uniform(8), resolution=8)
        # a cycle of 4 stages cannot replay 8 stage rules, nor can a
        # 4-stage player-1 strategy
        with pytest.raises(ValueError, match="not the horizon 4"):
            rg.build_p2_cyclic(am_aux, 4, vgrid=vg8)
        with pytest.raises(ValueError, match="not the horizon 4"):
            rg.extract_p1_markov(am_aux, n=4, vgrid=vg8)
        assert rg.build_p2_cyclic(am_aux, 8, vgrid=vg8).schedule == (8,)
        assert len(rg.extract_p1_markov(am_aux, n=8, vgrid=vg8).stage_actions) == 8

    def test_growing_schedule_offsets(self, am_aux):
        tau = rg.build_p2_growing(am_aux, resolution=8, max_block=4)
        assert tau.schedule == (1, 2, 3, 4)
        # stage offsets of the blocks follow the triangular numbers
        assert tau._locate(1) == (0, 0)
        assert tau._locate(2) == (1, 0)
        assert tau._locate(4) == (2, 0)
        assert tau._locate(7) == (3, 0)

    def test_growing_single_state_holds_matrix_value(self):
        spec = make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]]))
        tau = rg.build_p2_growing(spec, max_block=4)
        sigma = rg.extract_p1_markov(spec, n=4)
        stats = rg.simulate(
            spec, sigma, tau, rg.PlayoutConfig(horizon=40, replications=50, seed=5)
        )
        assert stats.mean == pytest.approx(0.5, abs=3 * stats.stderr + 0.02)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda aux: rg.build_p2_growing(aux, max_block=0), "max_block must be at least 1"),
            (lambda aux: extract_p1_longrun(aux, resolution=0), "resolution"),
        ],
        ids=["growing-blocks", "longrun-grid"],
    )
    def test_bad_sizes_rejected(self, am_aux, call, match):
        with pytest.raises(ValueError, match=match):
            call(am_aux)


class TestNearestLookup:
    def test_l1_ties_go_to_the_lower_index(self):
        grid = SimplexGrid.create(2, 2)  # rows (0, 1), (0.5, 0.5), (1, 0)
        # each belief is at l1 distance 0.5 from two neighbouring rows
        assert nearest(grid.points, [0.25, 0.75]) == 0
        assert nearest(grid.points, [0.75, 0.25]) == 1
        acts = np.arange(grid.size * 2, dtype=float).reshape(grid.size, 1, 2)
        sigma = MarkovStrategy1(stage_atoms=(grid.points,), stage_actions=(acts,), slack=0.0)
        assert np.array_equal(sigma.stacked_action(1, [0.75, 0.25]), acts[1])


class TestStackedLookups:
    """An (R, K) stack of beliefs gives the row-by-row answers, stacked."""

    @staticmethod
    def _beliefs():
        rng = np.random.default_rng(8)
        x = np.concatenate([
            rng.random(5),
            [0.0, 1.0, 0.5],
            [1 / 16, 3 / 16],  # l1 ties between two atoms of the resolution-8 lattice
        ])
        return np.column_stack([x, 1 - x])

    def test_markov_stack_equals_rows(self, am_aux):
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=8)
        beliefs = self._beliefs()
        # stage 1 inside the computed rules; stage 5 in the maintenance tail
        for t in (1, 2, 5):
            stacked = sigma.stacked_action(t, beliefs)
            assert stacked.shape == (len(beliefs), 2, 2)
            rows = [sigma.stacked_action(t, p) for p in beliefs]
            assert all(row.shape == (2, 2) for row in rows)
            assert np.array_equal(stacked, np.stack(rows))

    def test_block_stack_equals_rows(self, am_aux):
        tau = rg.build_p2_cyclic(am_aux, 2, resolution=8)
        beliefs = self._beliefs()
        # stage 5 wraps around the cycle of length 2
        for t in (1, 2, 5):
            stacked = tau.mixture(t, beliefs)
            assert stacked.shape == (len(beliefs), 2)
            rows = [tau.mixture(t, p) for p in beliefs]
            assert all(row.shape == (2,) for row in rows)
            assert np.array_equal(stacked, np.stack(rows))

    def test_stacked_ties_go_to_the_lower_row(self):
        grid = SimplexGrid.create(2, 2)  # rows (0, 1), (0.5, 0.5), (1, 0)
        beliefs = np.array([[0.25, 0.75], [0.75, 0.25], [0.5, 0.5]])
        assert nearest(grid.points, beliefs).tolist() == [0, 1, 1]
        mix = np.arange(grid.size * 2, dtype=float).reshape(grid.size, 2)
        tau = rg.BlockStrategy2(
            schedule=(1,), block_atoms=((grid.points,),), block_mixtures=((mix,),),
            cyclic=True, slack=0.0,
        )
        assert np.array_equal(tau.mixture(3, beliefs), mix[[0, 1, 1]])


class TestSerialization:
    def test_p1_round_trip(self, am_aux, tmp_path):
        sigma = rg.extract_p1_markov(am_aux, n=2, resolution=8)
        path = tmp_path / "p1.json"
        rg.save_strategy(sigma, path)
        loaded = rg.load_strategy(path)
        p = np.array([0.3, 0.7])
        for t in (1, 2, 5):
            assert loaded.stacked_action(t, p) == pytest.approx(
                sigma.stacked_action(t, p), abs=1e-12
            )

    def test_p2_round_trip(self, am_aux, tmp_path):
        tau = rg.build_p2_cyclic(am_aux, 2, resolution=8)
        path = tmp_path / "p2.json"
        rg.save_strategy(tau, path)
        loaded = rg.load_strategy(path)
        p = np.array([0.3, 0.7])
        for t in (1, 2, 3, 4):
            assert loaded.mixture(t, p) == pytest.approx(tau.mixture(t, p), abs=1e-12)

    def test_rejects_unknown_player(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"player": 3}')
        with pytest.raises(ValueError, match="player"):
            rg.load_strategy(path)


class TestCavUOracle:
    def test_concave_value_function_is_its_own_envelope(self):
        oracle = rg.cavu_oracle(AM_MATRICES, resolution=64)
        # u(p) = p(1-p) for this pair, already concave
        for x0 in [0.0, 0.25, 0.5, 0.75, 1.0]:
            p = np.array([x0, 1 - x0])
            assert oracle.cav(p) == pytest.approx(x0 * (1 - x0), abs=2e-4)
        assert oracle.cav(np.array([0.5, 0.5])) == pytest.approx(0.25, abs=1e-6)

    def test_convex_value_yields_chord(self):
        mats = [np.array([[-1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, -1.0]])]
        oracle = rg.cavu_oracle(mats, resolution=64)
        # u(p) = -p(1-p)... value of [[-p,0],[0,-(1-p)]] is max_j-min: compute:
        # row player maximizes: value = -p(1-p)/(p + (1-p)) = -p(1-p); convex.
        # envelope is the chord through the endpoints u(0) = u(1) = 0.
        for x0 in [0.25, 0.5, 0.75]:
            assert oracle.cav(np.array([x0, 1 - x0])) == pytest.approx(0.0, abs=1e-6)

    def test_envelope_dominates_and_is_concave(self):
        rng = np.random.default_rng(33)
        mats = [rng.random((3, 3)), rng.random((3, 3))]
        oracle = rg.cavu_oracle(mats, resolution=32)
        for pt, uv in zip(oracle.points, oracle.u_values):
            assert oracle.cav(pt) >= uv - 1e-9
        for _ in range(30):
            x = rng.random()
            y = rng.random()
            mid = (x + y) / 2
            ends = 0.5 * (
                oracle.cav(np.array([x, 1 - x])) + oracle.cav(np.array([y, 1 - y]))
            )
            assert oracle.cav(np.array([mid, 1 - mid])) >= ends - 1e-9

    def test_three_state_supported(self):
        rng = np.random.default_rng(34)
        mats = [rng.random((2, 2)) for _ in range(3)]
        oracle = rg.cavu_oracle(mats, resolution=8)
        for pt, uv in zip(oracle.points, oracle.u_values):
            assert oracle.cav(pt) >= uv - 1e-9

    def test_one_state_is_the_matrix_value(self):
        mat = np.array([[0.9, 0.1], [0.2, 0.8]])
        oracle = rg.cavu_oracle([mat], resolution=4)
        value = rg.matrix_game_value(mat).value
        assert oracle.u(np.array([1.0])) == oracle.cav(np.array([1.0])) == value
        assert oracle.error_bound == 0.0

    def test_four_states_rejected(self):
        with pytest.raises(ValueError, match="3 states"):
            rg.cavu_oracle([np.eye(2)] * 4, resolution=4)


class TestLongRunStrategy:
    def test_am_longrun_holds_nonrevealing_level(self, am_aux):
        sigma = extract_p1_longrun(am_aux, prep_stages=2, resolution=32)
        stats = rg.simulate(
            am_aux,
            sigma,
            rg.simulator.MyopicP2(am_aux, sigma),
            rg.PlayoutConfig(horizon=256, replications=100, seed=17),
        )
        # the nonrevealing value at 1/2 is 1/4; allow sampling noise
        assert stats.mean >= 0.25 - 3 * stats.stderr - 0.02


def _audit_am_game(seed: int) -> rg.AuxGame:
    """The fixed-state game of the benchmark's audit workload for a seed."""
    rng = np.random.default_rng([3, seed, 0])
    mats = [rng.random((2, 2)), rng.random((2, 2))]
    return rg.auxiliary_game(rg.build_aumann_maschler(mats, rng.dirichlet(np.ones(2))))


def _lattice_level(aux, resolution):
    grid = SimplexGrid.create(aux.nK, resolution)
    return grid, np.array([_nonrevealing_game(p, aux.payoff).value for p in grid.points])


def _maintenance_row(aux, p):
    return np.tile(_nonrevealing_game(p, aux.payoff).row_strategy, (aux.nK, 1))


class TestLongRunPositioning:
    """The long-run rule splits each belief onto the hull of u in one stage."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_posteriors_are_lattice_points_on_the_hull(self, seed):
        aux = _audit_am_game(seed)
        grid, level = _lattice_level(aux, 32)
        sigma = extract_p1_longrun(aux, prep_stages=2, resolution=32)
        atoms = sigma.stage_atoms[0]
        assert any(np.array_equal(a, aux.pihat.atoms[0]) for a in atoms)
        for p, a in zip(atoms, sigma.stage_actions[0]):
            for q in aux.belief_step(p, a).atoms:
                g = nearest(grid.points, q)
                assert np.abs(grid.points[g] - q).sum() <= 1e-9
                assert level[g] == pytest.approx(
                    lower_value(grid, level, grid.points[g]), abs=1e-9
                )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_step_value_is_the_hull(self, seed):
        aux = _audit_am_game(seed)
        grid, level = _lattice_level(aux, 32)
        sigma = extract_p1_longrun(aux, prep_stages=2, resolution=32)
        for p, a in zip(sigma.stage_atoms[0], sigma.stage_actions[0]):
            step = aux.belief_step(p, a)
            held = sum(
                w * _nonrevealing_game(q, aux.payoff).value
                for q, w in zip(step.atoms, step.weights)
            )
            assert held == pytest.approx(lower_value(grid, level, p), abs=1e-9)

    def test_blind_signal_keeps_the_maintenance_row(self):
        # u(p) = -p(1 - p) is convex, so every interior belief wants to split
        mats = [np.array([[-1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, -1.0]])]
        seen = rg.build_aumann_maschler(mats, np.array([0.4, 0.6]))
        # player 2's signal merged into one: it ignores player 1's action
        blind = dataclasses.replace(
            seen,
            signals2=("blind",),
            initial=seen.initial.sum(axis=-1, keepdims=True),
            transition=seen.transition.sum(axis=-1, keepdims=True),
        )
        for spec in (seen, blind):
            aux = rg.auxiliary_game(spec)
            sigma = extract_p1_longrun(aux, prep_stages=2, resolution=8)
            atoms = sigma.stage_atoms[0]
            stays = np.array([
                [np.array_equal(a, _maintenance_row(aux, p)) for p, a in zip(atoms, rule)]
                for rule in sigma.stage_actions
            ])
            if spec is seen:
                # a player 2 who sees the action is split for at every interior belief
                assert not stays[:, atoms.min(axis=1) > 0].any()
            else:
                assert stays.all()


class TestGuaranteeSoundnessAtDesignHorizon:
    def test_extracted_pair_brackets_value_at_horizon_n(self, am_aux):
        n = 8
        vg = rg.value_theta_grid(am_aux, ThetaWeights.uniform(n), resolution=64)
        lo, hi = rg.evaluate_measure(vg, am_aux.pihat)
        sigma = rg.extract_p1_markov(am_aux, vgrid=vg)
        tau = rg.build_p2_cyclic(am_aux, n, vgrid=vg)
        stats = rg.simulate(
            am_aux, sigma, tau, rg.PlayoutConfig(horizon=n, replications=400, seed=19)
        )
        slack = max(sigma.slack, tau.slack)
        assert stats.mean >= lo - slack - stats.ci_halfwidth
        assert stats.mean <= hi + slack + stats.ci_halfwidth
