"""Value engine: stage-measure calculus, certified grids, the exact LP,
shifted values, prefix-guarantee values, uniform-value window."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import QhullError

import rgsolve as rg
from rgsolve.values import (
    SimplexGrid,
    ThetaWeights,
    suffix_chain,
    theta_lift,
    theta_plus,
    theta_shift,
)
from rgsolve.lp import LPError, LPSolution
from rgsolve.values import engine
from rgsolve.values import exact as exact_module
from rgsolve.values import grid as grid_module
from rgsolve.values.engine import _measure_bounds, _sweep
from rgsolve.values.grid import (
    _cav_env_dim2,
    concave_majorant,
    eval_pieces,
    hull_pieces,
    lipschitz_upper,
    lower_value,
    nearest,
)
from rgsolve.values.stage import one_shot_lp

from conftest import make_k1_spec, random_informed_game


class TestThetaCalculus:
    def test_dirac_one_is_fixed_point_of_shift(self):
        theta = ThetaWeights.dirac(1)
        assert theta_plus(theta) == theta

    def test_uniform_shift(self):
        theta = theta_plus(ThetaWeights.uniform(5))
        assert theta == ThetaWeights.uniform(4)

    def test_shift_renormalizes(self):
        theta = ThetaWeights.from_map({1: 0.5, 3: 0.5})
        assert theta_plus(theta) == ThetaWeights.dirac(2)

    def test_lift_dirac(self):
        assert theta_lift(ThetaWeights.dirac(1), 2) == ThetaWeights.dirac(3)

    def test_lift_point_mass_at_n_is_uniform(self):
        lifted = theta_lift(ThetaWeights.dirac(4), 0)
        assert lifted == ThetaWeights.uniform(4)

    def test_lift_uniform_two(self):
        lifted = theta_lift(ThetaWeights.uniform(2), 0)
        assert lifted.as_map() == pytest.approx({1: 0.75, 2: 0.25})

    def test_shift_moves_support(self):
        shifted = theta_shift(ThetaWeights.uniform(3), 2)
        assert shifted.stages == (3, 4, 5)
        assert shifted.first_weight == 0.0

    @pytest.mark.parametrize("n", range(1, 17))
    def test_shift_then_plus_is_exact(self, n):
        # no stage-1 weight: the support moves and the weights keep their bits
        assert theta_plus(theta_shift(ThetaWeights.uniform(n), 1)) == ThetaWeights.uniform(n)

    def test_suffix_chain_length(self):
        chain = suffix_chain(theta_shift(ThetaWeights.uniform(3), 2))
        assert len(chain) == 5
        assert chain[-1] == ThetaWeights.dirac(1)
        assert [round(c.first_weight, 6) for c in chain] == [
            0.0,
            0.0,
            pytest.approx(1 / 3),
            0.5,
            1.0,
        ]


class TestGridInterpolation:
    def test_lattice_counts(self):
        assert SimplexGrid.create(2, 8).size == 9
        assert SimplexGrid.create(3, 4).size == 15
        assert SimplexGrid.create(1, 5).size == 1

    def test_lower_value_between_bounds(self):
        grid = SimplexGrid.create(2, 4)
        vals = np.array([0.0, 0.25, 0.5, 0.25, 0.0])  # concave tent
        x = np.array([0.375, 0.625])
        lo = lower_value(grid, vals, x)
        hi = lipschitz_upper(grid, vals, x)
        assert lo <= hi + 1e-12
        assert lo == pytest.approx(0.375, abs=1e-9)  # chord through neighbors

    @pytest.mark.parametrize("K, resolution", [(2, 16), (3, 6)])
    def test_hull_dominates_lipschitz_lower_on_sweep_output(self, K, resolution):
        # the lower interpolation is the hull alone: on sweep output the
        # Lipschitz lower envelope max_g v[g] - |x - g|_1 never exceeds it
        rng = np.random.default_rng([12, K])
        grid = SimplexGrid.create(K, resolution)
        for _ in range(3):
            aux = rg.auxiliary_game(random_informed_game(rng, nK=K))
            vlow, _, _ = one_shot_lp(aux, grid.points)
            vup = vlow
            for alpha in (1 / 2, 1 / 3, 1 / 4):  # the uniform(4) chain, inward out
                vlow, vup, _, _ = _sweep(aux, grid, alpha, vlow, vup)
                for x in [*rng.dirichlet(np.ones(K), size=20), *aux.pihat.atoms]:
                    lipschitz = float(np.max(vlow - np.abs(grid.points - x).sum(axis=1)))
                    assert lower_value(grid, vlow, x) >= lipschitz - 1e-12

    def test_concave_majorant_dominates_data(self):
        rng = np.random.default_rng(5)
        grid = SimplexGrid.create(2, 16)
        vals = rng.random(grid.size)
        pieces = concave_majorant(grid.points, vals, grid.resolution)
        for pt, v in zip(grid.points, vals):
            assert eval_pieces(pieces, pt) >= min(
                v, float(np.min(vals + grid.l1_to(pt)))
            ) - 1e-9

    def test_concave_majorant_dominates_concave_lipschitz_functions(self):
        # any concave 1-Lipschitz function below the data stays below the majorant
        grid = SimplexGrid.create(2, 8)
        f = lambda x: min(x[0], 1 - x[0]) * 2 * 0.9
        vals = np.array([f(p) + 0.01 for p in grid.points])
        pieces = concave_majorant(grid.points, vals, grid.resolution)
        for x0 in np.linspace(0, 1, 101):
            x = np.array([x0, 1 - x0])
            assert eval_pieces(pieces, x) >= f(x) - 1e-9

    def test_three_state_majorant_valid(self):
        grid = SimplexGrid.create(3, 4)
        f = lambda x: float(1 - max(x))  # concave, 1-Lipschitz in l1
        vals = np.array([f(p) for p in grid.points])
        pieces = concave_majorant(grid.points, vals, grid.resolution)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.dirichlet(np.ones(3))
            assert eval_pieces(pieces, x) >= f(x) - 1e-9

    # the K = 3 kinked case is test_three_state_majorant_valid above
    @pytest.mark.parametrize(
        "K, f",
        # concave and 1-Lipschitz in l1
        [
            (3, lambda x: float(1 - x @ x / 2)),
            (4, lambda x: float(1 - max(x))),
            (4, lambda x: float(1 - x @ x / 2)),
        ],
        ids=["K3-smooth", "K4-kinked", "K4-smooth"],
    )
    def test_high_dim_majorant_valid(self, K, f):
        grid = SimplexGrid.create(K, 4)
        vals = np.array([f(p) for p in grid.points])
        pieces = concave_majorant(grid.points, vals, grid.resolution)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.dirichlet(np.ones(K))
            assert eval_pieces(pieces, x) >= f(x) - 1e-9


class TestHullPieces:
    @pytest.mark.parametrize("kind", ["random", "concave", "affine"])
    @pytest.mark.parametrize("K, resolution", [(3, 8), (4, 4)])
    def test_hull_equals_barycentric_lp(self, K, resolution, kind, caplog):
        rng = np.random.default_rng([K, ["random", "concave", "affine"].index(kind)])
        grid = SimplexGrid.create(K, resolution)
        if kind == "random":
            vals = rng.random(grid.size)
        elif kind == "concave":
            # a minimum of affine functions: many coplanar data points
            vals = (grid.points @ rng.random((K, 4))).min(axis=1)
        else:
            vals = grid.points @ rng.random(K)  # flat data, which qhull rejects
        pieces = hull_pieces(grid.points, vals)
        assert "hull check failed" not in caplog.text
        assert (grid.points @ pieces.T >= vals[:, None] - 1e-9).all()
        for x in rng.dirichlet(np.ones(K), size=200):
            assert abs(eval_pieces(pieces, x) - lower_value(grid, vals, x)) <= 1e-9

    @pytest.mark.parametrize("K, resolution", [(3, 8), (3, 16), (4, 4)])
    def test_one_piece_per_plane(self, K, resolution):
        # Qt splits each coplanar facet of this data into several triangles
        rng = np.random.default_rng([K, resolution])
        grid = SimplexGrid.create(K, resolution)
        vals = (grid.points @ rng.random((K, 4))).min(axis=1)
        pieces = hull_pieces(grid.points, vals)
        apart = np.abs(pieces[:, None, :] - pieces[None, :, :]).max(axis=2)
        assert (apart[~np.eye(len(pieces), dtype=bool)] > 1e-10).all()
        for x in rng.dirichlet(np.ones(K), size=50):
            assert abs(eval_pieces(pieces, x) - lower_value(grid, vals, x)) <= 1e-9

    def test_failed_hull_falls_back_to_valid_pieces(self, monkeypatch, caplog):
        def failing_hull(coords):
            raise QhullError("precision error")

        monkeypatch.setattr(grid_module, "ConvexHull", failing_hull)
        lattice = SimplexGrid.create(3, 4)
        f = lambda x: float(1 - x @ x / 2)  # concave, 1-Lipschitz in l1
        vals = np.array([f(p) for p in lattice.points])
        lower = hull_pieces(lattice.points, vals)
        upper = concave_majorant(lattice.points, vals, lattice.resolution)
        assert caplog.text.count("hull check failed") == 2
        for x in np.random.default_rng(7).dirichlet(np.ones(3), size=50):
            assert eval_pieces(lower, x) <= lower_value(lattice, vals, x) + 1e-9
            assert eval_pieces(upper, x) >= f(x) - 1e-9

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_freudenthal_cell_diameter(self, K):
        # cells of the lattice at resolution 4 in cumulative coordinates
        # z_j = res * (x_1 + ... + x_j): a cube corner plus unit steps in
        # some order, kept when 0 <= z_1 <= ... <= z_{K-1} <= res
        res = 4
        steps = np.eye(K - 1, dtype=int)
        cells = []
        for corner in itertools.product(range(res), repeat=K - 1):
            for order in itertools.permutations(range(K - 1)):
                z = np.cumsum(np.vstack([corner, steps[list(order)]]), axis=0)
                if (np.diff(z, axis=1) >= 0).all():
                    cells.append(np.diff(z, axis=1, prepend=0, append=res) / res)
        cells = np.array(cells)  # (C, K, K): each cell's K simplex vertices
        # each cell has 1/res^(K-1) of the simplex's volume, so they fill it
        assert len(cells) == res ** (K - 1)
        assert np.allclose(cells.sum(axis=2), 1.0) and (cells >= 0).all()
        diam = np.abs(cells[:, :, None] - cells[:, None]).sum(axis=-1).max()
        assert diam <= 2 * (K // 2) / res + 1e-12


class TestThreeStateSoundness:
    @pytest.fixture(scope="class")
    def am_games(self):
        rng = np.random.default_rng(303)
        specs = [rg.build_aumann_maschler([rng.random((2, 2)) for _ in range(3)], np.full(3, 1 / 3))
                 for _ in range(8)]
        return [rg.auxiliary_game(spec) for spec in specs]

    @pytest.mark.parametrize("resolution, max_gap", [(6, 0.5), (12, 0.25)])
    def test_fixed_state_brackets(self, am_games, resolution, max_gap):
        # v_4 lies between cav u (below every v_n) and v_1 (above every v_n)
        for aux in am_games:
            vg = rg.value_theta_grid(aux, ThetaWeights.uniform(4), resolution=resolution)
            oracle = rg.cavu_oracle(list(aux.payoff), resolution=resolution)
            cav = np.array([oracle.cav(p) for p in vg.grid.points])
            assert (vg.upper >= cav - oracle.error_bound).all()
            v1, _, _ = one_shot_lp(aux, vg.grid.points)
            assert (vg.lower <= v1 + 1e-9).all()
            assert vg.gap <= max_gap + 1e-9

    @pytest.mark.parametrize("n, games", [(2, range(8)), (3, (0, 1))], ids=["uniform2", "uniform3"])
    def test_tree_brackets_at_the_barycenter(self, am_games, n, games):
        theta = ThetaWeights.uniform(n)
        for g in games:
            aux = am_games[g]
            p = aux.pihat.weights @ aux.pihat.atoms
            v, _ = rg.value_theta_exact(aux, theta, p)
            vg = rg.value_theta_grid(aux, theta, resolution=8)
            grid_lo, grid_hi = rg.evaluate_measure(vg, aux.pihat)
            assert grid_lo - 1e-9 <= v <= grid_hi + 1e-9
            # a fixed-state game's v_n lies between cav u and v_1
            oracle = rg.cavu_oracle(list(aux.payoff), resolution=12)
            assert oracle.cav(p) - oracle.error_bound <= v <= one_shot_lp(aux, p)[0] + 1e-9

    def test_measure_bounds_stay_in_payoff_range(self, am_games):
        # off-lattice atoms read the majorant's cell-diameter bump; the last
        # game's uppers at the prior reached 1.033 and 1.158 before the clip
        for aux in am_games:
            for n in (2, 3):
                vg = rg.value_theta_grid(aux, ThetaWeights.uniform(n), resolution=8)
                assert vg.meta["certification"] == "cell-diameter"
                lo, hi = rg.evaluate_measure(vg, aux.pihat)
                assert aux.payoff.min() <= lo <= hi <= aux.payoff.max()

    def test_four_state_informed_game(self, caplog):
        aux = rg.auxiliary_game(random_informed_game(np.random.default_rng(404), nK=4))
        # a bound inversion would raise
        vg = rg.value_theta_grid(aux, ThetaWeights.uniform(4), resolution=4)
        assert "hull check failed" not in caplog.text
        assert (vg.lower <= vg.upper).all()
        assert (vg.lower >= aux.payoff.min()).all()
        assert (vg.upper <= aux.payoff.max()).all()


class TestValueGrid:
    def test_am_v1_exact_at_midpoint(self, am_aux):
        vg = rg.value_theta_grid(am_aux, ThetaWeights.dirac(1), resolution=64)
        lo, hi = rg.evaluate_measure(vg, am_aux.pihat)
        assert lo == pytest.approx(0.5, abs=1e-8)
        assert hi == pytest.approx(0.5, abs=1e-8)

    def test_am_known_small_horizon_values(self, am_aux):
        # hand-derived: v_2(1/2) = 3/8, v_3(1/2) = 1/3 for this game
        vg2 = rg.value_theta_grid(am_aux, ThetaWeights.uniform(2), resolution=64)
        lo, hi = rg.evaluate_measure(vg2, am_aux.pihat)
        assert lo <= 0.375 + 1e-8 <= hi + 1e-8
        assert hi - lo < 0.02
        vg3 = rg.value_theta_grid(am_aux, ThetaWeights.uniform(3), resolution=64)
        lo, hi = rg.evaluate_measure(vg3, am_aux.pihat)
        assert lo <= 1 / 3 + 1e-8 <= hi + 1e-8

    def test_constant_payoff_game(self):
        spec = make_k1_spec(np.array([[0.4]]))
        vg = rg.value_theta_grid(spec, ThetaWeights.uniform(5))
        # builder maps the constant to the unit scale; bounds stay constant
        # across stages and map back exactly
        assert spec.to_original_scale(float(vg.lower[0])) == pytest.approx(0.4, abs=1e-9)
        assert spec.to_original_scale(float(vg.upper[0])) == pytest.approx(0.4, abs=1e-9)

    def test_bounds_ordered_and_in_unit_interval(self, random_corpus):
        for spec in random_corpus[:3]:
            vg = rg.value_theta_grid(spec, ThetaWeights.uniform(3), resolution=16)
            assert (vg.lower <= vg.upper + 1e-9).all()
            assert (vg.lower >= -1e-9).all()
            assert (vg.upper <= 1 + 1e-9).all()

    def test_three_state_bounds_stay_in_payoff_range(self):
        aux = rg.auxiliary_game(random_informed_game(np.random.default_rng(77), nK=3))
        vg = rg.value_theta_grid(aux, ThetaWeights.uniform(4), resolution=8)
        assert (vg.lower >= aux.payoff.min()).all()
        assert (vg.upper <= aux.payoff.max()).all()
        assert (vg.lower <= vg.upper).all()

    def test_concavity_midpoint_check(self, random_corpus):
        spec = random_corpus[4]
        vg = rg.value_theta_grid(spec, ThetaWeights.uniform(3), resolution=16)
        pts, lo, up = vg.grid.points, vg.lower, vg.upper
        delta = vg.grid.spacing
        for a in range(0, vg.grid.size, 3):
            for b in range(a, vg.grid.size, 3):
                mid = (pts[a] + pts[b]) / 2
                mid_hi = lipschitz_upper(vg.grid, up, mid)
                assert mid_hi >= 0.5 * (lo[a] + lo[b]) - 2 * delta

    def test_lipschitz_up_to_gap(self, random_corpus):
        spec = random_corpus[5]
        vg = rg.value_theta_grid(spec, ThetaWeights.uniform(3), resolution=16)
        pts = vg.grid.points
        gaps = vg.upper - vg.lower
        for a in range(vg.grid.size):
            for b in range(vg.grid.size):
                dist = float(np.abs(pts[a] - pts[b]).sum())
                assert vg.lower[a] - vg.lower[b] <= dist + gaps[b] + 1e-9
                assert vg.upper[a] - vg.upper[b] <= dist + gaps[a] + 1e-9

    def test_value_factorization_over_initial_signals(self, random_corpus):
        # solving from the initial measure equals averaging per-signal solves
        spec = random_corpus[6]
        aux = rg.auxiliary_game(spec)
        theta = ThetaWeights.uniform(2)
        vg = rg.value_theta_grid(aux, theta, resolution=16)
        total_lo, total_hi = rg.evaluate_measure(vg, aux.pihat)
        acc_lo = acc_hi = 0.0
        for atom, w in zip(aux.pihat.atoms, aux.pihat.weights):
            lo, hi = rg.evaluate_measure(vg, rg.BeliefMeasure.dirac(atom))
            acc_lo += w * lo
            acc_hi += w * hi
        assert total_lo == pytest.approx(acc_lo, abs=1e-9)
        assert total_hi == pytest.approx(acc_hi, abs=1e-9)

    def test_evaluate_measure_affine(self, am_aux):
        vg = rg.value_theta_grid(am_aux, ThetaWeights.uniform(2), resolution=32)
        rng = np.random.default_rng(13)
        for _ in range(10):
            a1 = rng.dirichlet([1, 1])
            a2 = rng.dirichlet([1, 1])
            lam = float(rng.random())
            u1 = rg.BeliefMeasure.dirac(a1)
            u2 = rg.BeliefMeasure.dirac(a2)
            mix = rg.mix_measures([(lam, u1), (1 - lam, u2)])
            lo_m, hi_m = rg.evaluate_measure(vg, mix)
            lo1, hi1 = rg.evaluate_measure(vg, u1)
            lo2, hi2 = rg.evaluate_measure(vg, u2)
            assert lo_m == pytest.approx(lam * lo1 + (1 - lam) * lo2, abs=1e-9)
            assert hi_m == pytest.approx(lam * hi1 + (1 - lam) * hi2, abs=1e-9)

    def test_grid_point_gridpoint_measure(self, am_aux):
        vg = rg.value_theta_grid(am_aux, ThetaWeights.uniform(2), resolution=32)
        idx = nearest(vg.grid.points, np.array([0.25, 0.75]))
        u = rg.BeliefMeasure.dirac(vg.grid.points[idx])
        lo, hi = rg.evaluate_measure(vg, u)
        assert lo == pytest.approx(float(vg.lower[idx]), abs=1e-9)
        assert hi == pytest.approx(float(vg.upper[idx]), abs=1e-9)


class TestShiftedValues:
    def test_m_zero_matches_plain(self, am_aux):
        a = rg.value_mn(am_aux, 0, 3, resolution=32)
        b = rg.value_theta_grid(am_aux, ThetaWeights.uniform(3), resolution=32)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, abs=1e-12)

    def test_single_state_constant_in_shifts(self):
        spec = make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))
        oracle = rg.matrix_game_value(spec.payoff[0]).value
        for m in range(0, 4):
            for n in range(1, 4):
                vg = rg.value_mn(spec, m, n)
                assert vg.lower[0] == pytest.approx(oracle, abs=1e-8)
                assert vg.upper[0] == pytest.approx(oracle, abs=1e-8)

    def test_am_supremum_over_shifts_at_zero(self, am_aux):
        # spreading beliefs first cannot help when the value is concave
        base = rg.evaluate_measure(rg.value_mn(am_aux, 0, 2, resolution=32), am_aux.pihat)
        shifted = rg.evaluate_measure(rg.value_mn(am_aux, 2, 2, resolution=32), am_aux.pihat)
        assert shifted[0] <= base[1] + 1e-6


class TestBackendAgreement:
    @pytest.mark.parametrize(
        "theta",
        [
            ThetaWeights.dirac(1),
            ThetaWeights.uniform(2),
            ThetaWeights.from_map({1: 0.3, 3: 0.7}),
            ThetaWeights.uniform(3),
        ],
        ids=["dirac1", "unif2", "spread13", "unif3"],
    )
    def test_am_intervals_overlap(self, am_aux, theta):
        v, _ = rg.value_theta_exact(am_aux, theta, np.array([0.5, 0.5]))
        vg = rg.value_theta_grid(am_aux, theta, resolution=32)
        lo, hi = rg.evaluate_measure(vg, rg.BeliefMeasure.dirac([0.5, 0.5]))
        assert lo - 1e-9 <= v <= hi + 1e-9

    def test_tree_exact_on_one_stage(self, am_aux):
        lo, hi = rg.value_theta_exact(am_aux, ThetaWeights.dirac(1), np.array([0.3, 0.7]))
        assert lo == pytest.approx(0.3, abs=1e-7)
        assert hi == pytest.approx(0.3, abs=1e-7)

    def test_tree_single_state_any_theta(self):
        spec = make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))
        oracle = rg.matrix_game_value(spec.payoff[0]).value
        for theta in [ThetaWeights.uniform(3), ThetaWeights.from_map({2: 1.0})]:
            lo, hi = rg.value_theta_exact(spec, theta, np.array([1.0]))
            assert lo == hi == pytest.approx(oracle, abs=1e-9)

    def test_tree_bounds_stay_in_payoff_range(self):
        # this game's largest payoff is 0.951; the old tree upper at its
        # first prior atom reached 0.992, and then sat at the clip 0.951
        aux = rg.auxiliary_game(random_informed_game(np.random.default_rng(28)))
        theta, p = ThetaWeights.uniform(3), aux.pihat.atoms[0]
        lo, hi = rg.value_theta_exact(aux, theta, p)
        assert aux.payoff.min() <= lo == hi < aux.payoff.max()
        vg = rg.value_theta_grid(aux, theta, resolution=32)
        grid_lo, grid_hi = rg.evaluate_measure(vg, rg.BeliefMeasure.dirac(p))
        assert grid_lo - 1e-9 <= lo <= grid_hi + 1e-9

    def test_tree_guard(self, am_aux):
        # uniform(13) needs 40,955 columns, uniform(14) 81,915
        with pytest.raises(ValueError, match=r"81915 columns.*50000") as err:
            rg.value_theta_exact(am_aux, ThetaWeights.uniform(14), np.array([0.5, 0.5]))
        assert "stage 14" in str(err.value) and "[0.5 0.5]" in str(err.value)

    @pytest.mark.parametrize(
        "p, message",
        [([0.2, 0.3, 0.5], "has 3 entries; the game has 2 states"), ([0.7, 0.7], "sums to 1.4")],
        ids=["length", "mass"],
    )
    def test_exact_rejects_bad_beliefs(self, am_aux, p, message):
        with pytest.raises(ValueError, match=message):
            rg.value_theta_exact(am_aux, ThetaWeights.uniform(2), np.array(p))

    def test_exact_failed_solve_names_belief_and_stage(self, am_aux, monkeypatch):
        monkeypatch.setattr(
            exact_module, "solve_lp", lambda *a, **k: LPSolution("infeasible", None, None)
        )
        with pytest.raises(LPError, match=r"belief \[0.5 0.5\] through stage 3 ended infeasible"):
            rg.value_theta_exact(am_aux, ThetaWeights.uniform(3), np.array([0.5, 0.5]))

    def test_exact_inside_three_state_brackets(self):
        rng = np.random.default_rng(31)
        for aux in [rg.auxiliary_game(random_informed_game(rng, nK=3)) for _ in range(3)]:
            for p in aux.pihat.atoms[:2]:
                assert rg.value_theta_exact(aux, ThetaWeights.dirac(1), p)[0] == pytest.approx(
                    one_shot_lp(aux, p)[0], abs=1e-9
                )
                for n in (2, 3, 4):
                    theta = ThetaWeights.uniform(n)
                    v, _ = rg.value_theta_exact(aux, theta, p)
                    assert rg.value_theta_exact(aux, theta, p) == (v, v)
                    vg = rg.value_theta_grid(aux, theta, resolution=8)
                    lo, hi = rg.evaluate_measure(vg, rg.BeliefMeasure.dirac(p))
                    assert lo - 1e-9 <= v <= hi + 1e-9


class TestWValues:
    def test_n_one_equals_shifted_value(self, am_aux):
        res = rg.w_mn(am_aux, 2, 1, resolution=32)
        vg = rg.value_mn(am_aux, 2, 1, resolution=32)
        lo, hi = rg.evaluate_measure(vg, am_aux.pihat)
        assert res.upper == pytest.approx(hi, abs=1e-9)
        assert res.lower == pytest.approx(lo, abs=1e-9)

    def test_single_state_equals_matrix_value(self):
        spec = make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]]))
        res = rg.w_mn(spec, 1, 3, theta_resolution=2)
        assert res.upper == pytest.approx(0.5, abs=1e-8)
        assert res.lower <= res.upper + 1e-12

    def test_w_below_every_prefix_value(self, am_aux):
        res = rg.w_mn(am_aux, 0, 2, resolution=32, theta_resolution=4)
        for t in (1, 2):
            vg = rg.value_mn(am_aux, 0, t, resolution=32)
            _, hi = rg.evaluate_measure(vg, am_aux.pihat)
            assert res.upper <= hi + 1e-9

    def test_w_nonincreasing_in_n(self, am_aux):
        uppers = [
            rg.w_mn(am_aux, 0, n, resolution=32, theta_resolution=4).upper
            for n in (1, 2, 3)
        ]
        assert uppers[0] >= uppers[1] - 1e-9 >= uppers[2] - 2e-9

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda aux: rg.w_mn(aux, 0, 0), "n must be at least 1"),
            (lambda aux: rg.w_mn(aux, -1, 1), "m must be at least 0"),
            (lambda aux: rg.uniform_value_estimate(aux, max_m=-1), "max_m must be at least 0"),
            (lambda aux: rg.uniform_value_estimate(aux, max_n=0), "max_n must be at least 1"),
            (lambda aux: rg.uniform_value_estimate(aux, 1, 1, resolution=0), "resolution"),
            (lambda aux: rg.value_theta_grid(aux, ThetaWeights.uniform(2), 0), "resolution"),
        ],
        ids=["w-n", "w-m", "window-m", "window-n", "window-grid", "theta-grid"],
    )
    def test_bad_counts_rejected(self, am_aux, call, match):
        with pytest.raises(ValueError, match=match):
            call(am_aux)


class TestUniformWindow:
    def test_single_state_window_collapses(self):
        spec = make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))
        oracle = rg.matrix_game_value(spec.payoff[0]).value
        report = rg.uniform_value_estimate(spec, max_m=3, max_n=3, w_guard=2)
        assert report.infsup_lower == pytest.approx(oracle, abs=1e-8)
        assert report.infsup_upper == pytest.approx(oracle, abs=1e-8)
        assert report.supinf_lower == pytest.approx(oracle, abs=1e-8)
        assert report.supinf_upper == pytest.approx(oracle, abs=1e-8)
        for res in report.w_cells.values():
            assert res.upper == pytest.approx(oracle, abs=1e-8)

    def test_supinf_below_infsup(self, am_aux):
        report = rg.uniform_value_estimate(am_aux, max_m=3, max_n=3, resolution=32, w_guard=0)
        assert report.supinf_lower <= report.infsup_upper + 1e-9
        assert report.supinf_upper <= report.infsup_upper + 1e-9

    def test_lemma_style_block_inequality_small(self, am_aux):
        # averaged shifted values dominate the long-horizon value
        for n, T in [(1, 2), (2, 2)]:
            long_vg = rg.value_theta_grid(am_aux, ThetaWeights.uniform(n * T), resolution=32)
            long_lo, _ = rg.evaluate_measure(long_vg, am_aux.pihat)
            acc = 0.0
            for t in range(T):
                vg = rg.value_mn(am_aux, n * t, n, resolution=32)
                acc += rg.evaluate_measure(vg, am_aux.pihat)[1]
            assert long_lo <= acc / T + 1e-9


class TestParallelSweeps:
    def test_jobs_do_not_change_results(self, am_aux):
        theta = ThetaWeights.uniform(3)
        seq = rg.value_theta_grid(am_aux, theta, resolution=16, jobs=1)
        par = rg.value_theta_grid(am_aux, theta, resolution=16, jobs=4)
        assert np.array_equal(seq.lower, par.lower)
        assert np.array_equal(seq.upper, par.upper)
        assert np.array_equal(seq.argmax, par.argmax)


class TestSweepMemo:
    """One uniform-value estimate shares its backward sweeps through a memo
    keyed on each sweep's alpha tail; the memo lives only as long as the
    outermost public call."""

    window = dict(max_m=4, max_n=4, resolution=16, w_guard=2)

    @staticmethod
    def _games():
        rng = np.random.default_rng(606)
        return [random_informed_game(rng) for _ in range(2)]

    @staticmethod
    def _record_sweeps(monkeypatch) -> list:
        """Wrap engine._sweep; the list collects each call's exact input."""
        seen = []
        inner = engine._sweep

        def recording(aux, grid, alpha, vlow, vup):
            seen.append((alpha, vlow.tobytes(), vup.tobytes()))
            return inner(aux, grid, alpha, vlow, vup)

        monkeypatch.setattr(engine, "_sweep", recording)
        return seen

    def test_window_equals_unshared_reference(self, monkeypatch):
        seen = self._record_sweeps(monkeypatch)
        grid = SimplexGrid.create(2, 16)
        for spec in self._games():
            seen.clear()
            rep = rg.uniform_value_estimate(rg.auxiliary_game(spec), **self.window)
            shared = list(seen)
            seen.clear()
            for n in range(1, 5):
                aux = rg.auxiliary_game(spec)
                vg = rg.value_theta_grid(aux, ThetaWeights.uniform(n), 16)
                vlow, vup = vg.lower, vg.upper
                column = [_measure_bounds(grid, vlow, vup, aux.pihat, vg.payoff_range)]
                for _ in range(4):
                    vlow, vup, _, _ = engine._sweep(aux, grid, 0.0, vlow, vup)
                    column.append(_measure_bounds(grid, vlow, vup, aux.pihat, vg.payoff_range))
                assert list(zip(rep.v_lower[:, n - 1], rep.v_upper[:, n - 1])) == column
            assert len(rep.w_cells) == 6
            for (m, n), cell in rep.w_cells.items():
                alone = rg.w_mn(rg.auxiliary_game(spec), m, n, resolution=16, theta_resolution=2)
                assert cell == alone
            # each distinct input is swept once, and only the inputs the
            # unshared calls need
            assert len(shared) == len(set(shared))
            assert set(shared) == set(seen)
            assert len(seen) > len(shared)

    def test_window_cells_are_value_mn(self):
        # one path to v_{m,n}: the window's cells read value_mn bit for bit
        aux = rg.auxiliary_game(random_informed_game(np.random.default_rng(4)))
        rep = rg.uniform_value_estimate(aux, max_m=2, max_n=8, resolution=16, w_guard=0)
        for m in range(3):
            for n in range(1, 9):
                cell = rep.v_lower[m, n - 1], rep.v_upper[m, n - 1]
                assert rg.evaluate_measure(rg.value_mn(aux, m, n, 16), aux.pihat) == cell

    def test_memo_dropped_on_return_and_on_error(self, monkeypatch):
        aux = rg.auxiliary_game(self._games()[0])
        rg.uniform_value_estimate(aux, max_m=2, max_n=2, resolution=8, w_guard=1)
        assert aux not in engine._sweep_memos

        inner = engine._sweep
        calls = []

        def failing(aux_, grid, alpha, vlow, vup):
            calls.append(aux_ in engine._sweep_memos)
            if len(calls) == 3:
                raise LPError("forced failure")
            return inner(aux_, grid, alpha, vlow, vup)

        monkeypatch.setattr(engine, "_sweep", failing)
        with pytest.raises(LPError, match="forced failure"):
            rg.uniform_value_estimate(aux, max_m=2, max_n=2, resolution=8, w_guard=1)
        assert calls == [True] * 3
        assert aux not in engine._sweep_memos

    def test_value_grid_arrays_read_only(self):
        k1 = make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))
        for spec in (self._games()[0], k1):
            vg = rg.value_theta_grid(spec, ThetaWeights.uniform(3), resolution=8)
            arrays = [vg.lower, vg.upper, vg.argmax, vg.opponent]
            arrays += [a for rule in vg.stage_rules for a in (rule.argmax, rule.opponent)]
            assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError, match="read-only"):
                vg.lower[0] = 0.0


class TestMonotonicityInvariant:
    @staticmethod
    def _concave_samples(rng, grid):
        # min of a few affine nonexpansive functions, kept inside [0, 0.7]
        slopes = rng.uniform(-0.5, 0.5, size=(3, grid.dim))
        offsets = rng.uniform(0.4, 0.7, size=3)
        vals = np.min(offsets[:, None] + slopes @ grid.points.T, axis=0)
        return np.clip(vals, 0.0, 0.7)

    def test_sweep_monotone_in_continuation(self, am_aux):
        rng = np.random.default_rng(21)
        grid = SimplexGrid.create(2, 8)
        for _ in range(5):
            f = self._concave_samples(rng, grid)
            g = np.clip(f + float(rng.random()) * 0.3, 0.0, 1.0)
            lo_f, up_f, _, _ = _sweep(am_aux, grid, 0.5, f, f)
            lo_g, up_g, _, _ = _sweep(am_aux, grid, 0.5, g, g)
            assert (lo_g >= lo_f - 1e-9).all()
            assert (up_g >= up_f - 1e-9).all()


# ---------------------------------------------------------------------------
# Batched sweeps against per-point reference LPs
# ---------------------------------------------------------------------------

def _linprog_max(c, **lp) -> float:
    """max c @ x by linprog; a failed presolve is retried without it."""
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(-c, method="highs", options=options, **lp)
    if res.status == 4:
        res = linprog(-c, method="highs", options={**options, "presolve": False}, **lp)
    assert res.status == 0, res.message
    return -res.fun


def _reference_upper(aux, p, alpha, pieces) -> float:
    """Upper stage LP at one belief, assembled row by row and solved by linprog."""
    K, I, J, D = aux.nK, aux.nI, aux.nJ, aux.nD
    KI, n = K * I, K * I + 1 + D
    c = np.zeros(n)
    c[KI] = alpha
    c[KI + 1 :] = 1.0 - alpha
    rows = []
    for j in range(J):
        row = np.zeros(n)
        row[:KI] = -np.einsum("k,ki->ki", p, aux.payoff[:, :, j]).ravel()
        row[KI] = 1.0
        rows.append(row)
    col_coeff = np.einsum("k,kind->dnki", p, aux.qbar)
    for d in range(D):
        for w in pieces:
            row = np.zeros(n)
            row[KI + 1 + d] = 1.0
            row[:KI] = -np.einsum("n,nki->ki", w, col_coeff[d]).ravel()
            rows.append(row)
    A_eq = np.zeros((K, n))
    for k in range(K):
        A_eq[k, k * I : (k + 1) * I] = 1.0
    return _linprog_max(
        c, A_ub=np.array(rows), b_ub=np.zeros(len(rows)), A_eq=A_eq, b_eq=np.ones(K),
        bounds=[(0, None)] * KI + [(0, 1)] + [(None, None)] * D,
    )


def _reference_lower(aux, p, alpha, grid, vlow) -> float:
    """Barycentric lower stage LP at one belief: per signal, a nonnegative
    combination of grid points matching the signal column."""
    K, I, J, D = aux.nK, aux.nI, aux.nJ, aux.nD
    G, KI = grid.size, K * I
    n = KI + 1 + D * G
    c = np.zeros(n)
    c[KI] = alpha
    for d in range(D):
        c[KI + 1 + d * G : KI + 1 + (d + 1) * G] = (1.0 - alpha) * vlow
    A_ub = np.zeros((J, n))
    A_ub[:, :KI] = -np.einsum("k,kij->jki", p, aux.payoff).reshape(J, KI)
    A_ub[:, KI] = 1.0
    col_coeff = np.einsum("k,kind->ndki", p, aux.qbar).reshape(K * D, KI)
    A_eq = np.zeros((K + D * K, n))
    b_eq = np.zeros(K + D * K)
    for k in range(K):
        A_eq[k, k * I : (k + 1) * I] = 1.0
        b_eq[k] = 1.0
    for d in range(D):
        for kap in range(K):
            row = K + d * K + kap
            A_eq[row, KI + 1 + d * G : KI + 1 + (d + 1) * G] = grid.points[:, kap]
            A_eq[row, :KI] = -col_coeff[kap * D + d]
    return _linprog_max(
        c, A_ub=A_ub, b_ub=np.zeros(J), A_eq=A_eq, b_eq=b_eq,
        bounds=[(0, None)] * KI + [(0, 1)] + [(0, None)] * (D * G),
    )


def _guarantee(aux, p, a, alpha, grid, vlow) -> float:
    """What the stacked action a secures at belief p: the stage payoff floor
    plus, per signal, the best barycentric combination of grid lower values.
    An optimal combination uses at most K grid points, so every K-subset
    of the grid is tried."""
    K = aux.nK
    subsets = np.array(list(itertools.combinations(range(grid.size), K)))
    mats = grid.points[subsets].transpose(0, 2, 1)  # (S, K, K): columns are points
    ok = np.abs(np.linalg.det(mats)) > 1e-12
    mats, vals = mats[ok], vlow[subsets[ok]]
    cont = 0.0
    for col in aux.state_signal_columns(p, a).T:  # (D, K) signal columns
        lam = np.linalg.solve(mats, np.broadcast_to(col, (len(mats), K))[..., None])[..., 0]
        feasible = (lam >= -1e-12).all(axis=1)
        cont += float(np.max(np.einsum("sk,sk->s", lam[feasible], vals[feasible])))
    return alpha * float(np.min(aux.gbar(p, a))) + (1.0 - alpha) * cont


def _revealed_chain():
    rng = np.random.default_rng(77)
    kernel = rng.random((2, 2, 2)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    mats = [rng.random((2, 2)), rng.random((2, 2))]
    spec = rg.build_markov_chain_game(mats, kernel, np.array([0.4, 0.6]), reveal_state_to_p2=True)
    return rg.auxiliary_game(spec)


class TestBatchedSweep:
    @pytest.fixture(scope="class")
    def games(self, am_aux):
        rng = np.random.default_rng(404)
        return {
            "am": am_aux,
            "informed": rg.auxiliary_game(random_informed_game(rng)),
            "chain": _revealed_chain(),
            "informed-k3": rg.auxiliary_game(random_informed_game(rng, nK=3)),
            "informed-k4": rg.auxiliary_game(random_informed_game(rng, nK=4)),
        }

    @pytest.mark.parametrize(
        "kind, resolution",
        [("am", 16), ("am", 64), ("informed", 16), ("informed", 64),
         ("chain", 16), ("chain", 64), ("informed-k3", 4), ("informed-k4", 3)],
    )
    def test_sweeps_match_per_point_reference(self, games, kind, resolution):
        aux = games[kind]
        grid = SimplexGrid.create(aux.nK, resolution)
        vlow, _, _ = one_shot_lp(aux, grid.points)
        reference = [_reference_upper(aux, p, 1.0, np.zeros((1, aux.nK))) for p in grid.points]
        assert np.abs(vlow - reference).max() <= 1e-9
        vlow, vup = vlow.copy(), vlow.copy()
        for alpha in (1 / 2, 1 / 3, 1 / 4, 0.0):
            lo, up, argmax, _ = _sweep(aux, grid, alpha, vlow, vup)
            pieces = concave_majorant(grid.points, vup, grid.resolution)
            ref_lo = [_reference_lower(aux, p, alpha, grid, vlow) for p in grid.points]
            ref_up = [_reference_upper(aux, p, alpha, pieces) for p in grid.points]
            # the sweep clips both bounds to the payoff range
            pay = aux.payoff.min(), aux.payoff.max()
            assert np.abs(lo - np.clip(np.minimum(ref_lo, ref_up), *pay)).max() <= 1e-9
            assert np.abs(up - np.clip(np.maximum(ref_lo, ref_up), *pay)).max() <= 1e-9
            for g, p in enumerate(grid.points):
                assert _guarantee(aux, p, argmax[g], alpha, grid, vlow) >= lo[g] - 1e-9
            vlow, vup = lo, up


def _cav_env_dim2_scalar(points, vals):
    """The envelope hull as a scalar loop over every crossing."""
    xs = points[:, 0]
    cand = set(float(x) for x in xs)
    for a in range(len(xs)):
        for b in range(len(xs)):
            x = (vals[b] - vals[a] + 2.0 * (xs[a] + xs[b])) / 4.0
            if 0.0 <= x <= 1.0:
                cand.add(float(x))
    cx = np.array(sorted(cand))
    cy = np.array([np.min(vals + 2.0 * np.abs(x - xs)) for x in cx])
    hull = []
    for idx in range(len(cx)):
        while len(hull) >= 2:
            x1, y1 = cx[hull[-2]], cy[hull[-2]]
            x2, y2 = cx[hull[-1]], cy[hull[-1]]
            x3, y3 = cx[idx], cy[idx]
            if (y2 - y1) * (x3 - x1) <= (y3 - y1) * (x2 - x1) + 1e-15:
                hull.pop()
            else:
                break
        hull.append(idx)
    pieces = []
    for a, b in zip(hull[:-1], hull[1:]):
        x1, y1, x2, y2 = cx[a], cy[a], cx[b], cy[b]
        slope = (y2 - y1) / (x2 - x1)
        c = float(y1 - slope * x1)
        pieces.append([c + slope, c])
    if not pieces:
        return np.full((1, points.shape[1]), float(cy[0]))
    return np.array(pieces)


@pytest.mark.parametrize("resolution", [1, 4, 16, 64])
def test_cav_envelope_matches_scalar_loop_bitwise(resolution):
    rng = np.random.default_rng(resolution)
    grid = SimplexGrid.create(2, resolution)
    x = grid.points[:, 0]
    samples = [
        rng.random(grid.size),
        np.minimum(0.7 - np.abs(x - 0.4), 0.55) + 0.01 * rng.random(grid.size),
        np.full(grid.size, 0.3),
    ]
    for vals in samples:
        fast = _cav_env_dim2(grid.points, vals)
        slow = _cav_env_dim2_scalar(grid.points, vals)
        assert np.array_equal(fast, slow)


def test_cav_envelope_of_one_point_matches_scalar_loop():
    points = SimplexGrid.create(1, 4).points
    for v in [0.0, 0.3, 1.0]:
        fast = _cav_env_dim2(points, np.array([v]))
        slow = _cav_env_dim2_scalar(points, np.array([v]))
        assert np.array_equal(fast, slow) and fast.shape == (1, 1) and fast[0, 0] == v
