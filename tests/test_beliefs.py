"""Measures on the belief simplex: disintegration, transport metric,
sweeping order, splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rgsolve as rg
from rgsolve.beliefs import BeliefMeasure, l1


def measure(atoms, weights):
    return BeliefMeasure.from_support(np.array(atoms, float), np.array(weights, float))


def random_measure(rng, dim=2, max_atoms=4):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = rng.random((n, dim)) + 1e-3
    atoms /= atoms.sum(axis=1, keepdims=True)
    w = rng.random(n) + 1e-3
    return BeliefMeasure.from_support(atoms, w / w.sum())


def random_concave_pwl(rng, dim, n_pieces=4):
    """Concave piecewise-linear test function: min of affine pieces."""
    slopes = rng.uniform(-1, 1, size=(n_pieces, dim))
    offsets = rng.uniform(-0.5, 0.5, size=n_pieces)

    def f(x):
        return float(np.min(offsets + slopes @ np.asarray(x, float)))

    return f


class TestBeliefMeasure:
    def test_merges_duplicate_atoms(self):
        u = measure([[0.5, 0.5], [0.5, 0.5 + 1e-14]], [0.4, 0.6])
        assert u.size == 1
        assert u.weights[0] == pytest.approx(1.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            measure([[1.0, 0.0]], [0.5])

    def test_rejects_non_simplex_atom(self):
        with pytest.raises(ValueError):
            measure([[0.9, 0.3]], [1.0])


class TestDisintegrate:
    def test_product_table_single_atom(self):
        p = np.array([0.3, 0.7])
        mu = np.array([0.25, 0.75])
        u = rg.disintegrate(np.outer(p, mu))
        assert u.size == 1
        assert u.atoms[0] == pytest.approx(p, abs=1e-12)

    def test_diagonal_table_vertices(self):
        joint = np.diag([0.3, 0.7])
        u = rg.disintegrate(joint)
        assert u.size == 2
        assert sorted(u.weights.tolist()) == pytest.approx([0.3, 0.7])
        for atom in u.atoms:
            assert max(atom) == pytest.approx(1.0)

    def test_hand_bayes_example(self):
        joint = np.array([[0.3, 0.2], [0.1, 0.4]])
        u = rg.disintegrate(joint)
        # columns normalize to (0.75, 0.25) mass 0.4 and (1/3, 2/3) mass 0.6
        expect = {(0.75, 0.25): 0.4, (1 / 3, 2 / 3): 0.6}
        assert u.size == 2
        for atom, w in zip(u.atoms, u.weights):
            key = min(expect, key=lambda e: abs(e[0] - atom[0]))
            assert atom == pytest.approx(key, abs=1e-12)
            assert w == pytest.approx(expect[key], abs=1e-12)

    def test_zero_columns_dropped(self):
        joint = np.array([[0.5, 0.0], [0.5, 0.0]])
        u = rg.disintegrate(joint)
        assert u.size == 1


class TestBarycenter:
    def test_dirac(self):
        u = BeliefMeasure.dirac([0.2, 0.8])
        assert rg.barycenter(u) == pytest.approx([0.2, 0.8])

    def test_two_vertices(self):
        u = measure([[1, 0], [0, 1]], [0.5, 0.5])
        assert rg.barycenter(u) == pytest.approx([0.5, 0.5])

    def test_matches_disintegration_row_marginal(self):
        joint = np.array([[0.3, 0.2], [0.1, 0.4]])
        u = rg.disintegrate(joint)
        assert rg.barycenter(u) == pytest.approx(joint.sum(axis=1), abs=1e-12)


class TestWasserstein:
    def test_self_distance_zero(self):
        u = measure([[0.3, 0.7], [0.8, 0.2]], [0.5, 0.5])
        d, _ = rg.wasserstein(u, u)
        assert d == pytest.approx(0.0, abs=1e-10)

    def test_dirac_distance_is_ground_distance(self):
        d, _ = rg.wasserstein(BeliefMeasure.dirac([1, 0]), BeliefMeasure.dirac([0, 1]))
        assert d == pytest.approx(2.0, abs=1e-10)

    def test_split_versus_dirac(self):
        u = measure([[1, 0], [0, 1]], [0.5, 0.5])
        v = BeliefMeasure.dirac([0.5, 0.5])
        d, plan = rg.wasserstein(u, v)
        assert d == pytest.approx(1.0, abs=1e-9)
        assert plan.sum() == pytest.approx(1.0, abs=1e-9)

    def test_metric_axioms_random(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            u, v, w = (random_measure(rng) for _ in range(3))
            duv, _ = rg.wasserstein(u, v)
            dvu, _ = rg.wasserstein(v, u)
            duw, _ = rg.wasserstein(u, w)
            dwv, _ = rg.wasserstein(w, v)
            assert duv == pytest.approx(dvu, abs=1e-9)
            assert duv <= duw + dwv + 1e-9
            assert duv >= -1e-12

    def test_dual_feasibility_lipschitz_functions(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            u, v = random_measure(rng), random_measure(rng)
            d, _ = rg.wasserstein(u, v)
            for _ in range(5):
                g = rng.uniform(-0.5, 0.5, size=2)  # l-inf <= 1/2 => 1-Lip in l1
                f = lambda x: float(g @ x)
                assert abs(u.expect(f) - v.expect(f)) <= d + 1e-9


class TestChoquet:
    def test_dirac_at_barycenter_dominates_spread(self):
        spread = measure([[1, 0], [0, 1]], [0.5, 0.5])
        dirac = BeliefMeasure.dirac([0.5, 0.5])
        ok, cert = rg.choquet_dominates(dirac, spread)
        assert ok
        assert cert.coupling.sum() == pytest.approx(1.0, abs=1e-8)

    def test_spread_does_not_dominate_dirac(self):
        spread = measure([[1, 0], [0, 1]], [0.5, 0.5])
        dirac = BeliefMeasure.dirac([0.5, 0.5])
        ok, cert = rg.choquet_dominates(spread, dirac)
        assert not ok
        # separator is a concave function strictly preferring the dirac side
        assert cert.separator_gap > 1e-6
        gap = dirac.expect(cert.separator_eval) - spread.expect(cert.separator_eval)
        assert gap == pytest.approx(cert.separator_gap, abs=1e-6)

    def test_lp_count(self, monkeypatch):
        """Dominance costs the coupling LP; non-dominance adds only the
        separating concave function's LP."""
        from rgsolve import beliefs, lp

        calls = []
        original = lp.solve_lp

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lp, "solve_lp", counting)
        monkeypatch.setattr(beliefs, "solve_lp", counting)
        spread = measure([[1, 0], [0, 1]], [0.5, 0.5])
        dirac = BeliefMeasure.dirac([0.5, 0.5])
        assert not rg.choquet_dominates(spread, dirac)[0]
        assert len(calls) == 2
        calls.clear()
        assert rg.choquet_dominates(dirac, spread)[0]
        assert len(calls) == 1

    def test_reflexive(self):
        u = measure([[0.3, 0.7], [0.6, 0.4]], [0.45, 0.55])
        ok, _ = rg.choquet_dominates(u, u)
        assert ok

    def test_different_barycenters_never_dominate(self):
        u = BeliefMeasure.dirac([0.3, 0.7])
        v = BeliefMeasure.dirac([0.4, 0.6])
        ok, _ = rg.choquet_dominates(u, v)
        assert not ok

    def test_dominance_implies_concave_preference(self):
        rng = np.random.default_rng(44)
        hits = 0
        for _ in range(200):
            u = random_measure(rng)
            v_parts = []
            # sweep each atom of u into a random mean-preserving spread
            for atom, w in zip(u.atoms, u.weights):
                t = rng.uniform(0, min(atom))
                v_parts.append((np.clip(atom + [t, -t], 0, 1), 0.5 * w))
                v_parts.append((np.clip(atom - [t, -t], 0, 1), 0.5 * w))
            v = BeliefMeasure.from_support(
                [a for a, _ in v_parts], [w for _, w in v_parts]
            )
            ok, _ = rg.choquet_dominates(u, v)
            assert ok
            hits += 1
            f = random_concave_pwl(rng, 2)
            assert u.expect(f) >= v.expect(f) - 1e-9
        assert hits == 200

    def test_dominance_implies_equal_barycenters(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            u, v = random_measure(rng), random_measure(rng)
            ok, _ = rg.choquet_dominates(u, v)
            if ok:
                assert l1(rg.barycenter(u), rg.barycenter(v)) <= 1e-7


class TestPsiProperties:
    def test_concavity_of_disintegration(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            a = rng.random((2, 3))
            b = rng.random((2, 3))
            a /= a.sum()
            b /= b.sum()
            lam = float(rng.random())
            mixed = rg.disintegrate(lam * a + (1 - lam) * b)
            parts = rg.mix_measures([(lam, rg.disintegrate(a)), (1 - lam, rg.disintegrate(b))])
            ok, _ = rg.choquet_dominates(mixed, parts)
            assert ok

    def test_continuity_modulus_logged(self):
        rng = np.random.default_rng(47)
        ratios = []
        base = rng.random((2, 2))
        base /= base.sum()
        for eps in [1e-1, 1e-2, 1e-3]:
            for _ in range(10):
                noise = rng.uniform(-1, 1, size=(2, 2)) * eps
                pert = np.clip(base + noise, 1e-6, None)
                pert /= pert.sum()
                d, _ = rg.wasserstein(rg.disintegrate(base), rg.disintegrate(pert))
                dd = float(np.abs(base - pert).sum())
                if dd > 0:
                    ratios.append(d / dd)
        # no asserted constant: the map is Lipschitz but not nonexpansive;
        # record the empirical modulus for the log
        print(f"empirical disintegration modulus: max {max(ratios):.3f}")
        assert all(np.isfinite(r) for r in ratios)


class TestSplitting:
    def test_single_component_identity(self):
        a = np.array([[0.2, 0.8], [0.7, 0.3]])
        out = rg.splitting_action(np.array([0.5, 0.5]), [(1.0, np.array([0.5, 0.5]))], [a])
        assert out == pytest.approx(a, abs=1e-12)

    def test_vertex_split_selects_component_rows(self):
        p = np.array([0.5, 0.5])
        comps = [(0.5, np.array([1.0, 0.0])), (0.5, np.array([0.0, 1.0]))]
        a1 = np.array([[0.9, 0.1], [0.4, 0.6]])
        a2 = np.array([[0.2, 0.8], [0.3, 0.7]])
        out = rg.splitting_action(p, comps, [a1, a2])
        assert out[0] == pytest.approx(a1[0], abs=1e-12)
        assert out[1] == pytest.approx(a2[1], abs=1e-12)

    def test_barycenter_mismatch_rejected(self):
        with pytest.raises(ValueError, match="average"):
            rg.splitting_action(
                np.array([0.5, 0.5]),
                [(1.0, np.array([0.25, 0.75]))],
                [np.array([[1.0, 0.0], [1.0, 0.0]])],
            )

    def test_zero_mass_state_gets_uniform(self):
        p = np.array([1.0, 0.0])
        comps = [(1.0, np.array([1.0, 0.0]))]
        a = np.array([[0.6, 0.4], [0.1, 0.9]])
        out = rg.splitting_action(p, comps, [a])
        assert out[1] == pytest.approx([0.5, 0.5])


class TestSplitDecomposition:
    def test_dirac_source(self):
        v = measure([[1, 0], [0, 1]], [0.4, 0.6])
        u = BeliefMeasure.dirac([0.4, 0.6])
        parts = rg.split_decomposition(u, v)
        assert len(parts) == 1
        lam, pts = parts[0]
        assert lam.sum() == pytest.approx(1.0, abs=1e-8)
        assert lam @ pts == pytest.approx([0.4, 0.6], abs=1e-7)

    def test_identity_decomposition(self):
        u = measure([[0.3, 0.7], [0.8, 0.2]], [0.5, 0.5])
        parts = rg.split_decomposition(u, u)
        for (lam, pts), atom in zip(parts, u.atoms):
            assert lam @ pts == pytest.approx(atom, abs=1e-7)

    def test_requires_dominance(self):
        spread = measure([[1, 0], [0, 1]], [0.5, 0.5])
        dirac = BeliefMeasure.dirac([0.5, 0.5])
        with pytest.raises(ValueError, match="dominance"):
            rg.split_decomposition(spread, dirac)

    def test_disintegration_pair(self):
        joint = np.array([[0.3, 0.2], [0.1, 0.4]])
        v = rg.disintegrate(joint)
        u = BeliefMeasure.dirac(joint.sum(axis=1))
        parts = rg.split_decomposition(u, v)
        lam, pts = parts[0]
        assert sorted(lam.tolist()) == pytest.approx([0.4, 0.6], abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 1.0)),
        min_size=1,
        max_size=4,
    )
)
def test_wasserstein_identity_of_indiscernibles(data):
    atoms = [[x, 1 - x] for x, _ in data]
    weights = np.array([w for _, w in data])
    u = BeliefMeasure.from_support(atoms, weights / weights.sum())
    d, _ = rg.wasserstein(u, u)
    assert d <= 1e-9
