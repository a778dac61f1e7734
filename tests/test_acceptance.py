"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module takes several minutes at the configured scales.
"""

import time

import numpy as np
import pytest

import rgsolve as rg
from rgsolve.simulator import UniformP1
from rgsolve.strategies import extract_p1_longrun
from rgsolve.values import ThetaWeights
from rgsolve.values.engine import _measure_bounds, _sweep
from rgsolve.values.grid import SimplexGrid
from rgsolve.values.stage import one_shot_lp

from conftest import make_k1_spec, random_informed_game, single_controller_instance


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status}" + (f" ({detail})" if detail else ""))


def chain_values(aux, n_max: int, resolution: int):
    """Certified bound arrays of the n-stage values for every n <= n_max,
    sharing one backward chain (the n-stage suffix of the (n+1)-stage game
    is the n-stage game)."""
    grid = SimplexGrid.create(aux.nK, resolution)
    G = grid.size
    vlow = np.empty(G)
    vup = np.empty(G)
    for g in range(G):
        v, _, _ = one_shot_lp(aux, grid.points[g])
        vlow[g] = vup[g] = v
    out = {1: (vlow.copy(), vup.copy())}
    for n in range(2, n_max + 1):
        vlow, vup, _, _ = _sweep(aux, grid, 1.0 / n, vlow, vup)
        out[n] = (vlow.copy(), vup.copy())
    return grid, out


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20240817)
    return [random_informed_game(rng) for _ in range(20)]


@pytest.fixture(scope="module")
def am_aux_module():
    from conftest import AM_MATRICES

    return rg.auxiliary_game(rg.build_aumann_maschler(AM_MATRICES, np.array([0.5, 0.5])))


@pytest.fixture(scope="module")
def am_chain64(am_aux_module):
    return chain_values(am_aux_module, 16, 64)


def test_criterion_1_trivial_collapse():
    matrices = [
        np.array([[0.3]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([[0.9, 0.1], [0.2, 0.8]]),
        np.array([[0.2, 0.7, 0.4], [0.8, 0.1, 0.6]]),
    ]
    worst_err = 0.0
    worst_time = 0.0
    ok = True
    for mat in matrices:
        started = time.monotonic()
        spec = make_k1_spec(mat)
        aux = rg.auxiliary_game(spec)
        oracle = rg.matrix_game_value(spec.payoff[0]).value
        for m in range(9):
            for n in range(1, 9):
                vg = rg.value_mn(aux, m, n)
                worst_err = max(
                    worst_err,
                    abs(float(vg.lower[0]) - oracle),
                    abs(float(vg.upper[0]) - oracle),
                )
                w = rg.w_mn(aux, m, n, theta_resolution=2)
                worst_err = max(worst_err, abs(w.upper - oracle))
                ok = ok and w.lower <= oracle + 1e-6
        rep = rg.uniform_value_estimate(aux, max_m=8, max_n=8, w_guard=2)
        for val in (
            rep.infsup_lower,
            rep.infsup_upper,
            rep.supinf_lower,
            rep.supinf_upper,
        ):
            worst_err = max(worst_err, abs(val - oracle))
        worst_time = max(worst_time, time.monotonic() - started)
    ok = ok and worst_err <= 1e-6 and worst_time < 5.0
    report(1, "trivial collapse", ok, f"max err {worst_err:.2e}, max time {worst_time:.2f}s")
    assert worst_err <= 1e-6
    assert worst_time < 5.0
    assert ok


def test_criterion_2_am_quadratic(am_aux_module, am_chain64):
    started = time.monotonic()
    aux = am_aux_module
    grid, chain = am_chain64
    pihat = aux.pihat

    lo1, hi1 = _measure_bounds(grid, *chain[1], pihat)
    v1_ok = abs(lo1 - 0.5) <= 0.02 and abs(hi1 - 0.5) <= 0.02 and hi1 - lo1 <= 0.02

    mono_ok = True
    bounds = {n: _measure_bounds(grid, *chain[n], pihat) for n in range(1, 9)}
    for n in range(1, 8):
        if bounds[n + 1][0] > bounds[n][1] + 1e-9:
            mono_ok = False

    rep = rg.uniform_value_estimate(aux, max_m=8, max_n=8, resolution=64, w_guard=0)
    oracle = rg.cavu_oracle(
        [aux.payoff[0], aux.payoff[1]], resolution=64
    )
    cav_half = oracle.cav(np.array([0.5, 0.5]))
    bracket_ok = (
        rep.supinf_lower - 0.05 <= cav_half <= rep.infsup_upper + 0.05
    )
    elapsed = time.monotonic() - started
    ok = v1_ok and mono_ok and bracket_ok and elapsed < 600
    report(
        2,
        "fixed-state quadratic reproduction",
        ok,
        f"v1=[{lo1:.4f},{hi1:.4f}], cav u(1/2)={cav_half:.4f}, "
        f"window=[{rep.supinf_lower:.4f},{rep.infsup_upper:.4f}], {elapsed:.0f}s",
    )
    assert v1_ok
    assert mono_ok
    assert bracket_ok
    assert elapsed < 600


def test_criterion_3_backend_agreement(corpus, am_aux_module):
    thetas = [
        ThetaWeights.uniform(2),
        ThetaWeights.uniform(3),
        ThetaWeights.from_map({1: 0.3, 3: 0.7}),
        ThetaWeights.from_map({2: 1.0}),
    ]
    total = hits = 0
    for spec in corpus + [am_aux_module]:
        aux = spec if isinstance(spec, rg.AuxGame) else rg.auxiliary_game(spec)
        p = rg.barycenter(aux.pihat)
        for theta in thetas:
            v, _ = rg.value_theta_exact(aux, theta, p)
            vg = rg.value_theta_grid(aux, theta, resolution=16)
            g_lo, g_hi = rg.evaluate_measure(vg, rg.BeliefMeasure.dirac(p))
            total += 1
            if g_lo - 1e-9 <= v <= g_hi + 1e-9:
                hits += 1
    ok = hits == total
    report(3, "backend agreement", ok, f"{hits}/{total} exact values inside the grid bracket")
    assert hits == total


def test_criterion_4_block_average_inequality(corpus, am_aux_module):
    violations = 0
    checked = 0
    instances = corpus + [am_aux_module, make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))]
    for spec in instances:
        aux = spec if isinstance(spec, rg.AuxGame) else rg.auxiliary_game(spec)
        res = 16 if aux.nK > 1 else 1
        grid, chain = chain_values(aux, 9, res)
        pihat = aux.pihat
        # shifted cells v_{n t, n} via payoff-free sweeps of the n-stage data
        for n in (1, 2, 3):
            cell = {0: chain[n]}
            vlow, vup = chain[n]
            for m in range(1, 2 * n + 1):
                vlow, vup, _, _ = _sweep(aux, grid, 0.0, vlow, vup)
                cell[m] = (vlow.copy(), vup.copy())
            for T in (1, 2, 3):
                long_lo, _ = _measure_bounds(grid, *chain[n * T], pihat)
                avg_hi = np.mean(
                    [_measure_bounds(grid, *cell[n * t], pihat)[1] for t in range(T)]
                )
                checked += 1
                if long_lo > avg_hi + 1e-9:
                    violations += 1
    ok = violations == 0
    report(4, "block-average inequality", ok, f"{checked} cells, {violations} violations")
    assert violations == 0


def test_criterion_5_order_and_metric_suites():
    rng = np.random.default_rng(515)

    def rand_measure():
        n = int(rng.integers(1, 4))
        atoms = rng.random((n, 2)) + 1e-3
        atoms /= atoms.sum(axis=1, keepdims=True)
        w = rng.random(n) + 1e-3
        return rg.BeliefMeasure.from_support(atoms, w / w.sum())

    def rand_concave():
        slopes = rng.uniform(-1, 1, size=(4, 2))
        offsets = rng.uniform(-0.5, 0.5, size=4)
        return lambda x: float(np.min(offsets + slopes @ np.asarray(x, float)))

    false_dominance = 0
    for trial in range(500):
        if trial % 2 == 0:
            u, v = rand_measure(), rand_measure()
        else:
            u = rand_measure()
            parts = []
            for atom, w in zip(u.atoms, u.weights):
                t = float(rng.uniform(0, min(atom)))
                parts.append((np.clip(atom + [t, -t], 0, 1), 0.5 * w))
                parts.append((np.clip(atom - [t, -t], 0, 1), 0.5 * w))
            v = rg.BeliefMeasure.from_support(
                [a for a, _ in parts], [w for _, w in parts]
            )
        dominates, _ = rg.choquet_dominates(u, v)
        if dominates:
            for _ in range(5):
                f = rand_concave()
                if u.expect(f) < v.expect(f) - 1e-9:
                    false_dominance += 1
                    break

    metric_bad = 0
    for _ in range(500):
        u, v, w = rand_measure(), rand_measure(), rand_measure()
        duv, _ = rg.wasserstein(u, v)
        dvu, _ = rg.wasserstein(v, u)
        duw, _ = rg.wasserstein(u, w)
        dwv, _ = rg.wasserstein(w, v)
        p, q = rng.dirichlet([1, 1]), rng.dirichlet([1, 1])
        d_pq, _ = rg.wasserstein(rg.BeliefMeasure.dirac(p), rg.BeliefMeasure.dirac(q))
        if (
            abs(duv - dvu) > 1e-9
            or duv > duw + dwv + 1e-9
            or abs(d_pq - float(np.abs(p - q).sum())) > 1e-9
        ):
            metric_bad += 1

    psi_bad = 0
    for _ in range(200):
        a = rng.random((2, 3)) + 0.01
        b = rng.random((2, 3)) + 0.01
        a /= a.sum()
        b /= b.sum()
        lam = float(rng.random())
        mixed = rg.disintegrate(lam * a + (1 - lam) * b)
        parts = rg.mix_measures(
            [(lam, rg.disintegrate(a)), (1 - lam, rg.disintegrate(b))]
        )
        ok, _ = rg.choquet_dominates(mixed, parts)
        if not ok:
            psi_bad += 1

    ok = false_dominance == 0 and metric_bad == 0 and psi_bad == 0
    report(
        5,
        "order/metric suites",
        ok,
        f"false dominance {false_dominance}, metric faults {metric_bad}, "
        f"disintegration faults {psi_bad}",
    )
    assert false_dominance == 0
    assert metric_bad == 0
    assert psi_bad == 0


def test_criterion_6_splitting_lemma(corpus):
    rng = np.random.default_rng(66)
    bad_mix = bad_order = 0
    for trial in range(200):
        spec = corpus[int(rng.integers(0, len(corpus)))]
        S = int(rng.integers(2, 4))
        lams = rng.dirichlet(np.ones(S))
        comps = rng.random((S, 2)) + 1e-3
        comps /= comps.sum(axis=1, keepdims=True)
        p = lams @ comps
        actions = [rng.dirichlet(np.ones(spec.nI), size=spec.nK) for _ in range(S)]
        a = rg.splitting_action(p, list(zip(lams, comps)), actions)
        mix_marg = sum(
            lam * rg.transition_marginal(spec, q, act)
            for lam, q, act in zip(lams, comps, actions)
        )
        if np.abs(rg.transition_marginal(spec, p, a) - mix_marg).sum() > 1e-12:
            bad_mix += 1
        lhs = rg.belief_transition(spec, p, a)
        rhs = rg.mix_measures(
            [
                (float(lam), rg.belief_transition(spec, q, act))
                for lam, q, act in zip(lams, comps, actions)
            ]
        )
        dominates, _ = rg.choquet_dominates(lhs, rhs)
        if not dominates:
            bad_order += 1
    ok = bad_mix == 0 and bad_order == 0
    report(6, "splitting construction", ok, f"mixture faults {bad_mix}, order faults {bad_order}")
    assert bad_mix == 0
    assert bad_order == 0


def test_criterion_7_infsup_supinf_window(corpus):
    bad = 0
    shrink_log = []
    for idx, spec in enumerate(corpus):
        aux = rg.auxiliary_game(spec)
        rep8 = rg.uniform_value_estimate(aux, max_m=8, max_n=8, resolution=16, w_guard=0)
        if rep8.supinf_lower > rep8.infsup_upper + 1e-9:
            bad += 1
        slack = rep8.diagnostics["max_cell_gap"]
        mid_gap8 = abs(
            (rep8.infsup_lower + rep8.infsup_upper) / 2
            - (rep8.supinf_lower + rep8.supinf_upper) / 2
        )
        if mid_gap8 > slack + 1e-9:
            bad += 1
        if idx < 5:  # diagnostic trend on a subsample
            rep4 = rg.uniform_value_estimate(aux, max_m=4, max_n=4, resolution=16, w_guard=0)
            mid_gap4 = abs(
                (rep4.infsup_lower + rep4.infsup_upper) / 2
                - (rep4.supinf_lower + rep4.supinf_upper) / 2
            )
            shrink_log.append((round(mid_gap4, 4), round(mid_gap8, 4)))
    ok = bad == 0
    report(
        7,
        "window order of the two estimates",
        ok,
        f"violations {bad}; gap trend window 4 -> 8 (first 5): {shrink_log}",
    )
    assert bad == 0


def test_criterion_8_simulation_audits(am_aux_module, am_chain64):
    aux = am_aux_module
    grid, chain = am_chain64
    target_lo, _ = _measure_bounds(grid, *chain[16], aux.pihat)

    sigma = extract_p1_longrun(aux, prep_stages=2, resolution=32)
    p1_ok = True
    for seed in (11, 12):
        rep = rg.guarantee_check(
            aux,
            sigma,
            target=target_lo,
            epsilon=0.05,
            horizons=[512],
            config=rg.PlayoutConfig(horizon=512, replications=200, seed=seed),
            player=1,
        )
        p1_ok = p1_ok and rep.passed

    # single-state audit: extracted rules hold the exact value tightly
    k1 = make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]]))
    k1_aux = rg.auxiliary_game(k1)
    rep_k1 = rg.guarantee_check(
        k1_aux,
        rg.extract_p1_markov(k1_aux, n=8),
        target=0.5,
        epsilon=0.05,
        horizons=[512],
        config=rg.PlayoutConfig(horizon=512, replications=200, seed=13),
        player=1,
    )

    # player 2: cyclic rules audited against the windowed shifted values
    tau = rg.build_p2_cyclic(aux, 4, resolution=32)
    vg4 = rg.value_theta_grid(aux, ThetaWeights.uniform(4), resolution=32)
    vlow, vup = vg4.lower.copy(), vg4.upper.copy()
    sup_hi = rg.evaluate_measure(vg4, aux.pihat)[1]
    for _ in range(8):
        vlow, vup, _, _ = _sweep(aux, vg4.grid, 0.0, vlow, vup)
        sup_hi = max(sup_hi, _measure_bounds(vg4.grid, vlow, vup, aux.pihat)[1])
    rep_p2 = rg.guarantee_check(
        aux,
        tau,
        target=sup_hi,
        epsilon=0.05,
        horizons=[512],  # multiple of the cycle length
        config=rg.PlayoutConfig(horizon=512, replications=200, seed=14),
        player=2,
    )

    # negative control: uniform play cannot hold the value of this game
    neg_spec = make_k1_spec(np.array([[0.9, 0.1], [0.2, 0.8]]))
    neg_aux = rg.auxiliary_game(neg_spec)
    neg_target = rg.matrix_game_value(neg_spec.payoff[0]).value
    rep_neg = rg.guarantee_check(
        neg_aux,
        UniformP1(neg_aux.nK, neg_aux.nI),
        target=neg_target,
        epsilon=0.02,
        horizons=[512],
        config=rg.PlayoutConfig(horizon=512, replications=200, seed=15),
        player=1,
    )

    ok = p1_ok and rep_k1.passed and rep_p2.passed and (not rep_neg.passed)
    report(
        8,
        "simulation audits",
        ok,
        f"p1 informed {p1_ok}, p1 single-state {rep_k1.passed}, "
        f"p2 cyclic {rep_p2.passed}, negative control failed {not rep_neg.passed}",
    )
    assert p1_ok
    assert rep_k1.passed
    assert rep_p2.passed
    assert not rep_neg.passed


def test_criterion_9_single_controller_cross_check():
    spec, mats, kernel, p0 = single_controller_instance()
    aux = rg.auxiliary_game(spec)

    # independent oracle: enumerate stationary controller policies on the
    # known-state game; the opponent best-responds stage by stage. All 41^2
    # policies x (the weight on action 1 in each state) step together.
    grid = np.linspace(0, 1, 41)
    x = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    mix = np.stack([1 - x, x], axis=-1)  # (policies, K, I)
    P = np.einsum("pki,kil->pkl", mix, kernel)
    r = np.einsum("pki,kij->pkj", mix, spec.payoff).min(axis=-1)
    dist = np.broadcast_to(p0, x.shape).copy()
    acc = np.zeros(len(x))
    horizon = 8192
    for _ in range(horizon):
        acc += np.einsum("pk,pk->p", dist, r)
        dist = np.einsum("pk,pkl->pl", dist, P)
    oracle = float(np.max(acc / horizon))

    rep = rg.uniform_value_estimate(aux, max_m=8, max_n=8, resolution=32, w_guard=0)
    point = (rep.supinf_upper + rep.infsup_lower) / 2
    contained = rep.supinf_lower - 0.03 <= oracle <= rep.infsup_upper + 0.03
    close = abs(point - oracle) <= 0.03
    ok = contained and close
    report(
        9,
        "single-controller cross-check",
        ok,
        f"oracle {oracle:.4f}, window point {point:.4f}, "
        f"bracket [{rep.supinf_lower:.4f},{rep.infsup_upper:.4f}]",
    )
    assert contained
    assert close
