"""LP kernel: the HiGHS seam, matrix games, transport."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs_core

from rgsolve.lp import (
    LPError,
    matrix_game_value,
    solve_lp,
    transport_lp,
)
from rgsolve.values.stage import stage_upper_lp


def test_solve_lp_simple_max():
    # max x subject to x <= 3
    sol = solve_lp(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([3.0]),
                   bounds=[(None, None)], maximize=True)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_solve_lp_infeasible_with_certificate():
    # x <= 0 and x >= 1
    sol = solve_lp(
        np.array([0.0]),
        A_ub=np.array([[1.0], [-1.0]]),
        b_ub=np.array([0.0, -1.0]),
        bounds=[(None, None)],
    )
    assert sol.status == "infeasible"


def test_solve_lp_deterministic_on_degenerate_ties():
    # many optimal vertices: repeated solves must agree exactly
    c = np.array([1.0, 1.0, 1.0])
    A_ub = np.array([[1.0, 1.0, 1.0]])
    b_ub = np.array([1.0])
    sols = [
        solve_lp(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), maximize=True)
        for _ in range(3)
    ]
    for s in sols[1:]:
        assert np.array_equal(s.primal, sols[0].primal)
        assert s.objective == sols[0].objective


def test_matrix_game_constant():
    sol = matrix_game_value(np.array([[0.7]]))
    assert sol.value == pytest.approx(0.7, abs=1e-9)


def test_matrix_game_2x2_closed_form():
    # value of [[a,b],[c,d]] with interior optimum: (ad - bc) / (a+d-b-c)
    sol = matrix_game_value(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert sol.value == pytest.approx(0.5, abs=1e-9)
    assert sol.row_strategy == pytest.approx([0.5, 0.5], abs=1e-8)
    assert sol.col_strategy == pytest.approx([0.5, 0.5], abs=1e-8)


def test_matrix_game_am_quadratic_oracle_point():
    # diag(p, 1-p) at p = 1/2 has value p(1-p) = 1/4
    sol = matrix_game_value(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert sol.value == pytest.approx(0.25, abs=1e-9)


def test_matrix_game_player_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(10):
        M = rng.random((3, 4))
        v1 = matrix_game_value(M).value
        v2 = matrix_game_value(-M.T).value
        assert v1 == pytest.approx(-v2, abs=1e-8)


def test_matrix_game_affine_invariance():
    rng = np.random.default_rng(8)
    M = rng.random((3, 3))
    base = matrix_game_value(M).value
    assert matrix_game_value(M + 0.3).value == pytest.approx(base + 0.3, abs=1e-8)
    assert matrix_game_value(2.5 * M).value == pytest.approx(2.5 * base, abs=1e-8)


def test_matrix_game_strategies_certify_value():
    rng = np.random.default_rng(9)
    for _ in range(20):
        M = rng.random((rng.integers(2, 5), rng.integers(2, 5)))
        sol = matrix_game_value(M)
        assert float(np.min(sol.row_strategy @ M)) >= sol.value - 1e-8
        assert float(np.max(M @ sol.col_strategy)) <= sol.value + 1e-8


def test_transport_zero_diagonal():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    sol = transport_lp(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert sol.objective == pytest.approx(0.0, abs=1e-10)


def test_transport_one_to_many():
    cost = np.array([[2.0, 5.0, 1.0]])
    demand = np.array([0.2, 0.3, 0.5])
    sol = transport_lp(cost, np.array([1.0]), demand)
    assert sol.objective == pytest.approx(float(cost[0] @ demand), abs=1e-9)


def test_transport_mass_mismatch():
    with pytest.raises(ValueError, match="mass mismatch"):
        transport_lp(np.zeros((1, 1)), np.array([1.0]), np.array([0.5]))


def test_transport_split_example():
    # two point masses collapsing to their midpoint, l1 ground cost 1 each
    cost = np.array([[1.0], [1.0]])
    sol = transport_lp(cost, np.array([0.5, 0.5]), np.array([1.0]))
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_feasibility_strong_duality_gap():
    rng = np.random.default_rng(11)
    for _ in range(10):
        M = rng.random((4, 4))
        # matrix game as primal/dual pair: row LP value equals column LP value
        v_row = matrix_game_value(M).value
        v_col = -matrix_game_value(-M.T).value
        assert abs(v_row - v_col) <= 1e-8


# ---------------------------------------------------------------------------
# The HiGHS seam against scipy's linprog as the reference
# ---------------------------------------------------------------------------

_REF_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _random_lp(rng):
    """Small LP; half of them are feasible by construction, the rest may be
    infeasible or unbounded (free or half-bounded variables)."""
    n = int(rng.integers(1, 7))
    m_ub, m_eq = int(rng.integers(0, 6)), int(rng.integers(0, 3))
    c = rng.normal(size=n)
    A_ub = rng.normal(size=(m_ub, n)) if m_ub else None
    A_eq = rng.normal(size=(m_eq, n)) if m_eq else None
    kind = int(rng.integers(0, 3))
    bounds = [(0, None)] * n if kind == 0 else ([(-1, 1)] * n if kind == 1 else None)
    if rng.random() < 0.5:
        x0 = rng.uniform(0.0, 1.0, size=n)
        b_ub = None if A_ub is None else A_ub @ x0 + rng.uniform(0.0, 1.0, size=m_ub)
        b_eq = None if A_eq is None else A_eq @ x0
    else:
        b_ub = None if A_ub is None else rng.normal(size=m_ub)
        b_eq = None if A_eq is None else rng.normal(size=m_eq)
    return c, A_ub, b_ub, A_eq, b_eq, bounds


def _linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, maximize):
    return linprog(
        -c if maximize else c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=bounds if bounds is not None else (None, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )


def test_seam_matches_linprog_on_random_lps():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(200):
        c, A_ub, b_ub, A_eq, b_eq, bounds = _random_lp(rng)
        maximize = bool(rng.random() < 0.5)
        ref = _linprog(c, A_ub, b_ub, A_eq, b_eq, bounds, maximize)
        sol = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                       maximize=maximize)
        assert sol.status == _REF_STATUS[ref.status]
        seen.add(sol.status)
        if sol.status != "optimal":
            continue
        assert sol.objective == pytest.approx((-1 if maximize else 1) * ref.fun, abs=1e-9)
        if A_ub is not None:
            assert float(np.max(A_ub @ sol.primal - b_ub)) <= 1e-9
            assert sol.dual_ub == pytest.approx(-ref.ineqlin.marginals, abs=1e-9)
            assert float(sol.dual_ub.min()) >= -1e-9
        if A_eq is not None:
            assert np.abs(A_eq @ sol.primal - b_eq).max() <= 1e-9
            assert sol.dual_eq == pytest.approx(-ref.eqlin.marginals, abs=1e-9)
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_seam_accepts_sparse_blocks():
    rng = np.random.default_rng(31)
    for _ in range(20):
        c, A_ub, b_ub, A_eq, b_eq, bounds = _random_lp(rng)
        dense = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
        sparse = solve_lp(
            c,
            A_ub=None if A_ub is None else sp.csc_array(A_ub), b_ub=b_ub,
            A_eq=None if A_eq is None else sp.csc_array(A_eq), b_eq=b_eq,
            bounds=bounds,
        )
        assert sparse.status == dense.status
        if dense.status == "optimal":
            assert np.array_equal(sparse.primal, dense.primal)
            assert sparse.objective == dense.objective


def _failing_presolve(monkeypatch, fail_always=False):
    """Make HiGHS report a failed run with an unset model status whenever
    presolve is on (or always), as a failing presolve does; returns the
    presolve setting of every run."""
    original = highs_core._Highs.run
    runs = []

    def run(self):
        presolve = self.getOptionValue("presolve")[1]
        runs.append(presolve)
        if fail_always or presolve == "on":
            return highs_core.HighsStatus.kError
        return original(self)

    monkeypatch.setattr(highs_core._Highs, "run", run)
    return runs


def test_presolve_failure_is_retried_without_presolve(monkeypatch):
    c = np.array([1.0, 2.0])
    A_ub = np.array([[-1.0, -1.0], [1.0, -1.0]])
    b_ub = np.array([-1.0, 0.5])
    ref = solve_lp(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None))
    runs = _failing_presolve(monkeypatch)
    sol = solve_lp(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None))
    assert runs == ["on", "off"]
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.objective, abs=1e-12)
    assert sol.dual_ub == pytest.approx(ref.dual_ub, abs=1e-12)


def test_failed_stage_lp_names_alpha_and_belief(am_aux, monkeypatch):
    runs = _failing_presolve(monkeypatch, fail_always=True)
    points = np.array([[0.25, 0.75], [0.5, 0.5]])
    with pytest.raises(LPError, match=r"alpha=0\.5, belief \[0\.25, 0\.75\]"):
        stage_upper_lp(am_aux, points, 0.5, np.full((1, 2), 0.5))
    # the block model, then its first belief alone, each with and without presolve
    assert runs == ["on", "off", "on", "off"]
