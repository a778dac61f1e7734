"""Linear-programming kernel: generic LP, matrix games, transport.

Every solve goes through one thin seam over the HiGHS core bundled with
scipy (``scipy.optimize._highspy._core``): ``solve_lp`` builds a column-wise
``HighsLp`` from dense or ``scipy.sparse`` constraint blocks and runs dual
simplex with presolve on, 1e-10 feasibility tolerances and logging off.
The same seam solves mixed-integer models: columns marked integral go to
HiGHS's branch-and-bound, whose integrality tolerance is also 1e-10.
HiGHS is deterministic for a fixed input and returns dual values for an
LP (not for a mixed-integer model). When presolve fails on a valid model
(``run`` errors before any model status is set), the model is solved once
more with presolve off. Every optimal solution is re-verified: its primal
residuals must be below the feasibility tolerance, otherwise the solve is
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs

from .config import TOL


class LPError(RuntimeError):
    """Raised when a solve fails for numerical reasons."""


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    primal: np.ndarray | None
    dual_ub: np.ndarray | None = None
    dual_eq: np.ndarray | None = None


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


_MS = _highs.HighsModelStatus
# HiGHS reports an inconsistent model (say, a lower bound above its upper
# bound) as a model error; like an infeasible one, it has no feasible point
_STATUS = {_MS.kOptimal: "optimal", _MS.kInfeasible: "infeasible",
           _MS.kModelError: "infeasible", _MS.kUnbounded: "unbounded"}


def _highs_options(presolve: str) -> "_highs.HighsOptions":
    opts = _highs.HighsOptions()
    opts.presolve = presolve
    opts.simplex_strategy = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    opts.primal_feasibility_tolerance = 1e-10
    opts.dual_feasibility_tolerance = 1e-10
    opts.mip_feasibility_tolerance = 1e-10
    opts.output_flag = False
    opts.log_to_console = False
    return opts


_OPTIONS = {"on": _highs_options("on"), "off": _highs_options("off")}


def solve_lp(
    c: np.ndarray,
    A_ub=None,
    b_ub: np.ndarray | None = None,
    A_eq=None,
    b_eq: np.ndarray | None = None,
    bounds=None,
    maximize: bool = False,
    integrality=None,
) -> LPSolution:
    """Solve min (or max) c @ x subject to A_ub x <= b_ub, A_eq x = b_eq.

    ``A_ub`` and ``A_eq`` may be dense arrays or ``scipy.sparse`` matrices.
    ``bounds`` is one ``(lo, hi)`` pair for every variable, a sequence of
    pairs or an ``(n, 2)`` array; ``None`` entries are infinite, and no
    bounds at all means free variables. ``integrality`` is one entry for
    every variable or one per variable, 0 for continuous and 1 for integer
    (None: all continuous). Returns an LPSolution with the primal vector on success,
    and the dual vectors when no variable is integer. Raises LPError on
    numerical failure or when the verified residuals exceed the
    feasibility tolerance.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    sign = -1.0 if maximize else 1.0
    m_ub = 0 if A_ub is None else np.shape(A_ub)[0]
    lhs = np.concatenate([np.full(m_ub, -np.inf), _rhs(b_eq, A_eq)])
    rhs = np.concatenate([_rhs(b_ub, A_ub), _rhs(b_eq, A_eq)])
    lb, ub = _column_bounds(bounds, n)
    integrality = np.broadcast_to(
        np.asarray(0 if integrality is None else integrality, dtype=np.int32), n
    ).copy()

    start, index, value = _csc_arrays(n, [A for A in (A_ub, A_eq) if A is not None])
    model = (
        n, rhs.size, value.size,
        _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize, 0.0,
        sign * c, lb, ub, lhs, rhs,
        start, index, value,
        integrality,
    )
    highs, status = _run(model)
    if status not in _STATUS:
        raise LPError(f"LP solver failure: {highs.modelStatusToString(status)}")
    if _STATUS[status] != "optimal":
        return LPSolution(status=_STATUS[status], objective=None, primal=None)
    solution = highs.getSolution()
    x = np.asarray(solution.col_value, dtype=float)
    _verify_primal(x, A_ub, b_ub, A_eq, b_eq)
    if integrality.any():
        return LPSolution(status="optimal", objective=float(c @ x), primal=x)
    # HiGHS reports multipliers of the solved (minimization) problem as
    # nonpositive for <= rows; negating yields the conventional y >= 0,
    # which carries over to maximization (solved as min of the negation).
    row_dual = -np.asarray(solution.row_dual, dtype=float)
    return LPSolution(
        status="optimal",
        objective=float(c @ x),
        primal=x,
        dual_ub=row_dual[:m_ub] if A_ub is not None else None,
        dual_eq=row_dual[m_ub:] if A_eq is not None else None,
    )


def _run(model: tuple) -> tuple["_highs._Highs", "_highs.HighsModelStatus"]:
    """Run HiGHS on the column-wise model; retry once without presolve
    when presolve fails.

    A failing presolve makes ``run`` return an error while the model status
    is still unset, although the model itself is valid.
    """
    for presolve in ("on", "off"):
        highs = _highs._Highs()
        highs.passOptions(_OPTIONS[presolve])
        if highs.passModel(*model) == _highs.HighsStatus.kError:
            return highs, _MS.kModelError
        run_status = highs.run()
        status = highs.getModelStatus()
        if not (run_status == _highs.HighsStatus.kError and status == _MS.kNotset):
            break
    return highs, status


def _rhs(b, A) -> np.ndarray:
    return np.zeros(0) if A is None else np.asarray(b, dtype=float).reshape(-1)


def _column_bounds(bounds, n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.array((None, None) if bounds is None else bounds, dtype=float)
    pairs = np.broadcast_to(pairs.reshape(-1, 2), (n, 2))
    lb = np.where(np.isnan(pairs[:, 0]), -np.inf, pairs[:, 0])
    ub = np.where(np.isnan(pairs[:, 1]), np.inf, pairs[:, 1])
    return lb, ub


def _csc_arrays(n: int, blocks: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise (start, index, value) of the row-stacked blocks, without
    explicit zeros, in the 32-bit index type of the HiGHS build."""
    cols, rows, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    offset = 0
    for A in blocks:
        if sp.issparse(A):
            A = A.tocsc()
            col = np.repeat(np.arange(n), np.diff(A.indptr))
            row, val = A.indices, A.data
        else:
            A = np.asarray(A, dtype=float).reshape(-1, n)
            col, row = np.nonzero(A.T)
            val = A[row, col]
        cols.append(col)
        rows.append(row + offset)
        vals.append(val)
        offset += A.shape[0]
    col, row, val = np.concatenate(cols), np.concatenate(rows), np.concatenate(vals)
    keep = val != 0.0
    col, row, val = col[keep], row[keep], val[keep]
    order = np.argsort(col, kind="stable")
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n), out=start[1:])
    return start, row[order].astype(np.int32), val[order]


def _verify_primal(x, A_ub, b_ub, A_eq, b_eq) -> None:
    tol = TOL.feasibility
    if A_ub is not None:
        r = _matvec(A_ub, x) - np.asarray(b_ub, dtype=float)
        if r.size and float(np.max(r)) > tol:
            raise LPError(f"primal infeasibility residual {np.max(r):.3e} exceeds {tol}")
    if A_eq is not None:
        r = np.abs(_matvec(A_eq, x) - np.asarray(b_eq, dtype=float))
        if r.size and float(np.max(r)) > tol:
            raise LPError(f"equality residual {np.max(r):.3e} exceeds {tol}")


def _matvec(A, x: np.ndarray) -> np.ndarray:
    return A @ x if sp.issparse(A) else np.asarray(A, dtype=float) @ x


def matrix_game_value(M: np.ndarray) -> MatrixGameSolution:
    """Value and optimal mixed strategies of the zero-sum matrix game M.

    Row player maximizes, column player minimizes. Solved as the standard
    LP over the row mixture; the column strategy is read off the duals.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    nr, nc = M.shape
    # Shift to positive to keep the value variable bounded away from issues.
    shift = float(min(0.0, M.min()))
    Ms = M - shift
    # max v  s.t.  v <= x^T Ms[:, j] for all j,  x in simplex
    c = np.zeros(nr + 1)
    c[-1] = 1.0
    A_ub = np.hstack([-Ms.T, np.ones((nc, 1))])
    b_ub = np.zeros(nc)
    A_eq = np.zeros((1, nr + 1))
    A_eq[0, :nr] = 1.0
    sol = solve_lp(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=np.ones(1),
        bounds=[(0, None)] * nr + [(None, None)],
        maximize=True,
    )
    if sol.status != "optimal":
        raise LPError(f"matrix game LP not optimal: {sol.status}")
    x = normalize_mixtures(sol.primal[:nr])
    y = normalize_mixtures(sol.dual_ub)
    value = float(sol.primal[-1] + shift)
    _check_game_solution(M, value, x, y)
    return MatrixGameSolution(value=value, row_strategy=x, col_strategy=y)


def normalize_mixtures(a: np.ndarray) -> np.ndarray:
    """Clip each mixture (last axis) to be nonnegative and renormalize it;
    an all-zero mixture becomes uniform."""
    a = np.clip(a, 0.0, None)
    s = a.sum(axis=-1, keepdims=True)
    return np.where(s > 0, a / np.where(s > 0, s, 1.0), 1.0 / a.shape[-1])


def _check_game_solution(M, value, x, y) -> None:
    tol = 1e-7
    worst_row = float(np.min(x @ M))
    worst_col = float(np.max(M @ y))
    if worst_row < value - tol or worst_col > value + tol:
        raise LPError(
            f"matrix game certificate failed: value={value}, "
            f"row guarantee {worst_row}, col guarantee {worst_col}"
        )


def transport_lp(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> LPSolution:
    """Optimal transportation plan between supply and demand.

    The primal vector is the flattened plan x[i, j] (row-major). Raises
    ValueError when total masses differ beyond the feasibility tolerance.
    """
    cost = np.asarray(cost, dtype=float)
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    m, n = cost.shape
    if abs(supply.sum() - demand.sum()) > TOL.feasibility:
        raise ValueError(
            f"mass mismatch: supply {supply.sum()} vs demand {demand.sum()}"
        )
    # Equality rows: row sums = supply, column sums = demand (one redundant).
    A_eq = plan_marginal_rows(m, n)
    b_eq = np.concatenate([supply, demand])
    return solve_lp(
        cost.ravel(),
        A_eq=A_eq[:-1],
        b_eq=b_eq[:-1],
        bounds=(0, None),
    )


def plan_marginal_rows(R: int, S: int) -> np.ndarray:
    """(R + S, R * S) equality rows over a row-major R x S plan: its R row
    sums, then its S column sums."""
    return np.vstack([np.kron(np.eye(R), np.ones(S)), np.kron(np.ones(R), np.eye(S))])
