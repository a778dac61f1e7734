"""Per-layer tracing installed from outside the program.

Each wrapper replaces a function under the name its caller looks up (a
module global or a class attribute), so the program's own code is never
edited. A wrapper records calls, busy time (wall time inside the call) and
self time (busy time minus the busy time of wrapped calls made from inside
it). Wrappers exist only inside ``Tracer.recording()``; outside it the
original functions are back in place and cost nothing.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    hits: int = 0  # calls that made no wrapped call of their own (memo hits)
    max_value: float = float("-inf")  # largest value an exit hook reported


class _Frame:
    __slots__ = ("child_s", "child_calls")

    def __init__(self):
        self.child_s = 0.0
        self.child_calls = 0


def _sweep_gap_added(args, out) -> float:
    """Gap one sweep adds: max width after minus max width before."""
    vlow, vup = args[3], args[4]
    new_low, new_up = out[0], out[1]
    return float((new_up - new_low).max() - (vup - vlow).max())


def _targets():
    """(owner, attribute, metric key, exit hook) for every traced call site."""
    from scipy.optimize._highspy import _core as highs_core

    from rgsolve import beliefs, game_model, lp, simulator, strategies
    from rgsolve.values import engine, grid, mdp, stage

    return [
        # solve_lp is imported by name into each module that calls it
        (lp, "solve_lp", "lp.solve_lp@lp", None),
        (stage, "solve_lp", "lp.solve_lp@values.stage", None),
        (grid, "solve_lp", "lp.solve_lp@values.grid", None),
        (beliefs, "solve_lp", "lp.solve_lp@beliefs", None),
        (mdp, "solve_lp", "lp.solve_lp@values.mdp", None),
        # the HiGHS solve itself, through scipy's wrapper class
        (highs_core._Highs, "run", "lp.highs_run", None),
        # engine imports the stage operators and grid helpers by name
        (engine, "stage_lower_lp", "values.stage.stage_lower_lp", None),
        (engine, "stage_upper_lp", "values.stage.stage_upper_lp", None),
        (stage, "stage_upper_lp", "values.stage.stage_upper_lp", None),
        (engine, "one_shot_lp", "values.stage.one_shot_lp", None),
        (engine, "_sweep", "values.engine._sweep", _sweep_gap_added),
        (engine, "concave_majorant", "values.grid.concave_majorant", None),
        (grid, "_hull_majorant_highdim", "values.grid._hull_majorant_highdim", None),
        (engine, "lower_value", "values.grid.lower_value", None),
        (game_model, "auxiliary_game", "game_model.auxiliary_game", None),
        (strategies, "extract_p1_markov", "strategies.extract", None),
        (strategies, "extract_p1_longrun", "strategies.extract", None),
        (strategies, "build_p2_cyclic", "strategies.extract", None),
        (strategies.MarkovStrategy1, "stacked_action", "strategies.lookup", None),
        (strategies.BlockStrategy2, "mixture", "strategies.lookup", None),
        (simulator, "simulate", "simulator.simulate", None),
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[_Frame] = []

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def _wrap(self, fn, key, hook):
        stat = self.stat(key)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.busy_s += busy
                stat.self_s += busy - frame.child_s
                if stack:
                    stack[-1].child_s += busy
                    stack[-1].child_calls += 1
            if frame.child_calls == 0:
                stat.hits += 1
            if hook is not None:
                stat.max_value = max(stat.max_value, hook(args, out))
            return out

        return wrapper

    @contextmanager
    def recording(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, name, key, hook in _targets():
                # restore the raw attribute: a class may hold a descriptor
                # that getattr would hand back already unwrapped
                saved.append((owner, name, vars(owner)[name]))
                setattr(owner, name, self._wrap(getattr(owner, name), key, hook))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def total(self, prefix: str) -> Stat:
        """Sum of the stats whose key is ``prefix`` or ``prefix@site``."""
        out = Stat()
        for key, st in self.stats.items():
            if key == prefix or key.startswith(prefix + "@"):
                out.calls += st.calls
                out.busy_s += st.busy_s
                out.self_s += st.self_s
        return out
