"""Finite repeated game with state/signal structure, and its belief-game view.

A game is given by finite label sets (states, two action sets, two signal
sets), an initial law over (state, signal1, signal2), a stage payoff table
in [0, 1], and a transition kernel to (state, signal1, signal2). Player 1
is "informed" when each of their signals pins down the state and player
2's signal; player 1 "controls" when the (state, signal2) marginal of the
transition ignores player 2's action. Both properties are decidable from
the tables and this module validates them with witnesses.

Once both hold, the game induces a stochastic game on the belief simplex:
stacked mixed actions (one mixture per state) against mixtures over the
opponent's actions, with the belief evolving by Bayes updates on player
2's signal. The primitives of that induced game live here too.
"""

from __future__ import annotations

import itertools
import json
import weakref
from dataclasses import dataclass

import numpy as np

from .beliefs import BeliefMeasure, check_belief, disintegrate
from .config import TOL


class SpecValidationError(ValueError):
    """A probability table or payoff table violates the model invariants."""


@dataclass(frozen=True, eq=False)
class RepeatedGameSpec:
    states: tuple[str, ...]
    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    signals1: tuple[str, ...]
    signals2: tuple[str, ...]
    initial: np.ndarray  # (K, C, D)
    payoff: np.ndarray  # (K, I, J), entries in [0, 1]
    transition: np.ndarray  # (K, I, J, K, C, D)
    # affine map back to the payoff scale the spec was built from
    payoff_scale: float = 1.0
    payoff_offset: float = 0.0

    def __post_init__(self):
        validate_tables(self)

    @property
    def nK(self) -> int:
        return len(self.states)

    @property
    def nI(self) -> int:
        return len(self.actions1)

    @property
    def nJ(self) -> int:
        return len(self.actions2)

    @property
    def nC(self) -> int:
        return len(self.signals1)

    @property
    def nD(self) -> int:
        return len(self.signals2)

    def to_original_scale(self, value: float) -> float:
        """Map a value of the unit-payoff game back to the builder's payoffs."""
        return value * self.payoff_scale + self.payoff_offset


def validate_tables(spec: RepeatedGameSpec) -> None:
    tol = TOL.feasibility
    K, I, J = spec.nK, spec.nI, spec.nJ
    C, D = spec.nC, spec.nD
    if spec.initial.shape != (K, C, D):
        raise SpecValidationError("initial table has wrong shape")
    if spec.payoff.shape != (K, I, J):
        raise SpecValidationError("payoff table has wrong shape")
    if spec.transition.shape != (K, I, J, K, C, D):
        raise SpecValidationError("transition table has wrong shape")
    if spec.initial.min() < -tol:
        raise SpecValidationError("initial law has negative entries")
    if abs(spec.initial.sum() - 1.0) > tol:
        raise SpecValidationError(f"initial law sums to {spec.initial.sum()}")
    if spec.payoff.min() < -tol or spec.payoff.max() > 1.0 + tol:
        raise SpecValidationError("payoff entries must lie in [0, 1]")
    if spec.transition.min() < -tol:
        raise SpecValidationError("transition has negative entries")
    sums = spec.transition.sum(axis=(3, 4, 5))
    bad = np.argwhere(np.abs(sums - 1.0) > tol)
    if bad.size:
        k, i, j = bad[0]
        raise SpecValidationError(
            f"transition({spec.states[k]},{spec.actions1[i]},{spec.actions2[j]}) "
            f"sums to {sums[k, i, j]}"
        )


@dataclass(frozen=True)
class HypothesisReport:
    holds: bool
    max_violation: float
    witness: dict

    def __bool__(self) -> bool:
        return self.holds


def check_stacked(a: np.ndarray, nK: int, nI: int) -> np.ndarray:
    """Validate a stacked mixed action: one mixture over actions per state."""
    a = np.asarray(a, dtype=float)
    if a.shape != (nK, nI):
        raise ValueError(f"stacked action must have shape ({nK}, {nI})")
    if a.min() < -TOL.structural:
        raise ValueError("stacked action has negative entries")
    if np.abs(a.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("stacked action rows must sum to 1")
    return np.clip(a, 0.0, None)


def _reachable_signal_mass(spec: RepeatedGameSpec) -> np.ndarray:
    """Aggregate (K, C, D) mass over the initial law and every transition."""
    mass = spec.initial.copy()
    mass += spec.transition.sum(axis=(0, 1, 2))
    return mass


def validate_ha_prime(spec: RepeatedGameSpec) -> HypothesisReport:
    """Player 1 deduces the state and player 2's signal from their own signal.

    Holds iff on the support of the initial law and of every transition,
    each signal c is compatible with exactly one (state, signal2) pair.
    The witness carries the induced maps on reachable signals; signals that
    never occur are unconstrained and listed separately.
    """
    mass = _reachable_signal_mass(spec)  # (K, C, D)
    khat: dict[str, str] = {}
    dhat: dict[str, str] = {}
    unreachable: list[str] = []
    conflicts: list[dict] = []
    max_violation = 0.0
    for c in range(spec.nC):
        table = mass[:, c, :]
        total = table.sum()
        if total <= 0.0:
            unreachable.append(spec.signals1[c])
            continue
        k_best, d_best = np.unravel_index(np.argmax(table), table.shape)
        khat[spec.signals1[c]] = spec.states[k_best]
        dhat[spec.signals1[c]] = spec.signals2[d_best]
        violation = float(total - table[k_best, d_best])
        if violation > max_violation:
            max_violation = violation
        if violation > TOL.structural:
            pairs = [
                (spec.states[k], spec.signals2[d], float(table[k, d]))
                for k, d in np.argwhere(table > 0.0)
            ]
            conflicts.append({"signal1": spec.signals1[c], "pairs": pairs})
    holds = max_violation <= TOL.structural
    return HypothesisReport(
        holds=holds,
        max_violation=max_violation,
        witness={
            "khat": khat,
            "dhat": dhat,
            "unreachable_signals": unreachable,
            "conflicts": conflicts,
        },
    )


def validate_hb_prime(spec: RepeatedGameSpec) -> HypothesisReport:
    """The (state, signal2) marginal of the transition ignores player 2's action.

    When it holds, the witness carries the common marginal table, indexed
    (state, action1) -> (state, signal2).
    """
    marg = spec.transition.sum(axis=4)  # (K, I, J, K, D)
    ref = marg[:, :, 0, :, :]
    max_violation = 0.0
    offender = None
    for j in range(1, spec.nJ):
        diff = np.abs(marg[:, :, j] - ref).sum(axis=(2, 3))  # (K, I)
        k, i = np.unravel_index(np.argmax(diff), diff.shape)
        if diff[k, i] > max_violation:
            max_violation = float(diff[k, i])
            offender = {
                "state": spec.states[k],
                "action1": spec.actions1[i],
                "action2_pair": (spec.actions2[0], spec.actions2[j]),
                "marginals": (ref[k, i].copy(), marg[k, i, j].copy()),
            }
    holds = max_violation <= TOL.structural
    witness = {"qbar": marg.mean(axis=2)} if holds else {"offender": offender}
    return HypothesisReport(holds=holds, max_violation=max_violation, witness=witness)


def validate_ha(spec: RepeatedGameSpec) -> HypothesisReport:
    """Informational check: player 1 also deduces player 2's previous action."""
    base = validate_ha_prime(spec)
    if not base.holds:
        return HypothesisReport(False, base.max_violation, base.witness)
    # From stage 2 on, each reachable c must pin down the j that produced it.
    mass = spec.transition.sum(axis=(0, 1))  # (J, K, C, D) summed over k,i
    max_violation = 0.0
    jhat: dict[str, str] = {}
    for c in range(spec.nC):
        per_j = mass[:, :, c, :].sum(axis=(1, 2))
        total = per_j.sum()
        if total <= 0.0:
            continue
        j_best = int(np.argmax(per_j))
        jhat[spec.signals1[c]] = spec.actions2[j_best]
        max_violation = max(max_violation, float(total - per_j[j_best]))
    holds = max_violation <= TOL.structural
    witness = dict(base.witness)
    witness["jhat"] = jhat
    return HypothesisReport(holds, max_violation, witness)


def validate_hb(spec: RepeatedGameSpec) -> HypothesisReport:
    """Informational check: the full transition ignores player 2's action."""
    ref = spec.transition[:, :, 0]
    max_violation = 0.0
    for j in range(1, spec.nJ):
        diff = float(np.abs(spec.transition[:, :, j] - ref).sum(axis=(2, 3, 4)).max())
        max_violation = max(max_violation, diff)
    return HypothesisReport(max_violation <= TOL.structural, max_violation, {})


def canonical_signal(spec: RepeatedGameSpec, k: str, d: str) -> str:
    """Deterministic signal compatible with (state, signal2): the first in
    declared signal order among reachable signals mapped to that pair."""
    report = validate_ha_prime(spec)
    if not report.holds:
        raise ValueError("canonical_signal requires the informedness hypothesis")
    khat, dhat = report.witness["khat"], report.witness["dhat"]
    for c in spec.signals1:
        if khat.get(c) == k and dhat.get(c) == d:
            return c
    raise ValueError(
        f"no signal compatible with state={k!r}, signal2={d!r}; "
        "the signal map does not reach this pair"
    )


def initial_belief_measure(spec: RepeatedGameSpec) -> BeliefMeasure:
    """Distribution of player 2's posterior belief induced by the initial law."""
    joint = spec.initial.sum(axis=1)  # (K, D)
    return disintegrate(joint)


def stage_payoff(spec: RepeatedGameSpec, p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Expected stage payoff at belief p under stacked action a and mixture b."""
    p = check_belief(p, tol=1e-9)
    a = check_stacked(a, spec.nK, spec.nI)
    b = np.asarray(b, dtype=float)
    return float(np.einsum("k,ki,j,kij->", p, a, b, spec.payoff))


# per-spec memo for the common (state, signal2) marginal; weak keys so
# entries die with their spec instead of aliasing recycled addresses
_qbar_memo: "weakref.WeakKeyDictionary[RepeatedGameSpec, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)


def _qbar(spec: RepeatedGameSpec) -> np.ndarray:
    if spec not in _qbar_memo:
        report = validate_hb_prime(spec)
        if not report.holds:
            raise ValueError(
                "transition marginal undefined: player 2's action affects "
                f"the (state, signal2) law (violation {report.max_violation:.3e})"
            )
        _qbar_memo[spec] = report.witness["qbar"]
    return _qbar_memo[spec]


def transition_marginal(spec: RepeatedGameSpec, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Law of (next state, signal2) at belief p under stacked action a."""
    qbar = _qbar(spec)  # (K, I, K, D)
    p = check_belief(p, tol=1e-9)
    a = check_stacked(a, spec.nK, spec.nI)
    return np.einsum("k,ki,kind->nd", p, a, qbar)


def belief_transition(spec: RepeatedGameSpec, p: np.ndarray, a: np.ndarray) -> BeliefMeasure:
    """Distribution of player 2's next belief: disintegration of the marginal."""
    return disintegrate(transition_marginal(spec, p, a))


# ---------------------------------------------------------------------------
# Subclass builders
# ---------------------------------------------------------------------------

_INIT = "<init>"


def _rescale(matrices: list[np.ndarray]) -> tuple[np.ndarray, float, float]:
    stack = np.stack([np.asarray(m, dtype=float) for m in matrices])
    lo, hi = float(stack.min()), float(stack.max())
    scale = hi - lo if hi > lo else 1.0
    return (stack - lo) / scale, scale, lo


def build_aumann_maschler(matrices: list[np.ndarray], p: np.ndarray) -> RepeatedGameSpec:
    """Repeated game with a fixed hidden state and perfect monitoring.

    The state is drawn once and told to player 1; afterwards both players
    observe each other's actions (signal1 also re-announces the state).
    Payoff matrices are affinely rescaled into [0, 1]; the map back is kept
    on the spec.
    """
    if not matrices or any(np.asarray(m).size == 0 for m in matrices):
        raise ValueError("at least one nonempty payoff matrix is required")
    unit, scale, offset = _rescale(matrices)
    K, I, J = unit.shape
    p = check_belief(np.asarray(p, float), tol=1e-9)
    if p.shape != (K,):
        raise ValueError("initial distribution does not match the matrices")
    kernel = np.zeros((K, I, K))
    for k in range(K):
        kernel[k, :, k] = 1.0
    return _build_controlled_chain(unit, kernel, p, scale, offset, reveal_state_to_p2=False)


def build_markov_chain_game(
    matrices: list[np.ndarray],
    kernel: np.ndarray,
    p: np.ndarray,
    reveal_state_to_p2: bool = False,
) -> RepeatedGameSpec:
    """State evolves by a kernel driven by (state, action1); actions public.

    Player 1 observes the fresh state; player 2 observes player 1's action
    (and optionally the fresh state). A (K, K) kernel is treated as an
    uncontrolled chain.
    """
    unit, scale, offset = _rescale(matrices)
    K, I, J = unit.shape
    kernel = np.asarray(kernel, dtype=float)
    if kernel.shape == (K, K):
        kernel = np.repeat(kernel[:, None, :], I, axis=1)
    if kernel.shape != (K, I, K):
        raise ValueError(f"kernel must have shape ({K},{I},{K}) or ({K},{K})")
    if kernel.min() < -TOL.feasibility or np.abs(kernel.sum(axis=2) - 1.0).max() > TOL.feasibility:
        raise ValueError("kernel rows must be probability vectors")
    p = check_belief(np.asarray(p, float), tol=1e-9)
    return _build_controlled_chain(unit, kernel, p, scale, offset, reveal_state_to_p2)


def build_single_controller(
    matrices: list[np.ndarray],
    kernel: np.ndarray,
    p: np.ndarray,
    reveal_state_to_p2: bool = True,
) -> RepeatedGameSpec:
    """Single-controller stochastic game with incomplete information on
    player 2's side; by default the fresh state is publicly announced."""
    return build_markov_chain_game(matrices, kernel, p, reveal_state_to_p2)


def _build_controlled_chain(
    unit: np.ndarray,
    kernel: np.ndarray,
    p: np.ndarray,
    scale: float,
    offset: float,
    reveal_state_to_p2: bool,
) -> RepeatedGameSpec:
    K, I, J = unit.shape
    states = tuple(f"k{k}" for k in range(K))
    acts1 = tuple(f"i{i}" for i in range(I))
    acts2 = tuple(f"j{j}" for j in range(J))
    if reveal_state_to_p2:
        sig2 = [(_INIT, s) for s in states] + [(a, s) for a in acts1 for s in states]
        d_label = lambda i_prev, k_next: f"{i_prev}~{states[k_next]}"
        signals2 = tuple(f"{a}~{s}" for a, s in sig2)
    else:
        d_label = lambda i_prev, k_next: i_prev
        signals2 = (_INIT,) + acts1
    signals1 = tuple(
        f"{s}|{jp}|{dp}" for s in states for jp in (_INIT,) + acts2 for dp in signals2
    )
    c_index = {lbl: n for n, lbl in enumerate(signals1)}
    d_index = {lbl: n for n, lbl in enumerate(signals2)}
    nC, nD = len(signals1), len(signals2)

    initial = np.zeros((K, nC, nD))
    for k in range(K):
        d0 = d_label(_INIT, k)
        initial[k, c_index[f"{states[k]}|{_INIT}|{d0}"], d_index[d0]] = p[k]

    transition = np.zeros((K, I, J, K, nC, nD))
    for k, i, j, kn in itertools.product(range(K), range(I), range(J), range(K)):
        prob = kernel[k, i, kn]
        if prob <= 0.0:
            continue
        d = d_label(acts1[i], kn)
        c = f"{states[kn]}|{acts2[j]}|{d}"
        transition[k, i, j, kn, c_index[c], d_index[d]] += prob

    return RepeatedGameSpec(
        states=states,
        actions1=acts1,
        actions2=acts2,
        signals1=signals1,
        signals2=signals2,
        initial=initial,
        payoff=unit,
        transition=transition,
        payoff_scale=scale,
        payoff_offset=offset,
    )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def spec_to_json(spec: RepeatedGameSpec) -> dict:
    key = lambda k, i, j: f"{spec.states[k]}|{spec.actions1[i]}|{spec.actions2[j]}"
    initial = [
        {
            "k": spec.states[k],
            "c": spec.signals1[c],
            "d": spec.signals2[d],
            "prob": float(spec.initial[k, c, d]),
        }
        for k, c, d in np.argwhere(spec.initial > 0.0)
    ]
    payoff = {
        key(k, i, j): float(spec.payoff[k, i, j])
        for k in range(spec.nK)
        for i in range(spec.nI)
        for j in range(spec.nJ)
    }
    transition = {}
    for k in range(spec.nK):
        for i in range(spec.nI):
            for j in range(spec.nJ):
                entries = [
                    {
                        "k": spec.states[kn],
                        "c": spec.signals1[c],
                        "d": spec.signals2[d],
                        "prob": float(spec.transition[k, i, j, kn, c, d]),
                    }
                    for kn, c, d in np.argwhere(spec.transition[k, i, j] > 0.0)
                ]
                transition[key(k, i, j)] = entries
    return {
        "states": list(spec.states),
        "actions1": list(spec.actions1),
        "actions2": list(spec.actions2),
        "signals1": list(spec.signals1),
        "signals2": list(spec.signals2),
        "initial": initial,
        "payoff": payoff,
        "transition": transition,
        "payoff_scale": spec.payoff_scale,
        "payoff_offset": spec.payoff_offset,
    }


def spec_from_json(doc: dict) -> RepeatedGameSpec:
    try:
        states = tuple(doc["states"])
        acts1 = tuple(doc["actions1"])
        acts2 = tuple(doc["actions2"])
        sig1 = tuple(doc["signals1"])
        sig2 = tuple(doc["signals2"])
    except KeyError as exc:
        raise SpecValidationError(f"missing top-level key: {exc}") from exc
    k_ix = {s: n for n, s in enumerate(states)}
    i_ix = {s: n for n, s in enumerate(acts1)}
    j_ix = {s: n for n, s in enumerate(acts2)}
    c_ix = {s: n for n, s in enumerate(sig1)}
    d_ix = {s: n for n, s in enumerate(sig2)}

    def lookup(table: dict, label: str, val: str) -> int:
        if val not in table:
            raise SpecValidationError(f"unknown {label} label {val!r}")
        return table[val]

    def add_entry(table: np.ndarray, where: str, entry) -> None:
        """Add one {k, c, d, prob} entry to the (..., K, C, D) table."""
        if not isinstance(entry, dict):
            raise SpecValidationError(f"{where} is not an object")
        missing = [key for key in ("k", "c", "d", "prob") if key not in entry]
        if missing:
            raise SpecValidationError(f"{where} lacks key {missing[0]!r}")
        try:
            prob = float(entry["prob"])
        except (TypeError, ValueError) as exc:
            raise SpecValidationError(
                f"{where} has non-numeric prob {entry['prob']!r}"
            ) from exc
        try:
            table[
                lookup(k_ix, "state", entry["k"]),
                lookup(c_ix, "signal1", entry["c"]),
                lookup(d_ix, "signal2", entry["d"]),
            ] += prob
        except SpecValidationError as exc:
            raise SpecValidationError(f"{where}: {exc}") from exc

    initial = np.zeros((len(states), len(sig1), len(sig2)))
    for n, entry in enumerate(doc.get("initial", [])):
        add_entry(initial, f"initial[{n}]", entry)

    payoff = np.zeros((len(states), len(acts1), len(acts2)))
    seen = np.zeros(payoff.shape, dtype=bool)
    for key, val in doc.get("payoff", {}).items():
        parts = key.split("|")
        if len(parts) != 3:
            raise SpecValidationError(f"payoff key {key!r} is not 'state|action1|action2'")
        k = lookup(k_ix, "state", parts[0])
        i = lookup(i_ix, "action1", parts[1])
        j = lookup(j_ix, "action2", parts[2])
        payoff[k, i, j] = float(val)
        seen[k, i, j] = True
    if not seen.all():
        k, i, j = np.argwhere(~seen)[0]
        raise SpecValidationError(
            f"payoff missing entry for {states[k]}|{acts1[i]}|{acts2[j]}"
        )

    transition = np.zeros(
        (len(states), len(acts1), len(acts2), len(states), len(sig1), len(sig2))
    )
    tdoc = doc.get("transition", {})
    for k in range(len(states)):
        for i in range(len(acts1)):
            for j in range(len(acts2)):
                key = f"{states[k]}|{acts1[i]}|{acts2[j]}"
                if key not in tdoc:
                    raise SpecValidationError(f"transition missing entry for {key}")
                for n, entry in enumerate(tdoc[key]):
                    add_entry(transition[k, i, j], f"transition[{key!r}][{n}]", entry)

    return RepeatedGameSpec(
        states=states,
        actions1=acts1,
        actions2=acts2,
        signals1=sig1,
        signals2=sig2,
        initial=initial,
        payoff=payoff,
        transition=transition,
        payoff_scale=float(doc.get("payoff_scale", 1.0)),
        payoff_offset=float(doc.get("payoff_offset", 0.0)),
    )


def load_spec(path) -> RepeatedGameSpec:
    with open(path) as fh:
        return spec_from_json(json.load(fh))


def save_spec(spec: RepeatedGameSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_json(spec), fh, indent=2)


# ---------------------------------------------------------------------------
# Derived belief-game arrays used by the value engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AuxGame:
    """Precomputed tensors of the belief game induced by a validated spec."""

    spec: RepeatedGameSpec
    qbar: np.ndarray  # (K, I, K, D)
    payoff: np.ndarray  # (K, I, J)
    pihat: BeliefMeasure

    @property
    def nK(self) -> int:
        return self.spec.nK

    @property
    def nI(self) -> int:
        return self.spec.nI

    @property
    def nJ(self) -> int:
        return self.spec.nJ

    @property
    def nD(self) -> int:
        return self.spec.nD

    def gbar(self, p: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Expected payoff against each pure opposing action: vector over j,
        or (R, J) for an (R, K) stack of beliefs with (R, K, I) actions."""
        return np.einsum("...k,...ki,kij->...j", p, a, self.payoff)

    def guaranteed_payoff(self, p: np.ndarray, a: np.ndarray) -> float:
        """Stage payoff secured at belief p by the stacked action a."""
        return float(np.min(self.gbar(p, a)))

    def state_signal_columns(self, p: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Unnormalized next-(state, signal2) table, shape (K, D)."""
        return np.einsum("k,ki,kind->nd", p, a, self.qbar)

    def belief_step(self, p: np.ndarray, a: np.ndarray) -> BeliefMeasure:
        return disintegrate(self.state_signal_columns(p, a))


def auxiliary_game(spec: RepeatedGameSpec) -> AuxGame:
    """Validate both structural hypotheses and precompute belief-game tensors."""
    ha = validate_ha_prime(spec)
    if not ha.holds:
        raise ValueError(
            f"player 1 is not informed (violation {ha.max_violation:.3e})"
        )
    qbar = _qbar(spec)
    return AuxGame(
        spec=spec,
        qbar=qbar,
        payoff=spec.payoff,
        pihat=initial_belief_measure(spec),
    )
