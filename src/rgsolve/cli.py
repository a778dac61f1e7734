"""Command-line interface: validate specs, run solvers, emit tables.

Every output embeds a run manifest (command, input hash, config echo,
tool version, wall time); re-running with identical inputs and seed is
byte-identical apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .game_model import (
    auxiliary_game,
    load_spec,
    validate_ha,
    validate_ha_prime,
    validate_hb,
    validate_hb_prime,
)
from .lp import LPError
from .simulator import PlayoutConfig, simulate
from .strategies import (
    build_p2_cyclic,
    build_p2_growing,
    cavu_oracle,
    extract_p1_markov,
    load_strategy,
)
from .values import (
    ThetaWeights,
    evaluate_measure,
    uniform_value_estimate,
    value_mn,
    value_theta_grid,
    w_mn,
)


class CliError(Exception):
    pass


def _manifest(command: str, spec_path: str | None, config: dict, started: float) -> dict:
    digest = None
    if spec_path:
        with open(spec_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "command": command,
        "input_sha256": digest,
        "config": config,
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit_json(doc: dict, out) -> None:
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")


def _emit_csv(manifest: dict, header: list[str], rows: list, out) -> None:
    for key in ("command", "input_sha256", "tool_version", "wall_time_s", "timestamp"):
        out.write(f"# {key}: {manifest[key]}\n")
    out.write(f"# config: {json.dumps(manifest['config'], sort_keys=True)}\n")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


def _open_out(path: str | None):
    # standard output stays open when the with-block ends
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def _parse_theta(text: str) -> ThetaWeights:
    mapping = {}
    for part in text.split(","):
        t, w = part.split(":")
        mapping[int(t)] = float(w)
    return ThetaWeights.from_map(mapping)


def _report_payload(report) -> dict:
    return {
        "holds": report.holds,
        "max_violation": report.max_violation,
        "witness": _jsonable(report.witness),
    }


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def cmd_validate(args) -> int:
    started = time.monotonic()
    spec = load_spec(args.spec)
    doc = {
        "ha_prime": _report_payload(validate_ha_prime(spec)),
        "hb_prime": _report_payload(validate_hb_prime(spec)),
        "ha": _report_payload(validate_ha(spec)),
        "hb": _report_payload(validate_hb(spec)),
    }
    doc["manifest"] = _manifest("validate", args.spec, {}, started)
    with _open_out(args.out) as out:
        _emit_json(doc, out)
    return 0


def cmd_value(args) -> int:
    started = time.monotonic()
    spec = load_spec(args.spec)
    aux = auxiliary_game(spec)
    if args.theta:
        vg = value_theta_grid(aux, _parse_theta(args.theta), args.grid)
        label = {"theta": args.theta}
    else:
        if args.n is None:
            raise CliError("provide --n or --theta")
        vg = value_mn(aux, args.m, args.n, args.grid)
        label = {"m": args.m, "n": args.n}
    lo, hi = evaluate_measure(vg, aux.pihat)
    config = {**label, "grid": vg.meta["resolution"]}
    manifest = _manifest("value", args.spec, config, started)
    if args.emit == "json":
        doc = {
            "manifest": manifest,
            "initial_measure": aux.pihat.to_json(),
            "initial_measure_bounds": [lo, hi],
            "grid_points": vg.grid.points.tolist(),
            "lower": vg.lower.tolist(),
            "upper": vg.upper.tolist(),
            "gap": vg.gap,
        }
        with _open_out(args.out) as out:
            _emit_json(doc, out)
    else:
        header = [f"p{k}" for k in range(vg.grid.dim)] + ["lower", "upper"]
        rows = [
            list(map(float, pt)) + [float(l), float(u)]
            for pt, l, u in zip(vg.grid.points, vg.lower, vg.upper)
        ]
        with _open_out(args.out) as out:
            _emit_csv(manifest, header, rows, out)
            out.write(f"# initial_measure_bounds: {lo} {hi}\n")
    return 0


def cmd_wvalue(args) -> int:
    started = time.monotonic()
    spec = load_spec(args.spec)
    aux = auxiliary_game(spec)
    res = w_mn(
        aux,
        args.m,
        args.n,
        resolution=args.grid,
        theta_resolution=args.theta_grid,
        guard=max(args.n, 4),
    )
    config = {"m": args.m, "n": args.n, "theta_grid": args.theta_grid, "grid": args.grid}
    doc = {
        "manifest": _manifest("wvalue", args.spec, config, started),
        "lower": res.lower,
        "upper": res.upper,
        "theta_star": {str(t): w for t, w in res.theta_star.as_map().items()},
        "sampled_measures": res.sampled,
        "theta_cover": res.theta_cover,
    }
    with _open_out(args.out) as out:
        _emit_json(doc, out)
    return 0


def cmd_uniform(args) -> int:
    started = time.monotonic()
    spec = load_spec(args.spec)
    aux = auxiliary_game(spec)
    report = uniform_value_estimate(
        aux,
        max_m=args.max_m,
        max_n=args.max_n,
        resolution=args.grid,
        w_guard=args.w_guard,
    )
    config = {
        "max_m": args.max_m,
        "max_n": args.max_n,
        "grid": args.grid,
        "w_guard": args.w_guard,
    }
    manifest = _manifest("uniform", args.spec, config, started)
    if args.emit == "json":
        doc = {"manifest": manifest, **report.to_json()}
        with _open_out(args.out) as out:
            _emit_json(doc, out)
    else:
        rows = [[m, n, lo, hi] for m, n, lo, hi in report.rows()]
        with _open_out(args.out) as out:
            _emit_csv(manifest, ["m", "n", "lower", "upper"], rows, out)
            out.write(
                f"# infsup: [{report.infsup_lower}, {report.infsup_upper}]\n"
                f"# supinf: [{report.supinf_lower}, {report.supinf_upper}]\n"
            )
    return 0


def cmd_strategy(args) -> int:
    started = time.monotonic()
    spec = load_spec(args.spec)
    aux = auxiliary_game(spec)
    if args.player == 1:
        strategy = extract_p1_markov(aux, n=args.n, resolution=args.grid)
    elif args.blocks == "growing":
        strategy = build_p2_growing(aux, resolution=args.grid, max_block=args.max_block)
    else:
        strategy = build_p2_cyclic(aux, args.n, resolution=args.grid)
    doc = strategy.to_json()
    doc["manifest"] = _manifest(
        "strategy",
        args.spec,
        {"player": args.player, "n": args.n, "blocks": args.blocks, "grid": args.grid},
        started,
    )
    with _open_out(args.out) as out:
        _emit_json(doc, out)
    return 0


def cmd_simulate(args) -> int:
    started = time.monotonic()
    spec = load_spec(args.spec)
    aux = auxiliary_game(spec)
    sigma = load_strategy(args.p1)
    tau = load_strategy(args.p2)
    if not hasattr(sigma, "stacked_action"):
        raise CliError("--p1 file must hold a player-1 strategy")
    if not hasattr(tau, "mixture"):
        raise CliError("--p2 file must hold a player-2 strategy")
    config = PlayoutConfig(horizon=args.horizon, replications=args.reps, seed=args.seed)
    trace: list | None = [] if args.trace else None
    stats = simulate(aux, sigma, tau, config, trace=trace)
    manifest = _manifest(
        "simulate",
        args.spec,
        {
            "p1": os.path.basename(args.p1),
            "p2": os.path.basename(args.p2),
            "horizon": args.horizon,
            "reps": args.reps,
            "seed": args.seed,
        },
        started,
    )
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            _emit_csv(
                manifest, ["replication", "stage", "k", "i", "j", "payoff"], trace, fh
            )
    doc = {"manifest": manifest, **stats.to_json()}
    with _open_out(args.out) as out:
        _emit_json(doc, out)
    return 0


def cmd_oracle(args) -> int:
    started = time.monotonic()
    if args.oracle != "cavu":
        raise CliError(f"unknown oracle {args.oracle!r}")
    spec = load_spec(args.spec)
    kept = spec.transition.sum(axis=(4, 5))  # (K, I, J, K)
    for k in range(spec.nK):
        off_diag = kept[k].sum() - kept[k, :, :, k].sum()
        if off_diag > 1e-9:
            raise CliError(
                "oracle cavu needs a fixed-state game; this spec moves the state "
                f"(state {spec.states[k]} leaks {off_diag:.3e} mass)"
            )
    matrices = [
        spec.payoff[k] * spec.payoff_scale + spec.payoff_offset for k in range(spec.nK)
    ]
    oracle = cavu_oracle(matrices, resolution=args.grid or 64)
    manifest = _manifest("oracle", args.spec, {"oracle": "cavu", "grid": args.grid}, started)
    header = [f"p{k}" for k in range(spec.nK)] + ["u", "cav_u"]
    rows = [
        list(map(float, pt)) + [float(uv), float(oracle.cav(pt))]
        for pt, uv in zip(oracle.points, oracle.u_values)
    ]
    with _open_out(args.out) as out:
        _emit_csv(manifest, header, rows, out)
        out.write(f"# interpolation_error_bound: {oracle.error_bound}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgs",
        description="Zero-sum repeated games with an informed controller: "
        "validation, certified values, strategies, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"rgs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=True):
        p.add_argument("spec", help="game spec JSON file")
        p.add_argument("--out", help="output path (default stdout)")
        if grid:
            p.add_argument("--grid", type=int, default=None, help="lattice resolution")

    p = sub.add_parser("validate", help="hypothesis reports")
    common(p, grid=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("value", help="certified value bounds")
    common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--theta", help="stage weights t1:w1,t2:w2,...")
    p.add_argument("--emit", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("wvalue", help="prefix-guarantee value bounds")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-grid", type=int, default=4, dest="theta_grid")
    p.set_defaults(func=cmd_wvalue)

    p = sub.add_parser("uniform", help="windowed uniform-value estimate")
    common(p)
    p.add_argument("--max-m", type=int, default=8, dest="max_m")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--w-guard", type=int, default=3, dest="w_guard")
    p.add_argument("--emit", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_uniform)

    p = sub.add_parser("strategy", help="extract and serialize a strategy")
    common(p)
    p.add_argument("--player", type=int, choices=[1, 2], required=True)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--blocks", choices=["cyclic", "growing"], default="cyclic")
    p.add_argument("--max-block", type=int, default=8, dest="max_block")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("simulate", help="seeded Monte Carlo playout")
    common(p, grid=False)
    p.add_argument("--p1", required=True, help="player-1 strategy JSON")
    p.add_argument("--p2", required=True, help="player-2 strategy JSON")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write per-stage CSV trace to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="independent oracles for subclasses")
    p.add_argument("oracle", choices=["cavu"])
    common(p)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, LPError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
