"""Command-line surface: exit codes, emissions, reproducibility."""

import json
import re

import numpy as np
import pytest

import rgsolve as rg
from rgsolve.cli import main

from conftest import AM_MATRICES, make_k1_spec


@pytest.fixture(scope="module")
def am_spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "am.json"
    spec = rg.build_aumann_maschler(AM_MATRICES, np.array([0.5, 0.5]))
    rg.save_spec(spec, path)
    return str(path)


@pytest.fixture(scope="module")
def k1_spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "k1.json"
    rg.save_spec(make_k1_spec(np.array([[1.0, 0.0], [0.0, 1.0]])), path)
    return str(path)


def strip_timestamp(text: str) -> str:
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', text)
    text = re.sub(r"# timestamp: .*", "# timestamp: X", text)
    text = re.sub(r'"wall_time_s": [0-9.e-]+', '"wall_time_s": 0', text)
    text = re.sub(r"# wall_time_s: .*", "# wall_time_s: 0", text)
    return text


def test_validate_am(am_spec_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", am_spec_file, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ha_prime"]["holds"] is True
    assert doc["hb_prime"]["holds"] is True
    assert doc["ha"]["holds"] is True
    assert doc["hb"]["holds"] is False
    assert doc["manifest"]["command"] == "validate"
    assert doc["manifest"]["input_sha256"]


def test_value_csv_and_reproducibility(am_spec_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["value", am_spec_file, "--n", "2", "--grid", "16", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())
    body = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "p0,p1,lower,upper"
    assert len(body) == 1 + 17  # header + grid rows
    assert any(
        l.startswith("# initial_measure_bounds:") for l in out1.read_text().splitlines()
    )


def test_value_theta_json(am_spec_file, tmp_path):
    out = tmp_path / "v.json"
    code = main(
        ["value", am_spec_file, "--theta", "1:0.5,2:0.5", "--grid", "16",
         "--emit", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    lo, hi = doc["initial_measure_bounds"]
    assert lo <= 0.375 + 1e-6 <= hi + 0.02


def test_uniform_k1_constant_table(k1_spec_file, tmp_path):
    out = tmp_path / "u.csv"
    code = main(
        ["uniform", k1_spec_file, "--max-m", "2", "--max-n", "2",
         "--w-guard", "0", "--out", str(out)]
    )
    assert code == 0
    rows = [
        l.split(",") for l in out.read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("m,")
    ]
    for _, _, lo, hi in rows:
        assert float(lo) == pytest.approx(0.5, abs=1e-6)
        assert float(hi) == pytest.approx(0.5, abs=1e-6)


def test_wvalue_json(am_spec_file, tmp_path):
    out = tmp_path / "w.json"
    code = main(
        ["wvalue", am_spec_file, "--m", "0", "--n", "2", "--theta-grid", "2",
         "--grid", "16", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["lower"] <= doc["upper"] + 1e-9
    assert doc["theta_star"]


@pytest.mark.parametrize(
    "spec, m, n, path",
    [("am", "0", "2", "exact"), ("k1", "4", "8", "lattice")],
    ids=["exact", "lattice"],
)
def test_wvalue_reports_path(am_spec_file, k1_spec_file, tmp_path, spec, m, n, path):
    # a one-state window through stage 12 is beyond the exact LP's reach
    out = tmp_path / "w.json"
    spec_file = am_spec_file if spec == "am" else k1_spec_file
    argv = ["wvalue", spec_file, "--m", m, "--n", n, "--theta-grid", "2", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["path"] == path
    if path == "exact":
        assert doc["lower"] == doc["upper"]
        assert (doc["sampled_measures"], doc["theta_cover"]) == (0, 0.0)
    else:
        assert doc["sampled_measures"] > 0 and doc["theta_cover"] > 0.0
        assert 0.0 <= doc["lower"] <= doc["upper"] <= 1.0
    assert sum(doc["theta_star"].values()) == pytest.approx(1.0)


def test_uniform_json_w_entries_report_path(am_spec_file, tmp_path):
    out = tmp_path / "u.json"
    argv = ["uniform", am_spec_file, "--max-m", "1", "--max-n", "2", "--w-guard", "1",
            "--grid", "16", "--emit", "json", "--out", str(out)]
    assert main(argv) == 0
    w = json.loads(out.read_text())["w"]
    assert set(w) == {"0,1", "1,1"}
    for cell in w.values():
        assert cell["path"] == "exact"
        assert cell["lower"] == cell["upper"]


def test_strategy_and_simulate_pipeline(am_spec_file, tmp_path):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    assert main(["strategy", am_spec_file, "--player", "1", "--n", "2",
                 "--grid", "8", "--out", str(p1)]) == 0
    assert main(["strategy", am_spec_file, "--player", "2", "--n", "2",
                 "--grid", "8", "--out", str(p2)]) == 0
    res = tmp_path / "stats.json"
    trace = tmp_path / "trace.csv"
    code = main(
        ["simulate", am_spec_file, "--p1", str(p1), "--p2", str(p2),
         "--horizon", "16", "--reps", "5", "--seed", "42",
         "--trace", str(trace), "--out", str(res)]
    )
    assert code == 0
    doc = json.loads(res.read_text())
    assert 0.0 <= doc["mean"] <= 1.0
    lines = trace.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "replication,stage,k,i,j,payoff"
    assert len(body) == 1 + 5 * 16
    assert any(l.startswith("# command: simulate") for l in lines)


def test_simulate_trace_rows_in_replication_then_stage_order(am_spec_file, tmp_path):
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    assert main(["strategy", am_spec_file, "--player", "1", "--n", "2",
                 "--grid", "8", "--out", str(p1)]) == 0
    assert main(["strategy", am_spec_file, "--player", "2", "--n", "2",
                 "--grid", "8", "--out", str(p2)]) == 0
    trace = tmp_path / "trace.csv"
    reps, horizon = 4, 7
    assert main(
        ["simulate", am_spec_file, "--p1", str(p1), "--p2", str(p2),
         "--horizon", str(horizon), "--reps", str(reps), "--seed", "5",
         "--trace", str(trace), "--out", str(tmp_path / "stats.json")]
    ) == 0
    body = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
    rows = [tuple(int(x) for x in line.split(",")[:2]) for line in body[1:]]
    assert len(rows) == reps * horizon
    assert rows == [(r, t) for r in range(reps) for t in range(1, horizon + 1)]


def test_strategy_growing_blocks(am_spec_file, tmp_path):
    out = tmp_path / "grow.json"
    code = main(["strategy", am_spec_file, "--player", "2", "--blocks", "growing",
                 "--max-block", "3", "--grid", "8", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schedule"] == [1, 2, 3]


def _manifest_config(text: str) -> dict:
    if text.startswith("{"):
        return json.loads(text)["manifest"]["config"]
    line = next(l for l in text.splitlines() if l.startswith("# config: "))
    return json.loads(line[len("# config: "):])


def _reported_grid(am_spec_file, argv, text) -> int:
    """The lattice resolution the command's own output shows it ran at."""
    if argv[0] == "oracle":
        # header, then one row per lattice point: resolution + 1 for two states
        return len([l for l in text.splitlines() if not l.startswith("#")]) - 2
    doc = json.loads(text)
    if argv[0] == "uniform":
        return doc["diagnostics"]["grid_resolution"]
    if argv[0] == "strategy":
        stage = doc["stages"][0] if doc["player"] == 1 else doc["blocks"][0][0]
        return len(stage["beliefs"]) - 1
    # wvalue: the value at the echoed resolution is the value it printed
    grid = doc["manifest"]["config"]["grid"]
    res = rg.w_mn(rg.load_spec(am_spec_file), 0, 1, resolution=grid)
    assert (doc["lower"], doc["upper"]) == (res.lower, res.upper)
    return grid


@pytest.mark.parametrize(
    "argv",
    [
        ["wvalue", "--m", "0", "--n", "1"],
        ["uniform", "--max-m", "1", "--max-n", "1", "--w-guard", "1", "--emit", "json"],
        ["strategy", "--player", "1", "--n", "1"],
        ["strategy", "--player", "2", "--n", "1"],
        ["strategy", "--player", "2", "--blocks", "growing", "--max-block", "2"],
        ["oracle", "cavu"],
    ],
    ids=["wvalue", "uniform", "strategy-1", "strategy-cyclic", "strategy-growing", "oracle"],
)
def test_manifest_echoes_the_resolution_that_ran(am_spec_file, tmp_path, argv):
    out = tmp_path / "out"
    cmd = argv[:2] if argv[0] == "oracle" else argv[:1]
    assert main(cmd + [am_spec_file] + argv[len(cmd):] + ["--out", str(out)]) == 0
    text = out.read_text()
    config = _manifest_config(text)
    assert isinstance(config["grid"], int)
    assert config["grid"] == _reported_grid(am_spec_file, argv, text)
    if "growing" in argv:
        assert config["max_block"] == 2 and "n" not in config


def test_oracle_cavu(am_spec_file, tmp_path):
    out = tmp_path / "cav.csv"
    code = main(["oracle", "cavu", am_spec_file, "--grid", "32", "--out", str(out)])
    assert code == 0
    rows = [
        l.split(",") for l in out.read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("p0")
    ]
    cav_by_p = {float(r[0]): float(r[3]) for r in rows}
    assert max(cav_by_p.values()) == pytest.approx(0.25, abs=1e-6)
    assert cav_by_p[0.5] == pytest.approx(0.25, abs=1e-6)


def test_oracle_cavu_one_state(tmp_path):
    # value 1 on the payoff scale of the spec, 1/2 after normalization
    spec = make_k1_spec(np.array([[3.0, -1.0], [-2.0, 4.0]]))
    path = tmp_path / "k1.json"
    rg.save_spec(spec, path)
    out = tmp_path / "cav.csv"
    code = main(["oracle", "cavu", str(path), "--out", str(out)])
    assert code == 0
    rows = [
        l.split(",") for l in out.read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("p0")
    ]
    assert len(rows) == 1
    p0, u, cav_u = map(float, rows[0])
    assert p0 == 1.0
    assert u == pytest.approx(1.0, abs=1e-9)
    assert cav_u == pytest.approx(1.0, abs=1e-9)


def test_oracle_rejects_moving_state(tmp_path):
    kernel = np.zeros((2, 2, 2))
    kernel[0, :, 1] = 1.0
    kernel[1, :, 0] = 1.0
    spec = rg.build_markov_chain_game(AM_MATRICES, kernel, np.array([0.5, 0.5]))
    path = tmp_path / "mc.json"
    rg.save_spec(spec, path)
    code = main(["oracle", "cavu", str(path)])
    assert code == 2


def test_two_stdout_commands_in_one_process(am_spec_file, capsys):
    # the first command must leave standard output open for the second
    for _ in range(2):
        assert main(["validate", am_spec_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["command"] == "validate"


def test_unknown_subcommand_flag_exits_nonzero(am_spec_file):
    assert main(["value", am_spec_file, "--bogus"]) != 0


def test_schema_violation_message(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"states": ["k0"]}))
    code = main(["validate", str(bad)])
    assert code == 2
    assert "missing top-level key" in capsys.readouterr().err


def test_spec_entry_error_names_the_entry(am_spec_file, tmp_path, capsys):
    doc = json.loads(open(am_spec_file).read())
    del doc["initial"][1]["prob"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "initial[1] lacks key 'prob'" in err


def test_simulate_wrong_strategy_files(am_spec_file, tmp_path):
    p2 = tmp_path / "p2.json"
    assert main(["strategy", am_spec_file, "--player", "2", "--n", "1",
                 "--grid", "8", "--out", str(p2)]) == 0
    code = main(
        ["simulate", am_spec_file, "--p1", str(p2), "--p2", str(p2),
         "--horizon", "4", "--reps", "2"]
    )
    assert code == 2


def test_jobs_flag_is_gone(am_spec_file, capsys):
    # sweeps run in one thread; the flag that selected a thread pool is removed
    assert main(["value", am_spec_file, "--n", "2", "--grid", "8", "--jobs", "4"]) == 2
    assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err


@pytest.fixture(scope="module")
def strategy_files(am_spec_file, tmp_path_factory):
    d = tmp_path_factory.mktemp("strategies")
    for player in ("1", "2"):
        assert main(["strategy", am_spec_file, "--player", player, "--n", "2",
                     "--grid", "8", "--out", str(d / f"p{player}.json")]) == 0
    return str(d / "p1.json"), str(d / "p2.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["value", "{spec}", "--n", "2", "--grid", "0"], "resolution"),
        (["oracle", "cavu", "{spec}", "--grid", "0"], "resolution"),
        (["wvalue", "{spec}", "--m", "0", "--n", "0"], "n must be at least 1"),
        (["uniform", "{spec}", "--max-m", "-1"], "max_m must be at least 0"),
        (["uniform", "{spec}", "--max-n", "0"], "max_n must be at least 1"),
        (["strategy", "{spec}", "--player", "2", "--blocks", "growing", "--max-block", "0"],
         "max_block must be at least 1"),
        (["simulate", "{spec}", "--p1", "{p1}", "--p2", "{p2}", "--horizon", "4",
          "--reps", "2", "--seed", "-1"], "seed must lie in"),
        (["value", "{spec}", "--theta", "1:0.5,2"], "--theta entry '2'"),
    ],
    ids=["value-grid", "oracle-grid", "wvalue-n", "uniform-max-m", "uniform-max-n",
         "growing-max-block", "simulate-seed", "theta-entry"],
)
def test_bad_input_is_one_error_line(am_spec_file, strategy_files, capsys, argv, message):
    p1, p2 = strategy_files
    argv = [a.format(spec=am_spec_file, p1=p1, p2=p2) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_lp_failure_is_an_error_line(am_spec_file, capsys, monkeypatch):
    from scipy.optimize._highspy import _core as highs_core

    monkeypatch.setattr(
        highs_core._Highs, "run", lambda self: highs_core.HighsStatus.kError
    )
    assert main(["value", am_spec_file, "--n", "2", "--grid", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "belief" in err and "Traceback" not in err
