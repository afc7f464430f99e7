import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from empcharge import cli
from empcharge.cli import _synthesis_objects, main
from empcharge.regions import coverage_check, import_table

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
TWO_SEGMENTS = [[0.20, 0.50, 0.39], [0.50, 0.90, 0.90]]


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def synth_config(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    return _write(d / "synth.json", {
        "version": 1,
        "breakpoints": TWO_SEGMENTS,
        "coverage_samples": 2000,
    })


@pytest.fixture(scope="module")
def tables_dir(tmp_path_factory, synth_config):
    out = tmp_path_factory.mktemp("tables")
    rc = main(["synthesize", "--config", synth_config,
               "--out-dir", str(out)])
    assert rc == 0
    return out


def test_synthesize_outputs(tables_dir):
    for i in (1, 2):
        assert (tables_dir / f"table_seg{i}.json").exists()
        assert (tables_dir / f"table_seg{i}.bin").exists()
    assert (tables_dir / "segments.json").exists()
    report = json.loads((tables_dir / "synthesis_report.json").read_text())
    assert len(report["segments"]) == 2
    for seg in report["segments"]:
        assert seg["coverage"] == pytest.approx(1.0, abs=1e-6)
        assert seg["n_regions"] >= 1
        assert seg["candidates"] == (seg["pruned_rank"]
                                     + seg["empty_interior"]
                                     + seg["n_regions"])
        assert seg["chebyshev_lps"] == seg["candidates"] - seg["pruned_rank"]
        assert seg["chebyshev_lp_calls"] == (seg["chebyshev_lps"] > 0)
        assert seg["wall_s"] > 0
    assert report["total_stored_reals"] > 0


def test_run_qp_scenario(tmp_path):
    cfg = _write(tmp_path / "s.json", {
        "version": 1,
        "name": "tiny",
        "controller": "qp",
    })
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    summary = json.loads((out / "tiny_summary.json").read_text())
    assert summary["completed"] is True
    assert summary["max_terminal_voltage"] <= 4.2 + 1e-9
    trace = (out / "tiny_trace.csv").read_text().splitlines()
    assert trace[0].startswith("step,time_s,Vb,Vs,I,V,SoC")
    assert len(trace) == summary["charging_steps"] + 1
    assert 0 < summary["step_ns_p50"] <= summary["step_ns_max"]


def test_run_incomplete_exit_code(tmp_path):
    cfg = _write(tmp_path / "s.json", {
        "version": 1,
        "name": "short",
        "controller": "qp",
        "step_budget": 5,
    })
    rc = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 2


def test_run_empc_from_tables(tmp_path, tables_dir):
    cfg = _write(tmp_path / "s.json", {
        "version": 1,
        "name": "fromtab",
        "controller": "empc",
        "synthesis": {"version": 1, "breakpoints": TWO_SEGMENTS},
        "tables_dir": str(tables_dir),
    })
    rc = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 0


def test_verify_tables(tmp_path, synth_config, tables_dir, capsys):
    rc = main(["verify", "--config", synth_config,
               "--tables", str(tables_dir), "--samples", "50"])
    assert rc == 0
    *per_segment, last = capsys.readouterr().out.splitlines()
    worst = []
    for i, line in enumerate(per_segment, start=1):
        head, err = line.split(", worst error ")
        assert head == f"segment {i}: 50 points"
        worst.append(float(err))
    assert len(worst) == len(TWO_SEGMENTS)
    assert last == f"verify ok: 100 points, worst error {max(worst):.3e}"


def test_verify_gives_up_on_infeasible_box(tmp_path, tables_dir, capsys):
    cfg = _write(tmp_path / "synth.json", {
        "version": 1,
        "breakpoints": TWO_SEGMENTS,
        "theta_box": [[0.99, 1], [0.99, 1], [2.9, 3], [0.2, 1], [2.9, 3]],
    })
    rc = main(["verify", "--config", cfg, "--tables", str(tables_dir),
               "--samples", "3"])
    assert rc == 4
    assert "only 0 of 3 theta feasible in 300 draws" in capsys.readouterr().err


def test_reported_coverage_is_of_exported_table(tmp_path):
    # the rounded tables are what verify and run load, so the report's
    # coverage must be theirs, within their coarser locate_tol
    config = CONFIGS / "synthesis_rounded.json"
    out = tmp_path / "out"
    assert main(["synthesize", "--config", str(config),
                 "--out-dir", str(out)]) == 0
    doc = json.loads(config.read_text())
    _, _, _, _, problems = _synthesis_objects(doc)
    report = json.loads((out / "synthesis_report.json").read_text())
    assert len(report["segments"]) == len(problems)
    for seg, prob in zip(report["segments"], problems):
        table = import_table(out / f"table_seg{seg['index']}.json")
        assert table.locate_tol > 1e-9
        cov = coverage_check(table, prob,
                             n_samples=doc.get("coverage_samples", 20000),
                             seed=1)
        assert seg["coverage"] == cov == 1.0


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_rejects_no_samples(synth_config, tables_dir, samples):
    assert main(["verify", "--config", synth_config,
                 "--tables", str(tables_dir), "--samples", samples]) == 3


@pytest.mark.parametrize("keep", [20, 100, -8])
def test_export_truncated_binary_table(tmp_path, tables_dir, keep, capsys):
    raw = (tables_dir / "table_seg1.bin").read_bytes()
    bad = tmp_path / "t.bin"
    bad.write_bytes(raw[:keep])
    rc = main(["export-table", str(bad), "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "cannot read region table" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_export_missing_table(tmp_path):
    rc = main(["export-table", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "t.json")])
    assert rc == 3


def test_malformed_tables_dir(tmp_path, synth_config, tables_dir):
    bad = tmp_path / "bad"
    bad.mkdir()
    for i in (1, 2):
        doc = json.loads((tables_dir / f"table_seg{i}.json").read_text())
        if i == 2:
            del doc["Nu"]
        (bad / f"table_seg{i}.json").write_text(json.dumps(doc))
    scenario = _write(tmp_path / "s.json", {
        "version": 1, "name": "bad", "controller": "empc",
        "synthesis": {"version": 1, "breakpoints": TWO_SEGMENTS},
        "tables_dir": str(bad),
    })
    for tables in (bad, tmp_path / "missing"):
        assert main(["verify", "--config", synth_config,
                     "--tables", str(tables), "--samples", "5"]) == 3
    assert main(["run", "--config", scenario,
                 "--out-dir", str(tmp_path / "out")]) == 3


def test_run_rejects_non_finite_table(tmp_path, tables_dir, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    for i in (1, 2):
        doc = json.loads((tables_dir / f"table_seg{i}.json").read_text())
        if i == 1:
            doc["regions"][0]["K"][0][0] = float("nan")
        (bad / f"table_seg{i}.json").write_text(json.dumps(doc))
    scenario = _write(tmp_path / "s.json", {
        "version": 1, "name": "nan", "controller": "empc",
        "synthesis": {"version": 1, "breakpoints": TWO_SEGMENTS},
        "tables_dir": str(bad),
    })
    assert main(["run", "--config", scenario,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert "table_seg1.json" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_export_table_round_trip(tmp_path, tables_dir):
    src = str(tables_dir / "table_seg1.json")
    out_bin = tmp_path / "t.bin"
    rc = main(["export-table", src, "--out", str(out_bin)])
    assert rc == 0
    out_round = tmp_path / "t3.json"
    rc = main(["export-table", str(out_bin), "--out", str(out_round),
               "--round-decimals", "3"])
    assert rc == 0
    doc = json.loads(out_round.read_text())
    assert doc["format"] == "empc-table"
    assert doc["locate_tol"] >= 0.5e-3


def test_unknown_config_key(tmp_path):
    cfg = _write(tmp_path / "bad.json", {"version": 1, "bogus": 1})
    rc = main(["synthesize", "--config", cfg,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3


def test_bad_version(tmp_path):
    cfg = _write(tmp_path / "bad.json", {"version": 2})
    rc = main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 3


def test_bad_mpc_config(tmp_path):
    cfg = _write(tmp_path / "bad.json", {
        "version": 1, "mpc": {"N": 2, "Nu": 5},
    })
    rc = main(["synthesize", "--config", cfg,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 3


def test_bench(tmp_path):
    scen = _write(tmp_path / "scen.json", {
        "version": 1,
        "name": "benchcase",
        "controller": "qp",
        "step_budget": 20,
        "stop_at_target": False,
    })
    cfg = _write(tmp_path / "bench.json", {
        "version": 1,
        "scenarios": [scen],
    })
    out = tmp_path / "out"
    rc = main(["bench", "--config", cfg, "--out-dir", str(out),
               "--repeats", "2"])
    assert rc == 0
    report = json.loads((out / "bench_report.json").read_text())
    entry = report["entries"][0]
    assert entry["repeats"] == 2
    assert entry["mean_step_ns"] > 0
    assert (entry["step_ns_p50"] <= entry["step_ns_p95"]
            <= entry["step_ns_p99"] <= entry["max_step_ns"])


def test_bench_without_scenarios(tmp_path):
    cfg = _write(tmp_path / "bench.json", {"version": 1, "repeats": 2})
    rc = main(["bench", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 3


@pytest.fixture(scope="module")
def nu5_tables(tmp_path_factory):
    d = tmp_path_factory.mktemp("nu5")
    cfg = _write(d / "synth.json", {"version": 1, "breakpoints": TWO_SEGMENTS,
                                    "mpc": {"Nu": 5}, "coverage_samples": 200})
    assert main(["synthesize", "--config", cfg, "--out-dir", str(d)]) == 0
    return d


def _json_table(tables_dir, **changes) -> bytes:
    """Segment 1's JSON table with top-level keys, or region 0's when a
    key starts with region0_, replaced."""
    doc = json.loads((tables_dir / "table_seg1.json").read_text())
    for key, value in changes.items():
        where = doc["regions"][0] if key.startswith("region0_") else doc
        where[key.removeprefix("region0_")] = value
    return json.dumps(doc).encode()


def _bad_tables(tables_dir) -> dict[str, bytes]:
    """Segment 1's table, malformed in one way each: 8 trailing bytes, a
    header that announces 1 of its regions, a JSON theta_dim of 4, a
    header that announces -1 regions and nothing after the theta box, a
    fractional segment index, and a fractional and a negative active-set
    row."""
    raw = (tables_dir / "table_seg1.bin").read_bytes()
    assert int.from_bytes(raw[20:24], "little") > 1  # header's n_regions
    minus_one = (-1).to_bytes(4, "little", signed=True)
    return {"trailing.bin": raw + bytes(8),
            "one_region.bin": raw[:20] + (1).to_bytes(4, "little") + raw[24:],
            "theta_dim4.json": _json_table(tables_dir, theta_dim=4),
            "minus_one_region.bin": raw[:20] + minus_one + raw[24:112],
            "segment_1.9.json": _json_table(tables_dir, segment_index=1.9),
            "active_set_0.7_-3.json": _json_table(
                tables_dir, region0_active_set=[0.7, -3])}


@pytest.mark.parametrize("name", ["trailing.bin", "one_region.bin",
                                  "theta_dim4.json", "minus_one_region.bin",
                                  "segment_1.9.json",
                                  "active_set_0.7_-3.json"])
def test_export_rejects_malformed_table(tmp_path, tables_dir, name, capsys):
    bad = tmp_path / name
    bad.write_bytes(_bad_tables(tables_dir)[name])
    rc = main(["export-table", str(bad), "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "cannot read region table" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_tables_for_another_nu(tmp_path, synth_config, nu5_tables, capsys):
    scenario = _write(tmp_path / "s.json", {
        "version": 1, "name": "nu", "controller": "empc",
        "synthesis": {"version": 1, "breakpoints": TWO_SEGMENTS},
        "tables_dir": str(nu5_tables),
    })
    assert main(["run", "--config", scenario,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert main(["verify", "--config", synth_config,
                 "--tables", str(nu5_tables), "--samples", "5"]) == 3
    assert "Nu=5; expected segment 1, Nu=2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tables_with_a_row_past_the_config(tmp_path, synth_config,
                                           tables_dir, capsys):
    """A stored active set may name only rows the config's problem has."""
    *_, problems = _synthesis_objects(json.loads(
        Path(synth_config).read_text()))
    m = len(problems[0].W)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "table_seg1.json").write_bytes(
        _json_table(tables_dir, region0_active_set=[m]))
    (bad / "table_seg2.json").write_bytes(
        (tables_dir / "table_seg2.json").read_bytes())
    scenario = _write(tmp_path / "s.json", {
        "version": 1, "name": "rows", "controller": "empc",
        "synthesis": {"version": 1, "breakpoints": TWO_SEGMENTS},
        "tables_dir": str(bad),
    })
    assert main(["verify", "--config", synth_config,
                 "--tables", str(bad), "--samples", "5"]) == 3
    assert main(["run", "--config", scenario,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert f"active-set row {m}; the config has {m}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _argv(command, config, tmp_path):
    if command == "verify":
        return [command, "--config", config, "--tables", str(tmp_path)]
    return [command, "--config", config, "--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["synthesize", "run", "bench", "verify"])
@pytest.mark.parametrize("text", [None, '{"version": 1,'],
                         ids=["missing", "cut"])
def test_unreadable_config(tmp_path, command, text):
    cfg = tmp_path / "c.json"
    if text is not None:
        cfg.write_text(text)
    assert main(_argv(command, str(cfg), tmp_path)) == 3


@pytest.mark.parametrize("command", ["run", "verify"])
def test_invalid_synthesis_block(tmp_path, command):
    syn = {"version": 1, "mpc": {"Nu": 0}}
    doc = syn if command == "verify" else {"version": 1, "synthesis": syn,
                                           "controller": "qp"}
    cfg = _write(tmp_path / "c.json", doc)
    assert main(_argv(command, cfg, tmp_path)) == 3


@pytest.mark.parametrize("key, value", [
    ("feedback", "foo"), ("controller", "foo"), ("nmpc_max_iters", 0),
    ("step_budget", "abc")])
def test_invalid_run_value(tmp_path, key, value):
    cfg = _write(tmp_path / "s.json", {"version": 1, "controller": "qp",
                                       key: value})
    assert main(["run", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("feedback", "foo"), ("nmpc_max_iters", 0), ("step_budget", 0),
    ("seed", -1), ("soc_start", 1e300), ("soc_start", -5.0),
    ("soc_target", 1.5)])
def test_run_values_checked_before_synthesis(tmp_path, monkeypatch, key,
                                             value):
    """An eMPC scenario without tables_dir synthesizes its tables in
    process; a bad run value exits 3 before any segment is explored."""
    explored = []
    monkeypatch.setattr(cli, "explore",
                        lambda *a, **kw: explored.append(a) or None)
    cfg = _write(tmp_path / "s.json", {"version": 1, "controller": "empc",
                                       key: value})
    assert main(["run", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert explored == []


def test_removed_nmpc_max_iters_key_exits_3_before_tables(tmp_path,
                                                         monkeypatch,
                                                         tables_dir, capsys):
    """An NMPC step solves one QP, so no scenario key sets a count of
    them: nmpc_max_iters is an unknown key, rejected before any table is
    read or synthesized."""
    touched = []
    monkeypatch.setattr(cli, "explore",
                        lambda *a, **kw: touched.append(a) or None)
    monkeypatch.setattr(cli, "import_table",
                        lambda *a, **kw: touched.append(a) or None)
    cfg = _write(tmp_path / "s.json", {
        "version": 1, "controller": "empc", "tables_dir": str(tables_dir),
        "nmpc_max_iters": 10})
    assert main(["run", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert "unknown keys ['nmpc_max_iters']" in capsys.readouterr().err
    assert touched == []
    assert not (tmp_path / "out").exists()


def test_bench_checks_every_scenario_before_charging(tmp_path, monkeypatch):
    charges = []
    monkeypatch.setattr(cli, "run_closed_loop",
                        lambda setup: charges.append(setup))
    good = _write(tmp_path / "good.json", {"version": 1, "controller": "qp",
                                           "step_budget": 3})
    bad = _write(tmp_path / "bad.json", {"version": 1, "controller": "qp",
                                         "step_budget": 0})
    cfg = _write(tmp_path / "bench.json", {"version": 1, "repeats": 5,
                                           "scenarios": [good, bad]})
    assert main(["bench", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert charges == []


@pytest.mark.parametrize("repeats", [0, -1])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_bench_rejects_no_repeats(tmp_path, repeats, where):
    scen = _write(tmp_path / "scen.json", {"version": 1, "controller": "qp",
                                           "step_budget": 3})
    doc = {"version": 1, "scenarios": [scen]}
    flag = ["--repeats", str(repeats)] if where == "flag" else []
    if where == "config":
        doc["repeats"] = repeats
    cfg = _write(tmp_path / "bench.json", doc)
    assert main(["bench", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")] + flag) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("step_budget", [0, -3])
def test_bench_rejects_no_steps(tmp_path, step_budget):
    scen = _write(tmp_path / "scen.json", {"version": 1, "controller": "qp",
                                           "step_budget": step_budget})
    cfg = _write(tmp_path / "bench.json", {"version": 1,
                                           "scenarios": [scen]})
    assert main(["bench", "--config", cfg, "--out-dir",
                 str(tmp_path / "out"), "--repeats", "2"]) == 3
    assert not (tmp_path / "out").exists()


def _synth(**values):
    return {"version": 1, "breakpoints": TWO_SEGMENTS,
            "coverage_samples": 200, **values}


def _scenario(**values):
    return {"version": 1, "controller": "qp", **values}


def _with_literal(doc, key, literal):
    """doc as JSON text, with key's value spelled as literal."""
    return json.dumps(doc)[:-1] + f', "{key}": {literal}}}'


# command, config (a dict, JSON text, or None for none), extra arguments;
# every one is an input fault: exit 3, a config error line, nothing written
BAD_INPUTS = {
    # config values are read as the JSON types they are, with no casts
    "stop_at_target_string": ("run", _scenario(stop_at_target="false"), []),
    "noise_string": ("run", _scenario(noise="no"), []),
    "step_budget_float": ("run", _scenario(step_budget=3.9), []),
    "step_budget_0": ("run", _scenario(step_budget=0), []),
    "step_budget_-3": ("run", _scenario(step_budget=-3), []),
    "soc_start_1e300": ("run", _scenario(soc_start=1e300), []),
    "soc_start_-5": ("run", _scenario(soc_start=-5.0), []),
    "soc_target_1.5": ("run", _scenario(soc_target=1.5), []),
    "soc_target_-0.1": ("run", _scenario(soc_target=-0.1), []),
    "gamma1_string": ("synthesize", _synth(gamma1="-0.04"), []),
    "params_string": ("synthesize", _synth(params={"Cb": "9913"}), []),
    "mpc_Nc_eta_true": ("synthesize", _synth(mpc={"Nc_eta": True}), []),
    "gamma2_NaN": ("synthesize", _with_literal(_synth(), "gamma2", "NaN"),
                   []),
    "gamma2_Infinity": ("synthesize",
                        _with_literal(_synth(), "gamma2", "Infinity"), []),
    "gamma2_-Infinity": ("synthesize",
                         _with_literal(_synth(), "gamma2", "-Infinity"), []),
    "gamma2_overflow": ("synthesize",
                        _with_literal(_synth(), "gamma2", "1e999"), []),
    # malformed synthesis inputs
    "synthesis_list": ("run", _scenario(synthesis=[]), []),
    "synthesis_version_7": ("run", _scenario(step_budget=3,
                                             synthesis={"version": 7}), []),
    "params_list": ("synthesize", _synth(params=[]), []),
    "theta_box_1x2": ("synthesize", _synth(theta_box=[[0, 1]]), []),
    "theta_box_lo_above_hi": ("synthesize", _synth(theta_box=[[1, 0]] * 5),
                              []),
    "coverage_samples_0": ("synthesize", _synth(coverage_samples=0), []),
    "coverage_samples_string": ("synthesize",
                                _synth(coverage_samples="abc"), []),
    "round_decimals_309": ("synthesize", _synth(round_decimals=309), []),
    "round_decimals_-1": ("synthesize", _synth(round_decimals=-1), []),
    "export_round_decimals_309": ("export-table", None,
                                  ["--round-decimals", "309"]),
    "export_round_decimals_-1": ("export-table", None,
                                 ["--round-decimals", "-1"]),
    "config_seed_-1": ("synthesize", _synth(seed=-1), []),
    "config_seed_string": ("synthesize", _synth(seed="x"), []),
    "synthesize_flag_seed_-2": ("synthesize", _synth(), ["--seed", "-2"]),
    "run_flag_seed_-1": ("run", _scenario(), ["--seed", "-1"]),
    "scenario_seed_-1": ("run", _scenario(seed=-1), []),
    "verify_flag_seed_-1": ("verify", _synth(), ["--seed", "-1"]),
    "verify_tol_nan": ("verify", _synth(), ["--tol", "nan"]),
    "verify_tol_-1": ("verify", _synth(), ["--tol", "-1"]),
    # usage errors
    "run_flag_seed_abc": ("run", _scenario(), ["--seed", "abc"]),
    "run_without_config": ("run", None, []),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_3(tmp_path, tables_dir, capsys, case):
    command, doc, extra = BAD_INPUTS[case]
    out = tmp_path / "out"
    argv = [command]
    if doc is not None:
        cfg = tmp_path / "c.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        argv += ["--config", str(cfg)]
    if command == "verify":
        argv += ["--tables", str(tables_dir), "--samples", "5"]
    elif command == "export-table":
        argv += [str(tables_dir / "table_seg1.json"), "--out",
                 str(out / "t.json")]
    else:
        argv += ["--out-dir", str(out)]
    assert main(argv + extra) == 3
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["synthesize", "run", "bench",
                                     "export-table"])
def test_unwritable_output_exits_3(tmp_path, tables_dir, capsys, command):
    """An --out-dir that is a file, or an --out in a missing directory, is
    an input fault found before any synthesis, charge or write."""
    scenario = _write(tmp_path / "s.json", _scenario(step_budget=3))
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    configs = {"synthesize": _write(tmp_path / "c.json", _synth()),
               "run": scenario,
               "bench": _write(tmp_path / "b.json", {
                   "version": 1, "scenarios": [scenario], "repeats": 1})}
    if command == "export-table":
        argv = [command, str(tables_dir / "table_seg1.json"),
                "--out", str(tmp_path / "missing" / "t.bin")]
    else:
        argv = [command, "--config", configs[command],
                "--out-dir", str(blocker)]
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 3
    assert "config error:" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    assert blocker.read_text() == "kept"


def _trace_without_times(path) -> list[dict]:
    with open(path) as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        del row["solver_time_ns"]
    return rows


def test_in_process_tables_are_rounded_as_synthesized(tmp_path):
    # run synthesizes its eMPC tables in process exactly as synthesize
    # writes them, round_decimals included
    syn = _synth(round_decimals=3)
    tables = tmp_path / "tables"
    assert main(["synthesize", "--config", _write(tmp_path / "syn.json", syn),
                 "--out-dir", str(tables)]) == 0
    traces = {}
    for name, extra in (("in_process", {}),
                        ("loaded", {"tables_dir": str(tables)})):
        scenario = _write(tmp_path / f"{name}.json", {
            "version": 1, "name": name, "controller": "empc",
            "synthesis": syn, **extra})
        assert main(["run", "--config", scenario,
                     "--out-dir", str(tmp_path / "out")]) == 0
        traces[name] = _trace_without_times(
            tmp_path / "out" / f"{name}_trace.csv")
    assert traces["in_process"] == traces["loaded"]


def test_shell_exit_codes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "empcharge.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    usage = cli("run", "--config", str(tmp_path / "s.json"), "--seed", "abc")
    assert usage.returncode == 3
    assert usage.stderr.startswith("config error:")
    assert cli("--help").returncode == 0


# Run in a fresh interpreter, argv: scenario, table, out dir, qp scenario.
# Prints {step: whether scipy is in sys.modules after it}, "qp_first_solve"
# holding whether scipy.optimize is loaded when the first QP is solved.
_ONLINE_PROBE = """
import json, sys
from empcharge import cli, control
scenario, table, out, qp_scenario = sys.argv[1:]
seen = {"import": "scipy" in sys.modules}
cli.main(["run", "--config", scenario, "--out-dir", out])
seen["empc_run"] = "scipy" in sys.modules
cli.main(["export-table", table, "--out", out + "/t.bin"])
seen["export_table"] = "scipy" in sys.modules
solve_qp = control.solve_qp
def first_solve(*args, **kw):
    seen.setdefault("qp_first_solve", "scipy.optimize" in sys.modules)
    return solve_qp(*args, **kw)
control.solve_qp = first_solve
cli.main(["run", "--config", qp_scenario, "--out-dir", out])
print(json.dumps(seen))
"""

# argv: synthesis config, out dir; whether scipy.optimize is loaded when
# synthesize explores its first segment
_SYNTH_PROBE = """
import json, sys
from empcharge import cli
explore, seen = cli.explore, {}
def first_explore(*args, **kw):
    seen.setdefault("first_explore", "scipy.optimize" in sys.modules)
    return explore(*args, **kw)
cli.explore = first_explore
cli.main(["synthesize", "--config", sys.argv[1], "--out-dir", sys.argv[2]])
print(json.dumps(seen))
"""


def _fresh_python(code, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_online_path_loads_no_scipy(tmp_path, synth_config, tables_dir):
    """The eMPC law runs on numpy alone: importing the package, an eMPC run
    from stored tables and export-table load no scipy.  Synthesis and the
    online-QP controller import it before their clocks start, so no
    reported time includes the import."""
    syn = json.loads(Path(synth_config).read_text())
    scenario = _write(tmp_path / "empc.json", {
        "version": 1, "name": "empc", "controller": "empc",
        "synthesis": syn, "tables_dir": str(tables_dir)})
    qp_doc = json.loads((CONFIGS / "basic_case_qp.json").read_text())
    qp_scenario = _write(tmp_path / "qp.json", qp_doc)
    out = tmp_path / "out"
    seen = _fresh_python(_ONLINE_PROBE, scenario,
                         tables_dir / "table_seg1.json", out, qp_scenario)
    assert seen == {"import": False, "empc_run": False,
                    "export_table": False, "qp_first_solve": True}
    assert (out / "empc_trace.csv").exists()
    assert (out / "basic_case_qp_trace.csv").exists()
    seen = _fresh_python(_SYNTH_PROBE, synth_config, tmp_path / "tables")
    assert seen == {"first_explore": True}
    assert (tmp_path / "tables" / "table_seg2.json").exists()

