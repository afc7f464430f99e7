import csv
import json
import os
import re
import shutil
import subprocess
import sys
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import pytest

from empcharge import cli, qp
from empcharge.cli import _synthesis_objects, main
from empcharge.regions import coverage_check, export_table, import_table

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
TWO_SEGMENTS = [[0.20, 0.50, 0.39], [0.50, 0.90, 0.90]]
DEFAULT_SYNTH = CONFIGS / "synthesis_default.json"


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


@pytest.mark.parametrize("name, lps", [
    ("basic_case_qp", 3), ("nmpc_case", 3), ("basic_case", 0)])
def test_run_counts_phase1_lps(tmp_path, name, lps):
    """The summary counts the phase-1 LPs of the charge's QPs: warm-started
    from the last active set, the online-QP and NMPC charges make 3 each,
    and the eMPC charge solves no QP."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / f"{name}.json"),
                 "--out-dir", str(out)]) == 0
    summary = json.loads((out / f"{name}_summary.json").read_text())
    assert summary["phase1_lps"] == lps


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


def _edited_tables(tmp_path, tables_dir, edit) -> Path:
    """A copy of tables_dir with edit applied to segment 1's JSON table."""
    out = tmp_path / "tables"
    shutil.copytree(tables_dir, out)
    path = out / "table_seg1.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return out


def test_verify_finds_a_missing_region(tmp_path, synth_config, tables_dir,
                                       capsys):
    """A table with any one region deleted leaves theta that no region
    holds: verify exits 4 naming one."""
    n = import_table(tables_dir / "table_seg1.json").n_regions
    for k in range(n):
        tables = _edited_tables(tmp_path / str(k), tables_dir,
                                lambda doc: doc["regions"].pop(k))
        assert main(["verify", "--config", synth_config,
                     "--tables", str(tables)]) == 4
        assert ("segment 1: no region for theta="
                in capsys.readouterr().err)


def test_verify_finds_a_law_mismatch(tmp_path, synth_config, tables_dir,
                                     capsys):
    def shift(doc):
        for r in doc["regions"]:
            r["g"][0] += 1e-3

    tables = _edited_tables(tmp_path, tables_dir, shift)
    assert main(["verify", "--config", synth_config,
                 "--tables", str(tables), "--samples", "50"]) == 4
    assert "segment 1: law mismatch 1.000e-03 at theta=" in (
        capsys.readouterr().err)


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


@pytest.fixture(scope="module")
def default_tables(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_tables")
    assert main(["synthesize", "--config", str(DEFAULT_SYNTH),
                 "--out-dir", str(out)]) == 0
    return out


def _relabeled_tables(tmp_path, tables, label) -> Path:
    """A copy of tables whose region k of each segment gets the active set
    label(active sets of that segment, k)."""
    out = tmp_path / "relabeled"
    shutil.copytree(tables, out)
    for path in out.glob("table_seg*.json"):
        doc = json.loads(path.read_text())
        sets = [r["active_set"] for r in doc["regions"]]
        for k, r in enumerate(doc["regions"]):
            r["active_set"] = label(sets, k)
        path.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize("label", [lambda sets, k: [],
                                   lambda sets, k: sets[k - 1]],
                         ids=["empty", "previous_region"])
def test_verify_is_not_steered_by_stored_active_sets(tmp_path, default_tables,
                                                     capsys, label):
    """verify passes each theta's region's stored active set to solve_qp
    as a guess only: with every label wrong it checks the same points,
    against the same optimum, and passes."""
    argv = ["verify", "--config", str(DEFAULT_SYNTH), "--samples", "200"]
    assert main(argv + ["--tables", str(default_tables)]) == 0
    want = capsys.readouterr().out.splitlines()
    tables = _relabeled_tables(tmp_path, default_tables, label)
    assert main(argv + ["--tables", str(tables)]) == 0
    got = capsys.readouterr().out.splitlines()
    assert got[-1].startswith("verify ok: 1800 points, worst error ")
    for g, w in zip(got, want, strict=True):
        (g_head, g_err), (w_head, w_err) = (
            line.split(", worst error ") for line in (g, w))
        assert g_head == w_head
        assert abs(float(g_err) - float(w_err)) <= 1e-12


def test_verify_makes_no_phase1_lp(monkeypatch, default_tables, capsys):
    """Warm-started from the located region's active set, verify's 9000
    QPs on the default tables make no phase-1 LP (3295 when solved
    cold)."""
    lps = []
    monkeypatch.setattr(qp, "linprog", lambda *a, _real=qp.linprog, **k:
                        lps.append(1) or _real(*a, **k))
    assert main(["verify", "--config", str(DEFAULT_SYNTH),
                 "--tables", str(default_tables)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "verify ok: 9000 points, worst error ")
    assert len(lps) == 0


def _drop_segment_1_first_region(monkeypatch):
    """Route cli.explore so that segment 1's table loses its first region,
    which leaves sampled feasible theta without a region."""
    def explore(prob, **kw):
        sol = real(prob, **kw)
        return (replace(sol, regions=sol.regions[1:])
                if sol.segment_index == 1 else sol)

    real = cli.explore
    monkeypatch.setattr(cli, "explore", explore)


def test_synthesize_refuses_a_coverage_below_1(tmp_path, synth_config,
                                               monkeypatch, capsys):
    """A table that leaves sampled feasible theta without a region, here
    segment 1's with its first region dropped, exits 4 naming the segment
    and its coverage, before any table or the report is written."""
    _drop_segment_1_first_region(monkeypatch)
    out = tmp_path / "out"
    assert main(["synthesize", "--config", synth_config,
                 "--out-dir", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("segment 1: coverage 0.")
    assert "is below 1" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fault, code", [("no_region", 4), ("qp_error", 3)])
def test_synthesize_refusal_leaves_the_stored_tables(tmp_path, synth_config,
                                                     monkeypatch, fault,
                                                     code):
    """synthesize makes every segment's table before it writes one, so a
    refusal at segment 2, or a QpError while exploring it, leaves the
    tables already in --out-dir, segment 1's among them, as they were."""
    out = tmp_path / "out"
    assert main(["synthesize", "--config", synth_config,
                 "--out-dir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    doc = json.loads(Path(synth_config).read_text())
    cfg = _write(tmp_path / "synth.json", dict(doc, gamma2=0.09))

    def explore(prob, **kw):
        if prob.segment_index < 2:
            return real(prob, **kw)
        if fault == "qp_error":
            raise qp.QpError("HiGHS rejected the LP")
        return replace(real(prob, **kw), regions=())

    real = cli.explore
    monkeypatch.setattr(cli, "explore", explore)
    assert main(["synthesize", "--config", cfg, "--out-dir", str(out)]) == code
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    monkeypatch.setattr(cli, "explore", real)  # gamma2 0.09 moves segment 1
    assert main(["synthesize", "--config", cfg,
                 "--out-dir", str(tmp_path / "new")]) == 0
    assert (tmp_path / "new" / "table_seg1.bin").read_bytes() != before[
        "table_seg1.bin"]


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


def test_export_format_follows_the_extension(tmp_path, tables_dir, capsys):
    """A .bin --out is written binary, any other JSON, whatever the input's
    encoding."""
    src = tables_dir / "table_seg1.bin"
    for name, fmt in (("x.bin", "bin"), ("x.json", "json"), ("x", "json")):
        out = tmp_path / name
        assert main(["export-table", str(src), "--out", str(out)]) == 0
        assert f"({fmt}, " in capsys.readouterr().out
        assert out.read_bytes().startswith(b"EMPCTB01") == (fmt == "bin")
        assert import_table(out).n_regions == import_table(src).n_regions


def test_unknown_config_key(tmp_path, capsys):
    """An unknown key exits 3 and is named, Nc_other among them: Vs, I and
    V are imposed at k = 1 only, so no mpc key sets their horizon."""
    for doc, where in (({"bogus": 1}, "synthesis config: unknown keys "
                        "['bogus']"),
                       ({"mpc": {"Nc_other": 1}}, "mpc: unknown keys "
                        "['Nc_other']")):
        cfg = _write(tmp_path / "bad.json", {"version": 1, **doc})
        rc = main(["synthesize", "--config", cfg,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        assert where in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synthesize", "run"])
def test_removed_vs_min_param_exits_3(tmp_path, capsys, command):
    """No code reads a lower Vs bound from the parameters, so Vs_min is an
    unknown parameter key, not one silently ignored."""
    syn = {"version": 1, "params": {"Vs_min": 0.0}}
    doc = syn if command == "synthesize" else {
        "version": 1, "controller": "qp", "synthesis": syn}
    cfg = _write(tmp_path / "s.json", doc)
    assert main([command, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert "unknown parameter keys: ['Vs_min']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # the ratio needs an eMPC and an NMPC entry
    assert "nmpc_over_empc_step_ratio" not in report


def test_bench_step_ratio(tmp_path, tables_dir):
    syn = {"version": 1, "breakpoints": TWO_SEGMENTS}
    scenarios = [_write(tmp_path / f"{c}.json", {
        "version": 1, "name": c, "controller": c, "synthesis": syn,
        "tables_dir": str(tables_dir)}) for c in ("empc", "nmpc")]
    cfg = _write(tmp_path / "bench.json", {"version": 1,
                                           "scenarios": scenarios})
    out = tmp_path / "out"
    assert main(["bench", "--config", cfg, "--out-dir", str(out),
                 "--repeats", "1"]) == 0
    report = json.loads((out / "bench_report.json").read_text())
    assert [e["controller"] for e in report["entries"]] == ["empc", "nmpc"]
    assert [e["phase1_lps"] for e in report["entries"]] == [0, 3]
    assert report["nmpc_over_empc_step_ratio"] > 0


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


def test_tables_for_another_theta_box(tmp_path, capsys):
    """Tables explored on a narrower theta box than the scenario's leave
    part of its box uncovered: run and bench refuse them before any
    charge."""
    narrow = tmp_path / "narrow"
    synth = _write(tmp_path / "synth.json", {
        "version": 1, "breakpoints": TWO_SEGMENTS, "coverage_samples": 200,
        "theta_box": [[0, 1], [0, 1], [0, 3], [0.2, 1], [-1, 1]]})
    assert main(["synthesize", "--config", synth,
                 "--out-dir", str(narrow)]) == 0
    scenario = _write(tmp_path / "s.json", {
        "version": 1, "name": "box", "controller": "empc",
        "synthesis": {"version": 1, "breakpoints": TWO_SEGMENTS},
        "tables_dir": str(narrow),
    })
    bench = _write(tmp_path / "bench.json", {
        "version": 1, "scenarios": [scenario], "repeats": 1})
    for command, config in (("run", scenario), ("bench", bench)):
        assert main([command, "--config", config,
                     "--out-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{narrow / 'table_seg1.json'}: theta box" in err
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
    ("step_budget", "abc"), ("soc_target", 0.93)])
def test_invalid_run_value(tmp_path, key, value):
    cfg = _write(tmp_path / "s.json", {"version": 1, "controller": "qp",
                                       key: value})
    assert main(["run", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("feedback", "foo"), ("nmpc_max_iters", 0), ("step_budget", 0),
    ("seed", -1), ("soc_start", 1e300), ("soc_start", -5.0),
    ("soc_target", 1.5), ("soc_target", 0.93)])
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


def _basic_case(**synthesis):
    """configs/basic_case.json with values merged into its synthesis block."""
    doc = json.loads((CONFIGS / "basic_case.json").read_text())
    doc["synthesis"].update(synthesis)
    return doc


# eMPC scenarios whose law has no region in segment 1, the EDGE_CONFIGS
# that synthesize refuses with exit 4, and run with its message as exit 3
EMPTY_LAW_SCENARIOS = {
    "gamma2_-1": _basic_case(gamma2=-1),
    "alpha0_1e6": _basic_case(params={"alpha0": 1e6}),
    "u_prev_2e-9_wide": _basic_case(theta_box=[
        [0, 1], [0, 1], [0, 3], [0.2, 1], [0, 2e-9]]),
}
NO_REGION = "segment 1: no critical region in the theta box"


# basic_case theta boxes that leave out its first theta (r 0.9, or Vb and
# Vs 0.2) or currents the law may command (I up to 3): a charge there
# runs on fallbacks, and the I box's rides the current past 4.2 V
SHORT_BOXES = {
    "r_0.2_0.5": [[0, 1], [0, 1], [0, 3], [0.2, 0.5], [-3, 3]],
    "VbVs_0.5_1": [[0.5, 1], [0.5, 1], [0, 3], [0.2, 1], [-3, 3]],
    "I_0_2": [[0, 1], [0, 1], [0, 2], [0.2, 1], [-3, 3]],
}
SHORT_BOX = "scenario config: segment 1: its theta box"


def _table_calls(monkeypatch) -> list[str]:
    """The names of the cli.explore and cli.coverage_check calls, which
    still run, in the order made."""
    calls = []
    for name in ("explore", "coverage_check"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name,
                            _real=getattr(cli, name), **k:
                            calls.append(_name) or _real(*a, **k))
    return calls


@pytest.mark.parametrize("case", list(SHORT_BOXES))
def test_run_refuses_a_box_without_the_charge(tmp_path, monkeypatch, capsys,
                                              case):
    """The box is checked before any table is explored or sampled."""
    calls = _table_calls(monkeypatch)
    cfg = _write(tmp_path / "s.json", _basic_case(theta_box=SHORT_BOXES[case]))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 3
    assert f"config error: {SHORT_BOX}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_run_on_a_narrower_u_prev_box(tmp_path):
    """A u_prev row of [-1, 1] holds the charge: the refusal reads the
    first theta and the current row only."""
    cfg = _write(tmp_path / "s.json", _basic_case(theta_box=[
        [0, 1], [0, 1], [0, 3], [0.2, 1], [-1, 1]]))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
    assert json.loads((out / "basic_case_summary.json").read_text())[
        "completed"] is True


def test_bench_refuses_a_box_without_the_charge(tmp_path, monkeypatch,
                                                capsys):
    charges, calls = [], _table_calls(monkeypatch)
    monkeypatch.setattr(cli, "run_closed_loop",
                        lambda setup: charges.append(setup))
    good = _write(tmp_path / "good.json", {"version": 1, "controller": "qp",
                                           "step_budget": 3})
    short = _write(tmp_path / "short.json",
                   _basic_case(theta_box=SHORT_BOXES["I_0_2"]))
    cfg = _write(tmp_path / "bench.json", {"version": 1, "repeats": 1,
                                           "scenarios": [good, short]})
    assert main(["bench", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert SHORT_BOX in capsys.readouterr().err
    assert charges == calls == []
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


def test_bench_refuses_an_empty_law(tmp_path, monkeypatch, capsys):
    charges = []
    monkeypatch.setattr(cli, "run_closed_loop",
                        lambda setup: charges.append(setup))
    good = _write(tmp_path / "good.json", {"version": 1, "controller": "qp",
                                           "step_budget": 3})
    empty = _write(tmp_path / "empty.json", EMPTY_LAW_SCENARIOS["gamma2_-1"])
    cfg = _write(tmp_path / "bench.json", {"version": 1, "repeats": 1,
                                           "scenarios": [good, empty]})
    before = sorted(tmp_path.iterdir())
    assert main(["bench", "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert NO_REGION in capsys.readouterr().err
    assert charges == []
    assert sorted(tmp_path.iterdir()) == before


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
    "params_Vs_max_0": ("synthesize", _synth(params={"Vs_max": 0.0}), []),
    "params_Vs_max_-1": ("synthesize", _synth(params={"Vs_max": -1.0}), []),
    "mpc_Nc_eta_true": ("synthesize", _synth(mpc={"Nc_eta": True}), []),
    "breakpoints_2_wide": ("synthesize", _synth(breakpoints=[[0.2, 0.5]]),
                           []),
    "params_beta1_0": ("synthesize", _synth(params={"beta1": 0}), []),
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
    "export_format_bin": ("export-table", None, ["--format", "bin"]),
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


def _default_synth(**values):
    """configs/synthesis_default.json with values, those under mpc merged
    into its mpc block."""
    doc = json.loads((CONFIGS / "synthesis_default.json").read_text())
    doc["mpc"].update(values.pop("mpc", {}))
    return {**doc, **values}


# synthesis configs at the edge of what the value rules accept, each with
# its exit code: 3 for LPs HiGHS rejects, 4 for a segment with no region
EDGE_CONFIGS = {
    "Q_0": (_default_synth(mpc={"Q": 0}), 0),
    "N_2": (_default_synth(mpc={"N": 2}), 0),
    "dt_1e-9": (_default_synth(dt=1e-9), 3),
    "dt_1e7": (_default_synth(dt=1e7), 0),
    "R_1e-12": (_default_synth(mpc={"R": 1e-12}), 0),
    "u_prev_2e-9_wide": (_default_synth(theta_box=[
        [0, 1], [0, 1], [0, 3], [0.2, 1], [0, 2e-9]]), 4),
    "gamma2_-1": (_default_synth(gamma2=-1), 4),
    "alpha0_1e6": (_default_synth(params={"alpha0": 1e6}), 4),
    "box_VbVs_5_6": (_default_synth(theta_box=[
        [5, 6], [5, 6], [0, 3], [0.2, 1], [-3, 3]]), 4),
}


@pytest.mark.parametrize("case", list(EDGE_CONFIGS))
def test_edge_config_ends_without_traceback(tmp_path, capsys, case):
    """An empty law (exit 4) is found in segment 1, before its tables or
    the report are written."""
    doc, code = EDGE_CONFIGS[case]
    cfg = _write(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main(["synthesize", "--config", cfg, "--out-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 4:
        assert "segment 1: no critical region in the theta box" in err
        assert not (out / "synthesis_report.json").exists()
        assert not list(out.glob("table_seg*"))


@pytest.mark.parametrize("command", ["run", "bench"])
def test_in_process_table_below_full_coverage_exits_3(tmp_path, capsys,
                                                      monkeypatch, command):
    """The tables run and bench synthesize in process pass synthesize's
    coverage check, with synthesize's message, before any charge or
    write."""
    _drop_segment_1_first_region(monkeypatch)
    scenario = _write(tmp_path / "s.json", _basic_case())
    cfg = scenario if command == "run" else _write(tmp_path / "b.json", {
        "version": 1, "repeats": 1, "scenarios": [scenario]})
    before = sorted(tmp_path.iterdir())
    assert main([command, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert re.fullmatch(r"config error: segment 1: coverage 0\.\d+ is below "
                        r"1: a sampled feasible theta lies in no region\n",
                        capsys.readouterr().err)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("case", list(EMPTY_LAW_SCENARIOS))
def test_run_refuses_an_empty_law(tmp_path, capsys, case):
    """run exits 3 before a charge on a law with no region in a segment,
    and creates no out-dir."""
    cfg = _write(tmp_path / "s.json", EMPTY_LAW_SCENARIOS[case])
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 3
    assert f"config error: {NO_REGION}" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_a_stored_table_with_no_region(tmp_path, tables_dir,
                                                   capsys):
    """A stored table is refused as synthesize refuses one, with its
    line."""
    stored = tmp_path / "tables"
    shutil.copytree(tables_dir, stored)
    path = str(stored / "table_seg1.json")
    export_table(replace(import_table(path), regions=()), path)
    scenario = _write(tmp_path / "s.json", {
        "version": 1, "name": "empty", "controller": "empc",
        "synthesis": {"version": 1, "breakpoints": TWO_SEGMENTS},
        "tables_dir": str(stored),
    })
    assert main(["run", "--config", scenario,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert f"config error: {NO_REGION}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "bench"])
def test_stored_table_below_full_coverage_exits_3(tmp_path, synth_config,
                                                  tables_dir, capsys,
                                                  command):
    """A stored table with a region deleted leaves sampled feasible theta
    without a region: run and bench refuse it with synthesize's line,
    before any charge or write."""
    tables = _edited_tables(tmp_path, tables_dir,
                            lambda doc: doc["regions"].pop(0))
    scenario = _write(tmp_path / "s.json", {
        "version": 1, "name": "hole", "controller": "empc",
        "synthesis": json.loads(Path(synth_config).read_text()),
        "tables_dir": str(tables)})
    cfg = scenario if command == "run" else _write(tmp_path / "b.json", {
        "version": 1, "repeats": 1, "scenarios": [scenario]})
    assert main([command, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert re.fullmatch(r"config error: segment 1: coverage 0\.\d+ is below "
                        r"1: a sampled feasible theta lies in no region\n",
                        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mpc", [{"Q": 0}, {"N": 2}])
def test_regions_with_non_simple_vertices_synthesize(tmp_path, mpc):
    """With Q 0, or N 2, some regions have a vertex where more than 5
    facets meet, which remove_redundant must handle."""
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.json", _default_synth(mpc=mpc))
    assert main(["synthesize", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "synthesis_report.json").read_text())
    assert len(report["segments"]) == 9
    assert all(s["coverage"] == 1.0 for s in report["segments"])


def test_run_without_tracking_cost_is_incomplete(tmp_path):
    """Q 0 leaves only the move cost, so the eMPC law synthesized in
    process keeps the current at 0 and the charge never completes."""
    scenario = _write(tmp_path / "s.json", {
        "version": 1, "name": "q0", "controller": "empc",
        "synthesis": _default_synth(mpc={"Q": 0})})
    out = tmp_path / "out"
    assert main(["run", "--config", scenario, "--out-dir", str(out)]) == 2
    assert json.loads((out / "q0_summary.json").read_text())[
        "final_soc"] == pytest.approx(0.2)


@pytest.mark.parametrize("command", ["synthesize", "run", "bench"])
def test_segment_lps_highs_rejects_exit_3(tmp_path, capsys, command):
    """dt 1e-9 leaves a row of G just above the zero-row tolerance, and
    HiGHS rejects segment 1's stacked Chebyshev LP."""
    syn = _default_synth(dt=1e-9)
    configs = {"synthesize": syn,
               "run": {"version": 1, "controller": "empc", "synthesis": syn}}
    configs["bench"] = {"version": 1, "repeats": 1,
                        "scenarios": [_write(tmp_path / "s.json",
                                             configs["run"])]}
    cfg = _write(tmp_path / "c.json", configs[command])
    assert main([command, "--config", cfg,
                 "--out-dir", str(tmp_path / "out")]) == 3
    assert ("config error: segment 1: stacked Chebyshev LP"
            in capsys.readouterr().err)


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


@pytest.mark.parametrize("name", sorted(p.name for p in
                                         CONFIGS.glob("*.json")))
def test_shipped_config_passes_its_check(name):
    """Each config under configs/ passes the check its command makes: a
    synthesis config that of synthesize, a scenario that of run as an
    online-QP charge, so that no table is synthesized, and a bench config
    that of each scenario it names."""
    path = CONFIGS / name
    if name.startswith("synthesis_"):
        _synthesis_objects(cli._load(path, "synthesis config",
                                     cli._SYNTH_KINDS))
        return
    refs = (cli._load(path, "bench config", cli._BENCH_KINDS)["scenarios"]
            if name == "bench.json" else [name])
    for ref in refs:
        doc = cli._load(CONFIGS / ref, "scenario config", cli._SCENARIO_KINDS)
        cli._scenario_setup(doc, Namespace(controller="qp", feedback=None,
                                           seed=None))


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

