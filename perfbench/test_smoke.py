"""Smoke test of the benchmark harness (about 20 s):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*argv: str) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    text = buf.getvalue()
    return json.loads(text.splitlines()[-1]), text


def _callables(modules) -> dict:
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()
            if callable(v)}


def test_end_to_end_metrics_by_name_with_units():
    res, text = _run("--workload", "closed_loop_online", "--seed", "0",
                     "--seconds", "0.2", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert f" {m['name']} " in text
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0


def test_traced_synth_default_counts_and_restore():
    from empcharge import cli, control, model, qp, regions
    modules = (cli, control, model, qp, regions)
    before = _callables(modules)
    res, _ = _run("--workload", "synth_default", "--seed", "0",
                  "--seconds", "0", "--trace", "1")
    assert _callables(modules) == before
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(m) == [x["name"] for x in SPEC["per_layer"]]
    assert m["qp.lp_calls"] == m["regions.explore_lp_calls"] == 1319
    assert [m[f"regions.n_regions.seg{i}"] for i in range(1, 10)] \
        == [4, 5, 5, 5, 5, 5, 5, 5, 5]
    assert m["regions.region_for_calls"] == 115
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 9


def test_self_time_subtracts_children():
    # (id, parent, op, name, start_ns, end_ns, note)
    spans = [(0, None, 0, "bench.op", 0, 100, None),
             (1, 0, 0, "qp.solve_qp", 10, 50, None),
             (2, 1, 0, "qp.linprog", 20, 30, None),
             (3, 0, 0, "regions.locate", 60, 70, None)]
    assert self_times(spans) == [50, 30, 10, 10]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth_default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout.strip() == ""
