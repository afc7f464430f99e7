"""tools/digest.py, the identity check of synthesis, run and verify
outputs, of the online QP and of noisy charges, is itself deterministic:
two runs print the same lines.  Its --diff report is checked on
synthetic digests."""

import importlib.util
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def _module():
    spec = importlib.util.spec_from_file_location("digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def _digest(*names: str) -> list[str]:
    out = subprocess.run([sys.executable, str(DIGEST), *names],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_digest_is_repeatable():
    first = _digest("synthesis_default", "basic_case", "noisy")
    assert first == _digest("synthesis_default", "basic_case", "noisy")
    names = [line.split()[0] for line in first]
    assert len(names) == len(set(names))
    assert all(len(line.split()[1]) == 64 for line in first)
    for name in ("synthesis_default/synthesize/table_seg9.bin",
                 "synthesis_default/synthesize/synthesis_report.json",
                 "synthesis_default/verify/out",
                 "basic_case/synthesize/segments.json",
                 "basic_case/run/basic_case_trace.csv",
                 "basic_case/run/basic_case_summary.json",
                 "noisy/ekf_case/seed00", "noisy/ekf_case/seed19",
                 "noisy/ekf_case-state/seed00",
                 "noisy/ekf_case-state/seed19"):
        assert name in names


def test_qp_probe_is_repeatable():
    first = _digest("qp")
    assert first == _digest("qp")
    [(name, sha)] = [line.split() for line in first]
    assert name == "qp/probe" and len(sha) == 64


def test_diff_against_its_own_tree_prints_nothing():
    out = subprocess.run([sys.executable, str(DIGEST), "--diff",
                          str(DIGEST.parents[1]), "basic_case_qp"],
                         capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")


def test_diff_reports_step_counts_and_column_differences():
    digest = _module()
    head = ["step", "V", "region"]
    mine = {"a/run/a_trace.csv": ("x", [head, ["0", "4.0", "1"],
                                        ["1", "4.1", "2"]]),
            "a/run/a_summary.json": ("s", None)}
    theirs = {"a/run/a_trace.csv": ("y", [head, ["0", "4.0", "1"],
                                          ["1", "4.25", "2"],
                                          ["2", "4.2", "3"]]),
              "a/run/a_summary.json": ("s", None),
              "b/run/b_summary.json": ("t", None)}
    assert digest.diff_lines(mine, theirs) == [
        "a/run/a_trace.csv differs", "  steps 3 -> 2", "  step 0",
        "  V 0.15", "  region 0", "b/run/b_summary.json only in the other"]


def test_diff_reports_region_counts_active_sets_and_array_differences():
    digest = _module()

    def region(active, E, e, K, g):
        return {"E": E, "e": e, "K": K, "g": g, "active_set": active}

    name = "s/synthesize/table_seg1.json"
    mine = {name: ("x", [region([], [[1.0, -0.0]], [0.5], [[2.0, 0.0]],
                                [0.0]),
                         region([1], [[0.0, 1.0]], [0.25], [[1.0, 3.0]],
                                [-0.0])]),
            "t/synthesize/table_seg1.json": ("z", [
                region([], [[1.0]], [1.0], [[1.0]], [0.0])])}
    theirs = {name: ("y", [region([], [[1.0, 0.0]], [0.5], [[2.0, 1e-12]],
                                  [0.0]),
                           region([1], [[0.0, 1.0]], [0.75], [[1.0, 3.0]],
                                  [0.0])]),
              "t/synthesize/table_seg1.json": ("w", [
                  region([2], [[1.0, 2.0]], [1.0], [[1.0]], [0.0]),
                  region([], [[1.0]], [1.0], [[1.0]], [0.0])])}
    assert digest.diff_lines(mine, theirs) == [
        "s/synthesize/table_seg1.json differs", "  regions 2 -> 2",
        "  active sets equal", "  E 0", "  e 0.5", "  K 1e-12", "  g 0",
        "t/synthesize/table_seg1.json differs", "  regions 2 -> 1",
        "  active sets differ", "  E shapes differ", "  e 0", "  K 0",
        "  g 0"]


def test_diff_reports_probe_statuses_active_sets_and_z():
    digest = _module()
    one, two = (1.0).hex(), (2.0).hex()
    mine = {digest.PROBE: ("x", [["optimal", [0], [one, two]],
                                 ["optimal", [], [one, two]],
                                 ["infeasible", [], None],
                                 ["optimal", [1], [one, (2.5).hex()]]])}
    theirs = {digest.PROBE: ("y", [["optimal", [0], [one, (-0.0).hex()]],
                                   ["optimal", [1], [one, two]],
                                   ["optimal", [], [one, two]],
                                   ["optimal", [1], [one, two]],
                                   ["optimal", [], [one]]])}
    assert digest.diff_lines(mine, theirs) == [
        "qp/probe differs", "  solves 5 -> 4", "  statuses differ 1",
        "  active sets differ 1", "  z 2"]
    assert digest.diff_lines(mine, {digest.PROBE: ("x", [])}) == []


def test_diff_reports_noisy_charge_facts():
    digest = _module()
    name = "noisy/ekf_case/seed03"
    mine = {name: ("x", [4.25, True, 40]),
            "noisy/ekf_case/seed04": ("z", [4.5, False, 52])}
    theirs = {name: ("y", [4.5, True, 41]),
              "noisy/ekf_case/seed04": ("z", [4.5, False, 52])}
    assert digest.diff_lines(mine, theirs) == [
        f"{name} differs", "  max V 4.5 -> 4.25", "  completed True -> True",
        "  fallbacks 41 -> 40"]


def test_diff_reports_both_verify_last_lines():
    digest = _module()
    name = "s/verify/out"
    mine = {name: ("x", "exit 0: verify ok: 1800 points, worst error 0"),
            "t/verify/out": ("z", "exit 0: verify ok")}
    theirs = {name: ("y", "exit 4: segment 1: no region for theta=[0.5]"),
              "t/verify/out": ("z", "exit 0: verify ok")}
    assert digest.diff_lines(mine, theirs) == [
        f"{name} differs",
        "  the other: exit 4: segment 1: no region for theta=[0.5]",
        "  this tree: exit 0: verify ok: 1800 points, worst error 0"]


def test_diff_reports_synthesis_stats_per_segment():
    digest = _module()
    name = "s/synthesize/synthesis_report.json"

    def seg(index, n_regions, coverage=1.0, **other):
        return {"index": index, "n_regions": n_regions, "candidates": 22,
                "pruned_rank": 3, "empty_interior": 19 - n_regions,
                "chebyshev_lps": 19, "coverage": coverage,
                "stored_reals": 40 * n_regions, **other}

    mine = {name: ("x", [seg(1, 7), seg(2, 5, lambda1=0.5),
                         seg(3, 6, pruned_rank=4)])}
    theirs = {name: ("y", [seg(1, 7), seg(2, 6, coverage=0.99),
                           seg(3, 6)])}
    assert digest.diff_lines(mine, theirs) == [
        f"{name} differs", "  segment 2 n_regions 6 -> 5",
        "  segment 2 empty_interior 13 -> 14",
        "  segment 2 coverage 0.99 -> 1.0", "  segment 3 pruned_rank 3 -> 4"]
