"""tools/digest.py, the identity check of synthesis and run outputs, is
itself deterministic: two runs print the same lines."""

import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def _digest(*names: str) -> list[str]:
    out = subprocess.run([sys.executable, str(DIGEST), *names],
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_digest_is_repeatable():
    first = _digest("synthesis_default", "basic_case")
    assert first == _digest("synthesis_default", "basic_case")
    names = [line.split()[0] for line in first]
    assert len(names) == len(set(names))
    assert all(len(line.split()[1]) == 64 for line in first)
    for name in ("synthesis_default/synthesize/table_seg9.bin",
                 "synthesis_default/synthesize/synthesis_report.json",
                 "basic_case/synthesize/segments.json",
                 "basic_case/run/basic_case_trace.csv",
                 "basic_case/run/basic_case_summary.json"):
        assert name in names
