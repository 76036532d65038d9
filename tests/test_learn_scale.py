from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from hhl import FamilyParams, worst_case_query_budget

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "learn_scale.py"


def run_script(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=120)


def test_learn_scale_prints_one_exact_line_in_little_memory():
    # The child exits with an error if the learned hypergraph is wrong.
    proc = run_script("22", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert (row["t"], row["s"], row["l"], row["seed"]) == (2**22, 3, 2, 1)
    assert 0 < row["queries"] <= worst_case_query_budget(FamilyParams(2**22, 3, 2))
    # A 2**22-bit mask per query would be about 220 queries * 512 KiB.
    assert row["max_rss_mb"] < 80


def test_learn_scale_refuses_k_out_of_range():
    proc = run_script("63")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "k must be in" in proc.stderr
