"""The benchmark's correctness gates can fail: altered golden or reference data
must show up as failed items in the result, never as a crash.

Each test runs one full benchmark run (about a minute together).
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(workload: str, env_extra: dict) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=dict(os.environ, **env_extra), capture_output=True, text=True,
        timeout=300)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_altered_golden_rational_fails_tables_golden(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "src" / "nk_triad" / "golden", golden)
    path = golden / "table_aii.json"
    doc = json.loads(path.read_text())
    doc["rows"][0]["lkm"][0]["num"] += 1
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    proc, result = _run("tables-golden", {"NK_TRIAD_GOLDEN_DIR": str(golden)})
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_altered_analyze_reference_fails_analyze_irreducible(tmp_path):
    refs = tmp_path / "analyze"
    shutil.copytree(BENCH / "reference" / "analyze", refs)
    path = refs / "g2-nodes1.json"          # drawn for every seed
    text = path.read_text()
    assert '"dim_m": 6,' in text
    path.write_text(text.replace('"dim_m": 6,', '"dim_m": 8,'))

    proc, result = _run("analyze-irreducible", {"NK_BENCH_REFERENCE_DIR": str(refs)})
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "g2-nodes1.json" in proc.stdout
