"""Write the analyze-irreducible reference reports into bench/reference/analyze/.

    python3 bench/record_references.py

Runs ``nk-triad analyze ... --json`` in-process for every candidate of every
analyze stratum and stores the ``nk_report`` and ``fibrations`` sections.
Re-record only when a change to the reports is intended and explained.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for stratum in workloads.ANALYZE_STRATA:
        for candidate in stratum:
            item = ("analyze",) + candidate
            rc, text = workloads.quiet_cli(workloads.analyze_argv(item, seed=0))
            if rc != 0:
                print(f"{workloads.item_label(item)}: exit {rc}", file=sys.stderr)
                return 1
            path = workloads.REFERENCE_DIR / workloads.reference_name(item)
            path.write_text(workloads.analyze_sections(json.loads(text)), encoding="utf-8")
            print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
