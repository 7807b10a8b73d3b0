#!/usr/bin/env python3
"""Write seed_reports.json: digest and verdicts of each default report.

    python3 benchmarks/record_seed_reports.py

Run once, from the root of a checkout of the commit whose reports are
the reference. The reproduce workload fails an op whose verdicts differ
from these and counts reports whose bytes differ as drift.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import finegames as fg  # noqa: E402
import oracles  # noqa: E402


def main():
    record = {}
    for sid in fg.SCENARIO_IDS:
        report = fg.run_scenario(sid).to_dict()
        text = fg.render_json(report)
        record[sid] = {
            "sha256": oracles.report_digest(text),
            "verdicts": oracles.verdicts(json.loads(text)),
        }
    out = HERE / "seed_reports.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
