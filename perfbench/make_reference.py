"""Write reference.json: outage counts of each campaign workload at a seed
the benchmark does not use and REFERENCE_FACTOR times its trials.

The benchmark checks every campaign row against these rows with a
two-proportion z-test, so a change of random stream layout (which changes
counts but not their distribution) still passes, while a wrong count does
not.  Run from the root of a checkout::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

from bench import REFERENCE_PATH, WORKLOADS, check_campaign, import_hdrelay

REFERENCE_SEED = 987_654_321
REFERENCE_FACTOR = 8


def main() -> int:
    hdrelay = import_hdrelay()
    doc = {"seed": REFERENCE_SEED, "trials_factor": REFERENCE_FACTOR, "workloads": {}}
    for workload in WORKLOADS.values():
        if workload.check is not check_campaign:
            continue
        argv = workload.argv(REFERENCE_SEED)
        at = argv.index("--trials") + 1
        argv[at] = str(int(argv[at]) * REFERENCE_FACTOR)
        out = io.StringIO()
        with redirect_stdout(out):
            code = hdrelay.cli.run(argv)
        if code != 0:
            print(f"{workload.name}: exit code {code}", file=sys.stderr)
            return 1
        table = json.loads(out.getvalue())
        doc["workloads"][workload.name] = {
            "command": table["metadata"]["command"],
            "version": table["metadata"]["version"],
            "rows": [
                {key: row[key] for key in ("snr_db", "trials", "outage_count")} for row in table["rows"]
            ],
        }
        print(workload.name, doc["workloads"][workload.name]["rows"])
    REFERENCE_PATH.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
