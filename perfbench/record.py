"""Re-record ``expected.json``: the simulated values every workload
produces at the default seed (us/edge, experiment rows, cycle totals,
summed unit counters).

    python3 perfbench/record.py

Run it only when a change is meant to alter simulated results; a
change that only speeds the simulator up must leave the file as is.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import run_child  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")


def main() -> int:
    if not os.path.exists(EXPECTED):
        with open(EXPECTED, "w") as fh:
            json.dump({}, fh)
    recorded = {}
    for name in sorted(WORKLOADS):
        report = run_child(name, "--seed", str(DEFAULT_SEED))
        recorded[name] = report["observed"]
        print(f"recorded {name}", file=sys.stderr)
    with open(EXPECTED, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
