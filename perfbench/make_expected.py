"""Regenerate ``expected.json``: the modeled time (``float.hex``) and trace
counters of every solve the batch workloads run.

    python3 perfbench/make_expected.py

The benchmark fails any solve that differs from this file, so a diff to
it is a change of the modeled clock and needs its own explanation.
"""

from __future__ import annotations

import json
import sys

from common import SRC

sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

import batch  # noqa: E402  (needs the package path above)


def main() -> None:
    expected = {}
    for workload in ("solve-large", "chaos-medium"):
        for task in batch.build_tasks(workload):
            expected[task.key] = batch.fingerprint(task.run())
            print(task.key, expected[task.key]["sim_time_ms"], file=sys.stderr)
    batch.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
