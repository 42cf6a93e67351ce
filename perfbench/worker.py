"""One fresh process of a benchmark run; ``run.py`` starts it.

Prints one JSON line: the raw samples, checks and (traced) span totals.
The spans themselves are written to ``<tmp>/spans-<index>.json``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args()
    if args.workload == "service-closed":
        import service

        out = service.run(args.seed, args.seconds, bool(args.trace), args.t0, args.index, args.tmp)
    else:
        import batch

        out = batch.run(args.workload, args.seed, args.seconds, bool(args.trace), args.t0)
    tracer = out.pop("tracer", None)
    if tracer is not None:
        tracer.write(args.tmp / f"spans-{args.index}.json")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
