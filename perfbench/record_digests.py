"""Record every workload's answer digest for a range of seeds.

Usage (from the repository root)::

    python3 perfbench/record_digests.py --first 0 --count 40

Writes ``perfbench/digests.json``.  Each digest covers the fixed answer
prefix a run always computes, so it does not depend on ``--seconds``.
Re-record only when a change is meant to alter answers; every later run
of ``run.py`` on a recorded seed fails if its digest differs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from harness import DIGEST_FILE, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=40)
    args = parser.parse_args()
    table = {}
    for name, cls in WORKLOADS.items():
        table[name] = {}
        for seed in range(args.first, args.first + args.count):
            table[name][str(seed)] = digest(cls(seed).measure(0.0).answers)
            print(name, seed, table[name][str(seed)], flush=True)
    DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
