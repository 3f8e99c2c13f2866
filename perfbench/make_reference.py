"""Regenerate ``reference.json``: each workload's result values per seed.

Usage, from the root of a source checkout::

    python3 perfbench/make_reference.py

Runs every workload once per stored seed (about 8 s a seed at full size
on a 2-core Xeon VM), refuses to store a result whose own output checks
fail, and writes the table the benchmark compares against.  Only rerun it
when the results are meant to change, and say so where the change is
recorded.
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, os.fspath(run.SRC))
import workloads  # noqa: E402

FULL_SEEDS = list(range(25)) + [run.HELD_OUT_SEED]
TINY_SEEDS = [run.DEV_SEED]


def main() -> int:
    table: dict = {"full": {}, "tiny": {}}
    run.WORKDIR.mkdir(exist_ok=True)
    for size, seeds in (("full", FULL_SEEDS), ("tiny", TINY_SEEDS)):
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(run.WORKDIR, tiny=size == "tiny")
            rows = table[size].setdefault(name, {})
            for seed in seeds:
                inputs = wl.setup(seed)
                result = wl.job(inputs)
                bad = [k for k, ok in wl.checks(inputs, result).items() if not ok]
                if bad:
                    print(f"{size} {name} seed {seed}: checks failed {bad}",
                          file=sys.stderr)
                    return 1
                rows[str(seed)] = wl.reference_values(result)
                print(size, name, seed, rows[str(seed)], flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
