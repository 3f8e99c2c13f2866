"""Measure the parallel sweep and the CLI's --workers defaults on two trees.

Usage, from the repository root:

    python3 tools/bench_parallel_sweep.py OLD_ROOT NEW_ROOT [--pairs 10]
        [--seeds 3,20241] [--seconds 15] > BENCH_parallel_sweep.json

OLD_ROOT and NEW_ROOT are source checkouts, each with ``src/`` and
``perfbench/`` (for example a ``git archive`` of the parent commit and
this checkout).  Prints one JSON object with four parts, each of
``--pairs`` alternating pairs summed up as in ``bench_consensus.py``
(every value, the medians, the interquartile range of the first side and
the second side's wins):

- ``perfbench``: per workload and seed, interleaved runs of
  ``perfbench/run.py --trace 0 --seconds S`` on each tree.
- ``rss``: per tree and seed, one fresh interpreter runs the
  ``scheme_sweep`` job once and reports its own peak RSS and that of its
  largest child process (``RUSAGE_CHILDREN``; 0 when no child ran).
- ``workers``: NEW_ROOT's CLI in one interpreter per command, with
  ``--workers 1`` ("old") and ``--workers 2`` ("new") in alternating
  order: the wall time, and the CPU time of the process and its
  children.  The commands are the ``scheme_sweep`` sweep at 30 and at
  100 runs per point, and ``estimate`` and ``estimate --side 1`` at
  their defaults.
- ``sweeps``: two sweeps whose estimates split their seeds, each run in
  a fresh interpreter per tree, alternating: the wall and CPU time.
"""

import argparse
import json
import os
import sys

from bench_consensus import pairs, perfbench_pairs, python, summary

RSS = r"""
import json, resource, sys, tempfile
from pathlib import Path
root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
with tempfile.TemporaryDirectory() as tmp:
    wl = workloads.SchemeSweep(Path(tmp))
    result = wl.job(wl.setup(seed))
assert result["code"] == 0
mb = {who: resource.getrusage(who).ru_maxrss / 1024
      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)}
print(json.dumps({"self_mb": mb[resource.RUSAGE_SELF],
                  "children_mb": mb[resource.RUSAGE_CHILDREN]}))
"""

# (wall, cpu) of cli.main on each argv, the CPU time counting children
TIME = r"""
import contextlib, io, json, os, sys, time
from pathlib import Path
sys.path[:0] = [str(Path(sys.argv[1]) / "src"), str(Path(sys.argv[1]) / "perfbench")]
from cutgossip import cli
out = []
for argv in json.loads(sys.argv[2]):
    if argv[0] == "scheme_sweep":  # its argv at argv[1] runs, then the rest
        import workloads
        runs, tail = argv[1], argv[2:]
        argv = workloads.SchemeSweep(Path(".")).setup(3)["argv"] + tail
        argv[argv.index("--runs") + 1] = runs
    t0, c0 = time.perf_counter(), os.times()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    c1 = os.times()
    out.append((time.perf_counter() - t0, sum(c1[:4]) - sum(c0[:4])))
print(json.dumps(out))
"""

SCHEME = ["scheme_sweep"]  # TIME reads the scheme_sweep workload's argv
WORKERS = {
    "scheme_sweep, 30 runs": SCHEME + ["30"],
    "scheme_sweep, 100 runs": SCHEME + ["100"],
    "estimate": ["estimate"],
    "estimate --side 1": ["estimate", "--side", "1"],
}
SWEEPS = {
    "scheme_sweep, 100 runs, --workers 2": SCHEME + ["100", "--workers", "2"],
    "sweep --n 64,128 --runs 320 --workers 8":
        ["sweep", "--n", "64,128", "--runs", "320", "--workers", "8"],
}


def timed(root: str, *argvs: list) -> list:
    """[wall, cpu] of each argv, run in turn in one fresh interpreter."""
    return python(root, TIME, os.path.abspath(root), json.dumps(argvs))


def wall_and_cpu(olds: list, news: list) -> dict:
    return {key: summary([r[i] for r in olds], [r[i] for r in news])
            for i, key in enumerate(("wall_s", "cpu_s"))}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", default="3,20241")
    p.add_argument("--seconds", type=float, default=15.0)
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"pairs": args.pairs, "seconds": args.seconds}

    out["rss"] = {
        side: {seed: python(root, RSS, os.path.abspath(root), str(seed)) for seed in seeds}
        for side, root in (("old", args.old), ("new", args.new))
    }

    out["workers"] = {}
    for name, argv in WORKERS.items():
        # one interpreter runs all pairs, so their imports are paid once
        order = [w for k in range(args.pairs)
                 for w in (("1", "2") if k % 2 == 0 else ("2", "1"))]
        runs = timed(args.new, *[argv + ["--workers", w] for w in order])
        out["workers"][name] = wall_and_cpu(
            [r for w, r in zip(order, runs) if w == "1"],
            [r for w, r in zip(order, runs) if w == "2"])

    out["sweeps"] = {}
    for name, argv in SWEEPS.items():
        olds, news = pairs(args.pairs, lambda: timed(args.old, argv)[0],
                           lambda: timed(args.new, argv)[0])
        out["sweeps"][name] = wall_and_cpu(olds, news)
        print(f"{name}: wall_s {out['sweeps'][name]['wall_s']['old_median']} -> "
              f"{out['sweeps'][name]['wall_s']['new_median']}", file=sys.stderr)

    out["perfbench"] = perfbench_pairs(args.old, args.new, ["scheme_sweep", "trace_epochs"],
                                       seeds, args.pairs, args.seconds)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
