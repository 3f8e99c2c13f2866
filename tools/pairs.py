"""Interleaved pairs of runs on two source trees, summed up per metric.

Usage, from any directory::

    python3 tools/pairs.py OLD NEW [--pairs 10] [--seeds 3,20241]
        [--seconds 5] [--workloads scheme_sweep,trace_epochs]
    python3 tools/pairs.py OLD NEW [--pairs 10] -- ARGV...

OLD and NEW are roots of source checkouts, for example a ``git archive``
of the parent commit and this checkout (the same tree twice is an A/A
set).  Every run is a fresh process started in its tree's root, and the
side that runs first alternates from pair to pair, so a drift of the
host's speed falls on both sides alike.  Prints one JSON object.

Perfbench mode (no ARGV): per workload and seed, pairs of
``perfbench/run.py --trace 0 --seconds S``: both sides' failed checks
and, per end-to-end metric of NEW's ``BENCHMARK.json``, a summary in the
metric's better direction.  Command mode: pairs of ARGV run with
``PYTHONPATH=<tree>/src`` (so ``cutgossip ...`` runs that tree's
package): summaries of the wall time and of the CPU time of the process
and its children, each side's stdout sha256 (from its first run) and
``same_stdout``, whether every run of both sides printed the same bytes.
A run that exits non-zero stops the runner.

A gain is claimed only when the new side wins at least 9 of 10 pairs and
the medians differ by more than the old side's interquartile range.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run(root: str, argv: list, env: dict | None = None) -> tuple[str, float, float]:
    """Stdout, wall seconds and CPU seconds (of the process and its
    children) of ARGV started in ``root``."""
    was = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    now = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode} in {root}")
    cpu = now.ru_utime + now.ru_stime - was.ru_utime - was.ru_stime
    return done.stdout, wall, cpu


def pairs(n: int, old, new) -> tuple[list, list]:
    """n results of each callable, alternating which runs first."""
    olds, news = [], []
    for k in range(n):
        order = ((old, olds), (new, news))
        for call, got in order if k % 2 == 0 else order[::-1]:
            got.append(call())
    return olds, news


def summary(olds: list, news: list, better: str = "lower") -> dict:
    """Every value, the medians, the old runs' interquartile range (None
    for one run), new/old and the new side's wins (ties count for neither)."""
    q = statistics.quantiles(olds, n=4) if len(olds) > 1 else None
    wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(olds, news))
    return {
        "old": [round(v, 5) for v in olds],
        "new": [round(v, 5) for v in news],
        "old_median": round(statistics.median(olds), 5),
        "new_median": round(statistics.median(news), 5),
        "old_iqr": round(q[2] - q[0], 5) if q else None,
        "new_over_old": round(statistics.median(news) / statistics.median(olds), 4),
        "new_wins": wins,
    }


def perfbench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced perfbench run in ``root``."""
    out, _, _ = run(root, [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"])
    return json.loads(out.strip().splitlines()[-1])


def perfbench_pairs(old: str, new: str, workloads: list, seeds: list, n: int,
                    seconds: float) -> dict:
    spec = json.loads((Path(new) / "BENCHMARK.json").read_text())
    out = {}
    for workload in workloads:
        for seed in seeds:
            olds, news = pairs(n, lambda: perfbench(old, workload, seed, seconds),
                               lambda: perfbench(new, workload, seed, seconds))
            row = {"failed": {"old": sum(r["failed"] for r in olds),
                              "new": sum(r["failed"] for r in news)}}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                row[name] = summary([r["metrics"][name]["value"] for r in olds],
                                    [r["metrics"][name]["value"] for r in news],
                                    metric["better"])
            out[f"{workload} seed {seed}"] = row
            print(f"{workload} seed {seed}: job_s {row['job_s']['old_median']} -> "
                  f"{row['job_s']['new_median']}", file=sys.stderr)
    return out


def command_pairs(old: str, new: str, argv: list, n: int) -> dict:
    def timed(root: str):
        env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
        stdout, wall, cpu = run(root, argv, env)
        return wall, cpu, hashlib.sha256(stdout.encode()).hexdigest()

    olds, news = pairs(n, lambda: timed(old), lambda: timed(new))
    out = {key: summary([r[i] for r in olds], [r[i] for r in news])
           for i, key in enumerate(("wall_s", "cpu_s"))}
    out["stdout_sha256"] = {"old": olds[0][2], "new": news[0][2]}
    out["same_stdout"] = len({r[2] for r in olds + news}) == 1
    print(f"{' '.join(argv)}: wall_s {out['wall_s']['old_median']} -> "
          f"{out['wall_s']['new_median']}", file=sys.stderr)
    return out


def main() -> None:
    args = sys.argv[1:]
    argv = args[args.index("--") + 1:] if "--" in args else []
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                usage="%(prog)s OLD NEW [options] [-- ARGV...]")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", default="3,20241", help="perfbench mode only")
    p.add_argument("--seconds", type=float, default=5.0, help="perfbench mode only")
    p.add_argument("--workloads", default="scheme_sweep,trace_epochs",
                   help="perfbench mode only")
    opts = p.parse_args(args[:len(args) - len(argv) - ("--" in args)])
    if opts.pairs < 1:
        p.error("--pairs must be at least 1")
    for root in (opts.old, opts.new):
        if not (Path(root) / "src" / "cutgossip").is_dir():
            p.error(f"{root} is not a source checkout (no src/cutgossip)")
    out = {"pairs": opts.pairs}
    if argv:
        out.update(argv=argv, command=command_pairs(opts.old, opts.new, argv, opts.pairs))
    else:
        seeds = [int(s) for s in opts.seeds.split(",")]
        out.update(seconds=opts.seconds, perfbench=perfbench_pairs(
            opts.old, opts.new, opts.workloads.split(","), seeds, opts.pairs,
            opts.seconds))
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
