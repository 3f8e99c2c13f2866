"""Measure the consensus skip and the run-length trace rows on two trees.

Usage, from the repository root:

    python3 tools/bench_consensus.py OLD_ROOT NEW_ROOT [--pairs 10]
        [--seeds 3,20241] [--seconds 5] > BENCH_single_run.json

OLD_ROOT and NEW_ROOT are source checkouts, each with ``src/`` and
``perfbench/`` (for example a ``git archive`` of the parent commit and
this checkout).  Prints one JSON object with three parts:

- ``counts``: NEW_ROOT's ``trace_epochs`` job at each seed, with
  ``engine._pair_updates`` and ``engine._json_cells`` wrapped.  Per stage
  (the sampled run, the dominance pool, the replays) the events given to
  the scalar update loop and the events it applied; and the JSONL rows
  written against the row tails formatted (each ``_json_cells`` call
  formats the ``t`` column of a chunk or one tail column of its runs).
  The script fails unless, per stage, the events given to the loop equal
  the events simulated or replayed, so a change to the loop's call shape
  cannot miscount silently.
- ``never_idle``: ``engine.simulate`` on barbell(64,64), vanilla, a random
  start, 50,000 events, unsampled, where no side ever reaches exact
  consensus.  Each pair runs one fresh interpreter per tree, in
  alternating order; each reports the median of seven runs and the events
  applied.
- ``perfbench``: per workload and seed, ``--pairs`` interleaved runs of
  ``perfbench/run.py --trace 0 --seconds S`` on each tree: every run's
  end-to-end metrics, their medians, the interquartile range of the old
  tree's runs (null for one pair), and how many pairs the new tree won.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

COUNTS = r"""
import json, sys, tempfile
from pathlib import Path
root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from cutgossip import engine
import workloads

stage = ["sampled"]
events, applied, simulated = {}, {}, {}  # per stage
pair_updates, json_cells, simulate, replay_states = (
    engine._pair_updates, engine._json_cells, engine.simulate, engine.replay_states)
cells = []

def counted(x, e, *args, **kwargs):
    live = pair_updates(x, e, *args, **kwargs)
    events[stage[0]] = events.get(stage[0], 0) + len(e)
    applied[stage[0]] = applied.get(stage[0], 0) + (len(e) if live is None else len(live))
    return live

def sim(*args, **kwargs):
    trace = simulate(*args, **kwargs)
    simulated[stage[0]] = simulated.get(stage[0], 0) + trace.n_events
    stage[0] = "pool"  # every run after the sampled one
    return trace

def replay(graph, rule, x0, log, at_indices):
    was, stage[0] = stage[0], "replay"
    try:
        states = replay_states(graph, rule, x0, log, at_indices)
    finally:
        stage[0] = was
    # replay_states applies the events up to its last index
    simulated["replay"] = simulated.get("replay", 0) + max(at_indices, default=-1) + 1
    return states

def counted_cells(values):
    cells.append(len(values))
    return json_cells(values)

engine._pair_updates, engine._json_cells = counted, counted_cells
engine.simulate, engine.replay_states = sim, replay
with tempfile.TemporaryDirectory() as tmp:
    wl = workloads.TraceEpochs(Path(tmp))
    result = wl.job(wl.setup(seed))
rows = result["trace"].n_samples
if events != simulated:
    raise SystemExit(f"events given to the loop {events}, simulated or replayed {simulated}")
print(json.dumps({
    "events": events, "applied": applied,
    "applied_frac": {k: round(applied[k] / events[k], 4) for k in events},
    "jsonl_rows": rows, "tails_formatted": (sum(cells) - rows) // 6,
}))
"""

NEVER_IDLE = r"""
import json, statistics, sys, time
import numpy as np
from cutgossip import analysis, engine, graph
from cutgossip.rules import parse_rule
g = graph.build_barbell(64, 64)
rule = parse_rule("vanilla")
x0 = analysis.random_x0(g.n, np.random.default_rng(3))
cfg = engine.SimConfig(seed=3, max_events=50_000, sample_every=1 << 62)
ts = []
for _ in range(7):
    t0 = time.perf_counter()
    engine.simulate(g, rule, x0, cfg)
    ts.append(time.perf_counter() - t0)
applied = [0]
pair_updates = engine._pair_updates
def counted(x, e, *args, **kwargs):
    live = pair_updates(x, e, *args, **kwargs)
    applied[0] += len(e) if live is None else len(live)
    return live
engine._pair_updates = counted
engine.simulate(g, rule, x0, cfg)
print(json.dumps({"median_s": statistics.median(ts), "applied": applied[0]}))
"""


def python(root: str, script: str, *argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    # stderr passes through, so a failed count check says what differed
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def perfbench(root: str, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    out = {k: v["value"] for k, v in result["metrics"].items()}
    out["failed"] = result["failed"]
    return out


def pairs(n: int, old, new) -> tuple[list, list]:
    """n results of each callable, alternating which runs first."""
    olds, news = [], []
    for k in range(n):
        order = ((old, olds), (new, news))
        for run, got in order if k % 2 == 0 else order[::-1]:
            got.append(run())
    return olds, news


def summary(olds: list, news: list, better: str = "lower") -> dict:
    """Medians, the old runs' interquartile range (None for one run) and
    the new tree's wins."""
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


def perfbench_pairs(old: str, new: str, workloads, seeds, n: int,
                    seconds: float) -> dict:
    """Per workload and seed, ``n`` interleaved ``perfbench`` runs of each
    tree: the failed checks and a :func:`summary` per end-to-end metric.
    Reports each workload's ``job_s`` medians on stderr as it goes."""
    bounds = {"setup_s": "lower", "job_s": "lower", "runs_per_s": "higher",
              "peak_rss_mb": "lower"}
    out = {}
    for workload in workloads:
        for seed in seeds:
            olds, news = pairs(n, lambda: perfbench(old, workload, seed, seconds),
                               lambda: perfbench(new, workload, seed, seconds))
            row = {"failed": {"old": sum(r["failed"] for r in olds),
                              "new": sum(r["failed"] for r in news)}}
            for metric, better in bounds.items():
                row[metric] = summary([r[metric] for r in olds],
                                      [r[metric] for r in news], better)
            out[f"{workload} seed {seed}"] = row
            print(f"{workload} seed {seed}: job_s {row['job_s']['old_median']} -> "
                  f"{row['job_s']['new_median']}", file=sys.stderr)
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seeds", default="3,20241")
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--workloads", default="trace_epochs,scheme_sweep")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"pairs": args.pairs, "seconds": args.seconds}

    out["counts"] = {seed: python(args.new, COUNTS, os.path.abspath(args.new), str(seed))
                     for seed in seeds}

    olds, news = pairs(args.pairs, lambda: python(args.old, NEVER_IDLE),
                       lambda: python(args.new, NEVER_IDLE))
    out["never_idle"] = {
        "case": "barbell(64,64), vanilla, random start, seed 3, 50,000 events, unsampled",
        "applied": {"old": olds[0]["applied"], "new": news[0]["applied"]},
        "median_s": summary([r["median_s"] for r in olds], [r["median_s"] for r in news]),
    }

    out["perfbench"] = perfbench_pairs(args.old, args.new, args.workloads.split(","),
                                       seeds, args.pairs, args.seconds)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
