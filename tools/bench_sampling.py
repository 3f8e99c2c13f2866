"""Time engine.simulate at a range of sample strides on two source trees.

Usage, from the repository root:

    python3 tools/bench_sampling.py OLD_SRC NEW_SRC [--pairs 10] [--events 50000]

OLD_SRC and NEW_SRC are directories that hold a ``cutgossip`` package (for
example ``src`` of two checkouts).  Each pair runs one fresh interpreter
per tree, in alternating order, and each interpreter times every
(graph, stride) case: algA P=8 on barbell(16,16) and barbell(64,64) from
the worst-cut start, seed 3, with the event log recorded, at strides 1,
2, 4, 8, 16, 64 and 2^62 (no sampling but the firings).  A case's time is
the median of three runs.  Prints one JSON object: per case the times of
each pair, their medians, new/old, and how many pairs the new tree won.

    python3 tools/bench_sampling.py --crossover SRC [--events 20000]

times one tree's two sampling paths against each other instead: each
block forced down the per-sample path, then each forced down the dense
path, on barbell(4,4) to barbell(512,512) at strides 1 to 64, the best
of three alternating runs each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

STRIDES = (1, 2, 4, 8, 16, 64, 1 << 62)
GRAPHS = ((16, 16), (64, 64))

TIMER = """
import json, statistics, sys, time
from cutgossip import analysis, engine
from cutgossip.graph import build_barbell
from cutgossip.rules import parse_rule
events = int(sys.argv[1])
rule = parse_rule("algA:P=8,gamma=balanced,C=4")
out = {}
for a, b in %r:
    g = build_barbell(a, b)
    x0 = analysis.worst_cut_x0(g)
    for every in %r:
        cfg = engine.SimConfig(seed=3, max_events=events, sample_every=every,
                               record_events=True)
        ts = []
        for _ in range(3):
            t0 = time.perf_counter()
            engine.simulate(g, rule, x0, cfg)
            ts.append(time.perf_counter() - t0)
        out[f"barbell({a},{b}) sample_every={every}"] = statistics.median(ts)
print(json.dumps(out))
""" % (GRAPHS, STRIDES)


CROSSOVER = """
import json, sys, time
from cutgossip import analysis, engine
from cutgossip.graph import build_barbell
from cutgossip.rules import parse_rule
events = int(sys.argv[1])
rule = parse_rule("algA:P=8,gamma=balanced,C=4")
out = {}
for a in (4, 16, 64, 256, 512):
    g = build_barbell(a, a)
    x0 = analysis.worst_cut_x0(g)
    for every in (1, 2, 4, 8, 16, 32, 64):
        cfg = engine.SimConfig(seed=3, max_events=events, sample_every=every)
        best = {}
        for _ in range(3):
            for path, dense in (("sparse_s", 0), ("dense_s", 1 << 40)):
                engine._DENSE = dense
                t0 = time.perf_counter()
                engine.simulate(g, rule, x0, cfg)
                best[path] = min(best.get(path, 1e9), time.perf_counter() - t0)
        best["dense_over_sparse"] = best["dense_s"] / best["sparse_s"]
        out[f"n={2 * a} sample_every={every}"] = {k: round(v, 5) for k, v in best.items()}
print(json.dumps(out))
"""


def run(src: str, events: int, script: str = TIMER) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script, str(events)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new", nargs="?")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--events", type=int, default=50_000)
    p.add_argument("--crossover", action="store_true",
                   help="time one tree's sampling paths against each other")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.crossover:
        print(json.dumps(run(args.old, args.events, CROSSOVER), indent=1))
        return
    if args.new is None:
        p.error("give OLD_SRC and NEW_SRC, or --crossover SRC")
    old, new = [], []
    for k in range(args.pairs):
        order = ((args.old, old), (args.new, new))
        for src, times in order if k % 2 == 0 else order[::-1]:
            times.append(run(src, args.events))
    cases = {}
    for case in old[0]:
        o = [r[case] for r in old]
        n = [r[case] for r in new]
        cases[case] = {
            "old_s": [round(v, 5) for v in o],
            "new_s": [round(v, 5) for v in n],
            "old_median_s": round(statistics.median(o), 5),
            "new_median_s": round(statistics.median(n), 5),
            "new_over_old": round(statistics.median(n) / statistics.median(o), 3),
            "new_wins": sum(b < a for a, b in zip(o, n)),
        }
    print(json.dumps({"events": args.events, "pairs": args.pairs, "cases": cases}, indent=1))


if __name__ == "__main__":
    main()
