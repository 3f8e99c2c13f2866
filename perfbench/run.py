"""cutgossip benchmark: one workload per process, tracing off or on.

Usage, from the root of a source checkout (no install or build needed)::

    python3 perfbench/run.py --workload scheme_sweep --seed 3 --seconds 60 --trace 0

Workloads (see ``workloads.py`` and the ``why`` lines in BENCHMARK.json):
``scheme_sweep`` and ``trace_epochs``.  Each runs with
``workers=1`` in this process, imported from ``src/`` of the checkout.

``--trace 0`` repeats the job until ``--seconds`` would be exceeded (at
least three times) with no wrapper installed, and reports the end-to-end
metrics: median set-up time over several fresh interpreters, median job
time, Monte Carlo runs per second and peak RSS.  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics derived from
the spans (``tracer.py``), plus the tracing overhead.  Every job's output
is checked; the last stdout line is the JSON result with ``correct``,
``attempted`` (checks run), ``failed`` (checks failed) and ``metrics``.
The line before it records the machine, versions, commit and seed.

Seeds: ``DEV_SEED`` is the development seed; ``HELD_OUT_SEED`` is kept
out of development and confirms a claimed gain.  Both have stored
references in ``reference.json`` (regenerate with ``make_reference.py``).
Spans, traces and a copy of each result go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKDIR = ROOT / ".perfbench_out"

DEV_SEED = 3
HELD_OUT_SEED = 20_241
SETUP_REPS = 7
MIN_REPS = 3


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(seed: int) -> dict:
    import numpy
    import cutgossip

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cutgossip": cutgossip.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def _probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    the package and built the workload's inputs."""
    cmd = [sys.executable, os.fspath(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cutgossip" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.fspath(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](WORKDIR, args.tiny)
    if args.setup_probe:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    import tracer

    spec = json.loads(SPEC.read_text())
    if not args.trace:
        setup_s = statistics.median(
            _probe_setup(args.workload, args.seed, args.tiny)
            for _ in range(SETUP_REPS)
        )
    inputs = wl.setup(args.seed)
    reference = workloads.load_reference()
    size = "tiny" if args.tiny else "full"
    names = wl.check_names() + workloads.reference_names(wl)
    tally = {"attempted": 0, "failed": 0}
    failures: dict[str, int] = {}
    spans_path = WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        spans_path.unlink(missing_ok=True)

    def run_job(traced: bool, rep: int) -> tuple[float, dict | None]:
        if not traced:
            tracer.assert_untraced()
        tr = tracer.Tracer() if traced else None
        layers = None
        t0 = time.perf_counter()
        try:
            with tr or contextlib.nullcontext():
                result = wl.job(inputs)
                checks = wl.checks(inputs, result)
                checks.update(workloads.reference_checks(
                    wl, size, args.seed, wl.reference_values(result), reference))
            job_s = time.perf_counter() - t0
            ok = [bool(checks.get(name, False)) for name in names]
        except Exception:
            job_s = time.perf_counter() - t0
            traceback.print_exc()
            ok = [False] * len(names)
        if tr is not None:
            layers = tracer.layer_metrics(tr.spans, job_s)
            tr.write(spans_path, f"{args.workload}-{args.seed}-{rep}")
        tally["attempted"] += len(ok)
        tally["failed"] += ok.count(False)
        for name, good in zip(names, ok):
            if not good:
                failures[name] = failures.get(name, 0) + 1
        return job_s, layers

    deadline = time.perf_counter() + args.seconds
    plain: list[float] = []
    traced: list[tuple[float, dict]] = []
    while True:
        plain.append(run_job(False, len(plain))[0])
        if args.trace:
            traced.append(run_job(True, len(traced)))
        reps = len(plain)
        per_rep = statistics.median(plain) + (
            statistics.median(t for t, _ in traced) if traced else 0.0)
        if tally["failed"] or (
            reps >= MIN_REPS and time.perf_counter() + per_rep > deadline
        ):
            break

    job_s = statistics.median(plain)
    if args.trace:
        traced_s = statistics.median(t for t, _ in traced)
        values = {
            key: statistics.median_low(layers[key] for _, layers in traced)
            for key in traced[0][1]
        }
        values["trace.job_s"] = traced_s
        values["trace.overhead_s"] = traced_s - job_s
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "job_s": job_s,
            "runs_per_s": wl.mc_runs / job_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "job_s_samples": plain,
        "traced_job_s_samples": [t for t, _ in traced],
        "failed_checks": failures,
    }
    (WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
