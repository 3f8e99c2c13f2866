"""Self-test of the benchmark at tiny sizes.

Usage, from the root of a source checkout::

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json,
with its unit, in both tracing modes; that corrupted outputs (a perturbed
replay state, a perturbed t_hat) fail checks, so a nonzero fail fraction
is reachable; and that without the package source the benchmark exits
nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, os.fspath(run.SRC))
import workloads  # noqa: E402

SEED = run.DEV_SEED
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        problems.append(what)


def run_bench(workload: str, trace: int, cwd=run.ROOT, script=None):
    cmd = [sys.executable, os.fspath(script or Path(run.__file__)),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_printed_metrics() -> None:
    spec = json.loads(run.SPEC.read_text())
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(name, trace)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and bool(lines),
                   f"{name} trace={trace} exits 0 and prints")
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                continue
            out = json.loads(lines[-1])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace} result keys")
            expect(out["correct"] is True and out["failed"] == 0
                   and out["attempted"] >= 1,
                   f"{name} trace={trace} output checks pass")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = out["metrics"]
            expect(set(got) == set(wanted), f"{name} trace={trace} metric names")
            expect(all(
                got.get(m, {}).get("unit") == unit
                and isinstance(got[m]["value"], numbers.Real)
                and math.isfinite(got[m]["value"])
                for m, unit in wanted.items()
            ), f"{name} trace={trace} metric units and numeric values")
            info = json.loads(lines[-2])
            expect({"nproc", "cpu", "python", "numpy", "cutgossip", "commit",
                    "seed"} <= set(info["machine"]),
                   f"{name} trace={trace} machine record")


def fail_fraction(wl, inputs, result) -> float:
    checks = wl.checks(inputs, result)
    checks.update(workloads.reference_checks(
        wl, "tiny", SEED, wl.reference_values(result), workloads.load_reference()))
    return sum(not ok for ok in checks.values()) / len(checks)


def check_corruption(workdir: Path) -> None:
    wl = workloads.TraceEpochs(workdir, tiny=True)
    inputs = wl.setup(SEED)
    result = wl.job(inputs)
    expect(fail_fraction(wl, inputs, result) == 0.0, "trace_epochs clean output passes")
    replayed = result["replayed"].copy()
    replayed[0] = np.nextafter(replayed[0], math.inf)
    result["replayed"] = replayed
    expect(fail_fraction(wl, inputs, result) > 0.0,
           "trace_epochs perturbed replay state fails a check")

    wl = workloads.SchemeSweep(workdir, tiny=True)
    inputs = wl.setup(SEED)
    result = wl.job(inputs)
    expect(fail_fraction(wl, inputs, result) == 0.0, "scheme_sweep clean output passes")
    row = result["rows"][wl.n_values[-1]]
    row["t_hat"] = repr(float(row["t_hat"]) * (1.0 + 1e-3))
    expect(fail_fraction(wl, inputs, result) > 0.0,
           "scheme_sweep perturbed t_hat fails a check")


def check_without_source(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.SPEC, bare / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("scheme_sweep", 0, cwd=bare,
                     script=bare / "perfbench" / "run.py")
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "without src/ the benchmark exits nonzero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    run.WORKDIR.mkdir(exist_ok=True)
    check_printed_metrics()
    check_corruption(run.WORKDIR)
    check_without_source(run.WORKDIR)
    print(f"selftest: {'ok' if not problems else f'{len(problems)} failed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
