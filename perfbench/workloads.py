"""The benchmark workloads: inputs, the timed job, and output checks.

Each workload builds its inputs from a seed in :meth:`setup`, runs the
package in :meth:`job` (the timed part), and returns named pass/fail
checks from :meth:`checks`.  The checks restate properties the acceptance
battery asserts, plus a comparison against ``reference.json`` (see
:func:`reference_checks`).  Every package call goes through a module
attribute (``cli.main``, ``engine.simulate``, ...) so that the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from cutgossip import analysis, cli, engine, graph, walks
from cutgossip.rules import parse_rule

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Seeds absent from the reference table are checked against a band: each
# value must lie within [min / BAND, max * BAND] of the stored seeds' values.
BAND = 1.5

# The package expands a master seed m into run seeds m + r (plus fixed
# offsets per stream and sweep point), so consecutive masters share all
# but one run.  Workload seed s uses master s * SEED_STRIDE, whose run
# seeds no other workload seed's runs overlap.
SEED_STRIDE = 1_000_000_007


def master_seed(seed: int) -> int:
    return seed * SEED_STRIDE


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _sweep_rows(stdout: str) -> dict[int, dict[str, str]]:
    """Rows of the sweep's stdout table keyed by n.  The table is joined
    with bare commas, so the rule column (``algA:P=..,gamma=..,C=..``)
    spans several fields; they are joined back."""
    lines = [ln.split(",") for ln in stdout.splitlines()
             if ln and not ln.startswith("#")]
    header, rows = lines[0], {}
    at = header.index("rule")
    for fields in lines[1:]:
        extra = len(fields) - len(header)
        fields[at : at + extra + 1] = [",".join(fields[at : at + extra + 1])]
        row = dict(zip(header, fields))
        rows[int(row["n"])] = row
    return rows


class SchemeSweep:
    """Scaled-down acceptance scheme sweep through ``cutgossip sweep``.

    Each point resolves its firing period from vanilla block estimates
    (T_van), then estimates the averaging time under the periodic scheme.
    """

    name = "scheme_sweep"
    rule = "algA:gamma=balanced,C=4"
    # T_van estimates and the period come from vanilla runs, which are
    # promised bit-identical for a fixed seed: exact.  The amplified
    # transfer's rounding may change at the ulp level, which moves no
    # event time; a moved crossing exceeds the tolerance.
    tolerance = {"tvan1": 0.0, "tvan2": 0.0, "P": 0.0, "t_hat": 1e-6}

    def __init__(self, workdir: Path, tiny: bool = False) -> None:
        # n=128 keeps its period at 3 for every seed, hence its horizon and
        # work; n=96 would flip between P=3 and P=4 from seed to seed.
        self.n_values = [4, 8] if tiny else [16, 32, 64, 128]
        self.runs = 30

    @property
    def mc_runs(self) -> int:
        return len(self.n_values) * self.runs

    def setup(self, seed: int) -> dict:
        # The command line is the whole input; the sweep builds its graphs.
        return {
            "seed": seed,
            "argv": [
                "sweep", "--family", "barbell", "--rule", self.rule,
                "--n", ",".join(map(str, self.n_values)),
                "--runs", str(self.runs), "--seed", str(master_seed(seed)),
            ],
        }

    def job(self, inputs: dict) -> dict:
        code, out = _run_cli(inputs["argv"])
        return {"code": code, "rows": _sweep_rows(out) if code == 0 else {}}

    def check_names(self) -> list[str]:
        names = ["exit_code"]
        for n in self.n_values:
            names += [f"n{n}.uncensored", f"n{n}.ratio_finite"]
        return names

    def checks(self, inputs: dict, result: dict) -> dict[str, bool]:
        out = {"exit_code": result["code"] == 0}
        for n in self.n_values:
            row = result["rows"].get(n)
            out[f"n{n}.uncensored"] = row is not None and row["censored"] == "False"
            out[f"n{n}.ratio_finite"] = (
                row is not None and math.isfinite(float(row["ratio"]))
            )
        return out

    def reference_values(self, result: dict) -> dict:
        rows = [result["rows"][n] for n in self.n_values]
        return {
            "tvan1": [float(r["tvan1"]) for r in rows],
            "tvan2": [float(r["tvan2"]) for r in rows],
            "P": [int(r["P"]) for r in rows],
            "t_hat": [float(r["t_hat"]) for r in rows],
        }


class TraceEpochs:
    """Library pipeline on barbell(16,16) with the firing period fixed.

    One long run sampled at every event with the event log recorded, its
    JSONL trace, a step-driven locality loop, replay, epoch operators with
    spectral norms, and epoch increments pooled over short unsampled runs
    (one long run reaches exact consensus within a few epochs, too few for
    the dominance check's 100-increment minimum).
    """

    name = "trace_epochs"
    period = 8  # what period resolution gives on barbell(16,16), C=4
    tolerance = {"first_crossing": 1e-6, "epochs": 0.0, "increments": 0.0}

    def __init__(self, workdir: Path, tiny: bool = False) -> None:
        self.workdir = workdir
        self.events = 5_000 if tiny else 50_000
        self.steps = 1_000 if tiny else 5_000
        self.pool_runs = 40

    @property
    def mc_runs(self) -> int:
        return 1 + self.pool_runs

    def setup(self, seed: int) -> dict:
        g = graph.build_barbell(16, 16)
        return {
            "seed": seed,
            "graph": g,
            "rule": parse_rule(f"algA:P={self.period},gamma=balanced,C=4"),
            "x0": analysis.worst_cut_x0(g),
            "path": os.fspath(self.workdir / f"{self.name}-seed{seed}.jsonl"),
        }

    def job(self, inputs: dict) -> dict:
        g, rule, x0 = inputs["graph"], inputs["rule"], inputs["x0"]
        seed = master_seed(inputs["seed"])
        trace = engine.simulate(g, rule, x0, engine.SimConfig(
            seed=seed, max_events=self.events, sample_every=1, record_events=True,
        ))
        engine.write_trace_jsonl(trace, inputs["path"])
        with open(inputs["path"], "rb") as fh:
            jsonl_rows = sum(chunk.count(b"\n")
                             for chunk in iter(lambda: fh.read(1 << 20), b""))

        # step-driven locality loop, as in the invariant battery
        rng = np.random.default_rng(seed)
        state = engine.StateVector.from_values(x0)
        eu, ev, _ = g.flat_edges()
        cut_ticks = 0
        local = True
        for _ in range(self.steps):
            _dt, edge = engine.next_event(rng, g.num_edges)
            new, _case, cut_ticks = engine.step(state, g, rule, edge, cut_ticks)
            changed = np.flatnonzero(new.values != state.values).tolist()
            local = local and set(changed) <= {eu[edge], ev[edge]}
            state = new

        replayed = engine.replay(g, rule, x0, trace.event_log)
        ops = analysis.epoch_operators(trace, g, rule)
        states = engine.replay_states(
            g, rule, x0, trace.event_log, trace.epoch_event_idx.tolist()
        )

        increments = walks.empirical_increments(trace).tolist()
        for r in range(self.pool_runs):
            short = engine.simulate(g, rule, x0, engine.SimConfig(
                seed=analysis.run_seed(seed, 1, r),
                max_time=10.0 * self.period, sample_every=1 << 62,
            ))
            if len(short.epoch_marks) >= 2:
                increments.extend(walks.empirical_increments(short).tolist())
        dominance = walks.dominance_check(
            increments, g.n, slack=0.1 * math.log(g.n)
        )
        return {
            "trace": trace, "jsonl_rows": jsonl_rows, "step_state": state,
            "local": local, "replayed": replayed, "ops": ops, "states": states,
            "increments": len(increments), "dominance": dominance,
        }

    def check_names(self) -> list[str]:
        return [
            "replay_bitwise", "conservation", "step_conservation", "locality",
            "epoch_operators_map", "dominance", "jsonl_rows",
        ]

    def checks(self, inputs: dict, result: dict) -> dict[str, bool]:
        trace, x0 = result["trace"], inputs["x0"]
        scale = float(x0.max() - x0.min())

        def drift_ok(state):
            drift = abs(math.fsum(state.values.tolist()) - state.initial_sum)
            return drift / scale <= 1e-9

        faithful = len(result["ops"]) > 0
        states = result["states"]
        for k, op in enumerate(result["ops"]):
            start, end = states[k], states[k + 1]
            size = max(np.linalg.norm(start), np.linalg.norm(end), 1e-300)
            faithful = faithful and np.linalg.norm(op.matrix @ start - end) / size <= 1e-9
        return {
            "replay_bitwise": np.array_equal(result["replayed"], trace.final.values),
            "conservation": drift_ok(trace.final),
            "step_conservation": drift_ok(result["step_state"]),
            "locality": result["local"],
            "epoch_operators_map": bool(faithful),
            "dominance": result["dominance"].passed,
            "jsonl_rows": result["jsonl_rows"] == trace.n_samples + 1,
        }

    def reference_values(self, result: dict) -> dict:
        trace = result["trace"]
        return {
            "first_crossing": [trace.first_crossing],
            "epochs": [len(trace.epoch_marks)],
            "increments": [result["increments"]],
        }


WORKLOADS = {w.name: w for w in (SchemeSweep, TraceEpochs)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def _close(value, ref, tol) -> bool:
    return value == ref if tol == 0.0 else abs(value - ref) <= tol * abs(ref)


def reference_checks(workload, size: str, seed: int, values: dict,
                     reference: dict) -> dict[str, bool]:
    """Compare ``values`` (lists keyed by name) with the stored reference.

    Stored seeds compare with the workload's per-key tolerance (0 means
    exact).  Other seeds must fall within the band the stored seeds span,
    widened by ``BAND`` either way.
    """
    table = reference[size][workload.name]
    out = {}
    for key, vals in values.items():
        if str(seed) in table:
            refs = table[str(seed)][key]
            ok = len(refs) == len(vals) and all(
                _close(v, r, workload.tolerance[key]) for v, r in zip(vals, refs)
            )
        else:
            ok = all(
                min(col) / BAND <= v <= max(col) * BAND
                for v, col in zip(vals, zip(*(row[key] for row in table.values())))
            )
        out[f"reference.{key}"] = ok
    return out


def reference_names(workload) -> list[str]:
    return [f"reference.{key}" for key in workload.tolerance]
