"""Spans recorded from outside the package, around its public functions.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call: name, start, end, parent span and, for a few functions, the
counts the result carries (events, samples, bytes written).  The patch
targets are the names as each *calling* module binds them: ``analysis``
holds its own ``simulate`` and ``side_subgraph`` imported from ``engine``
and ``graph``, and looks up ``estimate_T_van``, ``estimate_T_av``,
``epoch_operator`` and ``spectral_norm`` as module globals, so those are
patched in ``analysis``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict

from cutgossip import analysis, cli, engine, graph, walks

_MARK = "_perfbench_span"


def _simulate_info(trace, graph_, rule, x0, config):
    return {
        "kind": rule.kind,
        "events": trace.n_events,
        "samples": trace.n_samples,
        "last": trace.last_exceedance,
        "t_end": trace.final.time,
        "max_time": config.max_time,
    }


def _write_info(_result, _trace, path):
    return {"bytes": os.path.getsize(path)}


def _increments_info(result, _trace):
    return {"count": len(result)}


# (module, attribute, span name, info hook)
TARGETS = [
    (cli, "main", "cli.main", None),
    (analysis, "algA_scaling_sweep", "analysis.sweep", None),
    (analysis, "estimate_T_av", "analysis.estimate_T_av", None),
    (analysis, "estimate_T_van", "analysis.estimate_T_van", None),
    (analysis, "epoch_operators", "analysis.epoch_operators", None),
    (analysis, "epoch_operator", "analysis.epoch_operator", None),
    (analysis, "spectral_norm", "analysis.spectral_norm", None),
    (analysis, "simulate", "engine.simulate", _simulate_info),
    (analysis, "side_subgraph", "graph.build", None),
    (engine, "simulate", "engine.simulate", _simulate_info),
    (engine, "write_trace_jsonl", "engine.write_trace_jsonl", _write_info),
    (engine, "replay", "engine.replay", None),
    (engine, "replay_states", "engine.replay_states", None),
    (engine, "step", "engine.step", None),
    (engine, "next_event", "engine.next_event", None),
    (walks, "empirical_increments", "walks.empirical_increments", _increments_info),
    (walks, "dominance_check", "walks.dominance_check", None),
    (graph, "build_barbell", "graph.build", None),
    (graph, "side_subgraph", "graph.build", None),
]

LAYERS = ("cli", "analysis", "engine", "walks", "graph")


def assert_untraced() -> None:
    """Raise if any wrapper is still installed; untimed runs must be bare."""
    wrapped = [
        f"{mod.__name__}.{attr}"
        for mod, attr, _, _ in TARGETS
        if hasattr(getattr(mod, attr), _MARK)
    ]
    if wrapped:
        raise RuntimeError(f"tracing wrappers installed: {wrapped}")


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, info dict or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if info is not None:
                span[4] = info(result, *args, **kwargs)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def __enter__(self) -> "Tracer":
        for mod, attr, name, info in TARGETS:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, info))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path, run_id: str) -> None:
        with open(path, "a", encoding="ascii") as fh:
            for i, (name, t0, t1, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": run_id, "id": i, "name": name, "start": t0,
                    "end": t1, "parent": parent, "info": info,
                }) + "\n")


def layer_metrics(spans: list[list], job_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job, derived from its spans.

    A span's self time is its duration minus its children's durations.
    ``X.s`` sums the durations of outermost ``X`` spans, so a span nested
    in one of its own name is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += t1 - t0 - child[i]
        if parent < 0 or spans[parent][0] != name:
            total[name] += t1 - t0

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else ""

    def ok(span, name):
        return span[0] == name and not (span[4] and "error" in span[4])

    sims = [(s[1], s[2], s[4], parent_name(i)) for i, s in enumerate(spans)
            if ok(s, "engine.simulate")]
    kind_events = defaultdict(int)
    kind_time = defaultdict(float)
    settled_last = settled_end = 0.0
    est_runs = est_settled = 0
    events = samples = 0
    for t0, t1, info, pname in sims:
        kind_events[info["kind"]] += info["events"]
        kind_time[info["kind"]] += t1 - t0
        events += info["events"]
        samples += info["samples"]
        if info["last"] is not None and math.isfinite(info["last"]):
            settled_last += info["last"]
            settled_end += info["t_end"]
        if pname == "analysis.estimate_T_av":
            est_runs += 1
            if info["last"] is not None and info["last"] <= info["max_time"] / 2:
                est_settled += 1

    def rate(kind):
        t = kind_time[kind]
        return kind_events[kind] / t / 1e6 if t > 0 else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(name):
        return ratio(self_s[name], calls[name]) * 1e6

    tvan_calls = calls["analysis.estimate_T_van"]
    tvan_retries = sum(
        1 for s in spans
        if s[0] == "analysis.estimate_T_van"
        and s[4] == {"error": "HorizonTooShortError"}
    )
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value

    out = {
        "cli.main.s": total["cli.main"],
        "analysis.sweep.s": total["analysis.sweep"],
        "analysis.estimate_T_av.calls": calls["analysis.estimate_T_av"],
        "analysis.estimate_T_av.self_s": self_s["analysis.estimate_T_av"],
        "analysis.settled_frac": ratio(est_settled, est_runs),
        "analysis.estimate_T_van.calls": tvan_calls,
        "analysis.estimate_T_van.s": total["analysis.estimate_T_van"],
        "analysis.estimate_T_van.retries": tvan_retries,
        "analysis.tvan_useful_frac": ratio(tvan_calls - tvan_retries, tvan_calls),
        "analysis.epoch_operators.s": total["analysis.epoch_operators"],
        "analysis.epoch_operator.self_s": self_s["analysis.epoch_operator"],
        "analysis.spectral_norm.calls": calls["analysis.spectral_norm"],
        "analysis.spectral_norm.s": total["analysis.spectral_norm"],
        "engine.simulate.calls": calls["engine.simulate"],
        "engine.simulate.s": total["engine.simulate"],
        "engine.events": events,
        "engine.mev_per_s.vanilla": rate("vanilla"),
        "engine.mev_per_s.algA": rate("algA"),
        "engine.useful_time_frac": ratio(settled_last, settled_end),
        "engine.samples": samples,
        "engine.samples_per_event": ratio(samples, events),
        "engine.write_trace_jsonl.s": total["engine.write_trace_jsonl"],
        "engine.trace_bytes": sum(
            s[4]["bytes"] for s in spans if ok(s, "engine.write_trace_jsonl")
        ),
        "engine.replay.s": total["engine.replay"],
        "engine.step.us_per_call": per_call_us("engine.step"),
        "engine.next_event.us_per_call": per_call_us("engine.next_event"),
        "walks.empirical_increments.s": total["walks.empirical_increments"],
        "walks.increments": sum(
            s[4]["count"] for s in spans if ok(s, "walks.empirical_increments")
        ),
        "walks.dominance_check.s": total["walks.dominance_check"],
        "graph.build.s": total["graph.build"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.layer_self_frac"] = ratio(sum(layer_self.values()), job_s)
    return out
