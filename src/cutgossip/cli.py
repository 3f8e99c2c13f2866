"""Command-line front end: simulate, estimate, sweep, check.

Exit codes: 0 success, 1 check failure, 2 usage/config error.  Every
command is deterministic given its configuration including the seed.
All randomness flows from one master seed per command, expanded into
per-run seeds by the counter scheme in :func:`cutgossip.analysis.run_seed`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import analysis, engine, graph as graphmod, walks
from .rules import RuleDescriptor, parse_rule

__all__ = ["main", "parse_graph_spec"]

# Run budget of ``check dominance``, whatever --min-increments asks for.
DOMINANCE_MAX_RUNS = 200


class ConfigError(ValueError):
    """Bad configuration value or file; maps to exit code 2."""


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parse_graph_spec(spec: str, seed: int) -> graphmod.PartitionedGraph:
    """Build a graph from a source spec.

    Forms: ``barbell:N1,N2``, ``file:PATH``, and
    ``random:n1=..,n2=..,p1=..,p2=..,k12=..`` (seeded from the command's
    master seed).
    """
    kind, _, arg = spec.partition(":")
    try:
        if kind == "barbell":
            a, b = (int(v) for v in arg.split(","))
            return graphmod.build_barbell(a, b)
        if kind == "file":
            return graphmod.load_graph(arg)
        if kind == "random":
            opts = dict(item.split("=", 1) for item in arg.split(","))
            if unknown := opts.keys() - {"n1", "n2", "p1", "p2", "k12"}:
                raise ValueError(f"unknown keys {sorted(unknown)} (n1, n2, p1, p2, k12)")
            return graphmod.random_partitioned(
                int(opts["n1"]),
                int(opts["n2"]),
                float(opts.get("p1", 0.8)),
                float(opts.get("p2", 0.8)),
                int(opts.get("k12", 1)),
                seed,
            )
    except (ValueError, KeyError, OSError) as exc:
        raise ConfigError(f"bad graph spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown graph spec kind {kind!r}")


def _resolved_rule(
    args: argparse.Namespace, g: graphmod.PartitionedGraph
) -> RuleDescriptor:
    """The configured rule; an algA rule without P gets its firing period
    from block averaging-time estimates (60 runs each)."""
    rule = parse_rule(args.rule)
    if rule.kind == "algA" and rule.period is None:
        period, _, _ = analysis.resolve_period(g, rule.c_const, args.seed, runs=60)
        rule = replace(rule, period=period)
    return rule


def _emit(payload: dict, out: str) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.max_events is None and args.max_time is None:
        raise ConfigError("simulate needs --max-events and/or --max-time")
    g = parse_graph_spec(args.graph, args.seed)
    rule = _resolved_rule(args, g)
    x0 = _initial_state(args.x0, g, args.seed)
    sim_cfg = engine.SimConfig(
        seed=args.seed,
        max_time=args.max_time,
        max_events=args.max_events,
        sample_every=args.sample_every,
        record_events=args.record_events,
    )
    trace = engine.simulate(g, rule, x0, sim_cfg)
    fmt = args.format or ("csv" if args.out.endswith(".csv") else "jsonl")
    if fmt == "csv":
        engine.write_trace_csv(trace, args.out)
    else:
        engine.write_trace_jsonl(trace, args.out)
    print(
        f"wrote {args.out}: {trace.n_events} events, t={trace.final.time:.6g}, "
        f"var={trace.var[-1]:.6g}, epochs={len(trace.epoch_marks)}"
    )
    return 0


def _initial_state(policy: str, g: graphmod.PartitionedGraph, seed: int):
    if policy == "worst_cut":
        return analysis.worst_cut_x0(g)
    if policy == "random":
        return analysis.random_x0(g.n, np.random.default_rng(seed))
    raise ConfigError(f"unknown x0 policy {policy!r}")


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.side is not None and {"rule", "x0"} & args.given:
        raise ConfigError("estimate --side runs vanilla gossip on one block "
                          "from a bisection start: it takes no rule or x0")
    g = parse_graph_spec(args.graph, args.seed)
    if args.side is not None:
        side = graphmod.side_subgraph(g, args.side)
        t_hat = analysis.estimate_T_van(side, args.runs, args.horizon, seed=args.seed)
        _emit(
            {
                "kind": "block_vanilla",
                "side": args.side,
                "t_hat": t_hat,
                "runs": args.runs,
                "horizon": args.horizon,
                "seed": args.seed,
            },
            args.out,
        )
        return 0
    rule = _resolved_rule(args, g)
    est = analysis.estimate_T_av(g, rule, args.x0, args.runs, args.horizon,
                                 seed=args.seed)
    _emit(
        {
            "kind": "averaging_time",
            "rule": rule.to_text(),
            "t_hat": est.t_hat,
            "runs": est.runs,
            "horizon": est.horizon,
            "exceed_fraction_at_t_hat": est.exceed_fraction_at_t_hat,
            "threshold": engine.RATIO_THRESHOLD,
            "confidence_level": analysis.CONFIDENCE,
            "seed": args.seed,
        },
        args.out,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.family != "barbell":
        raise ConfigError(f"unknown sweep family {args.family!r}")
    try:
        n_values = [int(v) for v in args.n.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad n list {args.n!r}") from exc
    rule = parse_rule(args.rule)
    if rule.period is not None:
        raise ConfigError("sweep resolves P at each point; drop P from the rule")
    if rule.kind == "algA":
        table = analysis.algA_scaling_sweep(
            n_values,
            c_const=rule.c_const,
            gamma_mode=rule.gamma_mode,
            gamma_value=rule.gamma_value,
            runs=args.runs,
            seed=args.seed,
            workers=args.workers,
        )
    else:
        table = analysis.convex_lower_bound_sweep(
            n_values, rule, args.runs, seed=args.seed, workers=args.workers
        )
    if args.out:
        table.to_csv(args.out)
        print(f"wrote {args.out}: {len(table.rows)} rows; {table.comments[-1]}")
    else:
        print(",".join(table.columns))
        for row in table.rows:
            print(",".join(str(v) for v in row))
        for comment in table.comments:
            print(f"# {comment}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    report = args.battery(args)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def _check_tail(args: argparse.Namespace) -> dict:
    params = walks.TailBoundParams()
    violations = []
    for n in range(1, 31):
        for s in (0.5, 1.0, 1.5, 2.0, 3.0):
            chk = walks.simple_walk_tail(n, s, params)
            if chk.probability > chk.bound:
                violations.append({"n": n, "s": s, "p": chk.probability,
                                   "bound": chk.bound})
    spot = walks.simple_walk_tail(4, 1.0, params).probability
    return {
        "check": "tail",
        "grid": "n<=30, s in {0.5,1,1.5,2,3}",
        "violations": violations,
        "spot_P_S4_ge_2": spot,
        "spot_ok": spot == 5.0 / 16.0,
        "passed": not violations and spot == 5.0 / 16.0,
    }


def _check_dominance(args: argparse.Namespace) -> dict:
    if args.min_increments < walks.MIN_INCREMENTS:
        raise ConfigError(f"--min-increments must be at least {walks.MIN_INCREMENTS}")
    g = parse_graph_spec(args.graph, args.seed)
    rule = _resolved_rule(args, g)
    if rule.kind != "algA":
        raise ConfigError("dominance check needs an algA rule")
    slack = args.slack if args.slack is not None else 0.1 * math.log(g.n)
    increments: list[float] = []
    run = 0
    # t0 firing epochs: the horizon of the paper's tail bound (25 epochs).
    horizon = float(walks.t0_bound(walks.TailBoundParams()) * rule.period)
    while len(increments) < args.min_increments and run < DOMINANCE_MAX_RUNS:
        sim_cfg = engine.SimConfig(
            seed=analysis.run_seed(args.seed, analysis.STREAM_DOMINANCE, run),
            max_time=horizon,
            sample_every=1 << 62,
        )
        trace = engine.simulate(g, rule, analysis.worst_cut_x0(g), sim_cfg)
        if len(trace.epoch_marks) >= 2:
            increments.extend(walks.empirical_increments(trace).tolist())
        run += 1
    if len(increments) < walks.MIN_INCREMENTS:
        raise ConfigError(
            f"{run} dominance runs collected {len(increments)} epoch increments, "
            f"fewer than {walks.MIN_INCREMENTS}: the runs reach exact consensus "
            "before enough firing epochs"
        )
    if len(increments) < args.min_increments:
        print(
            f"warning: collected {len(increments)} of the {args.min_increments} "
            f"epoch increments requested; stopped at the {DOMINANCE_MAX_RUNS}-run cap",
            file=sys.stderr,
        )
    report = walks.dominance_check(increments, g.n, slack=slack)
    out = report.to_dict()
    out.update({"check": "dominance", "rule": rule.to_text(), "runs_used": run})
    return out


def _check_invariants(args: argparse.Namespace) -> dict:
    g = parse_graph_spec(args.graph, args.seed)
    rule = _resolved_rule(args, g)
    x0 = analysis.worst_cut_x0(g)
    events = args.events

    # one run: its final values for conservation, its sampled states for
    # the decomposition identity and bounds
    trace = engine.simulate(
        g, rule, x0,
        engine.SimConfig(seed=args.seed, max_events=events,
                         sample_every=max(1, events // 500), record_states=True),
    )
    drift = abs(math.fsum(trace.final.values.tolist()) - trace.final.initial_sum)
    scale = float(x0.max() - x0.min()) or 1.0
    conservation_ok = drift <= 1e-9 * max(scale, 1.0)

    # locality on a step-driven replay
    rng = np.random.default_rng(args.seed)
    state = engine.StateVector.from_values(x0)
    _, _, eu, ev, _ = g.view
    cut_ticks = 0
    locality_ok = True
    for _ in range(min(events, 2000)):
        _dt, edge = engine.next_event(rng, g.num_edges)
        new_state, _case, cut_ticks = engine.step(
            state, g, rule, edge, cut_ticks
        )
        changed = np.flatnonzero(new_state.values != state.values)
        if not set(changed.tolist()) <= {eu[edge], ev[edge]}:
            locality_ok = False
            break
        state = new_state

    # the trace's metric columns, from the sampled states; the endpoint
    # deviations from the states themselves
    var, mu1, mu2, sigma = trace.var, trace.mu1, trace.mu2, trace.sigma
    rhs = sigma**2 + (g.n1 * mu1**2 + g.n2 * mu2**2) / g.n
    c = trace.states - trace.states.mean(axis=1, keepdims=True)
    dev = np.maximum(abs(c[:, g.n1 - 1] - mu1), abs(c[:, g.n1] - mu2))
    decomposition_ok = not np.any(
        (abs(var - rhs) > 1e-9 * np.maximum(var, rhs) + 1e-280)
        | (var < g.n1 * mu1**2 / g.n - 1e-9 * np.maximum(var, 1e-280))
        | (dev > math.sqrt(g.n) * sigma * (1 + 1e-9) + 1e-280)
    )

    return {
        "check": "invariants",
        "rule": rule.to_text(),
        "events": events,
        "conservation_drift": drift,
        "conservation_ok": conservation_ok,
        "locality_ok": locality_ok,
        "decomposition_ok": decomposition_ok,
        "passed": conservation_ok and locality_ok and decomposition_ok,
    }


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Given(argparse.Action):
    """Store the flag's value and add its name to ``given``, the names set
    on the command line or in a config file: ``estimate --side`` rejects a
    given rule or x0, whatever its value."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


# Every flag with its default.  Each command declares the flags it reads;
# its value flags (all but --record-events) are also its config keys.
_FLAGS = {
    "graph": dict(default="barbell:8,8", help="graph source: barbell:N1,N2 | "
                  "file:PATH | random:n1=..,n2=..,p1=..,p2=..,k12=.. "
                  "(default barbell:8,8)"),
    "rule": dict(action=_Given, default="vanilla", help="rule text: vanilla | "
                 "convex:a=A | algA:[P=..,]gamma=balanced|n1|VALUE[,C=..] "
                 "(default %(default)s)"),
    "x0": dict(action=_Given, default="worst_cut",
               help="initial state policy: worst_cut | random (default worst_cut)"),
    "seed": dict(type=int, default=0, help="master seed (default 0)"),
    "runs": dict(type=int, default=100, help="Monte Carlo runs (default 100)"),
    "horizon": dict(type=float, default=24.0, help="time horizon (default 24)"),
    "out": dict(default="", help="output path (default: command specific)"),
    "workers": dict(type=int, help="worker processes that run the sweep's "
                    "points in parallel (default: the CPUs this process may use)"),
    "side": dict(type=int, choices=(1, 2),
                 help="estimate the block averaging time of one side"),
    "family": dict(default="barbell", help="graph family (barbell)"),
    "n": dict(default="16,32,64,128",
              help="comma list of sizes (default 16,32,64,128)"),
    "max-events": dict(type=int, help="stop after this many events"),
    "max-time": dict(type=float, help="stop at this simulated time"),
    "sample-every": dict(type=int, default=1,
                         help="metric sample stride in events (default 1)"),
    "record-events": dict(action="store_true",
                          help="record the full event log in memory"),
    "format": dict(choices=("jsonl", "csv"),
                   help="trace format (default: by file extension, else jsonl)"),
    "slack": dict(type=float, help="dominance quantile slack (default 0.1*log n)"),
    "min-increments": dict(type=int, default=120,
                           help="epoch increments to collect (default 120); the "
                           f"check stops at {DOMINANCE_MAX_RUNS} runs and warns "
                           "on stderr if it has fewer"),
    "events": dict(type=int, default=200_000,
                   help="events for the invariant battery (default 200000)"),
}


def _command(sub, name: str, help: str, flags: tuple[str, ...], **defaults):
    p = sub.add_parser(name, help=help)
    for flag in flags:
        p.add_argument("--" + flag, **_FLAGS[flag])
    p.add_argument("--config", help="key=value file of this command's value "
                   "flags; flags on the command line override it")
    p.set_defaults(parser=p, flags=flags, given=frozenset(), **defaults)


def _read_config(path: str, flags: tuple[str, ...]) -> dict:
    """The ``key=value`` lines of a config file, by flag destination: each
    key one of the command's value flags, each value converted and checked
    as that flag's own value is."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        if key not in flags or _FLAGS[key].get("action") == "store_true":
            raise ConfigError(f"{path}: unknown config key {key!r}")
        spec = _FLAGS[key]
        try:
            value = spec.get("type", str)(val)
            if value not in spec.get("choices", (value,)):
                raise ValueError(val)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key}: {val!r}") from exc
        values[key.replace("-", "_")] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutgossip",
        description="Gossip averaging on graphs with one sparse cut.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "simulate", "run one simulation and write a trace",
             ("graph", "rule", "x0", "seed", "out", "max-events", "max-time",
              "sample-every", "record-events", "format"),
             fn=cmd_simulate, out="trace.jsonl")
    _command(sub, "estimate", "estimate an averaging time",
             ("graph", "rule", "x0", "seed", "runs", "horizon", "out", "side"),
             fn=cmd_estimate)
    _command(sub, "sweep", "scaling sweep over a graph family",
             ("rule", "seed", "runs", "out", "workers", "family", "n"),
             fn=cmd_sweep, workers=_usable_cpus())
    check = sub.add_parser("check", help="run a verification battery")
    batteries = check.add_subparsers(dest="what", required=True)
    _command(batteries, "tail", "the simple-walk tail bound on a grid", ("out",),
             fn=cmd_check, battery=_check_tail)
    _command(batteries, "dominance", "epoch increments against the tail bound",
             ("graph", "rule", "seed", "out", "slack", "min-increments"),
             fn=cmd_check, battery=_check_dominance, rule="algA:gamma=balanced")
    _command(batteries, "invariants", "conservation, locality and the "
             "variance decomposition on one run",
             ("graph", "rule", "seed", "out", "events"),
             fn=cmd_check, battery=_check_invariants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values become the command's defaults, so that the
            # flags given with it still win
            values = _read_config(args.config, args.flags)
            args.parser.set_defaults(given=frozenset(values), **values)
            args = parser.parse_args(argv)
        return args.fn(args)
    # every rejected input is a ValueError; a path it cannot use, an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
