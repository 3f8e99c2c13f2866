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
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis, engine, graph as graphmod, walks
from .rules import RuleDescriptor, parse_rule

__all__ = ["main", "ExperimentConfig", "parse_graph_spec"]

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


@dataclass
class ExperimentConfig:
    """Flat experiment configuration; every field has a default.

    Stored as ``key=value`` lines; command-line flags override file values.
    ``workers`` left unset (None) is the command's own default: the CPUs
    this process may use for ``sweep``, 1 for ``estimate``.
    """

    graph: str = "barbell:8,8"
    rule: str = "vanilla"
    x0: str = "worst_cut"
    runs: int = 100
    horizon: float = 24.0
    seed: int = 0
    out: str = ""
    n: str = "16,32,64,128"
    workers: int | None = None

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        values: dict[str, str] = {}
        try:
            with open(path, "r", encoding="ascii") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    key, eq, val = line.partition("=")
                    if not eq:
                        raise ConfigError(f"{path}:{lineno}: expected key=value")
                    values[key.strip()] = val.strip()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls._coerce(values, source=str(path))

    @classmethod
    def _coerce(cls, values: dict[str, str], source: str) -> "ExperimentConfig":
        known = {f.name: f.type for f in fields(cls)}
        out = cls()
        for key, val in values.items():
            if key not in known:
                raise ConfigError(f"{source}: unknown config key {key!r}")
            current = getattr(out, key)
            try:
                if current is None or isinstance(current, int):  # None: workers
                    setattr(out, key, int(val))
                elif isinstance(current, float):
                    setattr(out, key, float(val))
                else:
                    setattr(out, key, val)
            except ValueError as exc:
                raise ConfigError(f"{source}: bad value for {key}: {val!r}") from exc
        return out

    def override(self, args: argparse.Namespace) -> "ExperimentConfig":
        for f in fields(self):
            flag = getattr(args, f.name, None)
            if flag is not None:
                setattr(self, f.name, flag)
        return self


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
            return graphmod.random_partitioned(
                int(opts["n1"]),
                int(opts["n2"]),
                float(opts.get("p1", 0.8)),
                float(opts.get("p2", 0.8)),
                int(opts.get("k12", 1)),
                seed,
            )
    except ConfigError:
        raise
    except (ValueError, KeyError, OSError, graphmod.GraphFormatError,
            graphmod.GraphValidationError) as exc:
        raise ConfigError(f"bad graph spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown graph spec kind {kind!r}")


def _resolved_rule(
    cfg: ExperimentConfig, g: graphmod.PartitionedGraph
) -> RuleDescriptor:
    """The configured rule; an algA rule without P gets its firing period
    from block averaging-time estimates (60 runs each)."""
    rule = parse_rule(cfg.rule)
    if rule.kind == "algA" and rule.period is None:
        period, _, _ = analysis.resolve_period(g, rule.c_const, cfg.seed, runs=60)
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
    cfg = _effective_config(args)
    g = parse_graph_spec(cfg.graph, cfg.seed)
    rule = _resolved_rule(cfg, g)
    if args.max_events is None and args.max_time is None:
        raise ConfigError("simulate needs --max-events and/or --max-time")
    x0 = _initial_state(cfg.x0, g, cfg.seed)
    sim_cfg = engine.SimConfig(
        seed=cfg.seed,
        max_time=args.max_time,
        max_events=args.max_events,
        sample_every=args.sample_every,
        record_events=args.record_events,
    )
    trace = engine.simulate(g, rule, x0, sim_cfg)
    out = cfg.out or "trace.jsonl"
    fmt = args.format or ("csv" if out.endswith(".csv") else "jsonl")
    if fmt == "csv":
        engine.write_trace_csv(trace, out)
    else:
        engine.write_trace_jsonl(trace, out)
    print(
        f"wrote {out}: {trace.n_events} events, t={trace.final.time:.6g}, "
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
    cfg = _effective_config(args)
    workers = 1 if cfg.workers is None else cfg.workers
    g = parse_graph_spec(cfg.graph, cfg.seed)
    if args.side is not None:
        side = graphmod.side_subgraph(g, args.side)
        t_hat = analysis.estimate_T_van(
            side, cfg.runs, cfg.horizon, seed=cfg.seed, workers=workers
        )
        _emit(
            {
                "kind": "block_vanilla",
                "side": args.side,
                "t_hat": t_hat,
                "runs": cfg.runs,
                "horizon": cfg.horizon,
                "seed": cfg.seed,
            },
            cfg.out,
        )
        return 0
    rule = _resolved_rule(cfg, g)
    est = analysis.estimate_T_av(
        g, rule, cfg.x0, cfg.runs, cfg.horizon,
        seed=cfg.seed, workers=workers,
    )
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
            "seed": cfg.seed,
        },
        cfg.out,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if args.family != "barbell":
        raise ConfigError(f"unknown sweep family {args.family!r}")
    try:
        n_values = [int(v) for v in cfg.n.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad n list {cfg.n!r}") from exc
    rule = parse_rule(cfg.rule)
    workers = _usable_cpus() if cfg.workers is None else cfg.workers
    if rule.kind == "algA":
        table = analysis.algA_scaling_sweep(
            n_values,
            c_const=rule.c_const,
            gamma_mode=rule.gamma_mode,
            gamma_value=rule.gamma_value,
            runs=cfg.runs,
            seed=cfg.seed,
            workers=workers,
        )
    else:
        table = analysis.convex_lower_bound_sweep(
            n_values, rule, cfg.runs, seed=cfg.seed, workers=workers
        )
    if cfg.out:
        table.to_csv(cfg.out)
        print(f"wrote {cfg.out}: {len(table.rows)} rows; {table.comments[-1]}")
    else:
        print(",".join(table.columns))
        for row in table.rows:
            print(",".join(str(v) for v in row))
        for comment in table.comments:
            print(f"# {comment}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if args.what == "tail":
        report = _check_tail()
    elif args.what == "dominance":
        report = _check_dominance(cfg, args)
    elif args.what == "invariants":
        report = _check_invariants(cfg, args)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown check {args.what!r}")
    _emit(report, cfg.out)
    return 0 if report["passed"] else 1


def _check_tail() -> dict:
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


def _check_dominance(cfg: ExperimentConfig, args: argparse.Namespace) -> dict:
    if args.min_increments < walks.MIN_INCREMENTS:
        raise ConfigError(f"--min-increments must be at least {walks.MIN_INCREMENTS}")
    g = parse_graph_spec(cfg.graph, cfg.seed)
    rule = _resolved_rule(cfg, g)
    if rule.kind != "algA":
        raise ConfigError("dominance check needs an algA rule")
    slack = args.slack if args.slack is not None else 0.1 * math.log(g.n)
    increments: list[float] = []
    run = 0
    # t0 firing epochs: the horizon of the paper's tail bound (25 epochs).
    horizon = float(walks.t0_bound(walks.TailBoundParams()) * rule.period)
    while len(increments) < args.min_increments and run < DOMINANCE_MAX_RUNS:
        sim_cfg = engine.SimConfig(
            seed=analysis.run_seed(cfg.seed, analysis.STREAM_DOMINANCE, run),
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


def _check_invariants(cfg: ExperimentConfig, args: argparse.Namespace) -> dict:
    g = parse_graph_spec(cfg.graph, cfg.seed)
    rule = _resolved_rule(cfg, g)
    x0 = analysis.worst_cut_x0(g)
    events = args.events

    # one run: its final values for conservation, its sampled states for
    # the decomposition identity and bounds
    trace = engine.simulate(
        g, rule, x0,
        engine.SimConfig(seed=cfg.seed, max_events=events,
                         sample_every=max(1, events // 500), record_states=True),
    )
    drift = abs(math.fsum(trace.final.values.tolist()) - trace.final.initial_sum)
    scale = float(x0.max() - x0.min()) or 1.0
    conservation_ok = drift <= 1e-9 * max(scale, 1.0)

    # locality on a step-driven replay
    rng = np.random.default_rng(cfg.seed)
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


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_file(args.config)
    else:
        cfg = ExperimentConfig()
    return cfg.override(args)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="graph source: barbell:N1,N2 | file:PATH | "
                   "random:n1=..,n2=..,p1=..,p2=..,k12=.. (default barbell:8,8)")
    p.add_argument("--rule", help="rule text: vanilla | convex:a=A | "
                   "algA:[P=..,]gamma=balanced|n1|VALUE[,C=..] (default vanilla)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--runs", type=int, help="Monte Carlo runs (default 100)")
    p.add_argument("--horizon", type=float, help="time horizon (default 24)")
    p.add_argument("--out", help="output path (default: command specific)")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--workers", type=int,
                   help="worker processes: an estimate runs its runs in parts "
                   "of at least 32, a sweep too small to split them runs its "
                   "points in parallel (default: 1 for estimate, the CPUs this "
                   "process may use for sweep)")
    p.add_argument("--x0", help="initial state policy: worst_cut | random")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutgossip",
        description="Gossip averaging on graphs with one sparse cut.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one simulation and write a trace")
    _add_common(p)
    p.add_argument("--max-events", type=int, help="stop after this many events")
    p.add_argument("--max-time", type=float, help="stop at this simulated time")
    p.add_argument("--sample-every", type=int, default=1,
                   help="metric sample stride in events (default 1)")
    p.add_argument("--record-events", action="store_true",
                   help="record the full event log in memory")
    p.add_argument("--format", choices=("jsonl", "csv"),
                   help="trace format (default: by file extension, else jsonl)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate an averaging time")
    _add_common(p)
    p.add_argument("--side", type=int, choices=(1, 2),
                   help="estimate the block averaging time of one side")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("sweep", help="scaling sweep over a graph family")
    _add_common(p)
    p.add_argument("--family", default="barbell", help="graph family (barbell)")
    p.add_argument("--n", help="comma list of sizes (default 16,32,64,128)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("check", help="run a verification battery")
    _add_common(p)
    p.add_argument("what", choices=("tail", "dominance", "invariants"))
    p.add_argument("--slack", type=float,
                   help="dominance quantile slack (default 0.1*log n)")
    p.add_argument("--min-increments", type=int, default=120,
                   help="epoch increments to collect (default 120); the check "
                   f"stops at {DOMINANCE_MAX_RUNS} runs and warns on stderr if "
                   "it has fewer")
    p.add_argument("--events", type=int, default=200_000,
                   help="events for the invariant battery (default 200000)")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # ValueError covers ConfigError and every rejected argument value
    except (ValueError, analysis.HorizonTooShortError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
