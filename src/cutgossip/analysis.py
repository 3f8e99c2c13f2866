"""Variance decomposition, averaging-time estimation, epoch operators, sweeps.

The averaging-time estimator operationalizes the variance-ratio
definition: a run's *last exceedance* is the supremum of times at which
var X(t)/var X(0) still exceeded e^-2, and the estimate is the smallest
time t such that fewer than a 1/e fraction of runs exceed anywhere after
t, i.e. an order statistic of the per-run last exceedances at quantile
1 - 1/e.  This is the averaging time with epsilon = 1/e fixed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .engine import (
    DegenerateInitialStateError,
    EventLog,
    SimTrace,
    StateVector,
    _BLOCK,
    _NOOP,
    _integer,
    _lock_steps,
    _side_metrics,
    simulate,  # unused here; perfbench/tracer.py wraps analysis.simulate
    simulate_batch,
)
from .graph import PartitionedGraph, SideGraph, side_subgraph
from .rules import RuleDescriptor, compile_rule, compute_period, resolve_gamma

__all__ = [
    "Decomposition",
    "AveragingTimeEstimate",
    "EpochOperator",
    "SweepTable",
    "DegenerateInitialStateError",
    "HorizonTooShortError",
    "decompose",
    "worst_cut_x0",
    "random_x0",
    "bisection_x0",
    "run_seed",
    "estimate_T_av",
    "estimate_T_van",
    "resolve_period",
    "epoch_operator",
    "epoch_operators",
    "spectral_norm",
    "loglog_slope",
    "convex_lower_bound_sweep",
    "algA_scaling_sweep",
]

# Fraction of runs allowed to exceed the threshold after the estimate.
CONFIDENCE = 1.0 / math.e
# Random starts whose largest estimate the "random" x0 policy reports.
N_INITIAL_STATES = 3

# Seed expansion: run r of stream s under master seed m uses
# m + 1_000_003*s + r; sweep point p shifts the master by 104_729*p.
# numpy hashes integer seeds through SeedSequence, so consecutive
# integers give statistically independent generators.
_STREAM_STRIDE = 1_000_003
_POINT_STRIDE = 104_729
# Stream of random start j in estimate_T_av, and of the dominance check's
# runs in the CLI.
STREAM_RANDOM_X0 = 900
STREAM_DOMINANCE = 5
# Period resolution shifts the master by these for block one's and two's
# T_van; the scheme sweep estimates each with _TVAN_RUNS runs.
_TVAN1_OFFSET = 500_000_003
_TVAN2_OFFSET = 600_000_007
_TVAN_RUNS = 100


class HorizonTooShortError(ValueError):
    """Too few runs settled below the threshold early enough to trust the
    estimate (the required fraction is 1 - 1/(2e) before horizon/2)."""


def run_seed(master: int, stream: int, index: int) -> int:
    """Documented counter scheme expanding one master seed into run seeds."""
    return master + _STREAM_STRIDE * stream + index


@dataclass(frozen=True)
class Decomposition:
    """Block means, combined mean magnitude, within-block RMS, variance."""

    mu1: float
    mu2: float
    mu: float
    sigma: float
    var: float


def decompose(state, graph) -> Decomposition:
    """Decompose a state about its own mean into block-mean and
    within-block components.

    The exact identity var = sigma^2 + (n1*mu1^2 + n2*mu2^2)/n holds up to
    rounding for every input.
    """
    values = state.values if isinstance(state, StateVector) else state
    arr = np.asarray(values, dtype=float)
    n1 = graph.view.n1
    if arr.size != graph.n:
        raise ValueError("state length does not match the graph")
    mu1, mu2, sigma, var = _side_metrics(arr[None], n1)[:, 0].tolist()
    return Decomposition(mu1, mu2, abs(mu1) + abs(mu2), sigma, var)


def worst_cut_x0(graph: PartitionedGraph) -> np.ndarray:
    """Adversarial zero-mean start: 1 on block one, -n1/n2 on block two."""
    return np.concatenate(
        [np.ones(graph.n1), np.full(graph.n2, -graph.n1 / graph.n2)]
    )


def bisection_x0(n: int) -> np.ndarray:
    """Zero-mean two-level start for an isolated block: +1 on the first
    half, a balancing negative value on the rest."""
    if n < 2:
        raise ValueError("need at least two vertices")
    h = n // 2
    return np.concatenate([np.ones(h), np.full(n - h, -h / (n - h))])


def random_x0(n: int, rng: np.random.Generator) -> np.ndarray:
    """Centered unit-variance Gaussian start."""
    v = rng.normal(size=n)
    v -= v.mean()
    s = math.sqrt(float(v @ v) / n)
    if s == 0.0:
        raise ValueError("degenerate random draw")
    return v / s


@dataclass
class AveragingTimeEstimate:
    """Result of the variance-ratio averaging-time estimator.

    ``last_exceedances`` holds +inf for runs that still exceeded the
    threshold at the horizon; ``first_crossings`` holds nan for runs that
    never reached it.  ``censored`` marks estimates where the horizon
    adequacy precondition failed and unsettled runs were clamped to the
    horizon instead of raising.
    """

    t_hat: float
    runs: int
    horizon: float
    exceed_fraction_at_t_hat: float
    first_crossings: np.ndarray
    last_exceedances: np.ndarray
    seed: int
    censored: bool = False


def _pooled(fn, calls: list[tuple], workers: int, order=None) -> list:
    """``[fn(*args) for args in calls]``, computed in a pool of up to
    ``workers`` processes.  The calls are submitted in the order of the
    indices ``order`` (default: as given), and the results come back in
    the order of ``calls``.  After an error, the calls not yet started are
    cancelled; either way the running ones are waited for, so no worker
    outlives the call."""
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(workers, len(calls)))
    try:
        futures = {i: pool.submit(fn, *calls[i])
                   for i in (range(len(calls)) if order is None else order)}
        return [futures[i].result() for i in range(len(calls))]
    finally:
        pool.shutdown(cancel_futures=True)


def estimate_T_av(
    graph,
    rule: RuleDescriptor,
    x0_policy="worst_cut",
    runs: int = 100,
    horizon: float = 0.0,
    *,
    seed: int = 0,
    censor_horizon: bool = False,
) -> AveragingTimeEstimate:
    """Monte Carlo averaging-time estimate over independent seeded runs.

    ``x0_policy`` is "worst_cut" (the adversarial block split), "random"
    (the max estimate over :data:`N_INITIAL_STATES` centered unit-variance
    draws, approximating the supremum over starts), or an explicit start
    vector.  Requires ``runs`` >= 30 and a finite horizon long enough
    that at least 1 - 1/(2e) of runs stop exceeding the threshold before
    horizon/2; otherwise :class:`HorizonTooShortError` (or, with
    ``censor_horizon``, unsettled runs are clamped to the horizon and the
    result is flagged).

    Under convex-class rules (vanilla, convex) no update raises the
    variance, so each run stops at its first crossing, which is also its
    last exceedance; the horizon is only a cap.  Runs of the periodic
    scheme, whose amplified transfers can raise the variance again, go
    on to the horizon.
    """
    if _integer("runs", runs) < 30:
        raise ValueError("need at least 30 runs")
    seed = _integer("seed", seed)
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if horizon == math.inf:
        raise ValueError("horizon must be finite")

    if isinstance(x0_policy, str):
        if x0_policy == "worst_cut":
            if graph.view.n1 == graph.n:
                raise ValueError("worst_cut needs a partitioned graph")
            starts = [worst_cut_x0(graph)]
        elif x0_policy == "random":
            starts = [
                random_x0(
                    graph.n,
                    np.random.default_rng(run_seed(seed, STREAM_RANDOM_X0 + j, 0)),
                )
                for j in range(N_INITIAL_STATES)
            ]
        else:
            raise ValueError(f"unknown x0 policy {x0_policy!r}")
    else:
        starts = [x0_policy]

    best: AveragingTimeEstimate | None = None
    for j, x0 in enumerate(starts):
        firsts, lasts = simulate_batch(
            graph, rule, x0, [run_seed(seed, j, r) for r in range(runs)], horizon,
        )

        censored = False
        settled = float(np.mean(lasts <= horizon / 2))
        if settled < 1.0 - 1.0 / (2.0 * math.e):
            if not censor_horizon:
                raise HorizonTooShortError(
                    f"only {settled:.1%} of runs settled before horizon/2 "
                    f"(need {1 - 1 / (2 * math.e):.1%}); horizon={horizon}"
                )
            lasts = np.minimum(lasts, horizon)
            censored = True

        k_min = int(math.floor(runs * (1.0 - CONFIDENCE))) + 1
        t_hat = float(np.partition(lasts, k_min - 1)[k_min - 1])
        exceed = float(np.mean(lasts > t_hat))
        est = AveragingTimeEstimate(
            t_hat=t_hat,
            runs=runs,
            horizon=horizon,
            exceed_fraction_at_t_hat=exceed,
            first_crossings=firsts,
            last_exceedances=lasts,
            seed=run_seed(seed, j, 0),
            censored=censored,
        )
        if best is None or est.t_hat > best.t_hat:
            best = est
    return best


def estimate_T_van(
    subgraph: SideGraph,
    runs: int = 100,
    horizon: float = 256.0,
    *,
    seed: int = 0,
) -> float:
    """Averaging time of the plain pairwise mean on an isolated block.

    Each run stops at its first crossing, so the horizon is only a cap:
    a longer one changes no settled run and costs nothing for runs that
    settle early.  A single-vertex block averages instantly and returns 0.
    """
    if not isinstance(subgraph, SideGraph):
        raise TypeError("expected a SideGraph (see side_subgraph)")
    if subgraph.n == 1:
        return 0.0
    est = estimate_T_av(
        subgraph,
        RuleDescriptor("vanilla"),
        bisection_x0(subgraph.n),
        runs,
        horizon,
        seed=seed,
    )
    return est.t_hat


def resolve_period(
    g: PartitionedGraph, c_const: float, seed: int, runs: int
) -> tuple[int, float, float]:
    """Firing period of the periodic scheme on ``g`` from block averaging
    times estimated with ``runs`` runs each, at the default horizon cap
    of :func:`estimate_T_van`; returns (period, tv1, tv2)."""
    tv1 = estimate_T_van(side_subgraph(g, 1), runs, seed=seed + _TVAN1_OFFSET)
    tv2 = estimate_T_van(side_subgraph(g, 2), runs, seed=seed + _TVAN2_OFFSET)
    return compute_period(tv1, tv2, g.n, c_const), tv1, tv2


def scheme_horizon(period: int) -> float:
    """The horizon of an estimate under the periodic scheme of firing
    period ``period``: six periods, and at least 20."""
    return max(20.0, 6.0 * period)


# ---------------------------------------------------------------------------
# Epoch operators
# ---------------------------------------------------------------------------


@dataclass
class EpochOperator:
    """Composed linear map of one inter-firing epoch, as a dense matrix."""

    matrix: np.ndarray
    index: int
    spectral_norm: float


def epoch_operator(graph, rule: RuleDescriptor, events) -> EpochOperator:
    """Compose the elementary per-event maps of an epoch, in event order.

    ``events`` is an :class:`EventLog` slice (or any iterable of
    (time, edge, case) records); applying the resulting matrix to the
    epoch's start state reproduces its end state up to roundoff relative
    to the input scale.  Its ``index`` is 0.
    """
    if isinstance(events, EventLog):
        edges, cases = events.edges, events.cases
    else:
        edges, cases = np.array([(e, c) for _t, e, c in events], dtype=np.int64).reshape(-1, 2).T
    a = _composed(graph, rule, edges, cases, np.zeros(1, np.int64), np.array([len(edges)]))
    matrix = a[: graph.view.n]
    return EpochOperator(matrix, 0, spectral_norm(matrix))


def epoch_operators(trace: SimTrace, graph, rule: RuleDescriptor) -> list[EpochOperator]:
    """One operator per complete epoch (consecutive firing pairs) of a
    trace recorded with ``record_events``; epoch k spans from just after
    firing k to and including firing k+1."""
    if trace.event_log is None or trace.epoch_event_idx is None:
        raise ValueError("trace has no event log; rerun with record_events")
    idx = trace.epoch_event_idx
    log = trace.event_log
    a = _composed(graph, rule, log.edges, log.cases, idx[:-1] + 1, np.diff(idx))
    n = graph.view.n
    return [EpochOperator(matrix, k + 1, spectral_norm(matrix))
            for k, matrix in enumerate(a[:-2].reshape(-1, n, n))]


def _composed(graph, rule: RuleDescriptor, edges: np.ndarray, cases: np.ndarray,
              starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The maps of K epochs composed in lockstep by
    :func:`engine._lock_steps`: epoch k is the events ``starts[k]`` ..
    ``starts[k] + lengths[k] - 1`` of (``edges``, ``cases``), and rows
    k*n .. k*n + n - 1 of the returned (K*n + 2, n) stack hold its
    matrix, followed by two scratch rows.  An ended epoch, or an event
    whose case is not the rule's intra case, points at the scratch rows;
    the events of the latter that are not no-ops are the applier's fixes.
    """
    n, _, eu, ev, _ = graph.view
    rc = compile_rule(graph, rule)
    K = len(lengths)
    a = np.zeros((K * n + 2, n))
    a[: K * n] = np.tile(np.eye(n), (K, 1))
    off = np.arange(0, K * n, n)
    steps = int(lengths.max(initial=0))
    for lo in range(0, steps, _BLOCK):
        s = np.arange(lo, min(lo + _BLOCK, steps))[:, None]
        live = s < lengths
        at = np.where(live, starts + s, 0)
        e = edges[at]
        c = np.where(live, cases[at], _NOOP)
        u = eu[e] + off
        v = ev[e] + off
        lock = c == rc.intra
        # per step, the rows of x_u and of x_v in every epoch
        ix = np.stack((np.where(lock, u, K * n), np.where(lock, v, K * n + 1)), axis=1)
        fs, fk = (~lock & (c != _NOOP)).nonzero()
        _lock_steps(a, ix, rc, zip(fs.tolist(), fk.tolist(), u[fs, fk].tolist(),
                                   v[fs, fk].tolist(), c[fs, fk].tolist()))
    return a


def spectral_norm(matrix) -> float:
    """Largest singular value (the operator 2-norm), from the SVD."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# Scaling sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepTable:
    """Tabular sweep output: fixed column order, rows, trailing comments."""

    columns: list[str]
    rows: list[list]
    comments: list[str] = field(default_factory=list)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def write(self, fh) -> None:
        """Write the rows to the text stream ``fh`` (a file opened with
        ``newline=""``) as CSV with LF line ends, then the ``# `` comments."""
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        fh.writelines(f"# {comment}\n" for comment in self.comments)


def loglog_slope(xs, ys) -> float:
    """OLS slope of log(y) against log(x); nan with fewer than two points."""
    if len(xs) < 2:
        return math.nan
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(ys, float)), 1)[0])


def _sweep_points(columns, point, n_values, workers: int) -> SweepTable:
    """The sweep table of ``point(p, n)`` -> (row, t_hat) over the points
    p of ``n_values``, with rows in the order of ``n_values``.

    Every point draws its seeds from its index, so the table does not
    depend on ``workers``.  With ``workers`` < 2, or one point, the points
    run in this process one after another.  Otherwise one process pool of
    up to ``workers`` processes runs them, largest n first (the slowest
    point bounds the sweep, so it starts at once), each point in one
    process.
    """
    workers = _integer("workers", workers, 1)
    n_values = list(n_values)
    if not n_values:
        raise ValueError("a sweep needs at least one size")
    for n in n_values:
        if n < 2 or n % 2:
            raise ValueError("block family needs even n >= 2")
    calls = list(enumerate(n_values))
    if workers < 2 or len(calls) < 2:
        done = [point(p, n) for p, n in calls]
    else:
        largest_first = sorted(range(len(calls)), key=lambda p: -n_values[p])
        done = _pooled(point, calls, workers, largest_first)
    slope = loglog_slope(n_values, [t_hat for _, t_hat in done])
    return SweepTable(columns, [row for row, _ in done],
                      [f"loglog_slope_t_hat_vs_n={slope:.4f}"])


CONVEX_SWEEP_COLUMNS = [
    "n", "n1", "n2", "e12", "rule", "runs", "horizon", "seed_start",
    "seed_end", "t_hat", "exceed_fraction", "bound", "t_hat_ge_bound",
    "nu_mean_at_t_hat", "nu_needed",
]


def _convex_point(rule: RuleDescriptor, runs: int, seed: int, p: int,
                  n: int) -> tuple[list, float]:
    """Row and t_hat of point ``p`` (size ``n``) of the convex sweep."""
    from .graph import build_barbell

    g = build_barbell(n // 2, n // 2)
    master = seed + _POINT_STRIDE * p
    horizon = max(16.0, 4.0 * g.n1)
    est = estimate_T_av(g, rule, "worst_cut", runs, horizon, seed=master)
    e12 = len(g.edges_e12)
    bound = 0.1 * g.n1 / e12
    row = [
        n, g.n1, g.n2, e12, rule.to_text(), runs, horizon,
        run_seed(master, 0, 0), run_seed(master, 0, runs - 1),
        est.t_hat, est.exceed_fraction_at_t_hat, bound,
        est.t_hat >= bound, e12 * est.t_hat,
        (1.0 - 1.0 / math.e) * g.n1 / 4.0,
    ]
    return row, est.t_hat


def convex_lower_bound_sweep(
    n_values,
    rule: RuleDescriptor,
    runs: int = 100,
    *,
    seed: int = 0,
    workers: int = 1,
) -> SweepTable:
    """Averaging-time scaling of a convex-class rule on equal-block
    barbells, checked against the 0.1*n1/|E12| floor.

    Runs stop at their first crossing, so the horizon is only a cap.
    Each row also reports the expected number of cross-edge ticks by the
    estimated time, |E12|*t_hat (each cross edge ticks at rate 1), next
    to the (1-1/e)*n1/4 ticks the bottleneck argument requires.
    ``workers`` >= 2 runs the points in parallel processes (see
    :func:`_sweep_points`); the table is the same for every value.
    """
    if rule.kind == "algA":
        raise ValueError("the sweep is for convex-class rules")
    return _sweep_points(CONVEX_SWEEP_COLUMNS,
                         partial(_convex_point, rule, runs, seed),
                         n_values, workers)


ALGA_SWEEP_COLUMNS = [
    "n", "n1", "n2", "rule", "gamma_mode", "gamma", "C", "tvan1", "tvan2",
    "P", "runs", "horizon", "seed_start", "seed_end", "t_hat",
    "exceed_fraction", "censored", "ratio",
]


def _alga_point(base: RuleDescriptor, runs: int, seed: int, p: int,
                n: int) -> tuple[list, float]:
    """Row and t_hat of point ``p`` (size ``n``) of the scheme sweep:
    the period resolved from block averaging times, then the estimate."""
    from .graph import build_barbell

    g = build_barbell(n // 2, n // 2)
    master = seed + _POINT_STRIDE * p
    period, tv1, tv2 = resolve_period(g, base.c_const, master, _TVAN_RUNS)
    rule = replace(base, period=period)
    horizon = scheme_horizon(period)
    est = estimate_T_av(
        g, rule, "worst_cut", runs, horizon,
        seed=master, censor_horizon=True,
    )
    ratio = est.t_hat / (math.log(n) * (tv1 + tv2) + 1.0)
    row = [
        n, g.n1, g.n2, rule.to_text(), base.gamma_mode,
        resolve_gamma(g, base.gamma_mode, base.gamma_value), base.c_const,
        tv1, tv2, period, runs, horizon, run_seed(master, 0, 0),
        run_seed(master, 0, runs - 1), est.t_hat,
        est.exceed_fraction_at_t_hat, est.censored, ratio,
    ]
    return row, est.t_hat


def algA_scaling_sweep(
    n_values,
    c_const: float = 4.0,
    gamma_mode: str = "balanced",
    runs: int = 100,
    *,
    seed: int = 0,
    gamma_value: float | None = None,
    workers: int = 1,
) -> SweepTable:
    """Averaging-time scaling of the periodic scheme on equal-block
    barbells.

    The firing period is resolved per point from block averaging-time
    estimates of :data:`_TVAN_RUNS` runs each.  The ratio column divides
    by ln(n)*(T1+T2) + 1; the +1 keeps the ratio meaningful when complete
    blocks drive the block averaging times toward zero.  With the "n1"
    gamma mode on equal blocks the block means swap instead of
    contracting, so runs are horizon-censored rather than erroring.
    ``workers`` >= 2 runs the points in parallel processes (see
    :func:`_sweep_points`); the table is the same for every value.
    """
    base = RuleDescriptor(
        "algA", gamma_mode=gamma_mode, gamma_value=gamma_value, c_const=c_const
    )
    return _sweep_points(ALGA_SWEEP_COLUMNS,
                         partial(_alga_point, base, runs, seed),
                         n_values, workers)
