"""Continuous-time event-driven simulation of rate-1 edge clocks.

Each edge carries an independent rate-1 exponential clock.  The merged
process is simulated by superposition: waiting times are exponential with
rate equal to the edge count and each tick lands on a uniformly chosen
edge, which is statistically identical to per-edge clocks and O(1) per
event.  Randomness comes from a seeded numpy PCG64 generator consumed in
fixed-size chunks; the scheme identifier is recorded in trace metadata so
runs can be replayed exactly.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

from .graph import KIND_CROSS, KIND_CUT
from .rules import CompiledRule, RuleCase, RuleDescriptor, compile_rule, pair_update

__all__ = [
    "DegenerateInitialStateError",
    "StateVector",
    "SimConfig",
    "SimTrace",
    "EventLog",
    "next_event",
    "step",
    "simulate",
    "simulate_batch",
    "replay",
    "replay_states",
    "write_trace_jsonl",
    "write_trace_csv",
]

RNG_ID = "numpy-PCG64/chunk4096"
_CHUNK = 4096
_FIRST_BLOCK = 64
_PENDING = 1024  # sampled states held before their metrics are computed
# A block with at least one sample point per _DENSE events is dense: its
# sampled states are rebuilt in numpy from each event's writes, through an
# index table of at most _TABLE entries at a time (128 KB, which stays in
# cache and keeps a dense block's scratch memory near that of a metric
# batch).  The crossover this follows is in BENCH_trace_sampling.json.
_DENSE = 8
_TABLE = 1 << 15
# events between idle checks of a side that still moves (see _pair_updates)
_CHECK = 128
_HUGE = 2.0**1023
# simulate_batch: runs advanced in lockstep and steps per block, at most;
# they bound its buffers, about 60 KB a run (see simulate_batch), so
# about 7.7 MB a group.
_GROUP = 128
_BLOCK = 256
_CASES = tuple(RuleCase)
_VANILLA = int(RuleCase.VANILLA)
_CONVEX = int(RuleCase.CONVEX)
_NONCONVEX = int(RuleCase.NONCONVEX)
_NOOP = int(RuleCase.NOOP)
_CUT_BIT = 1 << KIND_CUT  # of the cut edge's row in a compiled rule's table

# The averaging time uses epsilon = 1/e: a run has settled once
# var X(t) / var X(0) <= epsilon^2 = e^-2.
RATIO_THRESHOLD = math.exp(-2.0)


class DegenerateInitialStateError(ValueError):
    """The initial state has zero variance; the ratio is undefined."""


@dataclass
class StateVector:
    """Node values at simulation time ``time`` plus the conserved-sum reference."""

    values: np.ndarray
    time: float
    initial_sum: float

    @classmethod
    def from_values(cls, values) -> "StateVector":
        """A copy of ``values`` at time 0."""
        arr = np.asarray(values, dtype=float).copy()
        return cls(arr, 0.0, _fsum(arr.tolist()))


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.  Stopping occurs at whichever criterion triggers first.

    At least one of ``max_time`` and ``max_events`` is required, and a
    run without ``max_events`` needs a finite ``max_time``.  A trace that
    ends at its first crossing is the run capped at that event
    (``max_events`` = its index + 1).  ``sample_every`` is an event-count
    stride; metric samples are also forced at every firing of the
    amplified cut transfer so epoch boundaries always carry a variance
    sample.
    """

    seed: int
    max_time: float | None = None
    max_events: int | None = None
    sample_every: int = 1
    record_events: bool = False
    record_states: bool = False

    def __post_init__(self) -> None:
        if self.max_time is None and self.max_events is None:
            raise ValueError("set max_time and/or max_events")
        if self.max_time is not None and not self.max_time >= 0:
            raise ValueError("max_time must be nonnegative")
        if self.max_events is None and self.max_time == math.inf:
            raise ValueError("max_time must be finite when max_events is unset")
        for name, least in (("seed", 0), ("max_events", 0), ("sample_every", 1)):
            value = getattr(self, name)
            if value is not None or name != "max_events":
                object.__setattr__(self, name, _integer(name, value, least))


def _integer(name: str, value, least: int = 0) -> int:
    """An int or numpy integer (not a bool) of at least ``least``, as an
    int; otherwise a ValueError naming it ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass
class EventLog:
    """Compact per-event record: time, flat edge index, applied case code."""

    times: np.ndarray
    edges: np.ndarray
    cases: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return EventLog(self.times[i], self.edges[i], self.cases[i])
        return float(self.times[i]), int(self.edges[i]), RuleCase(int(self.cases[i]))

    def __iter__(self):
        return zip(self.times.tolist(), self.edges.tolist(),
                   map(_CASES.__getitem__, self.cases.tolist()))


@dataclass
class SimTrace:
    """Time-stamped metric samples plus tick counters and epoch marks.

    Sample arrays are parallel; the first sample is the initial state at
    t=0.  ``epoch_marks`` holds the times of amplified-transfer firings,
    with ``epoch_sample_idx`` locating the forced sample taken just after
    each firing (and ``epoch_event_idx`` its position in the event log,
    when one was recorded).  ``first_crossing`` is the first event time at
    which the variance ratio reached :data:`RATIO_THRESHOLD` or below;
    ``last_exceedance`` is the supremum of times with ratio above the
    threshold (+inf when the run still exceeded it at the stop time, None
    when the initial variance is zero and the ratio is undefined).
    """

    times: np.ndarray
    var: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    sigma: np.ndarray
    nu12: np.ndarray
    k_cut: np.ndarray
    epoch_marks: np.ndarray
    epoch_sample_idx: np.ndarray
    epoch_event_idx: np.ndarray | None
    tick_totals: dict[str, int]
    event_log: EventLog | None
    states: np.ndarray | None
    final: StateVector
    first_crossing: float | None
    last_exceedance: float | None
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def n_events(self) -> int:
        return self.tick_totals["total"]


def _side_metrics(states: np.ndarray, n1: int) -> np.ndarray:
    """Block means, within-block RMS deviation, and variance about the mean
    of each row of a (k, n) array of states, as a (4, k) array whose rows
    are mu1, mu2, sigma and var.

    Each row is centered about its own mean, so the exact identity
    var = sigma^2 + (n1*mu1^2 + n2*mu2^2)/n holds up to rounding.
    """
    # Row sums over the size and stacked matmuls give each row the bits of
    # a 1-D arr.sum() / arr.size and c @ c; einsum and (c*c).sum(1) do not.
    def row_means(b):
        return b.sum(axis=1) / b.shape[1] if b.shape[1] else np.zeros(len(b))

    def row_dots(d):
        return np.matmul(d[:, None, :], d[:, :, None]).ravel()

    n = states.shape[1]
    centered = states - row_means(states)[:, None]
    b1 = centered[:, :n1]
    b2 = centered[:, n1:]
    out = np.empty((4, len(states)))
    mu1 = out[0] = row_means(b1)
    mu2 = out[1] = row_means(b2)
    ss = row_dots(b1 - mu1[:, None]) + row_dots(b2 - mu2[:, None])
    np.sqrt(np.maximum(ss / n, 0.0), out=out[2])
    out[3] = row_dots(centered) / n
    return out


def _fsum(values) -> float:
    """math.fsum, whose intermediate overflow becomes the ValueError of a
    start vector too large to measure."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValueError("var(x0) overflows a float; rescale x0") from None


def sum_sq_dev(x: list[float]) -> float:
    """S = sum((x - mean)^2) of a start vector, the variance detector's
    reference, summed exactly; ValueError if an entry, their sum or S is
    not finite."""
    if not x:
        raise ValueError("x0 is empty")
    bad = next((i for i, v in enumerate(x) if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"x0[{bad}] = {x[bad]!r} is not finite")
    mean = _fsum(x) / len(x)
    s = _fsum((v - mean) * (v - mean) for v in x)
    if not math.isfinite(s):
        raise ValueError("var(x0) overflows a float; rescale x0")
    return s


def _values(graph, x0) -> list[float]:
    """x0 as a list of floats, one per vertex of ``graph``."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (graph.view.n,):
        raise ValueError(f"x0 has shape {x.shape}; the graph needs length {graph.view.n}")
    return x.tolist()


def _start(graph, x0) -> tuple[list[float], float]:
    """x0 as a list of floats checked against ``graph``, and its S0."""
    x = _values(graph, x0)
    ss = sum_sq_dev(x)
    if len(graph.view.eu) < 1:
        raise ValueError("graph has no edges")
    return x, ss


_NO_TICKS = (np.empty(0, dtype=np.intp),) * 2


class _Clocks:
    """The merged clocks of R seeded runs, read in lockstep a block of
    events at a time.

    Each run draws from its own ``PCG64(seed)`` stream, per chunk of
    :data:`_CHUNK` events, the chunk's waiting times (Exp(m), as 1/m
    times standard exponentials) and then its edges, uniform over the m
    edges: the layout ``RNG_ID`` names.  Blocks of 64, 64, 128, 256, ...
    events, at most ``cap``, start at a multiple of their length, so none
    straddles a chunk.  Results do not depend on the schedule; ``cap``
    bounds the caller's per-block buffers.  ``max_time`` (None for none)
    is the runs' time cap, and ``rc`` the rule resolved against the graph.
    """

    def __init__(self, graph, rule, seeds, cap: int, max_time: float | None) -> None:
        self.kind = graph.view.kind
        self.rc = rc = compile_rule(graph, rule)
        self.cap = cap
        self.max_time = math.inf if max_time is None else max_time
        self.rngs = [np.random.default_rng(np.random.PCG64(s)) for s in seeds]
        R = len(self.rngs)
        self.exps = np.empty((R, _CHUNK))
        self.edges = np.empty((R, _CHUNK), dtype=np.int32)
        self.t = np.zeros(R)
        self.cut = np.zeros(R, dtype=np.int64)  # per run, cut ticks of a firing rule
        self.find_cuts = rc.phase >= 0 or R == 1  # for firings, or a traced run
        self.events = 0  # per run, so far

    def block(self):
        """The next block of b events of every run, as (b, R) arrays of
        event times, edges, edge kinds and case codes, in which firings
        are NONCONVEX; the cut ticks (if ``find_cuts``) and the firings,
        each as (positions, runs), grouped by run and in event order; and
        per run the count of its events at or before ``max_time`` (b if
        there is no cap)."""
        R = len(self.rngs)
        lo = self.events % _CHUNK
        if not lo:
            m = len(self.kind)
            for r, rng in enumerate(self.rngs):
                rng.standard_exponential(out=self.exps[r])
                self.edges[r] = rng.integers(0, m, _CHUNK, dtype=np.int32)
            self.exps[:R] *= 1.0 / m  # exponential(1/m) is 1/m times those
        b = min(self.cap, self.events & -self.events) if self.events else _FIRST_BLOCK
        hi = lo + b
        self.events += b
        times = self.exps[:R, lo:hi]
        times[:, 0] += self.t
        np.add.accumulate(times, axis=1, out=times)  # the same left fold as t += dt
        self.t = times[:, -1].copy()
        # (R, b) here: a run's events are contiguous, and a flat nonzero
        # is several times faster than a 2-D one
        e = self.edges[:R, lo:hi].astype(np.intp)
        kinds = self.kind.take(e)
        cases = self.rc._kind_case.take(kinds)
        cuts = fired = _NO_TICKS
        if self.find_cuts:
            flat = (kinds == KIND_CUT).ravel().nonzero()[0]  # grouped by run
            runs, at = np.divmod(flat, b)
            cuts = at, runs
        if self.rc.phase >= 0:
            # each cut tick's count k within its run
            k = np.arange(1, len(runs) + 1) - runs.searchsorted(runs) + self.cut[runs]
            self.cut += np.bincount(runs, minlength=R)
            fire = self.rc.fires(k)
            fired = at[fire], runs[fire]
            cases.ravel()[flat[fire]] = _NONCONVEX
        ends = np.full(R, b)
        for r in (self.t > self.max_time).nonzero()[0].tolist():
            ends[r] = times[r].searchsorted(self.max_time, side="right")
        return times.T, e.T, kinds.T, cases.T, cuts, fired, ends

    def keep(self, runs: np.ndarray) -> None:
        """Keep only the runs where the mask ``runs`` is set, with the
        draws they have not read yet."""
        R = len(self.rngs)
        self.rngs = [rng for rng, kept in zip(self.rngs, runs.tolist()) if kept]
        self.t, self.cut = self.t[runs], self.cut[runs]
        read = (self.events - 1) % _CHUNK + 1  # of the current chunk, 1 to _CHUNK
        for buf in (self.exps, self.edges):
            buf[: len(self.rngs), read:] = buf[:R, read:][runs]


class _Detector:
    """The variance detector of R runs, advanced a block of events at a time.

    It tracks S = sum((x - mean)^2) of each run.  The pair map
    x_u' = (1-c)x_u + c*x_v, x_v' = c*x_u + (1-c)x_v lowers S by exactly
    2c(1-c)(x_v - x_u)^2, whatever the mean, so a shifted or scaled x0
    settles at the same event.  Over 1e6 events the running S drifts by
    ~1e-12 S0 (~1e-7 S0 at an offset of 1e8 sd), far below the threshold
    it is compared with; recorded samples recompute metrics exactly.

    After each event a run exceeds iff S > RATIO_THRESHOLD * S0.  Per run,
    ``first`` is the time of the first event that brought S to the
    threshold or below (nan before), ``last`` the time of the event that
    ended the latest stretch above it, and ``exceeding`` whether the run
    is above it now.

    A firing whose gamma is above 1 can make the values diverge.  A block
    after which a run's S is not finite raises a ValueError that names
    the run's seed; S >= (x_i - mean)^2, and the pair updates keep the sum,
    so no value leaves the floats before S does.
    """

    def __init__(self, ss: float, seeds: list[int], alpha: float, gamma: float) -> None:
        # 2c(1-c) per case code (NOOP, VANILLA, CONVEX, NONCONVEX)
        self.coef = np.array([0.0, 0.5, 2.0 * alpha * (1.0 - alpha),
                              2.0 * gamma * (1.0 - gamma)])
        self.thr = RATIO_THRESHOLD * ss
        self.seeds = np.array(seeds)
        runs = len(seeds)
        self.ss = np.full(runs, ss)
        self.exceeding = np.ones(runs, dtype=bool)  # the ratio at t=0 is 1
        self.first = np.full(runs, np.nan)
        self.last = np.zeros(runs)

    def block(self, d: np.ndarray, cases: np.ndarray, times: np.ndarray,
              ends: np.ndarray | None = None) -> None:
        """Advance over a block of b events, given as (b, R) arrays: ``d``
        holds each event's x_v - x_u before its update and is overwritten
        with S after it, ``cases`` the applied case codes and ``times`` the
        event times.  Events of run r from ``ends[r]`` on are ignored.
        """
        b = len(d)
        # S after each event, as the running ss -= 2c(1-c)*d*d gives it;
        # a diverging run overflows here, and is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            d *= self.coef.take(cases) * d
            d[0] = self.ss - d[0]
            np.subtract.accumulate(d, axis=0, out=d)
        if ends is not None:
            for r in (ends < b).nonzero()[0].tolist():
                e = ends[r]
                d[e:, r] = d[e - 1, r] if e else self.ss[r]
        # a run's S stays non-finite once it is, so its last one tells
        bad = ~np.isfinite(d[-1])
        if bad.any():
            r = int(bad.argmax())
            at = float(times[np.isfinite(d[:, r]).argmin(), r])
            raise ValueError(f"the run of seed {self.seeds[r]} diverges: its variance "
                             f"is not finite from t = {at!r}: its firings raise the "
                             "variance without bound")
        pending = np.isnan(self.first)
        if pending.any():
            below = d <= self.thr
            for r in (pending & below.any(axis=0)).nonzero()[0].tolist():
                self.first[r] = times[below[:, r].argmax(), r]
        # the latest stretch above the threshold ends at the last event
        # entered while exceeding
        ex = d > self.thr
        was = ex.any(axis=0)
        ended = (was | self.exceeding) & ~ex[-1]
        if ended.any():
            k = np.where(was, b - ex[::-1].argmax(axis=0), 0)
            cols = ended.nonzero()[0]
            self.last[cols] = times[k[cols], cols]
        self.exceeding = ex[-1].copy()
        self.ss = d[-1].copy()

    def last_exceedances(self) -> np.ndarray:
        return np.where(self.exceeding, math.inf, self.last)

    def keep(self, rows: np.ndarray) -> None:
        for name in ("seeds", "ss", "exceeding", "first", "last"):
            setattr(self, name, getattr(self, name)[rows])


def _idle(x: list, lo: int, hi: int) -> bool:
    """Whether the side x[lo:hi] is at a consensus that a vanilla update
    keeps bit for bit: its values are bitwise equal (so 0.0 and -0.0
    differ), finite and below 2^1023 in size, so that a + a is exact and
    0.5 * (a + a) is a again."""
    a = x[lo]
    if not -_HUGE < a < _HUGE or x[hi - 1] != a:
        return False
    side = x[lo:hi]
    return side.count(a) == hi - lo and (
        a != 0.0 or len({math.copysign(1.0, v) for v in side}) == 1)


def _pair_updates(x: list, e: np.ndarray, kinds: np.ndarray, cases: np.ndarray,
                  rc: CompiledRule, n1: int, out: list, writes: bool = False,
                  cuts=(), copies: list | None = None) -> np.ndarray | None:
    """Apply in order to the list ``x`` the events on the edges ``e``, of
    kinds ``kinds`` and with case codes ``cases``, taking each edge's row
    (u, v, 1 << kind, default case) from the table ``rc._edges`` at once.

    Appends to ``out`` each applied event's d = x_v - x_u before its update
    and, with ``writes``, the new x_u and x_v after it; appends to
    ``copies`` a copy of x just after each event index in ``cuts`` (sorted,
    -1 for the start).

    An event across the cut, or whose case is not the rule's intra case,
    is a stop, applied alone (a no-op or a firing by
    :func:`rules.pair_update`).  Between stops, under a vanilla intra
    case, the events of an idle side (see :func:`_idle`) are skipped:
    each would give d = 0 and leave x as it is bit for bit.  A side that
    still moves is checked again every :data:`_CHECK` events, and both
    after a stop that is not a no-op.  Returns the positions of the
    events applied, or None when no side was idle.
    """
    alpha, gamma = rc.alpha, rc.gamma
    beta = 1.0 - alpha
    skip = rc.intra == _VANILLA
    push = out.append
    table = rc._edges.take(e).tolist()
    end = len(table)
    at = ((kinds >= KIND_CROSS) | (cases != rc.intra)).nonzero()[0]
    stops = at.tolist() + [end]
    stop_cases = cases[at].tolist()
    copy_at = [p + 1 for p in cuts] + [end + 1]
    spans = []  # (lo, hi, idle) of the stretches run with an idle side
    idle = 0  # bit 1 set: side one is idle (its edges' rows hold 1); bit 2: side two
    pos = i = k = 0
    while True:
        while copy_at[k] == pos:
            copies.append(x[:])
            k += 1
        if pos == end:
            break
        if stops[i] == pos:
            u, v, _, _ = table[pos]
            c = stop_cases[i]
            rows = [(u, v, 0, c)]
            if c != _NOOP:
                idle = 0
            i += 1
            hi = pos + 1
        else:
            hi = min(stops[i], copy_at[k])
            if skip and idle != 3:
                # comparing a side's end values first keeps the check cheap
                # while the side moves; a one-side graph has no second side
                idle = 1 if x[n1 - 1] == x[0] and _idle(x, 0, n1) else 0
                if n1 == len(x) or x[-1] == x[n1] and _idle(x, n1, len(x)):
                    idle |= 2
                if idle != 3 and pos + _CHECK < hi:
                    hi = pos + _CHECK
            rows = table[pos:hi] if idle != 3 else ()
            if idle:
                spans.append((pos, hi, idle))
                # the rows whose side bit is not set in idle, at C speed
                rows = compress(rows, map((~idle).__and__, map(itemgetter(2), rows)))
        for u, v, _, c in rows:
            xu = x[u]
            xv = x[v]
            if c == _VANILLA:
                x[u] = x[v] = 0.5 * (xu + xv)
            elif c == _CONVEX:
                x[u] = alpha * xu + beta * xv
                x[v] = alpha * xv + beta * xu
            else:
                x[u], x[v] = pair_update(c, xu, xv, alpha, gamma)
            push(xv - xu)
            if writes:
                push(x[u])
                push(x[v])
        pos = hi
    if not spans:
        return None
    idle_at = np.zeros(end, dtype=np.int8)
    for lo, hi, idle in spans:
        idle_at[lo:hi] = idle
    return ((idle_at >> kinds) & 1 == 0).nonzero()[0]


def _block_states(start: np.ndarray, U: np.ndarray, V: np.ndarray,
                  writes: np.ndarray, points: np.ndarray):
    """The states just after each event in ``points`` (sorted, -1 for the
    start) of a block that starts at ``start`` and whose event p sets
    x[U[p]], x[V[p]] to ``writes[p]``; yields them as (k, n) arrays, a slab
    of events at a time.

    Row r of the index table gives, per vertex, the position of its value
    after the block's first r events in concat(start, writes): row 0 is
    arange(n), event p writes n + 2p at U[p] and n + 2p + 1 at V[p], and a
    running maximum down the rows carries the latest write forward.  A slab
    holds about :data:`_TABLE` entries, so large graphs stay in memory.
    """
    n = len(start)
    src = np.concatenate((start, writes.ravel()))
    slab = max(1, _TABLE // n - 1)
    last = np.arange(n, dtype=np.int32)
    at = 0
    end = int(points[-1]) + 1  # through the last point
    for lo in range(0, max(end, 1), slab):
        hi = min(lo + slab, end)
        table = np.zeros((hi - lo + 1, n), dtype=np.int32)
        table[0] = last
        rows = np.arange(1, hi - lo + 1)
        pos = np.arange(n + 2 * lo, n + 2 * hi, 2)
        table[rows, U[lo:hi]] = pos
        table[rows, V[lo:hi]] = pos + 1
        np.maximum.accumulate(table, axis=0, out=table)
        stop = int(points.searchsorted(hi))
        if stop > at:
            yield src.take(table[points[at:stop] + (1 - lo)])
        at = stop
        last = table[-1]


def next_event(rng: np.random.Generator, edge_count: int) -> tuple[float, int]:
    """Draw one merged-clock event: waiting time Exp(edge_count) and a
    uniformly random edge index."""
    if edge_count < 1:
        raise ValueError("need at least one edge")
    dt = float(rng.exponential(1.0 / edge_count))
    edge = int(rng.integers(0, edge_count))
    return dt, edge


def step(
    state: StateVector,
    graph,
    rule: RuleDescriptor,
    edge: int,
    cut_ticks: int = 0,
) -> tuple[StateVector, RuleCase, int]:
    """Apply one edge tick and return (new state, applied case, cut ticks).

    Only the endpoints of ``edge`` may change.  ``cut_ticks`` is the count
    of designated-cut-edge ticks before this one; the returned count
    includes this tick when it lands on the cut edge; rules that never fire
    the cut transfer leave it unchanged.  The state's clock is not advanced
    here; waiting times come from :func:`next_event`.
    """
    rc = compile_rule(graph, rule)
    u, v, bit, case = rc._edges[edge]
    if bit == _CUT_BIT and rc.phase >= 0:
        cut_ticks += 1
        if rc.fires(cut_ticks):
            case = _NONCONVEX
    values = state.values.copy()
    values[u], values[v] = pair_update(case, values[u], values[v], rc.alpha, rc.gamma)
    return StateVector(values, state.time, state.initial_sum), _CASES[case], cut_ticks


def simulate(graph, rule: RuleDescriptor, x0, config: SimConfig) -> SimTrace:
    """Run the event loop and collect a trace.

    ``graph`` is a :class:`PartitionedGraph` or, for vanilla/convex rules
    only, a :class:`SideGraph`.  Reproducible: equal (graph, rule, x0,
    seed) produce bit-identical traces.

    Its clock is the planner :class:`_Clocks` over one run, in blocks of
    up to 4096 events; a short run converts little of its chunk to Python
    objects.  Per block, numpy gives the ``max_events`` cut, sample
    points and tick counters; the loop :func:`_pair_updates` applies the
    pair updates in order, except those of a side at exact consensus,
    which change nothing; then the variance detector runs over the
    events applied.  The loop copies the values at each sample point,
    except in a dense block (see :data:`_DENSE`), where it logs each
    event's writes and numpy rebuilds the sampled states from them.
    """
    n, n1, eu, ev, _ = graph.view
    x, ss = _start(graph, x0)
    initial_sum = _fsum(x)
    clocks = _Clocks(graph, rule, [config.seed], _CHUNK, config.max_time)
    rc = clocks.rc

    # without variance the ratio is undefined and there is no detector
    det = _Detector(ss, [config.seed], rc.alpha, rc.gamma) if ss > 0.0 else None

    # the trace's sample columns, as arrays of consecutive samples
    s_times: list[np.ndarray] = []
    s_nu: list[np.ndarray] = []
    s_k: list[np.ndarray] = []
    s_metrics: list[np.ndarray] = []  # (4, k): mu1, mu2, sigma, var
    s_states: list[np.ndarray] = []
    n_samples = 0
    marks: list[np.ndarray] = []
    mark_sidx: list[np.ndarray] = []
    mark_eidx: list[np.ndarray] = []
    log_t: list[np.ndarray] = []
    log_e: list[np.ndarray] = []
    log_c: list[np.ndarray] = []

    ticks = [0, 0, 0, 0]  # per edge kind: KIND_E1, KIND_E2, KIND_CROSS, KIND_CUT
    events = 0
    t = 0.0

    # States at sample points whose metrics are not yet computed, in
    # sample order: the (k, n) arrays in ``pending``, then the copies of x
    # in ``rows``.  They are measured in one batch once _PENDING rows are
    # waiting after a block or slab, and at the end of the run.
    rows: list[list[float]] = []
    pending: list[np.ndarray] = []

    def measure(states: np.ndarray | None = None, least: int = _PENDING) -> None:
        """Queue ``rows``, then ``states``, and measure the queue once it
        holds at least ``least`` states."""
        if rows:
            pending.append(np.array(rows))
            rows.clear()
        if states is not None:
            pending.append(states)
        if pending and sum(map(len, pending)) >= least:
            states = np.concatenate(pending) if len(pending) > 1 else pending[0]
            pending.clear()
            s_metrics.append(_side_metrics(states, n1))
            if config.record_states:
                s_states.append(states)

    def take_sample(t: float, nu12: int, k_cut: int) -> None:
        nonlocal n_samples
        rows.append(x[:])
        s_times.append(np.array([t]))
        s_nu.append(np.array([nu12]))
        s_k.append(np.array([k_cut]))
        n_samples += 1

    take_sample(t, 0, 0)

    max_events = config.max_events
    sample_every = config.sample_every
    stop = max_events == 0 or config.max_time == 0.0
    while not stop:
        times, e, kinds, cases, (cut_at, _), (fired, _), ends = clocks.block()
        # the one run's column, cut at max_events or at max_time
        times, e, kinds, cases = times[:, 0], e[:, 0], kinds[:, 0], cases[:, 0]
        end = len(e)
        timed_out = False
        if max_events is not None and max_events - events <= end:
            end = max_events - events
            stop = True
        if ends[0] < end:
            end, timed_out, stop = int(ends[0]), True, True
        e, kinds, cases = e[:end], kinds[:end], cases[:end]
        fired = fired[: fired.searchsorted(end)]
        # samples: every firing, and every sample_every-th event of the run
        points = np.arange((-events - 1) % sample_every, end, sample_every)
        if fired.size:
            sampled = np.zeros(end, dtype=bool)
            sampled[points] = True
            sampled[fired] = True
            points = sampled.nonzero()[0]
        # the loop applies only the events that can change x (``live``,
        # None for all of them); the detector sees only those
        slabs = ()  # the sampled states the loop does not copy
        if 0 < end <= _DENSE * len(points):
            # dense: no samples mid-loop; the loop logs each event's
            # writes, from which numpy rebuilds the sampled states
            start = np.array(x)
            flat: list[float] = []
            live = _pair_updates(x, e, kinds, cases, rc, n1, flat, writes=True)
            logged = np.fromiter(flat, np.float64, len(flat)).reshape(-1, 3)  # d, x_u, x_v
            d = logged[:, :1].copy()
            last_at, applied = points, e
            if live is not None:
                # a point's state is the one after the last event
                # applied at or before it
                last_at = live.searchsorted(points, side="right") - 1
                applied = e[live]
            slabs = _block_states(start, eu[applied], ev[applied], logged[:, 1:], last_at)
        else:
            ds: list[float] = []
            live = _pair_updates(x, e, kinds, cases, rc, n1, ds, cuts=points.tolist(),
                                 copies=rows)
            d = np.fromiter(ds, np.float64, len(ds))[:, None]
        if det is not None and len(d):
            # per block, in numpy: the variance detector, which rejects a
            # diverging run before its states are measured
            at = slice(end) if live is None else live
            det.block(d, cases[at, None], times[at, None])
        for states in slabs:
            measure(states)
        measure()
        if len(points):
            # t, nu12 and k_cut at each sample point
            s_times.append(times[points])
            s_nu.append((kinds >= KIND_CROSS).nonzero()[0].searchsorted(points, side="right")
                        + (ticks[KIND_CROSS] + ticks[KIND_CUT]))
            s_k.append(cut_at.searchsorted(points, side="right") + ticks[KIND_CUT])
        # counters, epoch marks and the event log
        counts = np.bincount(kinds, minlength=4).tolist()
        ticks = [a + b for a, b in zip(ticks, counts)]
        if fired.size:
            marks.append(times[fired])
            mark_sidx.append(points.searchsorted(fired) + n_samples)
            mark_eidx.append(fired + events)
        n_samples += len(points)
        if config.record_events:
            # copies: the clocks reuse their buffers
            log_t.append(times[:end].copy())
            log_e.append(e.copy())
            log_c.append(cases)
        events += end
        if end:
            t = float(times[end - 1])
        if timed_out:
            t = config.max_time

    e1, e2, n_cross, n_cut = ticks
    if s_times[-1][-1] != t:
        take_sample(t, n_cross + n_cut, n_cut)
    measure(least=1)
    metrics = np.concatenate(s_metrics, axis=1)

    final = StateVector(np.array(x), t, initial_sum)
    first_crossing = last_exc = None
    if det is not None:
        if not math.isnan(det.first[0]):
            first_crossing = float(det.first[0])
        last_exc = float(det.last_exceedances()[0])

    meta = {
        "seed": config.seed,
        "rng": RNG_ID,
        "rule": rule.to_text(),
        "graph": graph.digest(),
        "n1": n1,
        "n2": n - n1,
        "sample_every": config.sample_every,
        "ratio_threshold": RATIO_THRESHOLD,
    }
    return SimTrace(
        times=np.concatenate(s_times),
        var=metrics[3],
        mu1=metrics[0],
        mu2=metrics[1],
        sigma=metrics[2],
        nu12=np.concatenate(s_nu).astype(np.int64, copy=False),
        k_cut=np.concatenate(s_k).astype(np.int64, copy=False),
        epoch_marks=_joined(marks, np.float64),
        epoch_sample_idx=_joined(mark_sidx, np.int64),
        epoch_event_idx=_joined(mark_eidx, np.int64) if config.record_events else None,
        tick_totals={
            "e1": e1,
            "e2": e2,
            "e12": n_cross + n_cut,
            "cut": n_cut,
            "total": events,
        },
        event_log=EventLog(
            _joined(log_t, np.float64), _joined(log_e, np.int64),
            _joined(log_c, np.int8),
        )
        if config.record_events
        else None,
        states=np.concatenate(s_states) if config.record_states else None,
        final=final,
        first_crossing=first_crossing,
        last_exceedance=last_exc,
        meta=meta,
    )


def simulate_batch(
    graph, rule: RuleDescriptor, x0, seeds, max_time: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(first crossings, last exceedances) of one run per seed, bit for bit
    those of :func:`simulate` with ``SimConfig(seed, max_time=max_time)``;
    a run that never crossed has a nan first crossing.  An x0 of zero
    variance is a :class:`DegenerateInitialStateError`.

    A rule that never fires the amplified transfer is a convex pair map,
    which never raises the variance: the first crossing is the last
    exceedance, so each run stops there and ``max_time`` is only a cap.
    Runs of a rule that fires, which can raise the variance again, go on
    to ``max_time``.

    Up to :data:`_GROUP` runs advance in lockstep on one flat array of
    their values, a :class:`_Clocks` block at a time, through the applier
    :func:`_lock_steps`.  Then the variance detector runs over the block,
    and runs that met their time cap, or stopped at their first crossing,
    leave the group.  Each run of a group holds about 60 KB of buffers: a
    chunk of 4,096 waits (32 KB) and edges (16 KB), and per block of 256
    steps its gathered values (8 KB) and step indices (4 KB); a group of
    128 runs, about 7.7 MB.
    """
    x, ss = _start(graph, x0)
    if ss == 0.0:
        raise DegenerateInitialStateError("x0 has zero variance; the ratio is undefined")
    if not 0 <= max_time < math.inf:
        raise ValueError("max_time must be finite and nonnegative")
    seeds = [_integer(f"seeds[{i}]", s) for i, s in enumerate(seeds)]
    first = np.full(len(seeds), np.nan)
    last = np.full(len(seeds), np.nan)
    groups = max(1, -(-len(seeds) // _GROUP))  # of near-equal size
    bounds = [len(seeds) * g // groups for g in range(groups + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        _lockstep(graph, rule, x, ss, seeds[lo:hi], max_time, first[lo:hi], last[lo:hi])
    return first, last


def _lockstep(graph, rule, x, ss, seeds, max_time, first, last) -> None:
    """:func:`simulate_batch` over one group of runs, written into the
    group's slices ``first`` and ``last``."""
    n, _, eu, ev, kind = graph.view
    R = len(seeds)
    clocks = _Clocks(graph, rule, seeds, _BLOCK, max_time)
    # Row r's values sit at w*r .. w*r+n-1, followed by two scratch slots:
    # a no-op edge averages those instead of its endpoints.
    w = n + 2
    noop = clocks.rc._kind_case.take(kind) == _NOOP
    step_u = np.where(noop, n, eu)
    step_v = np.where(noop, n + 1, ev)
    rows = np.arange(R)  # the run of each row still in the group
    X = np.zeros((R, w))
    X[:, :n] = x
    X = X.ravel()
    det = _Detector(ss, seeds, clocks.rc.alpha, clocks.rc.gamma)
    stop = clocks.rc.phase < 0  # runs stop at their first crossing
    g_buf = np.empty(_BLOCK * 4 * R)  # the values gathered at each step of a block
    while R:
        times, e, _, cases, _, (cs, cr), ends = clocks.block()
        b = len(times)
        off = np.arange(0, R * w, w)
        ix = np.empty((b, 2, R), dtype=np.intp)
        np.add(step_u.take(e), off, out=ix[:, 0])
        np.add(step_v.take(e), off, out=ix[:, 1])
        # the firings, on the cut edge, whose default case is a no-op
        fire_e = e[cs, cr]
        fixes = zip(cs.tolist(), cr.tolist(), (eu[fire_e] + off[cr]).tolist(),
                    (ev[fire_e] + off[cr]).tolist(), repeat(_NONCONVEX))
        # a diverging run overflows here; the detector reports it
        with np.errstate(over="ignore", invalid="ignore"):
            g = _lock_steps(X, ix, clocks.rc, fixes, g_buf)
            det.block(g[:, 1] - g[:, 0], cases, times, ends)
        done = ends < b
        if stop:
            done |= ~np.isnan(det.first)  # in this block: earlier ones have left
        if done.any():
            first[rows[done]] = det.first[done]
            last[rows[done]] = det.last_exceedances()[done]
            keep = ~done
            rows = rows[keep]
            det.keep(keep)
            clocks.keep(keep)
            X = X.reshape(R, w)[keep].ravel()
            R = len(rows)


def _lock_steps(stack, ix, rc, fixes, g_buf=None) -> np.ndarray | None:
    """Apply b steps of events in lockstep to W columns of ``stack``: the
    values of runs (shape (S,), :func:`simulate_batch`) or the matrix rows
    of epochs (shape (S, n), ``analysis.epoch_operators``).

    ``ix`` (b, 2, W) gives per step the stack positions of each column's
    x_u and x_v.  Per step, one gather, one update and one scatter apply
    the intra case of the rule ``rc`` to every column: a mean as
    (x_u + x_v) * 0.5, or a blend as x_u, x_v, x_v, x_u times alpha,
    alpha, beta, beta with its pairs of rows added.  A column whose event
    has another case points at scratch positions, and ``fixes`` lists
    those events but no-ops as (step, column, u, v, case), which Python
    applies after their step with :func:`rules.pair_update`.  So each
    column gets the bits of ``pair_update`` applied in event order.

    With ``g_buf`` (4*b*W floats per stack row), returns a (b, k, W, ...)
    view of it: each step's gathered values before the update, k = 2 (4
    for a blend), rows 0 and 1 holding x_u and x_v, a fix's included.
    Without, the steps share one buffer and None is returned.
    """
    b, _, W = ix.shape
    row = (W,) + stack.shape[1:]  # the shape of one gathered x_u or x_v
    vanilla = rc.intra == _VANILLA
    if vanilla:
        half = np.full(row, 0.5)
    else:
        ix = np.concatenate((ix, ix[:, ::-1]), axis=1)  # C-contiguous rows
        blend = np.multiply.outer([rc.alpha] * 2 + [1.0 - rc.alpha] * 2, np.ones(row))
    shape = (ix.shape[1],) + row
    if g_buf is None:
        g = repeat(np.empty(shape))
    else:
        g = g_buf[: b * math.prod(shape)].reshape(b, *shape)
    scatter = stack.put if stack.ndim == 1 else stack.__setitem__
    fixes = [*sorted(fixes), (b,)]  # and a sentinel
    nxt, f = fixes[0][0], 0
    for i, (rows, gi) in enumerate(zip(ix, g)):
        stack.take(rows, 0, gi, "wrap")
        if vanilla:
            h = gi[0] + gi[1]
            h *= half
            scatter(rows, h)  # the mean, once for every u and once for every v
        else:
            h = gi * blend
            scatter(rows[:2], h[:2] + h[2:])
        while i == nxt:
            _, c, u, v, case = fixes[f]
            gi[0, c] = xu = stack[u]
            gi[1, c] = xv = stack[v]
            stack[u], stack[v] = pair_update(case, xu, xv, rc.alpha, rc.gamma)
            f += 1
            nxt = fixes[f][0]
    return None if g_buf is None else g


def _joined(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype), *parts])


def replay(graph, rule: RuleDescriptor, x0, event_log: EventLog) -> np.ndarray:
    """Final values after re-applying a recorded event log to x0; the
    recorded case codes reproduce an engine run bit for bit."""
    return replay_states(graph, rule, x0, event_log, [len(event_log) - 1])[0]


def replay_states(
    graph, rule: RuleDescriptor, x0, event_log: EventLog, at_indices
) -> np.ndarray:
    """States just after each event index in ``at_indices`` (sorted).

    Index -1 selects the initial state.  An index that is not an integer
    >= -1 is a ValueError; one past the log, an IndexError.
    """
    wants = sorted(_integer(f"at_indices[{i}]", w, -1) for i, w in enumerate(at_indices))
    if wants and wants[-1] >= len(event_log):
        raise IndexError("event index beyond the recorded log")
    rc = compile_rule(graph, rule)
    n1, kind = graph.view.n1, graph.view.kind
    x = _values(graph, x0)
    out: list[list[float]] = []
    ds: list[float] = []  # each event's d, unused here
    last = wants[-1] + 1 if wants else 0  # events to apply
    # a chunk of events at a time, so the per-event lists stay small
    for lo in range(0, max(last, 1), _CHUNK):
        hi = min(lo + _CHUNK, last)
        e = event_log.edges[lo:hi]
        cases = event_log.cases[lo:hi]
        cuts = wants[bisect_left(wants, lo if lo else -1) : bisect_left(wants, hi)]
        _pair_updates(x, e, kind.take(e), cases, rc, n1, ds, cuts=[w - lo for w in cuts],
                      copies=out)
        ds.clear()
    return np.array(out).reshape(len(out), len(x))  # (0, n) when nothing is selected


# ---------------------------------------------------------------------------
# Trace output.  JSONL: a metadata object on the first line, then one sample
# object per line.  CSV: a '#'-prefixed metadata line, a header row, then one
# row per sample with the same columns.
# ---------------------------------------------------------------------------

_COLUMNS = ("t", "var", "mu1", "mu2", "sigma", "nu_t", "k")
_ROWS = 1024  # rows formatted per chunk: bounds the text held at once


def _row_chunks(trace: SimTrace, cells, row: str):
    """The sample rows as text, ``_ROWS`` rows per chunk, formatted a
    column at a time: ``cells`` maps a column slice, as a list of Python
    floats or ints, to its cell strings, and ``row`` is a %-template
    taking one row's cells.

    The cells after ``t`` are formatted once per run of rows that are
    bitwise equal in those columns (as where a run sits at consensus
    between firings), and that text is joined to each row's ``t`` cell.
    """
    head, tail = row.split("%s", 1)
    times = np.asarray(trace.times, float)
    cols = [np.asarray(col, dtype) for col, dtype in zip(
        (trace.var, trace.mu1, trace.mu2, trace.sigma, trace.nu12, trace.k_cut),
        (float,) * 4 + (int,) * 2)]
    # new[i]: row i differs from row i-1 in some bit after t, or starts a chunk
    new = np.zeros(trace.n_samples, dtype=bool)
    for col in cols:
        bits = col.view(np.int64) if col.dtype.kind == "f" else col
        new[1:] |= bits[1:] != bits[:-1]
    new[::_ROWS] = True
    for lo in range(0, trace.n_samples, _ROWS):
        starts = new[lo:lo + _ROWS].nonzero()[0]
        tails = [tail % r for r in zip(*[cells(col[starts + lo].tolist()) for col in cols])]
        runs = np.diff(starts, append=min(_ROWS, trace.n_samples - lo)).tolist()
        yield "".join(chain.from_iterable(zip(
            repeat(head), cells(times[lo:lo + _ROWS].tolist()),
            chain.from_iterable(map(repeat, tails, runs)))))


def _json_cells(values: list) -> list[str]:
    # json.dumps writes a float or int in a list as it does in an object
    return json.dumps(values)[1:-1].split(", ")


def write_trace_jsonl(trace: SimTrace, path) -> None:
    row = "{" + ", ".join(f"{json.dumps(c)}: %s" for c in _COLUMNS) + "}\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps({"meta": trace.meta}) + "\n")
        fh.writelines(_row_chunks(trace, _json_cells, row))


def write_trace_csv(trace: SimTrace, path) -> None:
    row = ",".join(["%s"] * len(_COLUMNS)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        meta = " ".join(f"{k}={v}" for k, v in trace.meta.items())
        fh.write(f"# {meta}\n")
        fh.write(",".join(_COLUMNS) + "\n")
        fh.writelines(_row_chunks(trace, lambda v: list(map(repr, v)), row))
