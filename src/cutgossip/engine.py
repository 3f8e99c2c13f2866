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
from dataclasses import dataclass, field

import numpy as np

from .graph import KIND_CROSS, KIND_CUT
from .rules import RuleCase, RuleDescriptor, compile_rule, pair_update

__all__ = [
    "StateVector",
    "SimConfig",
    "SimTrace",
    "EventLog",
    "next_event",
    "step",
    "simulate",
    "replay",
    "replay_states",
    "write_trace_jsonl",
    "write_trace_csv",
]

RNG_ID = "numpy-PCG64/chunk4096"
_CHUNK = 4096
_FIRST_BLOCK = 64

# The averaging time uses epsilon = 1/e: a run has settled once
# var X(t) / var X(0) <= epsilon^2 = e^-2.
RATIO_THRESHOLD = math.exp(-2.0)


@dataclass
class StateVector:
    """Node values at simulation time ``time`` plus the conserved-sum reference."""

    values: np.ndarray
    time: float
    initial_sum: float

    @classmethod
    def from_values(cls, values, time: float = 0.0) -> "StateVector":
        arr = np.asarray(values, dtype=float).copy()
        return cls(arr, time, float(math.fsum(arr.tolist())))


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.  Stopping occurs at whichever criterion triggers first.

    At least one of ``max_time`` and ``max_events`` is required.
    ``stop_at_crossing`` also stops the run at its first crossing, the
    first event after which var(X)/var(X0) <= :data:`RATIO_THRESHOLD`;
    rules that never contract (e.g. the gamma="n1" scheme on equal
    blocks) may never cross, so the cap still applies.  ``sample_every``
    is an event-count stride; metric samples are also forced at every
    firing of the amplified cut transfer so epoch boundaries always carry
    a variance sample.
    """

    seed: int
    max_time: float | None = None
    max_events: int | None = None
    stop_at_crossing: bool = False
    sample_every: int = 1
    record_events: bool = False
    record_states: bool = False

    def __post_init__(self) -> None:
        if self.max_time is None and self.max_events is None:
            raise ValueError("set max_time and/or max_events")
        if self.max_time is not None and self.max_time < 0:
            raise ValueError("max_time must be nonnegative")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError("max_events must be nonnegative")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


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
        for i in range(len(self.times)):
            yield self[i]


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


def _side_metrics(arr: np.ndarray, n1: int) -> tuple[float, float, float, float]:
    """Block means, within-block RMS deviation, and variance about the mean.

    The input is centered about its own mean, so the exact identity
    var = sigma^2 + (n1*mu1^2 + n2*mu2^2)/n holds up to rounding.
    """
    # sum / size is ndarray.mean()'s own arithmetic, without its overhead
    n = arr.size
    centered = arr - arr.sum() / n
    b1 = centered[:n1]
    b2 = centered[n1:]
    mu1 = float(b1.sum()) / b1.size if b1.size else 0.0
    mu2 = float(b2.sum()) / b2.size if b2.size else 0.0
    var = float(centered @ centered) / n
    d1 = b1 - mu1
    d2 = b2 - mu2
    ss = float(d1 @ d1) + (float(d2 @ d2) if d2.size else 0.0)
    sigma = math.sqrt(max(ss / n, 0.0))
    return mu1, mu2, sigma, var


def sum_sq_dev(x: list[float]) -> float:
    """S = sum((x - mean)^2) of a start vector, the variance detector's
    reference, summed exactly; ValueError if an entry or S is not finite."""
    if not x:
        raise ValueError("x0 is empty")
    bad = next((i for i, v in enumerate(x) if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"x0[{bad}] = {x[bad]!r} is not finite")
    mean = math.fsum(x) / len(x)
    s = math.fsum((v - mean) * (v - mean) for v in x)
    if not math.isfinite(s):
        raise ValueError("var(x0) overflows a float; rescale x0")
    return s


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
    _, _, eu, ev, kind = graph.view
    rc = compile_rule(graph, rule)
    # Python ints: numpy scalars compare and index values more slowly
    u, v, k = eu.item(edge), ev.item(edge), kind.item(edge)
    case = rc.intra if k < KIND_CROSS else rc.cross
    if k == KIND_CUT and rc.phase >= 0:
        cut_ticks += 1
        if cut_ticks % rc.period == rc.phase:
            case = RuleCase.NONCONVEX
    values = state.values.copy()
    values[u], values[v] = pair_update(case, values[u], values[v], rc.alpha, rc.gamma)
    return StateVector(values, state.time, state.initial_sum), RuleCase(case), cut_ticks


def simulate(graph, rule: RuleDescriptor, x0, config: SimConfig) -> SimTrace:
    """Run the event loop and collect a trace.

    ``graph`` is a :class:`PartitionedGraph` or, for vanilla/convex rules
    only, a :class:`SideGraph`.  Reproducible: equal (graph, rule, x0,
    seed) produce bit-identical traces.

    Each drawn chunk is cut into blocks of 64, 128, ... up to 4096 events,
    so a short run converts little of it to Python objects.  Per block,
    numpy gives the event times, the caps, endpoints, cases, firings,
    sample points and tick counters; a Python loop applies the pair
    updates in order; then the variance detector runs over the block.
    """
    n, n1, eu, ev, kind = graph.view
    x = [float(v) for v in np.asarray(x0, dtype=float)]
    if len(x) != n:
        raise ValueError(f"x0 has length {len(x)}, graph has {n} vertices")
    ss = sum_sq_dev(x)
    initial_sum = math.fsum(x)
    m = len(eu)
    if m < 1:
        raise ValueError("graph has no edges")
    intra, cross, period, phase, alpha, gamma = compile_rule(graph, rule)
    beta = 1.0 - alpha
    kind_case = np.array([intra, intra, cross, cross], dtype=np.int8)  # per KIND_*

    rng = np.random.default_rng(np.random.PCG64(config.seed))
    inv_m = 1.0 / m

    # Variance detector on S = sum((x - mean)^2).  The pair map
    # x_u' = (1-c)x_u + c*x_v, x_v' = c*x_u + (1-c)x_v lowers S by exactly
    # 2c(1-c)(x_v - x_u)^2, whatever the mean, so a shifted or scaled x0
    # settles at the same event.  Over 1e6 events the running S drifts by
    # ~1e-12 S0 (~1e-7 S0 at an offset of 1e8 sd), far below the threshold
    # it is compared with; recorded samples recompute metrics exactly.
    # coef holds 2c(1-c) per case code (NOOP, VANILLA, CONVEX, NONCONVEX).
    coef = np.array([0.0, 0.5, 2.0 * alpha * beta, 2.0 * gamma * (1.0 - gamma)])
    detect = ss > 0.0
    ss_thr = RATIO_THRESHOLD * ss
    exceeding = detect  # ratio at t=0 is 1, above the threshold
    first_crossing: float | None = None
    last_end = 0.0

    s_times: list[float] = []
    s_var: list[float] = []
    s_mu1: list[float] = []
    s_mu2: list[float] = []
    s_sigma: list[float] = []
    s_nu: list[int] = []
    s_k: list[int] = []
    s_states: list[np.ndarray] = []
    columns = (s_times, s_var, s_mu1, s_mu2, s_sigma, s_nu, s_k, s_states)
    marks: list[np.ndarray] = []
    mark_sidx: list[np.ndarray] = []
    mark_eidx: list[np.ndarray] = []
    log_t: list[np.ndarray] = []
    log_e: list[np.ndarray] = []
    log_c: list[np.ndarray] = []

    ticks = [0, 0, 0, 0]  # per edge kind: KIND_E1, KIND_E2, KIND_CROSS, KIND_CUT
    events = 0
    t = 0.0

    def take_sample(t: float, nu12: int, k_cut: int) -> None:
        arr = np.array(x)
        mu1, mu2, sg, vr = _side_metrics(arr, n1)
        s_times.append(t)
        s_var.append(vr)
        s_mu1.append(mu1)
        s_mu2.append(mu2)
        s_sigma.append(sg)
        s_nu.append(nu12)
        s_k.append(k_cut)
        if config.record_states:
            s_states.append(arr)

    take_sample(t, 0, 0)

    VANILLA = int(RuleCase.VANILLA)
    CONVEX = int(RuleCase.CONVEX)

    def apply_events(U, V, C, end, pts, p_t, p_nu, p_k) -> list[float]:
        """Per event, in Python: the first ``end`` pair updates of a block,
        in order, with a sample (time ``p_t``, counters ``p_nu``, ``p_k``)
        just after each event listed in ``pts``, whose last entry is a
        sentinel past the block; returns each event's d = x_v - x_u before
        its update."""
        ds: list[float] = []
        push = ds.append
        i = ip = 0
        while i < end:
            j = min(pts[ip] + 1, end)  # through the next sample point
            # inlined rules.pair_update (test_replay_reproduces_final_state_bitwise)
            for u, v, c in zip(U[i:j], V[i:j], C[i:j]):
                xu = x[u]
                xv = x[v]
                d = xv - xu
                if c == VANILLA:
                    h = 0.5 * (xu + xv)
                    x[u] = h
                    x[v] = h
                elif c == CONVEX:
                    x[u] = alpha * xu + beta * xv
                    x[v] = alpha * xv + beta * xu
                elif c:
                    tr = gamma * d
                    x[u] = xu + tr
                    x[v] = xv - tr
                push(d)
            if pts[ip] < j:
                take_sample(p_t[ip], p_nu[ip], p_k[ip])
                ip += 1
            i = j
        return ds

    max_time = config.max_time
    max_events = config.max_events
    sample_every = config.sample_every
    NONCONVEX = int(RuleCase.NONCONVEX)
    size = _FIRST_BLOCK
    stop = max_events == 0 or max_time == 0.0
    while not stop:
        dts = rng.exponential(inv_m, _CHUNK)
        eis = rng.integers(0, m, _CHUNK)
        lo = 0
        while lo < _CHUNK and not stop:
            hi = min(lo + size, _CHUNK)
            size = min(2 * size, _CHUNK)
            # per block, in numpy: times, caps, cases, firings, sample points
            times = dts[lo:hi]
            times[0] += t
            np.add.accumulate(times, out=times)  # the same left fold as t += dt
            e = eis[lo:hi]
            lo = hi
            end = len(e)
            timed_out = False
            if max_events is not None and max_events - events <= end:
                end = max_events - events
                stop = True
            if max_time is not None:
                n_in = int(times[:end].searchsorted(max_time, side="right"))
                if n_in < end:
                    end, timed_out, stop = n_in, True, True
            e = e[:end]
            kinds = kind[e]
            cases = kind_case[kinds]
            cut_at = (kinds == KIND_CUT).nonzero()[0]
            # the k-th cut tick of the run (k from 1) fires when k % period == phase
            if phase >= 0:
                fired = cut_at[(phase - ticks[KIND_CUT] - 1) % period :: period]
                cases[fired] = NONCONVEX
            else:
                fired = cut_at[:0]
            # samples: every firing, and every sample_every-th event of the run
            points = np.arange((-events - 1) % sample_every, end, sample_every)
            if fired.size:
                sampled = np.zeros(end, dtype=bool)
                sampled[points] = True
                sampled[fired] = True
                points = sampled.nonzero()[0]
            # t, nu12 and k_cut at each sample point
            p_t = times[points].tolist()
            p_nu = ((kinds >= KIND_CROSS).nonzero()[0].searchsorted(points, side="right")
                    + (ticks[KIND_CROSS] + ticks[KIND_CUT])).tolist()
            p_k = (cut_at.searchsorted(points, side="right") + ticks[KIND_CUT]).tolist()
            pts = points.tolist()
            pts.append(end)  # sentinel
            U = eu[e].tolist()
            V = ev[e].tolist()
            C = cases.tolist()
            n_rows = len(s_times)
            # a run that stops at its first crossing may pass it within the
            # block; it then replays the block from here up to the crossing
            snapshot = (x.copy() if detect and first_crossing is None
                        and config.stop_at_crossing else None)
            ds = apply_events(U, V, C, end, pts, p_t, p_nu, p_k)
            if detect and end:
                # per block, in numpy: the variance detector.  S after each
                # event, as the running ss -= 2c(1-c)*d*d gives it
                s_run = np.fromiter(ds, np.float64, end)
                s_run *= coef[cases[:end]] * s_run
                s_run[0] = ss - s_run[0]
                np.subtract.accumulate(s_run, out=s_run)
                if first_crossing is None:
                    below = s_run <= ss_thr
                    if below.any():
                        j = int(below.argmax())
                        first_crossing = float(times[j])
                        if snapshot is not None:
                            stop, timed_out = True, False
                            if j + 1 < end:
                                end = j + 1
                                s_run = s_run[:end]
                                x[:] = snapshot
                                for col in columns:
                                    del col[n_rows:]
                                apply_events(U, V, C, end, pts, p_t, p_nu, p_k)
                # after each event the run exceeds iff S > threshold; the last
                # exceedance ends at the last event entered while exceeding
                ex = s_run > ss_thr
                if not ex[-1]:
                    if ex.any():
                        last_end = float(times[end - ex[::-1].argmax()])
                    elif exceeding:
                        last_end = float(times[0])
                exceeding = bool(ex[-1])
                ss = float(s_run[-1])
            # counters, epoch marks and the event log
            counts = np.bincount(kinds[:end], minlength=4).tolist()
            ticks = [a + b for a, b in zip(ticks, counts)]
            f = fired[: fired.searchsorted(end)]
            if f.size:
                marks.append(times[f])
                mark_sidx.append(points.searchsorted(f) + n_rows)
                mark_eidx.append(f + events)
            if config.record_events:
                # copies: views would keep every chunk's draws alive
                log_t.append(times[:end].copy())
                log_e.append(e[:end].copy())
                log_c.append(cases[:end])
            events += end
            if end:
                t = float(times[end - 1])
            if timed_out:
                t = max_time

    e1, e2, n_cross, n_cut = ticks
    if s_times[-1] != t:
        take_sample(t, n_cross + n_cut, n_cut)

    final = StateVector(np.array(x), t, initial_sum)
    # without a detector first_crossing stays None and the ratio is undefined
    last_exc = (math.inf if exceeding else last_end) if detect else None

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
        times=np.array(s_times),
        var=np.array(s_var),
        mu1=np.array(s_mu1),
        mu2=np.array(s_mu2),
        sigma=np.array(s_sigma),
        nu12=np.array(s_nu, dtype=np.int64),
        k_cut=np.array(s_k, dtype=np.int64),
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
        states=np.array(s_states) if config.record_states else None,
        final=final,
        first_crossing=first_crossing,
        last_exceedance=last_exc,
        meta=meta,
    )


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

    Index -1 selects the initial state.
    """
    # per-event lookups are fastest in lists of the graph's Python ints
    eu, ev = graph.view.eu.tolist(), graph.view.ev.tolist()
    rc = compile_rule(graph, rule)
    edges = event_log.edges.tolist()
    cases = event_log.cases.tolist()
    values = np.asarray(x0, dtype=float).copy()
    out = []
    i = -1
    for want in sorted(at_indices):
        if not -1 <= want < len(edges):
            raise IndexError("event index beyond the recorded log")
        while i < want:
            i += 1
            u, v = eu[edges[i]], ev[edges[i]]
            values[u], values[v] = pair_update(
                cases[i], values[u], values[v], rc.alpha, rc.gamma
            )
        out.append(values.copy())
    return np.array(out)


# ---------------------------------------------------------------------------
# Trace output.  JSONL: a metadata object on the first line, then one sample
# object per line.  CSV: a '#'-prefixed metadata line, a header row, then one
# row per sample with the same columns.
# ---------------------------------------------------------------------------

_COLUMNS = ("t", "var", "mu1", "mu2", "sigma", "nu_t", "k")


def _sample_rows(trace: SimTrace):
    for i in range(trace.n_samples):
        yield (
            float(trace.times[i]),
            float(trace.var[i]),
            float(trace.mu1[i]),
            float(trace.mu2[i]),
            float(trace.sigma[i]),
            int(trace.nu12[i]),
            int(trace.k_cut[i]),
        )


def write_trace_jsonl(trace: SimTrace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps({"meta": trace.meta}) + "\n")
        for row in _sample_rows(trace):
            fh.write(json.dumps(dict(zip(_COLUMNS, row))) + "\n")


def write_trace_csv(trace: SimTrace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        meta = " ".join(f"{k}={v}" for k, v in trace.meta.items())
        fh.write(f"# {meta}\n")
        fh.write(",".join(_COLUMNS) + "\n")
        for row in _sample_rows(trace):
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")
