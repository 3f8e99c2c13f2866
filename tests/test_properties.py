"""Property tests on small random two-block graphs.

The three rule families are affine-equivariant, and the variance
detector only sees differences of values, so a start a*x0 + b must cross
the e^-2 ratio at the same events as x0.  Every run must also conserve the
sum, and every tick may change only the endpoints of its edge.  The
lockstep batch kernel must give each run's crossings bit for bit as a
lone ``simulate`` run does.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cutgossip import engine  # noqa: E402
from cutgossip.analysis import random_x0, worst_cut_x0  # noqa: E402
from cutgossip.engine import (  # noqa: E402
    SimConfig, StateVector, next_event, replay_states, simulate,
    simulate_batch, step,
)
from cutgossip.graph import KIND_CROSS, build_barbell, random_partitioned  # noqa: E402
from cutgossip.rules import RuleDescriptor  # noqa: E402

RULES = {
    "vanilla": RuleDescriptor("vanilla"),
    "convex": RuleDescriptor("convex", alpha=0.3),
    "algA": RuleDescriptor("algA", period=3, gamma_mode="balanced"),
}
SEEDS = (0, 1, 2)
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@st.composite
def cases(draw):
    n1 = draw(st.integers(2, 6))
    n2 = draw(st.integers(2, 6))
    k12 = draw(st.integers(1, 3))
    g = random_partitioned(n1, n2, 0.6, 0.6, k12, draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        x0 = worst_cut_x0(g)
    else:
        x0 = random_x0(g.n, np.random.default_rng(draw(st.integers(0, 10**6))))
    return g, x0, draw(st.sampled_from(sorted(RULES)))


def _crossings(g, rule, x0, seed):
    trace = simulate(g, rule, x0, SimConfig(seed=seed, max_time=40.0,
                                            sample_every=1 << 62))
    return trace.first_crossing, trace.last_exceedance


@PROPERTY
@given(cases(), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0))
def test_affine_start_crosses_at_the_same_event(case, log_a, c):
    g, x0, name = case
    a = 10.0**log_a
    b = c * 1e8 * a  # |b| <= 1e8 sd of a*x0, whose sd is a
    moved = a * x0 + b
    for seed in SEEDS:
        assert _crossings(g, RULES[name], moved, seed) == _crossings(
            g, RULES[name], x0, seed
        )


@PROPERTY
@given(cases(), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0))
def test_conservation(case, log_a, c):
    g, x0, name = case
    a = 10.0**log_a
    x0 = a * x0 + c * 1e8 * a
    trace = simulate(g, RULES[name], x0, SimConfig(seed=SEEDS[0], max_events=2000,
                                                   sample_every=1 << 62))
    drift = abs(math.fsum(trace.final.values.tolist()) - trace.final.initial_sum)
    assert drift <= 1e-9 * float(np.max(np.abs(x0)))


@PROPERTY
@given(cases())
def test_locality(case):
    g, x0, name = case
    eu, ev, _ = g.flat_edges()
    rng = np.random.default_rng(SEEDS[0])
    state = StateVector.from_values(x0)
    cut_ticks = 0
    for _ in range(200):
        _dt, edge = next_event(rng, g.num_edges)
        new, _case, cut_ticks = step(state, g, RULES[name], edge, cut_ticks)
        changed = set(np.flatnonzero(new.values != state.values).tolist())
        assert changed <= {eu[edge], ev[edge]}
        state = new


# Longer than two 4096-event chunks, so caps and crossings fall on every
# kind of block and chunk edge.
LONG = 8300


@PROPERTY
@given(cases(), st.integers(1, LONG), st.integers(0, 2**32))
def test_capped_run_is_a_prefix_of_a_longer_run(case, k, seed):
    g, x0, name = case
    rule = RULES[name]
    long = simulate(g, rule, x0, SimConfig(seed=seed, max_events=LONG,
                                           sample_every=1 << 62,
                                           record_events=True))
    short = simulate(g, rule, x0, SimConfig(seed=seed, max_events=k,
                                            sample_every=1 << 62))
    assert short.n_events == k
    assert short.final.time == long.event_log.times[k - 1]
    want = replay_states(g, rule, x0, long.event_log, [k - 1])[0]
    assert np.array_equal(short.final.values, want)


def _crossing_events(trace) -> int | None:
    """The events of a run with an event log up to and including its first
    crossing, or None when it never crossed."""
    if trace.first_crossing is None:
        return None
    return int(np.searchsorted(trace.event_log.times, trace.first_crossing)) + 1


@PROPERTY
@given(cases(), st.integers(0, 2**32))
def test_crossing_stop_ends_at_the_first_crossing(case, seed):
    # a run stopped at its first crossing is the run capped at that
    # event (test_capped_run_is_a_prefix_of_a_longer_run checks its
    # state): it ends at that crossing, which is its last exceedance
    g, x0, name = case
    rule = RULES[name]
    long = simulate(g, rule, x0, SimConfig(seed=seed, max_events=LONG,
                                           sample_every=1 << 62,
                                           record_events=True))
    k = _crossing_events(long)
    if k is None:
        return
    stopped = simulate(g, rule, x0, SimConfig(seed=seed, max_events=k,
                                              sample_every=1 << 62))
    assert stopped.first_crossing == long.first_crossing
    assert stopped.final.time == stopped.last_exceedance == long.first_crossing


@PROPERTY
@given(cases(), st.integers(0, 2**32))
def test_crossing_stop_keeps_the_samples_before_it(case, seed):
    # A run capped at its first crossing keeps the samples of the longer
    # run up to it.
    g, x0, name = case
    rule = RULES[name]
    cfg = dict(seed=seed, sample_every=1, record_states=True)
    long = simulate(g, rule, x0, SimConfig(max_events=LONG, record_events=True, **cfg))
    stopped = simulate(g, rule, x0, SimConfig(
        max_events=_crossing_events(long) or LONG, **cfg))
    k = stopped.n_samples
    if long.first_crossing is None:
        assert k == long.n_samples
    else:
        assert stopped.times[-1] == long.first_crossing
    for col in ("times", "var", "mu1", "mu2", "sigma", "nu12", "k_cut", "states"):
        assert np.array_equal(getattr(stopped, col), getattr(long, col)[:k])


@st.composite
def barbell_cases(draw):
    g = build_barbell(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    return g, worst_cut_x0(g), draw(st.sampled_from(sorted(RULES)))


@PROPERTY
@given(st.one_of(cases(), barbell_cases()),
       # one run, a full group of runs, and one run more than that
       st.sampled_from([1, engine._GROUP, engine._GROUP + 1]),
       st.integers(0, 2**32),
       st.floats(0.5, 30.0),
       # the kernel's blocks end after events 256, 512, 768, ...; 63 and
       # 127 fall inside its first block
       st.sampled_from([None, 63, 127, 255, 511, 767]))
def test_batch_kernel_equals_per_run_simulate(case, runs, seed, horizon, edge):
    g, x0, name = case
    rule = RULES[name]
    seeds = [seed + r for r in range(runs)]
    if edge is not None:
        # a horizon at the time of a block's last event in the first run
        log = simulate(g, rule, x0, SimConfig(seed=seed, max_events=edge + 1,
                                              sample_every=1 << 62,
                                              record_events=True)).event_log
        horizon = float(log.times[-1])
    first, last = simulate_batch(g, rule, x0, seeds, horizon)
    traces = [simulate(g, rule, x0, SimConfig(seed=s, max_time=horizon,
                                              sample_every=1 << 62))
              for s in seeds]
    want_first = [math.nan if tr.first_crossing is None else tr.first_crossing
                  for tr in traces]
    assert first.tobytes() == np.array(want_first).tobytes()
    assert last.tobytes() == np.array([tr.last_exceedance for tr in traces]).tobytes()


# The rules that never fire: under them no update raises the variance.
CONVEX_CLASS = [RULES["vanilla"]] + [RuleDescriptor("convex", alpha=a)
                                     for a in (0.0, 0.3, 0.5, 1.0)]


@PROPERTY
@given(cases(), st.sampled_from(CONVEX_CLASS), st.integers(0, 2**32),
       st.floats(0.5, 30.0))
def test_convex_class_last_exceedance_is_the_first_crossing(case, rule, seed, horizon):
    # what lets simulate_batch stop these runs at their first crossing;
    # a = 0 swaps and a = 1 keeps the values, so neither ever crosses
    g, x0, _ = case
    tr = simulate(g, rule, x0, SimConfig(seed=seed, max_time=horizon,
                                         sample_every=1 << 62))
    if tr.first_crossing is None:
        assert tr.last_exceedance == math.inf
    else:
        assert tr.last_exceedance == tr.first_crossing


@PROPERTY
@given(st.one_of(cases(), barbell_cases()), st.integers(0, 2**32), st.integers(1, LONG),
       # also rebuild sampled states from index tables of a few rows at a
       # time
       st.sampled_from([None, 64]))
def test_sampled_states_equal_replayed_states(case, seed, events, table):
    # strides of 8 and less take the dense path, 13 the per-sample one
    g, x0, name = case
    rule = RULES[name]
    for every in (1, 2, 3, 5, 8, 13):
        with mock.patch.object(engine, "_TABLE", table or engine._TABLE):
            tr = simulate(g, rule, x0, SimConfig(
                seed=seed, max_events=events, sample_every=every,
                record_events=True, record_states=True))
        # the event each sample follows: the last one at or before its time
        at = np.searchsorted(tr.event_log.times, tr.times, side="right") - 1
        # the start, every every-th event, every firing and the last event
        last = tr.n_events - 1
        assert at.tolist() == sorted({-1, last, *range(every - 1, last, every),
                                      *tr.epoch_event_idx.tolist()})
        states = replay_states(g, rule, x0, tr.event_log, at.tolist())
        assert tr.states.tobytes() == states.tobytes()
        metrics = engine._side_metrics(states, g.view.n1)
        for got, want in zip((tr.mu1, tr.mu2, tr.sigma, tr.var), metrics):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Idle sides: simulate and replay_states skip the intra-side vanilla events
# of a side at exact consensus.  A per-event reference that never skips
# (engine.step over the event log) must give the same bits.
# ---------------------------------------------------------------------------

SKIP_RULES = {"vanilla": RULES["vanilla"], "algA": RULES["algA"]}


@st.composite
def skip_cases(draw):
    n1 = draw(st.integers(2, 6))
    n2 = draw(st.integers(2, 6))
    if draw(st.booleans()):
        g = build_barbell(n1, n2)
    else:
        # cross edges besides the cut, whose vanilla updates wake both sides
        g = random_partitioned(n1, n2, 0.7, 0.7, draw(st.integers(2, 3)),
                               draw(st.integers(0, 10**6)))
    start = draw(st.sampled_from(["block", "signed_zero"]))
    if start == "block":
        # block-constant, scaled and shifted: both sides idle at the start
        a = 10.0 ** draw(st.floats(-3.0, 3.0))
        x0 = a * worst_cut_x0(g) + draw(st.floats(-1.0, 1.0)) * 1e8 * a
    else:
        # block one holds 0.0 and -0.0, equal but not bitwise equal: a
        # vanilla update turns -0.0 into 0.0, so the side is not idle
        x0 = np.ones(g.n)
        x0[: g.n1] = 0.0
        x0[1 : g.n1 : 2] = -0.0
    return g, x0, start, draw(st.sampled_from(sorted(SKIP_RULES)))


def _stepped_states(g, rule, x0, log):
    """The states after each event of ``log`` (row 0: x0), by engine.step."""
    state = StateVector.from_values(x0)
    states = [state.values]
    cut_ticks = 0
    for edge, case in zip(log.edges.tolist(), log.cases.tolist()):
        state, applied, cut_ticks = step(state, g, rule, edge, cut_ticks)
        assert applied == case
        states.append(state.values)
    return np.array(states)


@PROPERTY
# runs long enough that sides fall idle, and that cross the blocks that
# end after events 64, 128, 256, 512 and 1024
@given(skip_cases(), st.integers(0, 2**32), st.integers(200, 1500))
def test_idle_skip_equals_per_event_steps(case, seed, events):
    g, x0, start, name = case
    rule = SKIP_RULES[name]
    pair_updates = engine._pair_updates
    applied = [0, 0]  # events given to _pair_updates, and those it applied

    def counted(x, U, *args, **kwargs):
        live = pair_updates(x, U, *args, **kwargs)
        applied[0] += len(U)
        applied[1] += len(U) if live is None else len(live)
        return live

    ref = None
    for every in (1, 7, 1 << 62):
        cfg = SimConfig(seed=seed, max_events=events, sample_every=every,
                        record_events=True, record_states=True)
        with mock.patch.object(engine, "_pair_updates", counted):
            tr = simulate(g, rule, x0, cfg)
        if ref is None:
            ref_log = tr.event_log
            ref = _stepped_states(g, rule, x0, ref_log)
        # the event each sample follows, and the state after it
        at = np.searchsorted(tr.event_log.times, tr.times, side="right") - 1
        want = ref[at + 1]
        assert tr.states.tobytes() == want.tobytes()
        assert tr.var.tobytes() == engine._side_metrics(want, g.view.n1)[3].tobytes()
        assert tr.final.values.tobytes() == ref[tr.n_events].tobytes()
        with mock.patch.object(engine, "_pair_updates", counted):
            replayed = replay_states(g, rule, x0, tr.event_log, at.tolist())
        assert replayed.tobytes() == want.tobytes()
        # the variance detector, against a run that applies every event
        with mock.patch.object(engine, "_idle", lambda x, lo, hi: False):
            full = simulate(g, rule, x0, cfg)
        assert (tr.first_crossing, tr.last_exceedance) == (
            full.first_crossing, full.last_exceedance)
    first_kind = g.view.kind[ref_log.edges[0]]
    if start == "block" and first_kind < KIND_CROSS:
        # both sides start idle, so at least the first event is skipped
        assert applied[1] < applied[0]
