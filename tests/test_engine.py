import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

from cutgossip import engine
from cutgossip.analysis import bisection_x0, worst_cut_x0
from cutgossip.engine import (
    RNG_ID,
    SimConfig,
    SimTrace,
    StateVector,
    _idle,
    _side_metrics,
    next_event,
    replay,
    replay_states,
    simulate,
    simulate_batch,
    step,
    write_trace_csv,
    write_trace_jsonl,
)
from cutgossip.graph import (
    KIND_CROSS, KIND_CUT, build_barbell, random_partitioned, side_subgraph,
)
from cutgossip.rules import RuleCase, RuleDescriptor, compile_rule, pair_update, parse_rule


VANILLA = RuleDescriptor("vanilla")


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# next_event: superposition of rate-1 edge clocks
# ---------------------------------------------------------------------------


def test_next_event_exp1_mean():
    r = rng(1)
    draws = [next_event(r, 1)[0] for _ in range(100_000)]
    assert 0.99 <= np.mean(draws) <= 1.01


def test_next_event_uniform_edges():
    r = rng(2)
    edges = [next_event(r, 4)[1] for _ in range(100_000)]
    counts = np.bincount(edges, minlength=4)
    assert np.all(np.abs(counts / 100_000 - 0.25) <= 0.01)


def test_next_event_deterministic_replay():
    a = [next_event(rng(7), 5) for _ in range(50)]
    b = [next_event(rng(7), 5) for _ in range(50)]
    assert a == b


def test_next_event_needs_edges():
    with pytest.raises(ValueError):
        next_event(rng(0), 0)


def test_superposition_goodness_of_fit():
    # 10-edge graph: inter-event times are Exp(10); per-edge frequencies
    # uniform within 3-sigma binomial bands
    stats = pytest.importorskip("scipy.stats")
    g = build_barbell(3, 4)
    assert g.num_edges == 10
    trace = simulate(
        g, VANILLA, worst_cut_x0(g),
        SimConfig(seed=31, max_events=10_000, sample_every=1, record_events=True),
    )
    dts = np.diff(trace.times)
    assert dts.size == 10_000
    res = stats.kstest(dts, stats.expon(scale=1 / g.num_edges).cdf)
    assert res.pvalue > 1e-3
    counts = np.bincount(trace.event_log.edges, minlength=10)
    band = 3 * math.sqrt(10_000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 1000) <= band)


@pytest.mark.parametrize("text", ["vanilla", "convex:a=0.7"])
def test_mean_of_S_equals_its_exact_second_moment(text):
    # Event k applies x' = W_e x on an edge e drawn uniformly from the m
    # edges, so M_k = E[x x^T] after k events follows
    # M_{k+1} = (1/m) sum_e W_e M_k W_e^T, and E[S_k] = tr(Pi M_k) with
    # Pi = I - 11^T/n.  Each W_e comes from the kernel's own case table.
    g = build_barbell(4, 4)
    rule = parse_rule(text)
    rc = compile_rule(g, rule)
    n = g.n
    eye = np.eye(n)
    maps = []
    for u, v, _, case in rc._edges.tolist():
        w = eye.copy()
        w[u], w[v] = pair_update(case, eye[u], eye[v], rc.alpha, rc.gamma)
        maps.append(w)
    W = np.array(maps)
    x0 = worst_cut_x0(g)
    pi = eye - 1.0 / n
    M = np.outer(x0, x0)
    exact = [np.trace(pi @ M)]
    for _ in range(60):
        M = np.einsum("eij,jk,elk->il", W, M, W) / len(W)
        exact.append(np.trace(pi @ M))
    # fixed in advance: checkpoints, runs and seeds, and a bound on |z|
    ks = [5, 20, 60]
    runs = 2000
    S = np.array([
        n * simulate(g, rule, x0, SimConfig(seed=s, max_events=60)).var[ks]
        for s in range(runs)
    ])
    z = (S.mean(axis=0) - np.take(exact, ks)) / (S.std(axis=0, ddof=1) / math.sqrt(runs))
    assert np.all(np.abs(z) <= 3.5), z


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


def test_step_vanilla_pair():
    g = build_barbell(2, 2)
    st = StateVector.from_values([1.0, 3.0, 5.0, 9.0])
    new, case, k = step(st, g, VANILLA, edge=0)
    assert case is RuleCase.VANILLA
    assert new.values.tolist() == [2.0, 2.0, 5.0, 9.0]
    assert st.values.tolist() == [1.0, 3.0, 5.0, 9.0]  # input untouched
    assert k == 0


def test_step_alg_cross_edge_noop():
    g = random_partitioned(2, 2, 1.0, 1.0, 2, seed=3)
    rule = RuleDescriptor("algA", period=2)
    eu, ev, kind = g.flat_edges()
    cross = kind.index(KIND_CROSS)
    st = StateVector.from_values([1.0, 2.0, 3.0, 4.0])
    new, case, k = step(st, g, rule, edge=cross)
    assert case is RuleCase.NOOP
    assert new.values.tolist() == st.values.tolist()
    assert k == 0


def test_step_cut_edge_off_phase_counts():
    g = build_barbell(2, 2)
    rule = RuleDescriptor("algA", period=3)
    eu, ev, kind = g.flat_edges()
    cut = kind.index(KIND_CUT)
    st = StateVector.from_values([1.0, 1.0, -1.0, -1.0])
    new, case, k = step(st, g, rule, edge=cut, cut_ticks=0)
    assert case is RuleCase.NOOP and k == 1
    assert new.values.tolist() == st.values.tolist()
    new, case, k = step(st, g, rule, edge=cut, cut_ticks=1)
    assert case is RuleCase.NONCONVEX and k == 2
    assert new.values.tolist() == [1.0, -1.0, 1.0, -1.0]  # gamma=1 transfer


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_single_edge_averages_in_one_event():
    g = build_barbell(1, 1)
    trace = simulate(g, VANILLA, [1.0, -1.0], SimConfig(seed=5, max_events=1))
    assert trace.final.values.tolist() == [0.0, 0.0]
    assert trace.var[-1] == 0.0
    assert trace.first_crossing == trace.last_exceedance == trace.final.time


def test_consensus_is_fixed_point_for_every_rule():
    g = build_barbell(3, 3)
    for rule in (VANILLA, RuleDescriptor("convex", alpha=0.3),
                 RuleDescriptor("algA", period=2)):
        trace = simulate(g, rule, [7.0] * 6, SimConfig(seed=9, max_events=500))
        assert np.all(trace.final.values == 7.0)
        assert np.all(trace.var == 0.0)
        assert trace.first_crossing is None and trace.last_exceedance is None


def test_epoch_mark_matches_first_cut_tick_at_period_one():
    g = build_barbell(2, 2)
    rule = RuleDescriptor("algA", period=1)
    trace = simulate(
        g, rule, worst_cut_x0(g),
        SimConfig(seed=21, max_events=200, record_events=True),
    )
    eu, ev, kind = g.flat_edges()
    cut_times = [t for t, e, c in trace.event_log if kind[e] == KIND_CUT]
    assert len(trace.epoch_marks) == len(cut_times)
    assert trace.epoch_marks[0] == cut_times[0]


@pytest.mark.parametrize("period", [1, 2, 3, 8])
def test_the_cut_ticks_that_fire(period):
    # the k-th cut tick (k from 1) fires when k % P == P - 1: ticks P - 1,
    # 2P - 1, ..., or every tick when P = 1
    g = build_barbell(3, 3)
    trace = simulate(g, RuleDescriptor("algA", period=period), worst_cut_x0(g),
                     SimConfig(seed=8, max_events=2000, sample_every=1 << 62))
    k = trace.k_cut[trace.epoch_sample_idx]
    assert np.all(k % period == period - 1)
    cuts = trace.tick_totals["cut"]
    assert k.tolist() == [j for j in range(1, cuts + 1) if j % period == period - 1]
    assert len(k) >= 3


def test_bit_identical_reruns():
    g = build_barbell(4, 4)
    rule = RuleDescriptor("algA", period=3)
    cfg = SimConfig(seed=77, max_events=5000, sample_every=17, record_events=True)
    a = simulate(g, rule, worst_cut_x0(g), cfg)
    b = simulate(g, rule, worst_cut_x0(g), cfg)
    assert np.array_equal(a.final.values, b.final.values)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.var, b.var)
    assert np.array_equal(a.event_log.times, b.event_log.times)
    assert a.tick_totals == b.tick_totals


def test_replay_reproduces_final_state_bitwise():
    g = build_barbell(3, 5)
    for rule in (VANILLA, RuleDescriptor("convex", alpha=0.8),
                 RuleDescriptor("algA", period=2)):
        x0 = worst_cut_x0(g)
        trace = simulate(
            g, rule, x0, SimConfig(seed=13, max_events=4000, record_events=True)
        )
        assert np.array_equal(replay(g, rule, x0, trace.event_log),
                              trace.final.values)


def test_recorded_cases_match_dispatch():
    g = random_partitioned(3, 4, 1.0, 1.0, 2, seed=1)
    rule = RuleDescriptor("algA", period=3)
    trace = simulate(
        g, rule, worst_cut_x0(g),
        SimConfig(seed=3, max_events=3000, record_events=True),
    )
    state = StateVector.from_values(worst_cut_x0(g))
    k = 0
    for t, e, case in trace.event_log:
        state, stepped, k = step(state, g, rule, e, k)
        assert case is stepped
    assert k == trace.tick_totals["cut"]
    assert np.array_equal(state.values, trace.final.values)


def test_tick_totals_count_the_edge_kinds_of_the_event_log():
    # plain cross edges as well as the cut edge, over more than one chunk
    g = random_partitioned(4, 5, 0.8, 0.8, 4, seed=2)
    kind = g.view.kind
    assert np.count_nonzero(kind >= KIND_CROSS) >= 3
    for rule in (VANILLA, RuleDescriptor("algA", period=3)):
        trace = simulate(g, rule, worst_cut_x0(g),
                         SimConfig(seed=4, max_events=9000, record_events=True))
        e1, e2, cross, cut = np.bincount(kind[trace.event_log.edges], minlength=4)
        assert trace.tick_totals == {
            "e1": e1, "e2": e2, "e12": cross + cut, "cut": cut, "total": 9000,
        }
        assert (trace.nu12[-1], trace.k_cut[-1]) == (cross + cut, cut)


def test_sample_times_strictly_increasing_counts_nondecreasing():
    g = build_barbell(4, 4)
    trace = simulate(
        g, RuleDescriptor("algA", period=2), worst_cut_x0(g),
        SimConfig(seed=15, max_events=20_000, sample_every=37),
    )
    assert np.all(np.diff(trace.times) > 0)
    assert np.all(np.diff(trace.nu12) >= 0)
    assert np.all(np.diff(trace.k_cut) >= 0)
    # forced samples exist at every firing
    assert np.all(np.isin(trace.epoch_marks, trace.times))
    assert np.array_equal(trace.times[trace.epoch_sample_idx], trace.epoch_marks)


def test_conservation_under_each_rule():
    g = build_barbell(8, 8)
    x0 = worst_cut_x0(g)
    for rule in (VANILLA, RuleDescriptor("convex", alpha=0.7),
                 RuleDescriptor("algA", period=5)):
        trace = simulate(g, rule, x0, SimConfig(seed=2, max_events=100_000,
                                                sample_every=1 << 62))
        drift = abs(math.fsum(trace.final.values.tolist()) - trace.final.initial_sum)
        assert drift <= 1e-10 * 2.0  # initial range is 2


def test_locality_only_endpoints_change():
    g = build_barbell(4, 4)
    x0 = worst_cut_x0(g)
    eu, ev, _ = g.flat_edges()
    for rule in (VANILLA, RuleDescriptor("convex", alpha=0.9),
                 RuleDescriptor("algA", period=2)):
        state = StateVector.from_values(x0)
        r = rng(40)
        k = 0
        for _ in range(2000):
            _dt, edge = next_event(r, g.num_edges)
            new, _case, k = step(state, g, rule, edge, k)
            changed = np.flatnonzero(new.values != state.values)
            assert set(changed.tolist()) <= {eu[edge], ev[edge]}
            state = new


def test_max_abs_grows_only_at_firings():
    g = build_barbell(4, 4)
    rule = RuleDescriptor("algA", period=2)
    gamma = 2.0  # n1*n2/n
    trace = simulate(
        g, rule, worst_cut_x0(g),
        SimConfig(seed=8, max_events=2000, sample_every=1, record_events=True,
                  record_states=True),
    )
    peaks = np.max(np.abs(trace.states), axis=1)
    for i in range(1, len(peaks)):
        if peaks[i] > peaks[i - 1] * (1 + 1e-12):
            assert trace.event_log.cases[i - 1] == int(RuleCase.NONCONVEX)
            assert peaks[i] <= (2 * gamma + 1) * peaks[i - 1] * (1 + 1e-12)


def test_block_means_constant_between_firings():
    g = build_barbell(4, 4)
    rule = RuleDescriptor("algA", period=3)
    trace = simulate(
        g, rule, worst_cut_x0(g),
        SimConfig(seed=14, max_events=3000, sample_every=1, record_events=True),
    )
    fired = trace.event_log.cases == int(RuleCase.NONCONVEX)
    for i in range(1, trace.n_samples):
        if not fired[i - 1]:
            assert abs(trace.mu1[i] - trace.mu1[i - 1]) < 1e-12
            assert abs(trace.mu2[i] - trace.mu2[i - 1]) < 1e-12


def test_convex_cut_tick_mean_drift_bound():
    # from a state in [-1,1]^n each cut tick moves the block-one mean by
    # at most 2/n1
    g = build_barbell(4, 4)
    rule = RuleDescriptor("convex", alpha=0.7)
    trace = simulate(
        g, rule, worst_cut_x0(g),
        SimConfig(seed=6, max_events=5000, sample_every=1, record_events=True),
    )
    eu, ev, kind = g.flat_edges()
    for i in range(1, trace.n_samples):
        _t, e, _c = trace.event_log[i - 1]
        if kind[e] == KIND_CUT:
            assert abs(trace.mu1[i] - trace.mu1[i - 1]) <= 2.0 / g.n1 + 1e-12


def test_convex_range_never_expands():
    g = build_barbell(4, 4)
    trace = simulate(
        g, RuleDescriptor("convex", alpha=0.6), worst_cut_x0(g),
        SimConfig(seed=12, max_events=3000, sample_every=1, record_states=True),
    )
    mins = np.min(trace.states, axis=1)
    maxs = np.max(trace.states, axis=1)
    assert np.all(np.diff(mins) >= 0)
    assert np.all(np.diff(maxs) <= 0)


def test_variance_ratio_target_stop():
    # a run capped at the event of its first crossing ends there, below
    # the threshold for the first time
    g = build_barbell(4, 4)
    x0 = worst_cut_x0(g)
    full = simulate(g, VANILLA, x0, SimConfig(seed=3, max_events=10**4, record_events=True))
    k = int(full.event_log.times.searchsorted(full.first_crossing))
    trace = simulate(g, VANILLA, x0, SimConfig(seed=3, max_events=k + 1))
    assert trace.final.time == trace.first_crossing == trace.last_exceedance
    assert trace.first_crossing == full.first_crossing
    assert trace.var[-1] <= math.exp(-2.0) * trace.var[0] < trace.var[-2]
    assert full.n_events > trace.n_events


def test_crossing_on_a_block_edge_stops_there():
    # this run first crosses at its 64th event, the last of the first
    # block: the batch kernel stops it there, and the run capped at that
    # event ends in the state after it
    side = side_subgraph(build_barbell(32, 32), 1)
    x0 = bisection_x0(32)
    full = simulate(side, VANILLA, x0,
                    SimConfig(seed=10, max_events=200, record_events=True))
    assert full.event_log.times[63] == full.first_crossing
    first, last = simulate_batch(side, VANILLA, x0, [10], 256.0)
    assert first[0] == last[0] == full.first_crossing
    trace = simulate(side, VANILLA, x0, SimConfig(seed=10, max_events=64))
    assert trace.final.time == trace.last_exceedance == full.first_crossing
    assert np.array_equal(trace.final.values,
                          replay_states(side, VANILLA, x0, full.event_log, [63])[0])


def test_horizon_stop_sets_final_time():
    g = build_barbell(2, 2)
    trace = simulate(g, VANILLA, worst_cut_x0(g), SimConfig(seed=4, max_time=2.5))
    assert trace.final.time == 2.5
    assert trace.times[-1] == 2.5


def test_side_graph_runs_vanilla():
    side = side_subgraph(build_barbell(4, 4), 2)
    trace = simulate(side, VANILLA, [1.0, 1.0, -1.0, -1.0],
                     SimConfig(seed=10, max_events=500))
    assert trace.var[-1] < trace.var[0]
    with pytest.raises(ValueError, match="partitioned"):
        simulate(side, RuleDescriptor("algA", period=1), [1.0, 1.0, -1.0, -1.0],
                 SimConfig(seed=1, max_events=10))


def test_alg_requires_period():
    g = build_barbell(2, 2)
    with pytest.raises(ValueError, match="period"):
        simulate(g, RuleDescriptor("algA"), worst_cut_x0(g),
                 SimConfig(seed=1, max_events=10))


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=1)
    with pytest.raises(ValueError):
        SimConfig(seed=1, max_events=10, sample_every=0)
    with pytest.raises(ValueError):
        SimConfig(seed=1, max_time=-1.0)
    # counts must be integers; the error names the field
    with pytest.raises(ValueError, match="max_events"):
        SimConfig(seed=1, max_events=10.0)
    with pytest.raises(ValueError, match="max_events"):
        SimConfig(seed=1, max_events=True)
    with pytest.raises(ValueError, match="sample_every"):
        SimConfig(seed=1, max_events=10, sample_every=2.5)
    # numpy integers are accepted, and stored as Python ints
    cfg = SimConfig(seed=1, max_events=np.int64(10), sample_every=np.int32(3))
    assert (type(cfg.max_events), type(cfg.sample_every)) == (int, int)
    g = build_barbell(2, 2)
    trace = simulate(g, VANILLA, worst_cut_x0(g), cfg)
    assert trace.n_events == 10 and trace.meta["sample_every"] == 3
    # the seed must be a nonnegative integer; the error names it
    for bad in (1.5, True, -1, "3", None):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=bad, max_events=10)
    # a numpy integer seed is stored as a Python int, so the trace
    # metadata stays JSON
    cfg = SimConfig(seed=np.int64(4), max_events=10)
    assert type(cfg.seed) is int
    trace = simulate(g, VANILLA, worst_cut_x0(g), cfg)
    assert json.loads(json.dumps(trace.meta))["seed"] == 4
    assert trace.final.values.tobytes() == simulate(
        g, VANILLA, worst_cut_x0(g), SimConfig(seed=4, max_events=10)).final.values.tobytes()


def test_x0_length_checked():
    g = build_barbell(2, 2)
    with pytest.raises(ValueError, match="length"):
        simulate(g, VANILLA, [1.0, -1.0], SimConfig(seed=1, max_events=10))
    # a start that is not one vector of values
    for bad in (np.ones((2, 2)), np.ones((4, 1)), 1.0):
        with pytest.raises(ValueError, match="x0 has shape"):
            simulate(g, VANILLA, bad, SimConfig(seed=1, max_events=10))
        with pytest.raises(ValueError, match="x0 has shape"):
            simulate_batch(g, VANILLA, bad, [1, 2], 5.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x0_rejected(bad):
    g = build_barbell(8, 8)
    x0 = worst_cut_x0(g)
    x0[3] = bad
    with pytest.raises(ValueError, match=r"x0\[3\]"):
        simulate(g, VANILLA, x0, SimConfig(seed=1, max_events=10))


def test_empty_x0_rejected():
    with pytest.raises(ValueError, match="x0 is empty"):
        engine.sum_sq_dev([])


def test_overflowing_x0_rejected():
    # every entry is finite, but var(x0) overflows a float, or the exact
    # sum of the entries overflows on the way to their mean
    g = build_barbell(8, 8)
    with pytest.raises(ValueError, match="overflows"):
        simulate(g, VANILLA, worst_cut_x0(g) * 1e300,
                 SimConfig(seed=1, max_events=10))
    g = build_barbell(4, 4)
    huge = [1e308] * 8
    with pytest.raises(ValueError, match="overflows"):
        simulate(g, VANILLA, huge, SimConfig(seed=1, max_events=10))
    with pytest.raises(ValueError, match="overflows"):
        simulate_batch(g, VANILLA, huge, [1, 2], 5.0)
    with pytest.raises(ValueError, match="overflows"):
        StateVector.from_values(huge)


def test_batch_kernel_rejects_bad_inputs():
    g = build_barbell(2, 2)
    x0 = worst_cut_x0(g)
    with pytest.raises(ValueError, match="zero variance"):
        simulate_batch(g, VANILLA, np.ones(4), [1, 2], 5.0)
    with pytest.raises(ValueError, match="length"):
        simulate_batch(g, VANILLA, [1.0, -1.0], [1, 2], 5.0)
    with pytest.raises(ValueError, match=r"x0\[0\]"):
        simulate_batch(g, VANILLA, [math.nan, 1.0, 0.0, 0.0], [1, 2], 5.0)
    with pytest.raises(ValueError, match="max_time"):
        simulate_batch(g, VANILLA, x0, [1, 2], -1.0)
    # each seed is checked as SimConfig checks it, and the error names it
    for bad in (1.5, -1, True):
        with pytest.raises(ValueError, match=r"seeds\[1\] must be an integer >= 0"):
            simulate_batch(g, VANILLA, x0, [1, bad], 5.0)
    # a numpy integer seed runs as the Python int does
    got = simulate_batch(g, VANILLA, x0, [np.int64(2)], 5.0)
    assert np.array(got).tobytes() == np.array(simulate_batch(g, VANILLA, x0, [2], 5.0)).tobytes()
    first, last = simulate_batch(g, VANILLA, x0, [], 5.0)
    assert first.shape == last.shape == (0,)


def test_batch_kernel_past_its_first_chunk():
    # 33 runs make two groups.  The kernel stops vanilla runs at their
    # first crossing, after 2,131 to 6,322 events: some leave their group
    # within the first chunk of draws, and the rest read on from
    # compacted rows into the next one.  The algA runs read four chunks
    # each before their time cap.
    g = build_barbell(16, 16)
    x0 = worst_cut_x0(g)
    seeds = range(100, 133)
    for rule, horizon in ((VANILLA, 200.0), (parse_rule("algA:P=8"), 60.0)):
        traces = [simulate(g, rule, x0, SimConfig(seed=s, max_time=horizon,
                                                  sample_every=1 << 62,
                                                  record_events=True))
                  for s in seeds]
        first, last = simulate_batch(g, rule, x0, seeds, horizon)
        if rule is VANILLA:
            # the events up to and including each run's first crossing
            events = [int(tr.event_log.times.searchsorted(tr.first_crossing)) + 1
                      for tr in traces]
            assert min(events) < 4096 < max(events)
        else:
            assert min(tr.n_events for tr in traces) > 3 * 4096
        want_first = [math.nan if tr.first_crossing is None else tr.first_crossing
                      for tr in traces]
        assert first.tobytes() == np.array(want_first).tobytes()
        assert last.tobytes() == np.array([tr.last_exceedance for tr in traces]).tobytes()


def test_batch_runs_of_a_firing_rule_go_on_past_their_crossing():
    # a firing can raise the variance again, so the kernel stops only the
    # runs of a rule that never fires at their first crossing
    g = build_barbell(4, 4)
    x0 = worst_cut_x0(g)
    first, last = simulate_batch(g, parse_rule("algA:P=3"), x0, range(32), 40.0)
    assert np.sum(last > first) == 4
    first, last = simulate_batch(g, VANILLA, x0, range(32), 40.0)
    assert np.array_equal(first, last)


def test_event_stream_layout_is_rng_id():
    # RNG_ID names the layout of a run's draws: per chunk of 4096 events,
    # from one PCG64(seed) generator, 4096 waiting times Exp(m) and then
    # 4096 edges uniform over the m edges; event times are the left fold
    # t += dt of the waiting times
    assert RNG_ID == "numpy-PCG64/chunk4096"
    g = build_barbell(3, 5)
    m = g.num_edges
    gen = np.random.default_rng(np.random.PCG64(7))
    dts, edges = [], []
    for _ in range(3):
        dts += gen.exponential(1.0 / m, 4096).tolist()
        edges += gen.integers(0, m, 4096).tolist()
    events = 2 * 4096 + 100
    log = simulate(g, VANILLA, worst_cut_x0(g),
                   SimConfig(seed=7, max_events=events, sample_every=1 << 62,
                             record_events=True)).event_log
    times = list(itertools.accumulate(dts))[:events]
    assert log.times.tobytes() == np.array(times).tobytes()
    assert log.edges.tolist() == edges[:events]


@pytest.mark.parametrize("side, idle", [
    ([2.5, 2.5, 2.5], True),
    ([-0.0, -0.0], True),
    ([5e-324, 5e-324], True),  # subnormal: a + a and its half are exact
    ([math.nextafter(2.0**1023, 0.0)] * 2, True),
    ([2.5, 2.5, 2.0], False),
    ([2.5, 2.0, 2.5], False),
    ([0.0, -0.0, 0.0], False),  # equal, but a vanilla update turns -0.0 into 0.0
    ([math.nan, math.nan], False),
    ([math.inf, math.inf], False),
    ([-math.inf, -math.inf], False),
    ([2.0**1023, 2.0**1023], False),  # a + a overflows
    ([-(2.0**1023), -(2.0**1023)], False),
    ([1.0, math.nan, 1.0], False),
])
def test_idle_side_predicate(side, idle):
    # the side sits between two other values, which the test must ignore
    x = [7.0, *side, -7.0]
    assert _idle(x, 1, 1 + len(side)) is idle
    if idle:
        a = side[0]
        assert math.copysign(1.0, 0.5 * (a + a)) == math.copysign(1.0, a)
        assert 0.5 * (a + a) == a and a - a == 0.0


def test_idle_skip_past_the_first_chunk_equals_a_run_that_never_skips():
    # the dominance pool's runs: about 19k events, five chunks of draws,
    # in which the sides fall idle between firings and each firing wakes
    # them; against the same runs with no side ever idle
    g = build_barbell(16, 16)
    rule = parse_rule("algA:P=8")
    x0 = worst_cut_x0(g)
    loop = engine._pair_updates
    counts = [0, 0]  # events given to the loop, and those it applied

    def counted(x, e, *args, **kwargs):
        live = loop(x, e, *args, **kwargs)
        counts[0] += len(e)
        counts[1] += len(e) if live is None else len(live)
        return live

    for seed in (3, 11, 20241):
        counts[:] = [0, 0]
        cfg = SimConfig(seed=seed, max_time=80.0, sample_every=1 << 62)
        with mock.patch.object(engine, "_pair_updates", counted):
            trace = simulate(g, rule, x0, cfg)
        with mock.patch.object(engine, "_idle", lambda x, lo, hi: False):
            full = simulate(g, rule, x0, cfg)
        assert trace.n_events > 4 * 4096
        assert counts[0] == trace.n_events and counts[1] < counts[0]
        # crossing times are positive floats, None or inf: == is bitwise here
        assert (trace.first_crossing, trace.last_exceedance) == (
            full.first_crossing, full.last_exceedance)
        assert trace.epoch_marks.tobytes() == full.epoch_marks.tobytes()
        assert trace.tick_totals == full.tick_totals
        assert trace.final.values.tobytes() == full.final.values.tobytes()


def test_replay_states_selects_indices():
    g = build_barbell(2, 3)
    x0 = worst_cut_x0(g)
    trace = simulate(g, VANILLA, x0,
                     SimConfig(seed=19, max_events=50, record_events=True,
                               record_states=True, sample_every=1))
    states = replay_states(g, VANILLA, x0, trace.event_log, [-1, 0, 24, 49])
    assert np.array_equal(states[0], x0)
    assert np.array_equal(states[1], trace.states[1])
    assert np.array_equal(states[3], trace.final.values)
    # no indices, as the firings of a vanilla run: no states, one column
    # per vertex
    none = replay_states(g, VANILLA, x0, trace.event_log, trace.epoch_event_idx.tolist())
    assert none.shape == (0, g.n)
    assert _side_metrics(none, g.n1).shape == (4, 0)
    # x0 is checked against the graph, as simulate checks it, even where
    # the selected events never reach the missing vertex
    for bad in (x0[:-1], np.stack([x0, x0])):
        with pytest.raises(ValueError, match="x0 has shape"):
            replay_states(g, VANILLA, bad, trace.event_log, [-1, 0])
        with pytest.raises(ValueError, match="x0 has shape"):
            replay(g, VANILLA, bad, trace.event_log)


def test_replay_states_rejects_bad_indices():
    g = build_barbell(2, 3)
    x0 = worst_cut_x0(g)
    log = simulate(g, VANILLA, x0, SimConfig(seed=19, max_events=50,
                                             record_events=True)).event_log
    # each index must be an integer >= -1, and the error names it
    for bad in (2.5, True, -2, "3"):
        with pytest.raises(ValueError, match=r"at_indices\[1\] must be an integer >= -1"):
            replay_states(g, VANILLA, x0, log, [0, bad])
    # a numpy integer selects as the int does
    assert replay_states(g, VANILLA, x0, log, [np.int64(4)]).tobytes() == replay_states(
        g, VANILLA, x0, log, [4]).tobytes()
    with pytest.raises(IndexError, match="beyond the recorded log"):
        replay_states(g, VANILLA, x0, log, [0, 50])


def test_trace_jsonl_roundtrip(tmp_path):
    g = build_barbell(2, 2)
    trace = simulate(g, VANILLA, worst_cut_x0(g),
                     SimConfig(seed=23, max_events=40, sample_every=4))
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(trace, path)
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0])["meta"]
    assert meta["rng"] == RNG_ID
    assert meta["seed"] == 23
    assert meta["rule"] == "vanilla"
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == trace.n_samples
    assert rows[3]["var"] == trace.var[3]
    assert list(rows[0]) == ["t", "var", "mu1", "mu2", "sigma", "nu_t", "k"]


def test_trace_csv_format(tmp_path):
    g = build_barbell(2, 2)
    trace = simulate(g, VANILLA, worst_cut_x0(g),
                     SimConfig(seed=23, max_events=40, sample_every=4))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seed=23")
    assert lines[1] == "t,var,mu1,mu2,sigma,nu_t,k"
    assert len(lines) == trace.n_samples + 2
    assert float(lines[2].split(",")[1]) == trace.var[0]


# sha256 of the written files, recorded with the row-at-a-time writers
# (one json.dumps of a dict, or one repr per cell, per row).
WRITTEN = {
    (1, "jsonl"): "a2528cfe2c3780ec42c63e089015253c65a14ee334d06a7f21526bd07f61b1ee",
    (1, "csv"): "7b6bd883778aaa37def2e728b9ec70d9ef3697d433d490489fd71f3a63c39aec",
    (7, "jsonl"): "66ef8faf5babdacc1e60b668d002b04b6d2516e50136ead42d21ee79c11761dc",
    (7, "csv"): "e4082a33cb0290a3f8a2d915e7c44d4d00bcd33e1651604481a0b6c8eb634fd0",
}


@pytest.mark.parametrize("every", [1, 7])
def test_trace_files_byte_identical(tmp_path, every):
    # 5000 events span seven blocks and two chunks; 740 or 5001 rows span
    # one or five writer chunks
    g = build_barbell(8, 8)
    x0 = np.random.default_rng(5).normal(size=g.n)
    trace = simulate(g, RuleDescriptor("algA", period=3), x0,
                     SimConfig(seed=11, max_events=5000, sample_every=every))
    for write, ext in ((write_trace_jsonl, "jsonl"), (write_trace_csv, "csv")):
        path = tmp_path / f"t.{ext}"
        write(trace, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WRITTEN[every, ext]


def _table_trace(rows):
    """A SimTrace whose sample columns are the given (t, var, mu1, mu2,
    sigma, nu_t, k) rows."""
    cols = list(zip(*rows))
    return SimTrace(
        times=np.array(cols[0]), var=np.array(cols[1]), mu1=np.array(cols[2]),
        mu2=np.array(cols[3]), sigma=np.array(cols[4]),
        nu12=np.array(cols[5]), k_cut=np.array(cols[6]),
        epoch_marks=np.empty(0), epoch_sample_idx=np.empty(0, np.int64),
        epoch_event_idx=None, tick_totals={"total": 0}, event_log=None,
        states=None, final=StateVector.from_values([0.0]),
        first_crossing=None, last_exceedance=None,
        meta={"seed": 1, "rule": "vanilla"},
    )


def test_trace_writers_spell_special_floats(tmp_path):
    inf, nan = math.inf, math.nan
    third = 1.0 / 3.0
    trace = _table_trace([
        (0.0, nan, -0.0, -inf, 0.0, 0, 0),
        (0.5, -0.0, inf, 1.0, nan, 3, -1),
        (inf, 1e-300, 0.1, 2.5e16, third, 2**40, 7),
        # a tail that repeats the row before
        (inf, 1e-300, 0.1, 2.5e16, third, 2**40, 7),
        # tails that differ only in the sign of a zero
        (1.0, 0.0, 0.0, 0.0, 0.0, 1, 1),
        (1.5, 0.0, -0.0, 0.0, 0.0, 1, 1),
        (2.0, 0.0, 0.0, 0.0, 0.0, 1, 1),
        # a tail that repeats NaN
        (2.5, nan, nan, 1.0, nan, 1, 1),
        (3.0, nan, nan, 1.0, nan, 1, 1),
    ])
    write_trace_jsonl(trace, tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text().splitlines() == [
        '{"meta": {"seed": 1, "rule": "vanilla"}}',
        '{"t": 0.0, "var": NaN, "mu1": -0.0, "mu2": -Infinity, "sigma": 0.0,'
        ' "nu_t": 0, "k": 0}',
        '{"t": 0.5, "var": -0.0, "mu1": Infinity, "mu2": 1.0, "sigma": NaN,'
        ' "nu_t": 3, "k": -1}',
        '{"t": Infinity, "var": 1e-300, "mu1": 0.1, "mu2": 2.5e+16,'
        ' "sigma": 0.3333333333333333, "nu_t": 1099511627776, "k": 7}',
        '{"t": Infinity, "var": 1e-300, "mu1": 0.1, "mu2": 2.5e+16,'
        ' "sigma": 0.3333333333333333, "nu_t": 1099511627776, "k": 7}',
        '{"t": 1.0, "var": 0.0, "mu1": 0.0, "mu2": 0.0, "sigma": 0.0, "nu_t": 1, "k": 1}',
        '{"t": 1.5, "var": 0.0, "mu1": -0.0, "mu2": 0.0, "sigma": 0.0, "nu_t": 1, "k": 1}',
        '{"t": 2.0, "var": 0.0, "mu1": 0.0, "mu2": 0.0, "sigma": 0.0, "nu_t": 1, "k": 1}',
        '{"t": 2.5, "var": NaN, "mu1": NaN, "mu2": 1.0, "sigma": NaN, "nu_t": 1, "k": 1}',
        '{"t": 3.0, "var": NaN, "mu1": NaN, "mu2": 1.0, "sigma": NaN, "nu_t": 1, "k": 1}',
    ]
    write_trace_csv(trace, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[2:] == [
        "0.0,nan,-0.0,-inf,0.0,0,0",
        "0.5,-0.0,inf,1.0,nan,3,-1",
        "inf,1e-300,0.1,2.5e+16,0.3333333333333333,1099511627776,7",
        "inf,1e-300,0.1,2.5e+16,0.3333333333333333,1099511627776,7",
        "1.0,0.0,0.0,0.0,0.0,1,1",
        "1.5,0.0,-0.0,0.0,0.0,1,1",
        "2.0,0.0,0.0,0.0,0.0,1,1",
        "2.5,nan,nan,1.0,nan,1,1",
        "3.0,nan,nan,1.0,nan,1,1",
    ]

    # a run of equal tails across the writers' 1,024-row chunk boundary,
    # against one json.dumps of a dict, or one repr per cell, per row
    rows = [(0.25 * i, 0.5, -0.0, 1.0, 0.0, 2, 1) for i in range(1000, 1030)]
    rows[5] = (rows[5][0], 0.5, 0.0, 1.0, 0.0, 2, 1)
    trace = _table_trace([(0.25 * i, float(i), 0.0, 0.0, 0.0, i, 0)
                          for i in range(1000)] + rows)
    names = ["t", "var", "mu1", "mu2", "sigma", "nu_t", "k"]
    write_trace_jsonl(trace, tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text().splitlines()[1001:] == [
        json.dumps(dict(zip(names, r))) for r in rows]
    write_trace_csv(trace, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[1002:] == [
        ",".join(map(repr, r)) for r in rows]


def test_batched_metrics_match_the_per_row_arithmetic():
    """Each row of a batch gets the bits of the 1-D arithmetic: sum / size
    for the means and c @ c for the sums of squares."""
    def one_row(x, n1):
        c = x - x.sum() / x.size
        b1, b2 = c[:n1], c[n1:]
        mu1 = float(b1.sum()) / b1.size
        mu2 = float(b2.sum()) / b2.size if b2.size else 0.0
        d1, d2 = b1 - mu1, b2 - mu2
        ss = float(d1 @ d1) + (float(d2 @ d2) if d2.size else 0.0)
        return [mu1, mu2, math.sqrt(ss / x.size), float(c @ c) / x.size]

    r = rng(8)
    for n, n1 in ((2, 1), (5, 5), (32, 16), (33, 7), (300, 150)):
        states = r.normal(size=(64, n)) * 10.0 ** r.uniform(-4, 6, (64, 1)) + 1e3
        got = _side_metrics(states, n1)
        for i, x in enumerate(states):
            assert got[:, i].tolist() == one_row(x, n1)


# ---------------------------------------------------------------------------
# Golden values, recorded with the per-event loop before it was cut into
# numpy-precomputed blocks (64, 128, ..., 4096 events).  The caps straddle
# every block and chunk edge, so any change in how events, samples, firings
# or the detector are taken across an edge shows here.
# ---------------------------------------------------------------------------

GOLDEN_CAPS = [(k, None) for k in (1, 63, 64, 65, 4095, 4096, 4097, 8193)] + [
    (None, 3.0), (None, 60.0), (100_000, 20.0), (10, 0.0),
]
GOLDEN_RULES = {
    "vanilla": VANILLA,
    "convex": RuleDescriptor("convex", alpha=0.3),
    "algA": RuleDescriptor("algA", period=3, gamma_mode="balanced"),
}
GOLDEN_GRAPHS = {
    "barbell8,8": lambda: build_barbell(8, 8),
    "barbell3,5": lambda: build_barbell(3, 5),
    "side2of5,7": lambda: side_subgraph(build_barbell(5, 7), 2),
}


def _golden_digest(graph, rule, x0):
    """sha256 over every run of the grid: final state, samples, recorded
    states, epoch marks, event log, crossings and tick totals."""
    h = hashlib.sha256()
    for max_events, max_time in GOLDEN_CAPS:
        for every in (1, 7, 1 << 62):
            cfg = dict(seed=11, max_time=max_time, sample_every=every,
                       record_events=True, record_states=True)
            tr = simulate(graph, rule, x0, SimConfig(max_events=max_events, **cfg))
            # each run, then the same run stopped at its first crossing:
            # capped at that event
            stopped = tr
            if tr.first_crossing is not None:
                k = int(tr.event_log.times.searchsorted(tr.first_crossing)) + 1
                stopped = simulate(graph, rule, x0, SimConfig(max_events=k, **cfg))
            for run in (tr, stopped):
                for arr in (run.final.values, run.times, run.var, run.mu1, run.mu2,
                            run.sigma, run.nu12, run.k_cut, run.states,
                            run.epoch_marks, run.epoch_sample_idx,
                            run.epoch_event_idx, run.event_log.times,
                            run.event_log.edges, run.event_log.cases):
                    h.update(np.ascontiguousarray(arr).tobytes())
                    h.update(b"|")
                h.update(repr((run.final.time, run.first_crossing,
                               run.last_exceedance,
                               sorted(run.tick_totals.items()))).encode())
    return h.hexdigest()


GOLDEN = {
    # (graph, rule): (sha256 of the grid, (first_crossing, last_exceedance,
    # tick_totals) of the 8193-event run sampled every event)
    ('barbell8,8', 'vanilla'): (
        'afa385d90a667b47804587b6a9afddba267fdb751a080fffd7eb042235e0637e',
        (0.47070958142097785, 0.47070958142097785,
         {'e1': 4010, 'e2': 4030, 'e12': 153, 'cut': 153, 'total': 8193}),
    ),
    ('barbell8,8', 'convex'): (
        'f667002a392eb9403890e4bbd7e1f2a6b2a9b5b767d8bf64db03e3c8668e095f',
        (0.47070958142097785, 0.47070958142097785,
         {'e1': 4010, 'e2': 4030, 'e12': 153, 'cut': 153, 'total': 8193}),
    ),
    ('barbell8,8', 'algA'): (
        'e96c2b779517a7694d1ce50f98b3822425b0f456eba8169a21fb6fc1b465959a',
        (0.47070958142097785, 1.1022363909255808,
         {'e1': 4010, 'e2': 4030, 'e12': 153, 'cut': 153, 'total': 8193}),
    ),
    ('barbell3,5', 'vanilla'): (
        '769ddb5d83e59a05e85becbbe459eb14e42dd3f563bc3d2d68654ea997b170f1',
        (3.385842576960185, 3.385842576960185,
         {'e1': 1758, 'e2': 5825, 'e12': 610, 'cut': 610, 'total': 8193}),
    ),
    ('barbell3,5', 'convex'): (
        'e455249b22e4db26fdffa6e8455cf03c461d32276df9bbb8b984cec83de416a3',
        (3.385842576960185, 3.385842576960185,
         {'e1': 1758, 'e2': 5825, 'e12': 610, 'cut': 610, 'total': 8193}),
    ),
    ('barbell3,5', 'algA'): (
        '29a6310e8d69986d5ec666cc45bbb7b24d3c98403081906746b98544f859cfa3',
        (3.344044526525224, 3.344044526525224,
         {'e1': 1758, 'e2': 5825, 'e12': 610, 'cut': 610, 'total': 8193}),
    ),
    ('side2of5,7', 'vanilla'): (
        '5173ed43280e362d88aae5d6581c4db336cf5ebf0d708a9c125626ccac093231',
        (0.3045513210852976, 0.3045513210852976,
         {'e1': 8193, 'e2': 0, 'e12': 0, 'cut': 0, 'total': 8193}),
    ),
    ('side2of5,7', 'convex'): (
        '3df933c35e94ca9d6cb96b03453588aa67e6459c4476591ab3f0bd2bb28623fc',
        (0.2816646113841607, 0.2816646113841607,
         {'e1': 8193, 'e2': 0, 'e12': 0, 'cut': 0, 'total': 8193}),
    ),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_simulate_golden_across_blocks(key):
    gname, rname = key
    g = GOLDEN_GRAPHS[gname]()
    x0 = np.random.default_rng(5).normal(size=g.n)
    rule = GOLDEN_RULES[rname]
    digest, (first, last, ticks) = GOLDEN[key]
    tr = simulate(g, rule, x0, SimConfig(seed=11, max_events=8193,
                                         record_events=True))
    assert (tr.first_crossing, tr.last_exceedance, tr.tick_totals) == (
        first, last, ticks)
    assert _golden_digest(g, rule, x0) == digest


# ---------------------------------------------------------------------------
# Bit-identity pins for the sampling path, recorded with the per-sample
# loop that copied x at every sample point: a 50,000-event run sampled at
# every event, so almost every block takes the dense path.
# ---------------------------------------------------------------------------

PIN_TRACE = "bd95c28ba062add1c2cc3e2983d57002e7b7b4fb344c116f7a57bbbc32099e5a"
PIN_REPLAY = "24fd601711df6975fdf828d63e1d72d365212018a7b6b7bddd77f13265ecde23"


def pinned_trace():
    """barbell(16,16), algA P=8, worst-cut start, seed 3, 50,000 events
    sampled every event with the event log and the states."""
    from cutgossip.rules import parse_rule

    g = build_barbell(16, 16)
    rule = parse_rule("algA:P=8,gamma=balanced,C=4")
    x0 = worst_cut_x0(g)
    tr = simulate(g, rule, x0, SimConfig(seed=3, max_events=50_000, sample_every=1,
                                         record_events=True, record_states=True))
    return g, rule, x0, tr


def sha256_of(arrays, extra=b""):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"|")
    h.update(extra)
    return h.hexdigest()


def test_sampled_trace_and_replay_pins():
    g, rule, x0, tr = pinned_trace()
    assert sha256_of(
        (tr.times, tr.var, tr.mu1, tr.mu2, tr.sigma, tr.nu12, tr.k_cut, tr.states,
         tr.epoch_marks, tr.epoch_sample_idx, tr.epoch_event_idx, tr.final.values),
        repr((tr.final.time, tr.first_crossing, tr.last_exceedance,
              sorted(tr.tick_totals.items()))).encode(),
    ) == PIN_TRACE
    states = replay_states(g, rule, x0, tr.event_log, tr.epoch_event_idx.tolist())
    assert sha256_of([states]) == PIN_REPLAY


@pytest.mark.parametrize("cfg", [
    dict(max_time=math.inf),
    dict(max_time=math.nan, max_events=10),
])
def test_config_rejects_unbounded_time_cap(cfg):
    with pytest.raises(ValueError, match="max_time"):
        SimConfig(seed=1, **cfg)
    # with an event cap an infinite time cap is no cap
    assert SimConfig(seed=1, max_time=math.inf, max_events=10).max_time == math.inf


def test_batch_rejects_infinite_time_cap():
    g = build_barbell(2, 2)
    with pytest.raises(ValueError, match="finite"):
        simulate_batch(g, RuleDescriptor("algA", period=3), worst_cut_x0(g),
                       [1, 2], math.inf)
