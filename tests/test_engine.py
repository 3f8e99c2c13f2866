import hashlib
import json
import math

import numpy as np
import pytest

from cutgossip.analysis import bisection_x0, worst_cut_x0
from cutgossip.engine import (
    RNG_ID,
    SimConfig,
    StateVector,
    next_event,
    replay,
    replay_states,
    simulate,
    step,
    write_trace_csv,
    write_trace_jsonl,
)
from cutgossip.graph import (
    KIND_CROSS, KIND_CUT, build_barbell, random_partitioned, side_subgraph,
)
from cutgossip.rules import RuleCase, RuleDescriptor


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
    # stop_at_crossing ends the run at the event of its first crossing
    g = build_barbell(4, 4)
    x0 = worst_cut_x0(g)
    trace = simulate(
        g, VANILLA, x0,
        SimConfig(seed=3, max_events=10**7, stop_at_crossing=True),
    )
    assert trace.final.time == trace.first_crossing == trace.last_exceedance
    assert trace.var[-1] <= math.exp(-2.0) * trace.var[0]
    full = simulate(g, VANILLA, x0, SimConfig(seed=3, max_events=10**4))
    assert full.first_crossing == trace.first_crossing
    assert full.n_events > trace.n_events


def test_crossing_on_a_block_edge_stops_there():
    # this run first crosses at its 64th event, the last of the first block
    side = side_subgraph(build_barbell(32, 32), 1)
    x0 = bisection_x0(32)
    full = simulate(side, VANILLA, x0,
                    SimConfig(seed=10, max_events=200, record_events=True))
    assert full.event_log.times[63] == full.first_crossing
    trace = simulate(side, VANILLA, x0,
                     SimConfig(seed=10, max_time=256.0, stop_at_crossing=True))
    assert trace.n_events == 64
    assert trace.final.time == full.first_crossing
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


def test_x0_length_checked():
    g = build_barbell(2, 2)
    with pytest.raises(ValueError, match="length"):
        simulate(g, VANILLA, [1.0, -1.0], SimConfig(seed=1, max_events=10))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x0_rejected(bad):
    g = build_barbell(8, 8)
    x0 = worst_cut_x0(g)
    x0[3] = bad
    with pytest.raises(ValueError, match=r"x0\[3\]"):
        simulate(g, VANILLA, x0, SimConfig(seed=1, max_events=10))


def test_overflowing_x0_rejected():
    # every entry is finite, but var(x0) overflows a float
    g = build_barbell(8, 8)
    with pytest.raises(ValueError, match="overflows"):
        simulate(g, VANILLA, worst_cut_x0(g) * 1e300,
                 SimConfig(seed=1, max_events=10))


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
            for stop in (False, True):
                tr = simulate(graph, rule, x0, SimConfig(
                    seed=11, max_events=max_events, max_time=max_time,
                    stop_at_crossing=stop, sample_every=every,
                    record_events=True, record_states=True,
                ))
                for arr in (tr.final.values, tr.times, tr.var, tr.mu1, tr.mu2,
                            tr.sigma, tr.nu12, tr.k_cut, tr.states,
                            tr.epoch_marks, tr.epoch_sample_idx,
                            tr.epoch_event_idx, tr.event_log.times,
                            tr.event_log.edges, tr.event_log.cases):
                    h.update(np.ascontiguousarray(arr).tobytes())
                    h.update(b"|")
                h.update(repr((tr.final.time, tr.first_crossing,
                               tr.last_exceedance,
                               sorted(tr.tick_totals.items()))).encode())
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
