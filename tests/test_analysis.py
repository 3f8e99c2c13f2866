import math
import multiprocessing

import numpy as np
import pytest

from cutgossip.analysis import (
    DegenerateInitialStateError,
    HorizonTooShortError,
    algA_scaling_sweep,
    bisection_x0,
    convex_lower_bound_sweep,
    decompose,
    epoch_operator,
    epoch_operators,
    estimate_T_av,
    estimate_T_van,
    loglog_slope,
    resolve_period,
    random_x0,
    run_seed,
    spectral_norm,
    worst_cut_x0,
)
from cutgossip.engine import SimConfig, replay_states, simulate
from cutgossip.graph import build_barbell, build_from_edge_list, side_subgraph
from cutgossip.rules import RuleCase, RuleDescriptor, compute_period, parse_rule

VANILLA = RuleDescriptor("vanilla")


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def brute_decomposition(x, n1):
    # independent route: plain loops over definitions
    x = [float(v) for v in x]
    n = len(x)
    mean = sum(x) / n
    c = [v - mean for v in x]
    mu1 = sum(c[:n1]) / n1
    mu2 = sum(c[n1:]) / (n - n1)
    var = sum(v * v for v in c) / n
    ss = sum((v - mu1) ** 2 for v in c[:n1]) + sum((v - mu2) ** 2 for v in c[n1:])
    return mu1, mu2, math.sqrt(ss / n), var


def test_decompose_symmetric_split():
    g = build_barbell(2, 2)
    d = decompose(np.array([1.0, 1.0, -1.0, -1.0]), g)
    assert (d.mu1, d.mu2, d.sigma, d.var) == (1.0, -1.0, 0.0, 1.0)
    assert d.mu == 2.0


def test_decompose_hand_example():
    g = build_barbell(2, 2)
    d = decompose(np.array([2.0, 0.0, -1.0, -1.0]), g)
    assert (d.mu1, d.mu2) == (1.0, -1.0)
    assert d.sigma**2 == pytest.approx(0.5, rel=1e-15)
    assert d.var == pytest.approx(1.5, rel=1e-15)
    assert d.var == pytest.approx(
        d.sigma**2 + (2 * d.mu1**2 + 2 * d.mu2**2) / 4, rel=1e-15
    )


def test_decompose_constant_vector():
    g = build_barbell(3, 3)
    d = decompose(np.full(6, 4.2), g)
    assert (d.mu1, d.mu2, d.sigma, d.var) == (0.0, 0.0, 0.0, 0.0)


def test_decompose_matches_brute_force():
    rng = np.random.default_rng(3)
    g = build_barbell(3, 7)
    for _ in range(100):
        x = rng.normal(scale=3.0, size=10) + rng.normal() * 5
        d = decompose(x, g)
        mu1, mu2, sigma, var = brute_decomposition(x, 3)
        assert d.mu1 == pytest.approx(mu1, abs=1e-12)
        assert d.mu2 == pytest.approx(mu2, abs=1e-12)
        assert d.sigma == pytest.approx(sigma, abs=1e-12)
        assert d.var == pytest.approx(var, abs=1e-12)
        assert d.var == pytest.approx(
            d.sigma**2 + (3 * d.mu1**2 + 7 * d.mu2**2) / 10, rel=1e-12
        )
        assert d.var >= 3 * d.mu1**2 / 10 - 1e-15


def test_decompose_length_check():
    with pytest.raises(ValueError):
        decompose(np.zeros(3), build_barbell(2, 2))


def test_x0_constructors():
    g = build_barbell(3, 5)
    w = worst_cut_x0(g)
    assert w.tolist() == [1.0] * 3 + [-0.6] * 5
    assert abs(w.sum()) < 1e-12
    b = bisection_x0(2)
    assert b.tolist() == [1.0, -1.0]
    with pytest.raises(ValueError, match="two vertices"):
        bisection_x0(1)
    r = random_x0(64, np.random.default_rng(1))
    assert abs(r.mean()) < 1e-12
    assert float(r @ r) / 64 == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# averaging-time estimator
# ---------------------------------------------------------------------------


def test_estimator_two_vertex_oracle():
    # the single edge ticks at rate 1; the ratio exceeds the threshold
    # until the first tick, so the averaging time is exactly 1
    g = build_barbell(1, 1)
    est = estimate_T_av(g, VANILLA, "worst_cut", runs=1000, horizon=8.0, seed=42)
    assert 0.85 <= est.t_hat <= 1.15
    assert 0.0 <= est.exceed_fraction_at_t_hat < 1.0 / math.e
    assert est.t_hat <= est.horizon
    assert np.all(np.isfinite(est.first_crossings))
    assert np.isfinite(est.last_exceedances).all()


def test_estimator_degenerate_x0():
    g = build_barbell(2, 2)
    with pytest.raises(DegenerateInitialStateError):
        estimate_T_av(g, VANILLA, np.zeros(4), runs=30, horizon=5.0)


def test_rejected_inputs_are_value_errors():
    # the kernel rejects a zero-variance start itself, with the error the
    # estimator reports; every rejected input is a ValueError, which the
    # CLI maps to exit 2
    from cutgossip import engine
    from cutgossip.graph import RetryBudgetExceededError

    assert engine.DegenerateInitialStateError is DegenerateInitialStateError
    with pytest.raises(DegenerateInitialStateError, match="zero variance"):
        engine.simulate_batch(build_barbell(2, 2), VANILLA, np.full(4, 3.0), [1], 5.0)
    for error in (DegenerateInitialStateError, HorizonTooShortError,
                  RetryBudgetExceededError):
        assert issubclass(error, ValueError)


def test_estimators_reject_a_policy_or_graph_they_cannot_use():
    g = build_barbell(2, 2)
    side = side_subgraph(g, 2)
    with pytest.raises(ValueError, match="worst_cut needs a partitioned graph"):
        estimate_T_av(side, VANILLA, "worst_cut", runs=30, horizon=5.0)
    with pytest.raises(ValueError, match="unknown x0 policy"):
        estimate_T_av(g, VANILLA, "bogus", runs=30, horizon=5.0)
    with pytest.raises(TypeError, match="SideGraph"):
        estimate_T_van(g, runs=30)


def test_estimator_rejects_a_start_of_the_wrong_shape():
    # an explicit start is checked against the graph, as simulate checks it
    g = build_barbell(2, 2)
    x0 = worst_cut_x0(g)
    for bad in (np.stack([x0, x0]), np.array(1.0), np.append(x0, 0.0)):
        with pytest.raises(ValueError, match="x0 has shape"):
            estimate_T_av(g, VANILLA, bad, runs=30, horizon=5.0)


def test_estimator_offset_x0_equivariant():
    # the detector tracks sum((x - mean)^2) through mean-free updates, so a
    # large offset and a scale leave every run's crossing unchanged
    g = build_barbell(8, 8)
    kw = dict(runs=30, horizon=64.0, seed=3)
    base = estimate_T_av(g, VANILLA, worst_cut_x0(g), **kw)
    moved = estimate_T_av(g, VANILLA, 0.37 * worst_cut_x0(g) + 1e8, **kw)
    assert moved.t_hat == base.t_hat
    assert np.array_equal(moved.last_exceedances, base.last_exceedances)
    assert np.array_equal(moved.first_crossings, base.first_crossings)


def test_estimator_horizon_too_short():
    g = build_barbell(1, 1)
    with pytest.raises(HorizonTooShortError):
        estimate_T_av(g, VANILLA, "worst_cut", runs=100, horizon=0.5, seed=1)


def test_estimator_censoring():
    g = build_barbell(1, 1)
    est = estimate_T_av(g, VANILLA, "worst_cut", runs=100, horizon=0.5, seed=1,
                        censor_horizon=True)
    assert est.censored
    assert est.t_hat <= 0.5


def test_estimator_requires_runs_and_horizon():
    g = build_barbell(1, 1)
    with pytest.raises(ValueError):
        estimate_T_av(g, VANILLA, "worst_cut", runs=10, horizon=5.0)
    with pytest.raises(ValueError):
        estimate_T_av(g, VANILLA, "worst_cut", runs=30, horizon=0.0)
    for bad in (-5, 1.5, True):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            estimate_T_av(g, VANILLA, "worst_cut", runs=30, horizon=5.0, seed=bad)


def test_slow_convex_member_is_no_faster_than_vanilla():
    g = build_barbell(16, 16)
    fast = estimate_T_av(g, VANILLA, "worst_cut", runs=30, horizon=70.0, seed=3)
    slow = estimate_T_av(g, RuleDescriptor("convex", alpha=0.9), "worst_cut",
                         runs=30, horizon=260.0, seed=3)
    assert slow.t_hat >= fast.t_hat


def test_estimator_random_policy_max_over_starts():
    g = build_barbell(2, 2)
    est = estimate_T_av(g, VANILLA, "random", runs=30, horizon=30.0, seed=7)
    assert est.t_hat > 0


@pytest.mark.parametrize("text", [
    "vanilla", "convex:a=0.3", "algA:P=3,gamma=balanced",
])
def test_estimator_early_stop_is_exact(text):
    # convex-class runs stop at their first crossing; the crossings must
    # equal those of full-horizon runs, and algA runs must not stop early
    g = build_barbell(4, 4)
    rule = parse_rule(text)
    est = estimate_T_av(g, rule, "worst_cut", runs=30, horizon=40.0, seed=1)
    assert not est.censored
    traces = [
        simulate(g, rule, worst_cut_x0(g),
                 SimConfig(seed=run_seed(1, 0, r), max_time=40.0,
                           sample_every=1 << 62))
        for r in range(30)
    ]
    firsts = np.array([tr.first_crossing for tr in traces])
    lasts = np.array([tr.last_exceedance for tr in traces])
    assert est.first_crossings.tobytes() == firsts.tobytes()
    assert est.last_exceedances.tobytes() == lasts.tobytes()
    if rule.kind == "algA":
        assert np.any(lasts > firsts)


def test_estimator_deterministic_and_worker_invariant():
    g = build_barbell(2, 2)
    kw = dict(runs=32, horizon=30.0, seed=11)
    a = estimate_T_av(g, VANILLA, "worst_cut", **kw)
    b = estimate_T_av(g, VANILLA, "worst_cut", **kw)
    assert a.t_hat == b.t_hat
    assert np.array_equal(a.last_exceedances, b.last_exceedances)


@pytest.mark.parametrize("bad", [0, -3, True, 2.0])
def test_workers_must_be_a_positive_integer(bad):
    match = "workers must be an integer >= 1"
    with pytest.raises(ValueError, match=match):
        convex_lower_bound_sweep([4], VANILLA, runs=30, workers=bad)
    with pytest.raises(ValueError, match=match):
        algA_scaling_sweep([4], runs=30, workers=bad)


def test_estimate_T_van_single_vertex():
    side = side_subgraph(build_barbell(1, 2), 1)
    assert estimate_T_van(side, runs=30, horizon=1.0) == 0.0


def test_estimate_T_van_two_vertices():
    side = side_subgraph(build_barbell(2, 2), 1)
    assert 0.85 <= estimate_T_van(side, runs=1000, horizon=8.0, seed=5) <= 1.15


def test_estimate_T_van_complete_blocks_do_not_slow_down():
    t8 = estimate_T_van(side_subgraph(build_barbell(8, 8), 1),
                        runs=100, horizon=4.0, seed=9)
    t16 = estimate_T_van(side_subgraph(build_barbell(16, 16), 1),
                         runs=100, horizon=4.0, seed=9)
    assert t16 < 1.2 * t8


def test_run_seed_counter_scheme():
    assert run_seed(5, 0, 0) == 5
    assert run_seed(5, 0, 3) == 8
    assert run_seed(5, 2, 3) == 5 + 2 * 1_000_003 + 3


# ---------------------------------------------------------------------------
# epoch operators and spectral norm
# ---------------------------------------------------------------------------


def test_epoch_operator_single_vanilla_event():
    g = build_barbell(1, 1)
    op = epoch_operator(g, VANILLA, [(0.1, 0, RuleCase.VANILLA)])
    assert np.allclose(op.matrix, [[0.5, 0.5], [0.5, 0.5]])
    assert op.spectral_norm == pytest.approx(1.0, abs=1e-9)


def test_epoch_operator_single_amplified_event():
    g = build_barbell(1, 1)
    rule = RuleDescriptor("algA", period=1, gamma_mode="explicit", gamma_value=2.0)
    op = epoch_operator(g, rule, [(0.1, 0, RuleCase.NONCONVEX)])
    assert np.allclose(op.matrix, [[-1.0, 2.0], [2.0, -1.0]])
    eig = sorted(np.linalg.eigvals(op.matrix))
    assert eig == pytest.approx([-3.0, 1.0])
    assert op.spectral_norm == pytest.approx(3.0, rel=1e-9)
    assert op.spectral_norm == pytest.approx(2 * 2.0 - 1.0, rel=1e-9)


def test_epoch_operator_empty_is_identity():
    g = build_barbell(2, 2)
    op = epoch_operator(g, VANILLA, [])
    assert np.array_equal(op.matrix, np.eye(4))
    assert op.spectral_norm == pytest.approx(1.0, abs=1e-9)


def test_epoch_operators_reproduce_boundary_states():
    g = build_barbell(4, 4)
    rule = RuleDescriptor("algA", period=2)
    x0 = worst_cut_x0(g)
    trace = simulate(g, rule, x0,
                     SimConfig(seed=37, max_events=4000, record_events=True,
                               sample_every=1 << 62))
    ops = epoch_operators(trace, g, rule)
    assert len(ops) == len(trace.epoch_marks) - 1
    assert [op.index for op in ops] == list(range(1, len(ops) + 1))
    states = replay_states(g, rule, x0, trace.event_log,
                           trace.epoch_event_idx.tolist())
    for k, op in enumerate(ops):
        start, end = states[k], states[k + 1]
        scale = max(np.linalg.norm(start), np.linalg.norm(end), 1e-300)
        assert np.linalg.norm(op.matrix @ start - end) <= 1e-9 * scale


def test_epoch_operators_need_event_log():
    g = build_barbell(2, 2)
    trace = simulate(g, RuleDescriptor("algA", period=1), worst_cut_x0(g),
                     SimConfig(seed=4, max_events=100))
    with pytest.raises(ValueError, match="event log"):
        epoch_operators(trace, g, RuleDescriptor("algA", period=1))


def test_spectral_norm_reference_values():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-10)
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, rel=1e-9)
    assert spectral_norm([[-1.0, 2.0], [2.0, -1.0]]) == pytest.approx(3.0, rel=1e-9)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_against_svd():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = rng.normal(size=(8, 8)) * rng.uniform(0.01, 10)
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        assert spectral_norm(a) == pytest.approx(want, rel=1e-7)


def test_spectral_norm_errors():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_loglog_slope_recovers_power_law():
    xs = [4, 8, 16, 32]
    ys = [2.0 * x**1.3 for x in xs]
    assert loglog_slope(xs, ys) == pytest.approx(1.3, rel=1e-9)


def test_convex_sweep_small():
    table = convex_lower_bound_sweep([4, 8], VANILLA, runs=30, seed=2)
    assert len(table.rows) == 2
    assert table.column("n") == [4, 8]
    assert table.column("e12") == [1, 1]
    for n, n1, t_hat, bound, ok in zip(
        table.column("n"), table.column("n1"), table.column("t_hat"),
        table.column("bound"), table.column("t_hat_ge_bound"),
    ):
        assert n1 == n // 2
        assert bound == 0.1 * n1
        assert ok and t_hat >= bound
    assert table.column("nu_mean_at_t_hat")[0] > 0
    assert table.comments and "slope" in table.comments[0]


def test_convex_sweep_rejects_alg_rule():
    with pytest.raises(ValueError):
        convex_lower_bound_sweep([4], RuleDescriptor("algA", period=1), runs=30)


def test_alg_sweep_small():
    table = algA_scaling_sweep([4, 8], runs=30, seed=3)
    assert len(table.rows) == 2
    assert all(p >= 1 for p in table.column("P"))
    assert all(r > 0 for r in table.column("ratio"))
    assert all(not c for c in table.column("censored"))
    assert all(g == 1.0 or g > 0 for g in table.column("gamma"))
    assert "slope" in table.comments[0]


@pytest.mark.parametrize("sweep", [
    lambda **kw: convex_lower_bound_sweep([32, 16, 64], VANILLA, runs=30, **kw),
    lambda **kw: algA_scaling_sweep([32, 16, 64], runs=30, **kw),
], ids=["convex", "algA"])
def test_sweep_points_in_parallel_give_the_same_table(sweep):
    one = sweep(seed=3, workers=1)
    two = sweep(seed=3, workers=2)
    assert one.column("n") == [32, 16, 64]
    assert (two.rows, two.comments) == (one.rows, one.comments)
    assert multiprocessing.active_children() == []


def test_sweep_pools_points_only_when_seeds_cannot_split(monkeypatch):
    import concurrent.futures

    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    def pool(max_workers):
        sizes.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    # one pool of min(workers, points) runs the three points, whatever
    # the run count
    convex_lower_bound_sweep([4, 8, 6], VANILLA, runs=30, workers=4)
    convex_lower_bound_sweep([4, 8, 6], VANILLA, runs=64, workers=4)
    assert sizes == [3, 3]
    assert multiprocessing.active_children() == []


def test_sweep_point_error_reaches_the_caller(monkeypatch):
    import cutgossip.analysis as analysis

    def fail(g, *args):
        raise RuntimeError(f"no period for n={g.n}")

    # a forked worker inherits the patch; other start methods re-import
    if multiprocessing.get_start_method() == "fork":
        monkeypatch.setattr(analysis, "resolve_period", fail)
        with pytest.raises(RuntimeError, match=r"no period for n=(4|8)$"):
            algA_scaling_sweep([4, 8], runs=30, workers=2)
    # an error the point itself raises, under any start method
    with pytest.raises(ValueError, match="need at least 30 runs"):
        convex_lower_bound_sweep([4, 8], VANILLA, runs=10, workers=2)
    assert multiprocessing.active_children() == []


def test_sweep_checks_every_n_before_it_starts():
    for bad in ([4, 7], [4, 0]):
        with pytest.raises(ValueError, match="even n >= 2"):
            convex_lower_bound_sweep(bad, VANILLA, runs=30, workers=2)
    assert multiprocessing.active_children() == []


def test_resolve_period_matches_sweep_row():
    period, tv1, tv2 = resolve_period(build_barbell(4, 4), 4.0, seed=3, runs=100)
    assert period == compute_period(tv1, tv2, 8, 4.0)
    table = algA_scaling_sweep([8], runs=30, seed=3)
    assert (table.column("P"), table.column("tvan1"), table.column("tvan2")) == (
        [period], [tv1], [tv2]
    )


def test_resolve_period_on_slow_path_blocks():
    # path blocks average slowly (T_van ~ 13, against ~1 for complete
    # blocks); the pinned values hold for any horizon cap that lets the
    # estimate settle
    path = ([(i, i + 1, "E1") for i in range(1, 8)]
            + [(i, i + 1, "E2") for i in range(9, 16)] + [(8, 9, "E12")])
    g, _ = build_from_edge_list(16, range(1, 9), path, (8, 9))
    assert resolve_period(g, 4.0, seed=3, runs=30) == (
        282, 13.032635999559972, 12.33104284781698
    )


def test_alg_sweep_n1_mode_censors_on_equal_blocks():
    # with gamma = n1 and equal blocks the block means swap forever, so
    # runs never settle and rows are horizon-censored
    table = algA_scaling_sweep([8], gamma_mode="n1", runs=30, seed=4)
    assert table.column("censored") == [True]


def test_sweep_csv_roundtrip(tmp_path):
    table = convex_lower_bound_sweep([4], VANILLA, runs=30, seed=5)
    path = tmp_path / "sweep.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["n", "n1", "n2"]
    assert len([l for l in lines if l.startswith("#")]) == len(table.comments)


def test_estimator_rejects_infinite_horizon():
    g = build_barbell(2, 2)
    with pytest.raises(ValueError, match="finite"):
        estimate_T_av(g, RuleDescriptor("algA", period=3), runs=30, horizon=math.inf)


def _oracle(graph, rule, edges, cases):
    """One epoch composed alone, one pair_update of matrix rows per event."""
    from cutgossip.rules import compile_rule, pair_update

    rc = compile_rule(graph, rule)
    a = np.eye(graph.n)
    for e, case in zip(edges.tolist(), cases.tolist()):
        u, v = graph.view.eu[e], graph.view.ev[e]
        a[u], a[v] = pair_update(case, a[u], a[v], rc.alpha, rc.gamma)
    return a


@pytest.mark.parametrize("rule", [
    RuleDescriptor("algA", period=2),
    RuleDescriptor("algA", period=5, gamma_mode="n1"),
])
def test_epoch_operators_match_one_epoch_at_a_time(rule):
    # uneven epoch lengths, so the lockstep pads the shorter epochs
    g = build_barbell(3, 5)
    trace = simulate(g, rule, worst_cut_x0(g),
                     SimConfig(seed=8, max_events=3000, record_events=True,
                               sample_every=1 << 62))
    ops = epoch_operators(trace, g, rule)
    idx = trace.epoch_event_idx.tolist()
    segs = [trace.event_log[i + 1 : j + 1] for i, j in zip(idx, idx[1:])]
    assert len(ops) == len(segs) > 2
    for op, seg in zip(ops, segs):
        a = _oracle(g, rule, seg.edges, seg.cases)
        assert op.matrix.tobytes() == a.tobytes()
        assert op.spectral_norm == spectral_norm(a)
    want = _oracle(g, rule, segs[0].edges, segs[0].cases).tobytes()
    assert epoch_operator(g, rule, segs[0]).matrix.tobytes() == want
    assert epoch_operator(g, rule, list(segs[0])).matrix.tobytes() == want


def test_epoch_operator_convex_matches_one_event_at_a_time():
    g = build_barbell(3, 5)
    rule = RuleDescriptor("convex", alpha=0.3)
    log = simulate(g, rule, worst_cut_x0(g),
                   SimConfig(seed=8, max_events=500, record_events=True)).event_log
    want = _oracle(g, rule, log.edges, log.cases)
    assert epoch_operator(g, rule, log).matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("rule", [
    RuleDescriptor("algA", period=2),
    RuleDescriptor("convex", alpha=0.3),
])
def test_epoch_operator_mixed_cases_match_one_event_at_a_time(rule):
    # a hand-built log of more than one lockstep block, whose cases mix
    # the rule's intra case with every other, no-ops included: the cases
    # that are not the intra case are applied one by one after their step
    g = build_barbell(3, 5)
    r = np.random.default_rng(5)
    edges = r.integers(0, len(g.view.eu), 700)
    cases = r.choice([int(c) for c in RuleCase], 700)
    assert set(cases.tolist()) == {0, 1, 2, 3}
    events = [(0.0, e, RuleCase(c)) for e, c in zip(edges.tolist(), cases.tolist())]
    want = _oracle(g, rule, edges, cases)
    assert epoch_operator(g, rule, events).matrix.tobytes() == want.tobytes()


PIN_OPERATORS = "b52fc82a254bbc697a89554bfa31a8437e21ee7b7d0e3a8896050b199041c21c"


def test_epoch_operators_pin():
    # recorded with the one-epoch-at-a-time composition on the run of
    # test_engine.pinned_trace
    from test_engine import pinned_trace, sha256_of

    g, rule, _, tr = pinned_trace()
    ops = epoch_operators(tr, g, rule)
    assert len(ops) == 25
    assert sha256_of([op.matrix for op in ops],
                     repr([(op.index, op.spectral_norm) for op in ops]).encode()
                     ) == PIN_OPERATORS
