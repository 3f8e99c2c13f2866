import math

import numpy as np
import pytest

from cutgossip.analysis import worst_cut_x0
from cutgossip.engine import SimConfig, StateVector, simulate, step
from cutgossip.graph import (
    KIND_CROSS, KIND_CUT, KIND_E1, KIND_E2, build_barbell, random_partitioned,
    side_subgraph,
)
from cutgossip.rules import (
    RuleCase,
    RuleDescriptor,
    compile_rule,
    compute_period,
    pair_update,
    parse_rule,
    resolve_gamma,
)
from cutgossip.walks import dominance_check, empirical_increments

VANILLA, CONVEX, NONCONVEX = RuleCase.VANILLA, RuleCase.CONVEX, RuleCase.NONCONVEX


def test_vanilla_values():
    assert pair_update(VANILLA, 1.0, 3.0) == (2.0, 2.0)
    assert pair_update(VANILLA, 0.0, 0.0) == (0.0, 0.0)
    assert pair_update(VANILLA, -1.0, 1.0) == (0.0, 0.0)


def test_noop_returns_inputs():
    assert pair_update(RuleCase.NOOP, 1.0, -3.0, alpha=0.5, gamma=2.0) == (1.0, -3.0)


def test_convex_values():
    assert pair_update(CONVEX, 5.0, -2.0, alpha=1.0) == (5.0, -2.0)
    assert pair_update(CONVEX, 1.0, 3.0, alpha=0.5) == (2.0, 2.0)
    assert pair_update(CONVEX, 1.0, 3.0, alpha=0.75) == (1.5, 2.5)


def test_convex_stays_in_range_and_preserves_sum():
    rng = np.random.default_rng(4)
    for _ in range(500):
        xi, xj = rng.normal(scale=7.0, size=2)
        alpha = float(rng.random())
        a, b = pair_update(CONVEX, xi, xj, alpha=alpha)
        lo, hi = min(xi, xj), max(xi, xj)
        assert lo <= a <= hi and lo <= b <= hi
        assert abs((a + b) - (xi + xj)) <= 4 * np.spacing(max(abs(xi), abs(xj), 1.0))


def test_nonconvex_values():
    assert pair_update(NONCONVEX, 1.0, -1.0, gamma=2.0) == (-3.0, 3.0)
    assert pair_update(NONCONVEX, 5.0, 5.0, gamma=17.0) == (5.0, 5.0)
    assert pair_update(NONCONVEX, 1.0, -1.0, gamma=1.0) == (-1.0, 1.0)


def test_nonconvex_sum_preserved():
    rng = np.random.default_rng(9)
    for _ in range(500):
        xi, xj = rng.normal(scale=3.0, size=2)
        gamma = float(rng.uniform(0.1, 20.0))
        a, b = pair_update(NONCONVEX, xi, xj, gamma=gamma)
        scale = max(abs(a), abs(b), abs(xi), abs(xj), 1.0)
        assert abs((a + b) - (xi + xj)) <= 4 * np.spacing(scale)


def test_balanced_gamma_equalizes_block_means():
    # both blocks at their means: one balanced transfer makes the block-one
    # mean equal the global mean exactly
    g = build_barbell(2, 2)
    gamma = resolve_gamma(g, "balanced")
    x = [1.0, 1.0, -1.0, -1.0]
    x[1], x[2] = pair_update(NONCONVEX, x[1], x[2], gamma=gamma)
    assert (x[0] + x[1]) / 2 == sum(x) / 4 == (x[2] + x[3]) / 2


def test_resolve_gamma():
    g22 = build_barbell(2, 2)
    assert resolve_gamma(g22, "n1") == 2.0
    assert resolve_gamma(g22, "balanced") == 1.0
    assert resolve_gamma(build_barbell(3, 5), "balanced") == 15.0 / 8.0
    assert resolve_gamma(g22, "explicit", 2.5) == 2.5
    with pytest.raises(ValueError):
        resolve_gamma(g22, "explicit", -1.0)
    with pytest.raises(ValueError):
        resolve_gamma(g22, "half")


def test_compute_period():
    assert compute_period(1.0, 1.0, math.e, 10.0) == 20
    assert compute_period(0.0, 0.0, 2, 99.0) == 1
    assert compute_period(0.25, 0.25, 16, 4.0) == 6


def test_compute_period_validation():
    with pytest.raises(ValueError):
        compute_period(-1.0, 0.0, 4, 1.0)
    with pytest.raises(ValueError):
        compute_period(1.0, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        compute_period(1.0, 1.0, 4, 0.0)


def tick_case(rule, kind, k):
    # case step() applies on an edge of ``kind`` when that tick is the k-th
    # cut tick; this graph has edges of all four kinds
    g = random_partitioned(2, 2, 1.0, 1.0, 2, seed=3)
    edge = g.flat_edges()[2].index(kind)
    before = k - 1 if kind == KIND_CUT else k
    _, case, _ = step(StateVector.from_values(np.zeros(4)), g, rule, edge, before)
    return case


@pytest.mark.parametrize(
    "kind,k,period,expected",
    [
        (KIND_CUT, 2, 3, RuleCase.NONCONVEX),
        (KIND_CUT, 3, 3, RuleCase.NOOP),
        (KIND_CUT, 5, 3, RuleCase.NONCONVEX),
        (KIND_CUT, 1, 1, RuleCase.NONCONVEX),
        (KIND_CUT, 7, 1, RuleCase.NONCONVEX),
        (KIND_E1, 0, 3, RuleCase.VANILLA),
        (KIND_E1, 99, 1, RuleCase.VANILLA),
        (KIND_E2, 0, 3, RuleCase.VANILLA),
        (KIND_CROSS, 2, 3, RuleCase.NOOP),
    ],
)
def test_dispatch(kind, k, period, expected):
    assert tick_case(RuleDescriptor("algA", period=period), kind, k) is expected


@pytest.mark.parametrize("rule", [RuleDescriptor("vanilla"),
                                  RuleDescriptor("convex", alpha=0.4)])
def test_convex_class_rules_never_fire(rule):
    assert compile_rule(build_barbell(2, 2), rule).phase == -1
    expected = VANILLA if rule.kind == "vanilla" else CONVEX
    for kind in (KIND_E1, KIND_E2, KIND_CROSS, KIND_CUT):
        for k in range(1, 5):
            assert tick_case(rule, kind, k) is expected


def test_compile_rule_rejects_alg_without_cut_edge():
    side = side_subgraph(build_barbell(3, 3), 1)
    with pytest.raises(ValueError, match="partitioned"):
        compile_rule(side, RuleDescriptor("algA", period=2))
    with pytest.raises(ValueError, match="period"):
        compile_rule(build_barbell(3, 3), RuleDescriptor("algA"))


@pytest.mark.parametrize("case", [VANILLA, CONVEX, NONCONVEX])
def test_kernel_matrix_rows_match_scalars(case):
    # the epoch-operator path feeds matrix rows, the replay path scalars
    rng = np.random.default_rng(21)
    rows = rng.normal(size=(2, 6))
    ru, rv = pair_update(case, rows[0], rows[1], alpha=0.3, gamma=2.5)
    for j in range(6):
        su, sv = pair_update(case, float(rows[0, j]), float(rows[1, j]),
                             alpha=0.3, gamma=2.5)
        assert ru[j] == su and rv[j] == sv


def test_amplified_transfer_keeps_dominance():
    # Guards the antisymmetric form t = gamma*(x_v - x_u), x_u + t, x_v - t.
    # The single mix map (1-gamma)*x_u + gamma*x_v leaves rounding noise that
    # delays exact consensus and fails this check (heavy-epoch share 0.58).
    g = build_barbell(16, 16)
    rule = parse_rule("algA:P=8")
    increments = []
    for seed in range(100, 130):
        trace = simulate(g, rule, worst_cut_x0(g),
                         SimConfig(seed=seed, max_time=80.0, sample_every=1 << 62))
        increments.extend(empirical_increments(trace).tolist())
    report = dominance_check(increments, g.n, slack=0.1 * math.log(g.n))
    assert report.passed


def test_descriptor_text_roundtrip():
    for text in (
        "vanilla",
        "convex:a=0.75",
        "algA:P=20,gamma=balanced,C=4",
        "algA:P=3,gamma=n1,C=2.5",
        "algA:gamma=2.5,C=4",
    ):
        assert parse_rule(text).to_text() == text


def test_parse_rule_errors():
    for text in ("nope", "convex", "convex:b=1", "algA:P=x", "algA:gamma=?",
                 "vanilla:a=1", "convex:a=2"):
        with pytest.raises(ValueError):
            parse_rule(text)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RuleDescriptor("convex")
    with pytest.raises(ValueError):
        RuleDescriptor("convex", alpha=1.5)
    with pytest.raises(ValueError):
        RuleDescriptor("vanilla", alpha=0.5)
    with pytest.raises(ValueError):
        RuleDescriptor("algA", period=0)
    with pytest.raises(ValueError):
        RuleDescriptor("algA", gamma_mode="explicit")
    with pytest.raises(ValueError):
        RuleDescriptor("algA", gamma_mode="balanced", gamma_value=2.0)
    with pytest.raises(ValueError):
        RuleDescriptor("vanilla", period=3)
    assert RuleDescriptor("algA", period=None).gamma_mode == "balanced"
