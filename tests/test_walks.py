import inspect
import itertools
import math

import numpy as np
import pytest

from cutgossip.engine import SimConfig, SimTrace, StateVector, simulate
from cutgossip.graph import build_barbell
from cutgossip.rules import RuleDescriptor, resolve_gamma
from cutgossip.walks import (
    TailBoundParams,
    dominance_check,
    dominating_increment_quantile,
    empirical_increments,
    simple_walk_tail,
    t0_bound,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_tail(n, s):
    # enumerate all 2^n sign paths of the simple walk
    x = s * math.sqrt(n)
    hits = sum(
        1 for signs in itertools.product((-1, 1), repeat=n) if sum(signs) >= x
    )
    return hits, 2**n


def _trace_with_mark_vars(var_at_marks):
    k = len(var_at_marks)
    zeros = np.zeros(k)
    return SimTrace(
        times=np.arange(k, dtype=float),
        var=np.asarray(var_at_marks, dtype=float),
        mu1=zeros, mu2=zeros, sigma=zeros,
        nu12=np.arange(k), k_cut=np.arange(k),
        epoch_marks=np.arange(k, dtype=float),
        epoch_sample_idx=np.arange(k),
        epoch_event_idx=None,
        tick_totals={"e1": 0, "e2": 0, "e12": k, "cut": k, "total": k},
        event_log=None, states=None,
        final=StateVector(np.zeros(2), float(k), 0.0),
        first_crossing=None, last_exceedance=None,
    )


# ---------------------------------------------------------------------------
# empirical increments
# ---------------------------------------------------------------------------


def test_increments_halving_variance():
    trace = _trace_with_mark_vars([1.0, 0.5, 0.25, 0.125])
    inc = empirical_increments(trace)
    assert np.allclose(inc, -math.log(2.0) / 2.0)
    assert inc.size == 3


def test_increments_absorbing_zero():
    trace = _trace_with_mark_vars([1.0, 0.5, 0.25, 0.0])
    assert empirical_increments(trace).size == 2


def test_increments_require_two_marks():
    with pytest.raises(ValueError):
        empirical_increments(_trace_with_mark_vars([1.0]))


def test_increments_capped_by_log_n_on_real_run():
    g = build_barbell(8, 8)
    rule = RuleDescriptor("algA", period=5)
    gamma = resolve_gamma(g, "balanced")
    inc = []
    for seed in range(6):
        trace = simulate(
            g, rule, np.concatenate([np.ones(8), -np.ones(8)]),
            SimConfig(seed=seed, max_time=90.0, sample_every=1 << 62),
        )
        inc.extend(empirical_increments(trace).tolist())
    assert len(inc) >= 20
    # realized growth per epoch cannot beat one amplified transfer
    assert max(inc) <= math.log(2 * gamma - 1) + 1e-9
    assert max(inc) <= math.log(g.n)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------


def test_dominating_quantile_is_two_point_inverse_cdf():
    n = 32
    assert dominating_increment_quantile(0.3, n) == -1.5 * math.log(n)
    assert dominating_increment_quantile(0.5, n) == -1.5 * math.log(n)
    assert dominating_increment_quantile(0.7, n) == math.log(n)
    with pytest.raises(ValueError):
        dominating_increment_quantile(0.0, n)


def test_dominance_all_at_lower_atom_passes_zero_slack():
    n = 16
    inc = np.full(200, -1.5 * math.log(n))
    report = dominance_check(inc, n, slack=0.0)
    assert report.passed
    assert report.heavy_epoch_fraction == 1.0  # the atom sits exactly at the cut


def test_dominance_cap_violation_fails():
    n = 16
    inc = np.full(200, -1.5 * math.log(n))
    inc[7] = math.log(n) * 1.01
    report = dominance_check(inc, n, slack=100.0)
    assert not report.cap_ok
    assert not report.passed


def test_dominance_insufficient_samples():
    with pytest.raises(ValueError, match="100"):
        dominance_check(np.zeros(50), 16)


@pytest.mark.parametrize("slack", [math.inf, -math.inf, math.nan])
def test_dominance_rejects_a_slack_that_is_not_finite(slack):
    with pytest.raises(ValueError, match="slack must be finite"):
        dominance_check(np.zeros(200), 16, slack=slack)


def test_dominance_report_shape():
    rng = np.random.default_rng(2)
    inc = -2.0 * math.log(16) + 0.1 * rng.standard_normal(300)
    report = dominance_check(inc, 16, slack=0.1 * math.log(16))
    assert report.passed
    d = report.to_dict()
    assert {"n", "count", "quantiles", "heavy_epoch_fraction", "passed"} <= set(d)
    assert len(d["quantiles"]) == 9


# ---------------------------------------------------------------------------
# simple-walk tail
# ---------------------------------------------------------------------------


def test_tail_spot_value_exact():
    chk = simple_walk_tail(4, 1.0)
    assert chk.exact
    assert chk.probability == 5.0 / 16.0
    assert chk.bound == math.exp(-0.5)
    assert chk.probability <= chk.bound


def test_tail_one_step():
    assert simple_walk_tail(1, 2.0).probability == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_tail_matches_brute_force(n, s):
    hits, total = brute_tail(n, s)
    chk = simple_walk_tail(n, s)
    assert chk.probability == hits / total


def test_tail_symmetry_small():
    # P[S_n >= x] == P[S_n <= -x] by enumeration
    for n in range(1, 9):
        for s in (0.5, 1.0, 2.0):
            x = s * math.sqrt(n)
            up = sum(
                1 for signs in itertools.product((-1, 1), repeat=n)
                if sum(signs) >= x
            )
            down = sum(
                1 for signs in itertools.product((-1, 1), repeat=n)
                if sum(signs) <= -x
            )
            assert up == down


def test_tail_monte_carlo_fallback():
    # n beyond brute-force reach is summed exactly as well
    scipy_stats = pytest.importorskip("scipy.stats")
    s = 1.0
    for n in (41, 50, 200):
        chk = simple_walk_tail(n, s)
        assert chk.exact
        x = s * math.sqrt(n)
        k_min = math.ceil((n + x) / 2.0)
        exact = float(scipy_stats.binom.sf(k_min - 1, n, 0.5))
        assert chk.probability == pytest.approx(exact, rel=1e-12)


def test_tail_validation():
    with pytest.raises(ValueError):
        simple_walk_tail(0, 1.0)
    with pytest.raises(ValueError):
        simple_walk_tail(4, 0.0)


# ---------------------------------------------------------------------------
# t0 bound
# ---------------------------------------------------------------------------


def direct_tail_sum(c, beta, t0, terms=20_000):
    return sum(c * math.exp(-beta * t / 4.0) for t in range(t0 + 1, t0 + terms))


def test_t0_matches_direct_summation():
    params = TailBoundParams(1.0, 0.5)
    t0 = t0_bound(params)
    budget = 1.0 / math.e
    assert direct_tail_sum(1.0, 0.5, t0) < budget
    if t0 > 0:
        assert direct_tail_sum(1.0, 0.5, t0 - 1) >= budget


def test_t0_doubling_shift():
    for beta in (0.5, 1.0, 2.0):
        a = t0_bound(TailBoundParams(1.0, beta))
        b = t0_bound(TailBoundParams(2.0, beta))
        assert a <= b <= a + math.ceil(4.0 * math.log(2.0) / beta)


def test_t0_large_beta_is_zero():
    assert t0_bound(TailBoundParams(1.0, 200.0)) == 0


def test_t0_needs_no_graph_size():
    assert "n" not in inspect.signature(t0_bound).parameters
    # the paper's horizon in firing epochs
    assert t0_bound(TailBoundParams()) == 25


def test_tail_params_validation():
    with pytest.raises(ValueError):
        TailBoundParams(0.5, 0.5)
    with pytest.raises(ValueError):
        TailBoundParams(1.0, 0.0)
