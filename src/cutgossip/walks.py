"""Stochastic-dominance apparatus for per-epoch log-variance growth.

The dominating walk has i.i.d. two-point increments +log(n) or
-(3/2)log(n), each with probability 1/2.  Empirical epoch increments are
half the log-variance change across an epoch (variance is a squared norm,
so halving makes them comparable to log operator norms).  Dominance is
tested at quantiles with explicit slack: quantile dominance of i.i.d.
increments implies the existence of the coupled dominating walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import SimTrace

__all__ = [
    "TailBoundParams",
    "TailCheck",
    "DominanceReport",
    "dominating_increment_quantile",
    "empirical_increments",
    "dominance_check",
    "simple_walk_tail",
    "t0_bound",
]

# Fewest epoch increments a dominance check accepts.
MIN_INCREMENTS = 100


def dominating_increment_quantile(q: float, n: int) -> float:
    """Inverse CDF of the two-point increment law."""
    if not (0.0 < q < 1.0):
        raise ValueError("quantile must be in (0, 1)")
    return -1.5 * math.log(n) if q <= 0.5 else math.log(n)


def empirical_increments(trace: SimTrace) -> np.ndarray:
    """Halved log-variance changes across consecutive firing epochs.

    The list ends at the first epoch whose boundary variance is exactly
    zero (absorbing consensus).
    """
    if len(trace.epoch_marks) < 2:
        raise ValueError("trace has fewer than two epoch marks")
    var_at = trace.var[trace.epoch_sample_idx]
    out = []
    for k in range(len(var_at) - 1):
        v0, v1 = float(var_at[k]), float(var_at[k + 1])
        if v0 <= 0.0 or v1 <= 0.0:
            break
        out.append(0.5 * (math.log(v1) - math.log(v0)))
    return np.array(out)


@dataclass
class DominanceReport:
    """Quantile-dominance verdict for a batch of empirical increments."""

    n: int
    count: int
    slack: float
    quantiles: list[dict] = field(default_factory=list)
    heavy_epoch_fraction: float = 0.0
    max_increment: float = 0.0
    cap: float = 0.0
    cap_ok: bool = False
    passed: bool = False

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "slack": self.slack,
            "quantiles": self.quantiles,
            "heavy_epoch_fraction": self.heavy_epoch_fraction,
            "max_increment": self.max_increment,
            "cap": self.cap,
            "cap_ok": self.cap_ok,
            "passed": self.passed,
        }


# Quantile levels at which dominance is tested.
QUANTILE_GRID = tuple(round(0.1 * i, 2) for i in range(1, 10))


def dominance_check(increments, n: int, slack: float = 0.0) -> DominanceReport:
    """PASS iff the empirical quantile at every :data:`QUANTILE_GRID` level
    is at most the dominating-walk increment quantile plus slack and no
    increment exceeds the log(n) cap.

    Also reports the heavy-epoch fraction: increments at or above
    -(3/2)log(n), i.e. epochs whose realized squared-norm growth was at
    least 1/n^3 (the dominating walk puts probability 1/2 on its lower
    atom, so this fraction staying near or below 1/2 is what makes the
    domination work).
    """
    incr = np.asarray(increments, dtype=float)
    if incr.size < MIN_INCREMENTS:
        raise ValueError(f"need at least {MIN_INCREMENTS} increments, got {incr.size}")
    cap = math.log(n)
    report = DominanceReport(
        n=n,
        count=int(incr.size),
        slack=float(slack),
        max_increment=float(incr.max()),
        cap=cap,
    )
    report.cap_ok = report.max_increment <= cap
    ok = report.cap_ok
    for q in QUANTILE_GRID:
        emp = float(np.quantile(incr, q))
        dom = dominating_increment_quantile(q, n)
        row_ok = emp <= dom + slack
        ok = ok and row_ok
        report.quantiles.append(
            {"q": q, "empirical": emp, "dominating": dom, "ok": row_ok}
        )
    report.heavy_epoch_fraction = float(np.mean(incr >= -1.5 * math.log(n)))
    report.passed = ok
    return report


@dataclass(frozen=True)
class TailBoundParams:
    """Constants of the sub-Gaussian tail bound c*exp(-beta*s^2).

    The defaults (1, 1/2) are guaranteed for the simple +-1 walk by
    Hoeffding's inequality.
    """

    c_const: float = 1.0
    beta_const: float = 0.5

    def __post_init__(self) -> None:
        if self.c_const < 1.0:
            raise ValueError("c_const must be at least 1")
        if not self.beta_const > 0:
            raise ValueError("beta_const must be positive")


@dataclass(frozen=True)
class TailCheck:
    """Tail probability of the simple walk next to its bound value."""

    probability: float
    bound: float
    exact: bool


def simple_walk_tail(
    n: int, s: float, params: TailBoundParams = TailBoundParams()
) -> TailCheck:
    """P[S_n >= s*sqrt(n)] for the simple +-1 walk, with the bound value.

    Exact for every n by integer binomial summation.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not s > 0:
        raise ValueError("need s > 0")
    x = s * math.sqrt(n)
    bound = params.c_const * math.exp(-params.beta_const * s * s)
    # S_n = 2k - n over k up-steps; exact integer arithmetic.
    k_min = math.ceil((n + x) / 2.0)
    hits = sum(math.comb(n, k) for k in range(max(k_min, 0), n + 1))
    return TailCheck(hits / 2**n, bound, exact=True)


def t0_bound(params: TailBoundParams) -> int:
    """Smallest integer t0 whose geometric tail sum of c*exp(-beta*T/4)
    over T > t0 is below 1/e.

    The tail sum has the closed form c*exp(-beta*(t0+1)/4)/(1-exp(-beta/4));
    the result depends only on the bound constants, not on any graph size.
    With the Hoeffding defaults it is 25, the horizon in firing epochs.
    """
    budget = 1.0 / math.e
    q = math.exp(-params.beta_const / 4.0)
    t0 = 0
    while params.c_const * q ** (t0 + 1) / (1.0 - q) >= budget:
        t0 += 1
    return t0
