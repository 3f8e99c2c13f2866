"""Pairwise update rules applied at edge clock ticks.

Three families: the plain pairwise mean, convex blends that keep both
endpoints inside the input interval, and the amplified cut transfer that
the periodic scheme fires on the designated cut edge.  All rules see only
the two endpoint values of the ticking edge, so one kernel,
:func:`pair_update`, applies every case; :func:`compile_rule` decides per
run which case each edge kind gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .graph import PartitionedGraph

__all__ = [
    "RuleCase",
    "RuleDescriptor",
    "CompiledRule",
    "parse_rule",
    "pair_update",
    "resolve_gamma",
    "compute_period",
    "compile_rule",
]

GAMMA_MODES = ("balanced", "n1", "explicit")

RULE_KINDS = ("vanilla", "convex", "algA")


class RuleCase(IntEnum):
    """Which elementary update an event actually applied."""

    NOOP = 0
    VANILLA = 1
    CONVEX = 2
    NONCONVEX = 3


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass(frozen=True)
class RuleDescriptor:
    """Which update rule governs each clock tick.

    kind "vanilla": every tick replaces both endpoints by their mean.
    kind "convex": every tick applies the alpha blend (alpha in [0, 1]).
    kind "algA": intra-block ticks average, non-designated cross ticks are
    no-ops, and every ``period``-th tick of the designated cut edge fires
    the amplified transfer with coefficient gamma.  ``period`` may be left
    unset and resolved later from block averaging-time estimates via
    :func:`compute_period` with constant ``c_const``.

    gamma_mode "balanced" uses n1*n2/n, which zeroes the block-mean
    imbalance exactly; "n1" uses the block-one size (overshoots into a
    mean swap when the blocks have equal size); "explicit" uses
    ``gamma_value``.
    """

    kind: str
    alpha: float | None = None
    period: int | None = None
    gamma_mode: str = "balanced"
    gamma_value: float | None = None
    c_const: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "convex":
            if self.alpha is None or not (0.0 <= self.alpha <= 1.0):
                raise ValueError("convex rule requires alpha in [0, 1]")
        elif self.alpha is not None:
            raise ValueError("alpha is only meaningful for the convex rule")
        if self.kind == "algA":
            if self.period is not None and (
                not isinstance(self.period, int) or self.period < 1
            ):
                raise ValueError("period must be a positive integer")
            if self.gamma_mode not in GAMMA_MODES:
                raise ValueError(f"unknown gamma mode {self.gamma_mode!r}")
            if self.gamma_mode == "explicit":
                if self.gamma_value is None or self.gamma_value <= 0:
                    raise ValueError("explicit gamma must be positive")
            elif self.gamma_value is not None:
                raise ValueError("gamma_value requires gamma_mode='explicit'")
            if not self.c_const > 0:
                raise ValueError("c_const must be positive")
        elif self.period is not None:
            raise ValueError("period is only meaningful for the algA rule")

    def to_text(self) -> str:
        """Short text form used by CLI flags and trace metadata."""
        if self.kind == "vanilla":
            return "vanilla"
        if self.kind == "convex":
            return f"convex:a={_fmt(self.alpha)}"
        parts = []
        if self.period is not None:
            parts.append(f"P={self.period}")
        gamma = (
            _fmt(self.gamma_value)
            if self.gamma_mode == "explicit"
            else self.gamma_mode
        )
        parts.append(f"gamma={gamma}")
        parts.append(f"C={_fmt(self.c_const)}")
        return "algA:" + ",".join(parts)


def parse_rule(text: str) -> RuleDescriptor:
    """Parse the short text form, e.g. ``convex:a=0.75`` or
    ``algA:P=20,gamma=balanced,C=4``."""
    name, _, args = text.strip().partition(":")
    fields: dict[str, str] = {}
    if args:
        for item in args.split(","):
            key, eq, val = item.partition("=")
            if not eq or not val:
                raise ValueError(f"malformed rule option {item!r}")
            fields[key.strip()] = val.strip()
    try:
        if name == "vanilla":
            if fields:
                raise ValueError("vanilla takes no options")
            return RuleDescriptor("vanilla")
        if name == "convex":
            unknown = set(fields) - {"a"}
            if unknown or "a" not in fields:
                raise ValueError("convex requires exactly the option a=<alpha>")
            return RuleDescriptor("convex", alpha=float(fields["a"]))
        if name == "algA":
            unknown = set(fields) - {"P", "gamma", "C"}
            if unknown:
                raise ValueError(f"unknown algA options {sorted(unknown)}")
            period = int(fields["P"]) if "P" in fields else None
            c_const = float(fields["C"]) if "C" in fields else 4.0
            gamma = fields.get("gamma", "balanced")
            if gamma in ("balanced", "n1"):
                return RuleDescriptor(
                    "algA", period=period, gamma_mode=gamma, c_const=c_const
                )
            return RuleDescriptor(
                "algA",
                period=period,
                gamma_mode="explicit",
                gamma_value=float(gamma),
                c_const=c_const,
            )
    except ValueError as exc:
        raise ValueError(f"bad rule text {text!r}: {exc}") from exc
    raise ValueError(f"unknown rule {name!r}")


# Plain-int case codes: IntEnum comparisons cost ~3x more in per-event loops.
_VANILLA = int(RuleCase.VANILLA)
_CONVEX = int(RuleCase.CONVEX)
_NONCONVEX = int(RuleCase.NONCONVEX)


def pair_update(case: int, xu, xv, alpha: float = 0.0, gamma: float = 0.0):
    """New endpoint values (x_u, x_v) after one tick that applies ``case``.

    The amplified transfer moves t = gamma*(x_v - x_u) from one endpoint to
    the other, so the pair sum is preserved up to one rounding each side.
    Both outputs are computed before either is written, so the kernel
    serves scalars and matrix rows alike.
    """
    if case == _VANILLA:
        h = 0.5 * (xu + xv)
        return h, h
    if case == _CONVEX:
        beta = 1.0 - alpha
        return alpha * xu + beta * xv, alpha * xv + beta * xu
    if case == _NONCONVEX:
        t = gamma * (xv - xu)
        return xu + t, xv - t
    return xu, xv


def resolve_gamma(
    graph: PartitionedGraph, gamma_mode: str, gamma_value: float | None = None
) -> float:
    """Concrete cut coefficient for a graph.

    "n1" yields the block-one size; "balanced" yields n1*n2/n, the value
    that makes one cut transfer equalize both block means exactly when each
    block sits at its mean; "explicit" passes gamma_value through.
    """
    if gamma_mode == "n1":
        return float(graph.n1)
    if gamma_mode == "balanced":
        return graph.n1 * graph.n2 / graph.n
    if gamma_mode == "explicit":
        if gamma_value is None or gamma_value <= 0:
            raise ValueError("explicit gamma must be positive")
        return float(gamma_value)
    raise ValueError(f"unknown gamma mode {gamma_mode!r}")


def compute_period(t_van1: float, t_van2: float, n: float, c_const: float) -> int:
    """Firing period: ceil(C * (T1 + T2) * ln n), floored at 1."""
    if t_van1 < 0 or t_van2 < 0:
        raise ValueError("averaging times must be nonnegative")
    if n < 2:
        raise ValueError("need at least two vertices")
    if not c_const > 0:
        raise ValueError("c_const must be positive")
    return max(1, math.ceil(c_const * (t_van1 + t_van2) * math.log(n)))


class CompiledRule(NamedTuple):
    """A rule resolved against one graph, in the form the event loop reads.

    Intra-block ticks apply ``intra`` and cross ticks ``cross``, except that
    the k-th cut-edge tick (k from 1) fires the amplified transfer when
    k % period == phase; phase -1 never fires.  Case codes are plain ints.
    """

    intra: int
    cross: int
    period: int
    phase: int
    alpha: float
    gamma: float


def compile_rule(graph, rule: RuleDescriptor) -> CompiledRule:
    """Resolve ``rule`` against a graph; the periodic scheme needs a cut
    edge (a view with n1 < n) and a resolved period."""
    if rule.kind == "vanilla":
        return CompiledRule(_VANILLA, _VANILLA, 1, -1, 0.0, 0.0)
    if rule.kind == "convex":
        return CompiledRule(_CONVEX, _CONVEX, 1, -1, float(rule.alpha), 0.0)
    if graph.view.n1 == graph.n:
        raise ValueError("the periodic scheme needs a partitioned graph")
    if rule.period is None:
        raise ValueError("algA period is unresolved; set P or use resolve_period")
    gamma = resolve_gamma(graph, rule.gamma_mode, rule.gamma_value)
    p = rule.period
    return CompiledRule(_VANILLA, int(RuleCase.NOOP), p, p - 1, 0.0, gamma)
