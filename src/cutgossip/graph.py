"""Partitioned graphs with a designated sparse cut.

A :class:`PartitionedGraph` is a connected graph split into two internally
connected blocks.  Vertices are labeled 1..n with block one occupying
1..n1 and block two n1+1..n, and the designated cut edge always joins
vertices n1 and n1+1.  Constructors relabel their input to enforce this,
so downstream code (update rules, the simulation engine) can address the
cut endpoints positionally without lookups.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "FlatView",
    "PartitionedGraph",
    "SideGraph",
    "GraphValidationError",
    "GraphFormatError",
    "RetryBudgetExceededError",
    "build_barbell",
    "build_from_edge_list",
    "random_partitioned",
    "side_subgraph",
    "to_text",
    "from_text",
    "save_graph",
    "load_graph",
    "validate",
]

# Edge-kind codes of the flat view, in the order of the engine's tick
# counters and of ``SimTrace.tick_totals``.
KIND_E1 = 0  # inside block one
KIND_E2 = 1  # inside block two
KIND_CROSS = 2  # cross edge other than the designated cut edge
KIND_CUT = 3

CONNECTIVITY_RETRIES = 1000

EDGE_TAGS = ("E1", "E2", "E12")


class GraphValidationError(ValueError):
    """A constructed or ingested graph violates a structural invariant."""


class GraphFormatError(ValueError):
    """A graph file or text blob cannot be parsed."""


class RetryBudgetExceededError(ValueError):
    """The random generator failed to draw a connected side within budget."""


class FlatView(NamedTuple):
    """What the engine, replay and the CLI read of a graph: sizes plus
    read-only numpy ``intp`` arrays of 0-based endpoints in storage order,
    with one ``KIND_*`` code per edge.  Vertices 0..n1-1 form block one; a
    view with n1 == n is a single block with no cut edge."""

    n: int
    n1: int
    eu: np.ndarray
    ev: np.ndarray
    kind: np.ndarray


def _flat_view(n: int, n1: int, edges, kind: list[int]) -> FlatView:
    uv = np.array(edges, dtype=np.intp).reshape(-1, 2) - 1
    eu, ev = np.ascontiguousarray(uv.T)
    view = FlatView(n, n1, eu, ev, np.array(kind, dtype=np.intp))
    for arr in view[2:]:
        arr.flags.writeable = False  # the graph is immutable and shared by runs
    return view


@dataclass(frozen=True)
class PartitionedGraph:
    """Two internally connected blocks joined by cross edges, one designated.

    Vertex labels are 1-based.  Block one is 1..n1, block two n1+1..n, and
    ``edges_e12[cut_index]`` is always the pair (n1, n1+1).  Intra-block
    edges are stored as (min, max); cross edges as (block-one endpoint,
    block-two endpoint).  Instances are immutable and safe to share across
    concurrent simulation runs.
    """

    n1: int
    n2: int
    edges_e1: tuple[tuple[int, int], ...]
    edges_e2: tuple[tuple[int, int], ...]
    edges_e12: tuple[tuple[int, int], ...]
    cut_index: int

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def cut_edge(self) -> tuple[int, int]:
        return self.edges_e12[self.cut_index]

    @property
    def num_edges(self) -> int:
        return len(self.edges_e1) + len(self.edges_e2) + len(self.edges_e12)

    @cached_property
    def view(self) -> FlatView:
        """The engine's flat view, edges in E1|E2|E12 storage order."""
        intra = self.edges_e1 + self.edges_e2
        kind = [KIND_E1] * len(self.edges_e1) + [KIND_E2] * len(self.edges_e2)
        kind += [KIND_CROSS] * len(self.edges_e12)
        kind[len(intra) + self.cut_index] = KIND_CUT
        return _flat_view(self.n, self.n1, intra + self.edges_e12, kind)

    @cached_property
    def compiled_rules(self) -> dict:
        """Memo of :func:`rules.compile_rule` on this graph, by rule."""
        return {}

    def flat_edges(self) -> tuple[list[int], list[int], list[int]]:
        """The view's (heads, tails, kinds) as 0-based parallel lists; the
        benchmark in ``perfbench`` reads edges through it."""
        _, _, eu, ev, kind = self.view
        return eu.tolist(), ev.tolist(), kind.tolist()

    def digest(self) -> str:
        """Short content hash of the canonical serialization."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        import hashlib

        return hashlib.sha256(to_text(self).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SideGraph:
    """One block of a partitioned graph in isolation, relabeled 1..n."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def view(self) -> FlatView:
        """The engine's flat view: one block, every edge in it."""
        return _flat_view(self.n, self.n, self.edges, [KIND_E1] * len(self.edges))

    @cached_property
    def compiled_rules(self) -> dict:
        """Memo of :func:`rules.compile_rule` on this graph, by rule."""
        return {}

    def digest(self) -> str:
        """Short label recorded in trace metadata."""
        return f"side-n{self.n}-m{len(self.edges)}"


def _connected(n: int, edges, vertices=None) -> bool:
    """BFS connectivity over the given 1-based vertex set (default 1..n)."""
    verts = list(range(1, n + 1)) if vertices is None else list(vertices)
    if len(verts) <= 1:
        return True
    vset = set(verts)
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in edges:
        if u in vset and v in vset:
            adj[u].append(v)
            adj[v].append(u)
    seen = {verts[0]}
    queue = deque([verts[0]])
    while queue:
        w = queue.popleft()
        for x in adj[w]:
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return len(seen) == len(verts)


def validate(g: PartitionedGraph) -> None:
    """Raise :class:`GraphValidationError` on any violated invariant."""
    n1, n2, n = g.n1, g.n2, g.n
    if n1 < 1 or n2 < 1:
        raise GraphValidationError("both blocks must be non-empty")
    if n1 > n2:
        raise GraphValidationError("block one must not be larger than block two")
    seen: set[frozenset[int]] = set()
    for u, v in g.edges_e1:
        if not (1 <= u < v <= n1):
            raise GraphValidationError(f"E1 edge ({u},{v}) outside block one")
        _check_new(seen, u, v)
    for u, v in g.edges_e2:
        if not (n1 < u < v <= n):
            raise GraphValidationError(f"E2 edge ({u},{v}) outside block two")
        _check_new(seen, u, v)
    for u, v in g.edges_e12:
        if not (1 <= u <= n1 < v <= n):
            raise GraphValidationError(f"E12 edge ({u},{v}) does not cross the cut")
        _check_new(seen, u, v)
    if not g.edges_e12:
        raise GraphValidationError("no cross edges: graph cannot be connected")
    if not (0 <= g.cut_index < len(g.edges_e12)):
        raise GraphValidationError("cut_index out of range")
    if g.cut_edge != (n1, n1 + 1):
        raise GraphValidationError(
            f"designated cut edge {g.cut_edge} is not ({n1},{n1 + 1})"
        )
    if not _connected(n, g.edges_e1, range(1, n1 + 1)):
        raise GraphValidationError("block one is disconnected")
    if not _connected(n, g.edges_e2, range(n1 + 1, n + 1)):
        raise GraphValidationError("block two is disconnected")


def _check_new(seen: set[frozenset[int]], u: int, v: int) -> None:
    # the range checks before it give u < v: no self-loop reaches here
    key = frozenset((u, v))
    if key in seen:
        raise GraphValidationError(f"duplicate edge ({u},{v})")
    seen.add(key)


def build_barbell(n1: int, n2: int) -> PartitionedGraph:
    """Two complete blocks of sizes n1, n2 joined by the single edge (n1, n1+1).

    If n1 > n2 the sizes are swapped so the smaller block comes first.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("block sizes must be positive")
    if n1 > n2:
        n1, n2 = n2, n1
    n = n1 + n2
    e1 = tuple((u, v) for u in range(1, n1 + 1) for v in range(u + 1, n1 + 1))
    e2 = tuple((u, v) for u in range(n1 + 1, n + 1) for v in range(u + 1, n + 1))
    g = PartitionedGraph(n1, n2, e1, e2, ((n1, n1 + 1),), 0)
    validate(g)
    return g


def build_from_edge_list(
    n_vertices: int,
    side1,
    edges,
    cut_edge: tuple[int, int],
) -> tuple[PartitionedGraph, dict[int, int]]:
    """Ingest an arbitrarily labeled two-block graph and canonicalize it.

    Parameters
    ----------
    n_vertices : total vertex count; labels must cover 1..n_vertices.
    side1 : vertices of the first block (the complement forms block two).
    edges : iterables of (u, v, tag) with tag in {"E1", "E2", "E12"}.
    cut_edge : the E12 pair to designate; its endpoints receive the labels
        n1 and n1+1 after relabeling.

    Returns the canonical graph together with the old-label -> new-label map.
    Blocks are swapped when needed so block one is the smaller side.
    """
    s1 = set(side1)
    all_vertices = set(range(1, n_vertices + 1))
    if not s1 or s1 == all_vertices:
        raise GraphValidationError("both blocks must be non-empty")
    if not s1 <= all_vertices:
        raise GraphValidationError("side-one labels outside 1..n")
    s2 = all_vertices - s1

    # validate() checks duplicates and block connectivity on the relabelled
    # graph; what relabelling needs is checked here
    tagged: list[tuple[int, int, str]] = []
    for u, v, tag in edges:
        if tag not in EDGE_TAGS:
            raise GraphValidationError(f"unknown edge tag {tag!r}")
        if u == v:
            raise GraphValidationError(f"self-loop at vertex {u}")
        if not (u in all_vertices and v in all_vertices):
            raise GraphValidationError(f"edge ({u},{v}) has endpoint outside 1..n")
        expected = (
            "E1" if (u in s1 and v in s1)
            else "E2" if (u in s2 and v in s2)
            else "E12"
        )
        if tag != expected:
            raise GraphValidationError(
                f"edge ({u},{v}) tagged {tag} but endpoints imply {expected}"
            )
        tagged.append((u, v, tag))

    cut_key = frozenset(cut_edge)
    if cut_key not in {frozenset((u, v)) for u, v, t in tagged if t == "E12"}:
        raise GraphValidationError(f"cut edge {cut_edge} is not a tagged E12 edge")

    if len(s1) > len(s2):
        s1, s2 = s2, s1

    cut_a = next(iter(cut_key & s1))
    cut_b = next(iter(cut_key & s2))

    # Deterministic canonical order: remaining block-one vertices ascending,
    # then the block-one cut endpoint at position n1; the block-two cut
    # endpoint at n1+1, then remaining block-two vertices ascending.
    n1 = len(s1)
    order = sorted(s1 - {cut_a}) + [cut_a] + [cut_b] + sorted(s2 - {cut_b})
    mapping = {old: new for new, old in enumerate(order, start=1)}

    e1: list[tuple[int, int]] = []
    e2: list[tuple[int, int]] = []
    e12: list[tuple[int, int]] = []
    for u, v, _tag in tagged:
        a, b = mapping[u], mapping[v]
        if a > b:
            a, b = b, a
        if b <= n1:
            e1.append((a, b))
        elif a > n1:
            e2.append((a, b))
        else:
            e12.append((a, b))
    e1.sort()
    e2.sort()
    e12.sort()
    cut_index = e12.index((n1, n1 + 1))

    g = PartitionedGraph(n1, len(s2), tuple(e1), tuple(e2), tuple(e12), cut_index)
    validate(g)
    return g, mapping


def random_partitioned(
    n1: int,
    n2: int,
    p1: float,
    p2: float,
    k12: int,
    seed: int,
) -> PartitionedGraph:
    """Random two-block graph: ER blocks conditioned on connectivity.

    Each block is an independent Erdos-Renyi draw, redrawn until connected
    (at most ``CONNECTIVITY_RETRIES`` attempts, then
    :class:`RetryBudgetExceededError`).  ``k12`` cross edges are chosen
    uniformly without replacement and one of them is designated as the cut.
    """
    if not (0.0 < p1 <= 1.0 and 0.0 < p2 <= 1.0):
        raise ValueError("edge probabilities must be in (0, 1]")
    if n1 < 1 or n2 < 1:
        raise ValueError("block sizes must be positive")
    if not (1 <= k12 <= n1 * n2):
        raise ValueError("cut width must be in 1..n1*n2")
    rng = np.random.default_rng(seed)
    n = n1 + n2

    def draw_side(vertices: list[int], p: float) -> list[tuple[int, int]]:
        pairs = [
            (vertices[i], vertices[j])
            for i in range(len(vertices))
            for j in range(i + 1, len(vertices))
        ]
        for _ in range(CONNECTIVITY_RETRIES):
            mask = rng.random(len(pairs)) < p
            chosen = [pairs[i] for i in np.flatnonzero(mask)]
            if _connected(n, chosen, vertices):
                return chosen
        raise RetryBudgetExceededError(
            f"no connected block of size {len(vertices)} in "
            f"{CONNECTIVITY_RETRIES} draws at p={p}"
        )

    side1 = list(range(1, n1 + 1))
    side2 = list(range(n1 + 1, n + 1))
    e1 = draw_side(side1, p1)
    e2 = draw_side(side2, p2)
    cross_ids = rng.choice(n1 * n2, size=k12, replace=False)
    e12 = [(int(i) // n2 + 1, n1 + int(i) % n2 + 1) for i in sorted(cross_ids)]
    cut_choice = e12[int(rng.integers(0, k12))]

    labeled = (
        [(u, v, "E1") for u, v in e1]
        + [(u, v, "E2") for u, v in e2]
        + [(u, v, "E12") for u, v in e12]
    )
    g, _ = build_from_edge_list(n, side1, labeled, cut_choice)
    return g


def side_subgraph(g: PartitionedGraph, side: int) -> SideGraph:
    """Extract block 1 or 2 with vertices relabeled to 1..block size."""
    if side == 1:
        return SideGraph(g.n1, tuple(g.edges_e1))
    if side == 2:
        off = g.n1
        return SideGraph(g.n2, tuple((u - off, v - off) for u, v in g.edges_e2))
    raise ValueError("side must be 1 or 2")


# ---------------------------------------------------------------------------
# Text serialization.  Line-oriented: header "n1 n2", one "u v TAG" line per
# edge, footer "cut u v".  '#' starts a comment; 1-based vertex ids.
# ---------------------------------------------------------------------------


def to_text(g: PartitionedGraph) -> str:
    lines = [f"{g.n1} {g.n2}"]
    for u, v in g.edges_e1:
        lines.append(f"{u} {v} E1")
    for u, v in g.edges_e2:
        lines.append(f"{u} {v} E2")
    for u, v in g.edges_e12:
        lines.append(f"{u} {v} E12")
    cu, cv = g.cut_edge
    lines.append(f"cut {cu} {cv}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> PartitionedGraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, str]] = []
    cut: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected header 'n1 n2'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad header") from exc
            continue
        if parts[0] == "cut":
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'cut u v'")
            if cut is not None:
                raise GraphFormatError(f"line {lineno}: duplicate cut line")
            try:
                cut = (int(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad cut line") from exc
            continue
        if len(parts) != 3 or parts[2] not in EDGE_TAGS:
            raise GraphFormatError(f"line {lineno}: expected 'u v E1|E2|E12'")
        try:
            edges.append((int(parts[0]), int(parts[1]), parts[2]))
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad edge line") from exc
    if header is None:
        raise GraphFormatError("missing 'n1 n2' header")
    if cut is None:
        raise GraphFormatError("missing 'cut u v' footer")
    n1, n2 = header
    if n1 < 1 or n2 < 1:
        raise GraphFormatError("header block sizes must be positive")
    g, _ = build_from_edge_list(n1 + n2, range(1, n1 + 1), edges, cut)
    return g


def save_graph(g: PartitionedGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_text(g))


def load_graph(path) -> PartitionedGraph:
    with open(path, "r", encoding="ascii") as fh:
        return from_text(fh.read())
