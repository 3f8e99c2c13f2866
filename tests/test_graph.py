import hashlib
import math

import pytest

import cutgossip.graph as graph_mod

from cutgossip.graph import (
    KIND_CUT,
    KIND_E1,
    KIND_E2,
    GraphFormatError,
    GraphValidationError,
    PartitionedGraph,
    RetryBudgetExceededError,
    build_barbell,
    build_from_edge_list,
    from_text,
    load_graph,
    random_partitioned,
    save_graph,
    side_subgraph,
    to_text,
    validate,
)


def pairs(k):
    # brute-force count of unordered pairs, the oracle for complete blocks
    return sum(1 for i in range(k) for _ in range(i + 1, k))


def test_barbell_smallest_pair():
    g = build_barbell(2, 2)
    assert g.edges_e1 == ((1, 2),)
    assert g.edges_e2 == ((3, 4),)
    assert g.edges_e12 == ((2, 3),)
    assert g.cut_edge == (2, 3)


def test_barbell_degenerate_sides():
    g = build_barbell(1, 1)
    assert g.n == 2
    assert g.edges_e1 == ()
    assert g.edges_e2 == ()
    assert g.edges_e12 == ((1, 2),)


def test_barbell_32():
    g = build_barbell(32, 32)
    assert len(g.edges_e1) == pairs(32) == 496
    assert len(g.edges_e2) == 496
    assert len(g.edges_e12) == 1


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (5, 2), (4, 4), (7, 9)])
def test_barbell_edge_count(a, b):
    g = build_barbell(a, b)
    lo, hi = min(a, b), max(a, b)
    assert g.num_edges == pairs(lo) + pairs(hi) + 1
    assert (g.n1, g.n2) == (lo, hi)
    validate(g)


def test_barbell_swaps_larger_side_first():
    g = build_barbell(5, 3)
    assert (g.n1, g.n2) == (3, 5)
    assert g.cut_edge == (3, 4)


def test_ingest_path_graph():
    edges = [(1, 2, "E1"), (3, 4, "E2"), (2, 3, "E12")]
    g, mapping = build_from_edge_list(4, {1, 2}, edges, (2, 3))
    assert g.edges_e1 == ((1, 2),)
    assert g.edges_e2 == ((3, 4),)
    assert g.cut_edge == (2, 3)
    assert mapping == {1: 1, 2: 2, 3: 3, 4: 4}


def test_ingest_disconnected_side():
    # the path 1-2-3-4 with blocks {1,3} / {2,4}: every edge crosses and
    # both blocks are internally disconnected
    edges = [(1, 2, "E12"), (2, 3, "E12"), (3, 4, "E12")]
    with pytest.raises(GraphValidationError, match="disconnected"):
        build_from_edge_list(4, {1, 3}, edges, (1, 2))


def test_ingest_two_triangles_second_cut_edge():
    edges = [
        (1, 2, "E1"), (2, 3, "E1"), (1, 3, "E1"),
        (4, 5, "E2"), (5, 6, "E2"), (4, 6, "E2"),
        (1, 4, "E12"), (3, 6, "E12"),
    ]
    g, mapping = build_from_edge_list(6, {1, 2, 3}, edges, (3, 6))
    # hand relabeling: V1 keeps 1,2 then cut endpoint 3 at position n1;
    # V2 starts with cut endpoint 6 at n1+1, then 4,5.
    assert mapping == {1: 1, 2: 2, 3: 3, 6: 4, 4: 5, 5: 6}
    assert g.cut_edge == (3, 4)
    assert (1, 5) in g.edges_e12  # the other cross edge (1,4) relabeled


def test_ingest_mislabeled_edge():
    edges = [(1, 2, "E12"), (3, 4, "E2"), (2, 3, "E12")]
    with pytest.raises(GraphValidationError, match="tagged"):
        build_from_edge_list(4, {1, 2}, edges, (2, 3))


def test_ingest_cut_not_cross():
    edges = [(1, 2, "E1"), (3, 4, "E2"), (2, 3, "E12")]
    with pytest.raises(GraphValidationError, match="cut edge"):
        build_from_edge_list(4, {1, 2}, edges, (1, 2))


def test_ingest_duplicate_edge():
    edges = [(1, 2, "E1"), (2, 1, "E1"), (3, 4, "E2"), (2, 3, "E12")]
    with pytest.raises(GraphValidationError, match="duplicate"):
        build_from_edge_list(4, {1, 2}, edges, (2, 3))


def test_ingest_self_loop_and_empty_side():
    with pytest.raises(GraphValidationError, match="self-loop"):
        build_from_edge_list(2, {1}, [(1, 1, "E1"), (1, 2, "E12")], (1, 2))
    with pytest.raises(GraphValidationError, match="non-empty"):
        build_from_edge_list(2, set(), [(1, 2, "E12")], (1, 2))


def test_ingest_swaps_sides_and_remaps_cut():
    # block one given as the larger side; builder must swap
    edges = [
        (1, 2, "E1"), (2, 3, "E1"), (1, 3, "E1"),
        (4, 5, "E2"),
        (3, 4, "E12"),
    ]
    g, mapping = build_from_edge_list(5, {1, 2, 3}, edges, (3, 4))
    assert (g.n1, g.n2) == (2, 3)
    assert g.cut_edge == (2, 3)
    assert mapping[4] == 2 and mapping[3] == 3
    validate(g)


def test_random_complete_sides_match_barbell():
    assert random_partitioned(4, 4, 1.0, 1.0, 1, seed=123) == build_barbell(4, 4)


def test_random_partitioned_valid_and_cut_width():
    g = random_partitioned(3, 5, 0.9, 0.9, 2, seed=7)
    validate(g)
    assert len(g.edges_e12) == 2


def test_random_partitioned_deterministic():
    a = random_partitioned(4, 6, 0.7, 0.6, 3, seed=99)
    b = random_partitioned(4, 6, 0.7, 0.6, 3, seed=99)
    assert a == b


def test_random_retry_budget():
    # Per-draw connectivity probability 1e-6 on a 2-vertex block; the
    # 1000-draw budget fails with probability (1 - 1e-6)^1000 ~ 0.999.
    with pytest.raises(RetryBudgetExceededError):
        random_partitioned(2, 2, 1e-6, 1e-6, 1, seed=0)


def test_random_rejects_bad_params():
    with pytest.raises(ValueError):
        random_partitioned(2, 2, 0.0, 0.5, 1, seed=0)
    with pytest.raises(ValueError):
        random_partitioned(2, 2, 0.5, 0.5, 5, seed=0)


def test_validate_rejects_bad_cut_labels():
    g = PartitionedGraph(2, 2, ((1, 2),), ((3, 4),), ((1, 4),), 0)
    with pytest.raises(GraphValidationError, match="designated cut edge"):
        validate(g)


def test_validate_rejects_out_of_range_and_duplicates():
    with pytest.raises(GraphValidationError):
        validate(PartitionedGraph(2, 2, ((1, 3),), ((3, 4),), ((2, 3),), 0))
    with pytest.raises(GraphValidationError, match="duplicate"):
        validate(
            PartitionedGraph(3, 3, ((1, 2), (1, 2), (2, 3)), ((4, 5), (5, 6)),
                             ((3, 4),), 0)
        )


@pytest.mark.parametrize("args, match", [
    ((3, 2, ((1, 2), (2, 3)), ((4, 5),), ((3, 4),), 0), "larger"),
    ((2, 2, ((1, 2),), ((2, 4),), ((2, 3),), 0), "outside block two"),
    ((2, 2, ((1, 2),), ((3, 4),), ((3, 2),), 0), "does not cross"),
    ((2, 2, ((1, 2),), ((3, 4),), (), 0), "no cross edges"),
    ((2, 2, ((1, 2),), ((3, 4),), ((2, 3),), 1), "cut_index"),
    ((3, 3, ((1, 2),), ((4, 5), (5, 6)), ((3, 4),), 0), "block one is disconnected"),
    ((2, 3, ((1, 2),), ((3, 4),), ((2, 3),), 0), "block two is disconnected"),
])
def test_validate_rejects_each_broken_invariant(args, match):
    with pytest.raises(GraphValidationError, match=match):
        validate(PartitionedGraph(*args))


@pytest.mark.parametrize("n, side1, edges, match", [
    (4, [1, 5], [], "outside 1..n"),
    (4, [1, 2], [(1, 2, "E3")], "unknown edge tag"),
    (4, [1, 2], [(1, 9, "E1")], "endpoint outside"),
    (5, [1, 2], [(1, 2, "E1"), (3, 4, "E2"), (2, 3, "E12")], "block two is disconnected"),
])
def test_edge_list_rejects_bad_input(n, side1, edges, match):
    with pytest.raises(GraphValidationError, match=match):
        build_from_edge_list(n, side1, edges, (2, 3))


@pytest.mark.parametrize("text, match", [
    ("1 2 3\n", "expected header"),
    ("1 x\n", "bad header"),
    ("1 1\ncut 1\n", "expected 'cut u v'"),
    ("1 1\n1 2 E12\ncut 1 2\ncut 1 2\n", "duplicate cut line"),
    ("1 1\ncut a b\n", "bad cut line"),
    ("1 1\n1 2\n", "expected 'u v"),
    ("1 1\nx 2 E12\n", "bad edge line"),
    ("0 1\ncut 1 2\n", "must be positive"),
])
def test_from_text_rejects_each_bad_line(text, match):
    with pytest.raises(GraphFormatError, match=match):
        from_text(text)


def test_roundtrip_text_identical():
    for g in (build_barbell(3, 4), random_partitioned(3, 5, 0.8, 0.8, 2, seed=5)):
        text = to_text(g)
        assert to_text(from_text(text)) == text


def test_file_roundtrip_and_comments(tmp_path):
    g = build_barbell(2, 3)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert load_graph(path) == g
    commented = "# a comment\n" + to_text(g).replace("\n", "  # trailing\n", 1)
    assert from_text(commented) == g


def test_from_text_errors():
    with pytest.raises(GraphFormatError, match="header"):
        from_text("")
    with pytest.raises(GraphFormatError, match="cut"):
        from_text("1 1\n1 2 E12\n")
    with pytest.raises(GraphFormatError):
        from_text("1 1\n1 2 BAD\ncut 1 2\n")


def test_side_subgraph():
    g = build_barbell(3, 5)
    s1 = side_subgraph(g, 1)
    s2 = side_subgraph(g, 2)
    assert s1.n == 3 and len(s1.edges) == pairs(3)
    assert s2.n == 5 and len(s2.edges) == pairs(5)
    assert all(1 <= u < v <= 5 for u, v in s2.edges)
    with pytest.raises(ValueError, match="side must be 1 or 2"):
        side_subgraph(g, 3)


def test_flat_edges_cut_designation():
    g = random_partitioned(3, 5, 0.9, 0.9, 3, seed=11)
    eu, ev, kind = g.flat_edges()
    cuts = [i for i, k in enumerate(kind) if k == KIND_CUT]
    assert len(cuts) == 1
    u, v = eu[cuts[0]] + 1, ev[cuts[0]] + 1
    assert (u, v) == (g.n1, g.n1 + 1)


def test_views_of_both_graph_types():
    g = random_partitioned(3, 5, 0.9, 0.9, 3, seed=11)
    n, n1, eu, ev, kind = g.view
    assert (n, n1) == (8, 3)
    assert (eu.tolist(), ev.tolist(), kind.tolist()) == g.flat_edges()
    assert g.view is g.view  # cached
    side = side_subgraph(g, 2)
    n, n1, eu, ev, kind = side.view
    assert n == n1 == 5
    assert set(kind.tolist()) == {KIND_E1}
    assert [(u + 1, v + 1) for u, v in zip(eu, ev)] == list(side.edges)
    assert side.digest() == f"side-n5-m{len(side.edges)}"


def test_view_is_read_only():
    # a cached view is shared by every run on the graph
    g = build_barbell(2, 3)
    for arr in g.view[2:]:
        with pytest.raises(ValueError):
            arr[0] = 1
    assert g.view.kind.tolist() == [KIND_E1] + [KIND_E2] * 3 + [KIND_CUT]


def test_digest_stable_and_distinct():
    g = build_barbell(4, 4)
    assert g.digest() == build_barbell(4, 4).digest()
    assert g.digest() != build_barbell(4, 5).digest()


def test_digest_serializes_once(monkeypatch):
    g = build_barbell(6, 9)
    calls = []

    def counting_to_text(graph):
        calls.append(graph)
        return to_text(graph)

    monkeypatch.setattr(graph_mod, "to_text", counting_to_text)
    want = hashlib.sha256(to_text(g).encode()).hexdigest()[:12]
    assert [g.digest() for _ in range(3)] == [want] * 3
    assert len(calls) == 1
