import json
import random
import time

import pytest

from linkgroup import gems
from linkgroup.gems import (FourGraph, FourGraphError, gem_report,
                            parse_fourgraph, residues, serialize_fourgraph)
from oracles import reference_gem_report

TWO_VERTEX = FourGraph.from_matchings(2, [[[0, 1]]] * 4)

# K3,3 with parts {0,1,2} / {3,4,5}: a proper 3-edge-coloring on colors 0-2,
# then color 3 repeats one matching across the bipartition
K33_PLUS = FourGraph.from_matchings(6, [
    [[0, 3], [1, 4], [2, 5]],
    [[0, 4], [1, 5], [2, 3]],
    [[0, 5], [1, 3], [2, 4]],
    [[0, 3], [1, 4], [2, 5]],
])


def random_bipartite_fourgraph(rng, half):
    """Each color is a random bijection from side 0..half-1 to the other side."""
    matchings = []
    for _ in range(4):
        right = list(range(half, 2 * half))
        rng.shuffle(right)
        matchings.append([[i, right[i]] for i in range(half)])
    return FourGraph.from_matchings(2 * half, matchings)


def random_fourgraph(rng, half):
    """Each color is a random perfect matching of all 2 * half vertices."""
    matchings = []
    for _ in range(4):
        order = list(range(2 * half))
        rng.shuffle(order)
        matchings.append([order[i:i + 2] for i in range(0, 2 * half, 2)])
    return FourGraph.from_matchings(2 * half, matchings)


def seeded_fourgraphs():
    """300 graphs of 2-24 vertices, bipartite and unrestricted in turn."""
    rng = random.Random(17)
    return [(random_bipartite_fourgraph if k % 2 else random_fourgraph)(rng, rng.randint(1, 12))
            for k in range(300)]


def test_two_vertex_graph_is_a_gem():
    report = gem_report(TWO_VERTEX)
    assert report["is_gem"] and report["bipartite"] and report["residues_spherical"]
    assert len(report["spheres"]) == 4
    for sphere in report["spheres"]:
        assert (sphere["vertices"], sphere["edges"], sphere["bigons"]) == (2, 3, 3)
        assert sphere["euler"] == 2
    assert residues(TWO_VERTEX, (0, 1)) == [(0, 1)]


def test_k33_plus_matching_is_rejected():
    report = gem_report(K33_PLUS)
    assert not report["is_gem"]
    assert report["bipartite"]
    assert not report["residues_spherical"]
    offender = [s for s in report["spheres"] if s["dropped_color"] == 3]
    assert len(offender) == 1
    assert offender[0]["vertices"] == 6
    assert offender[0]["edges"] == 9
    assert offender[0]["bigons"] == 3
    assert offender[0]["euler"] == 0
    # the colors-{0,1} subgraph of K3,3 is a single 6-cycle
    assert residues(K33_PLUS, (0, 1)) == [(0, 1, 2, 3, 4, 5)]


def test_disjoint_union_of_gems_is_a_gem():
    union = FourGraph.from_matchings(4, [[[0, 1], [2, 3]]] * 4)
    assert gem_report(union)["is_gem"]
    for pair in ((0, 1), (1, 2), (2, 3)):
        assert residues(union, pair) == [(0, 1), (2, 3)]


def test_gem_verdict_invariant_under_relabeling():
    rng = random.Random(42)
    for graph in (TWO_VERTEX, K33_PLUS):
        verdict = gem_report(graph)["is_gem"]
        perm = list(range(graph.vertices))
        rng.shuffle(perm)
        relabeled = FourGraph.from_matchings(graph.vertices, [
            [[perm[u], perm[v]] for u, v in m] for m in graph.matchings()])
        assert gem_report(relabeled)["is_gem"] == verdict


def test_gem_verdict_invariant_under_color_permutation():
    for graph in (TWO_VERTEX, K33_PLUS):
        verdict = gem_report(graph)["is_gem"]
        m = graph.matchings()
        shuffled = FourGraph.from_matchings(graph.vertices, [m[2], m[0], m[3], m[1]])
        assert gem_report(shuffled)["is_gem"] == verdict


def test_random_bipartite_graphs_have_even_residues():
    rng = random.Random(3)
    for _ in range(20):
        g = random_bipartite_fourgraph(rng, rng.randint(1, 8))
        for pair in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
            components = residues(g, pair)
            # a partition of the vertices into even bicolored cycles
            seen = sorted(v for comp in components for v in comp)
            assert seen == list(range(g.vertices))
            assert all(len(comp) % 2 == 0 for comp in components)


def test_parse_and_serialize_round_trip():
    text = serialize_fourgraph(K33_PLUS)
    again = parse_fourgraph(text)
    assert again == K33_PLUS
    named = json.dumps({"name": "x", "vertices": 2, "matchings": [[[0, 1]]] * 4})
    assert parse_fourgraph(named) == TWO_VERTEX
    unnamed = json.dumps({"name": None, "vertices": 2, "matchings": [[[0, 1]]] * 4})
    assert parse_fourgraph(unnamed) == TWO_VERTEX


def test_fourgraph_validation_errors():
    with pytest.raises(FourGraphError):
        parse_fourgraph("nope")
    with pytest.raises(FourGraphError):
        parse_fourgraph(json.dumps({"vertices": 2, "matchings": [[[0, 1]]] * 3}))
    with pytest.raises(FourGraphError):
        parse_fourgraph(json.dumps({"vertices": 2, "matchings": [[[0, 1]]] * 4,
                                    "junk": 1}))
    # a name is a string, as a diagram's is
    with pytest.raises(FourGraphError, match="^name must be a string$"):
        parse_fourgraph(json.dumps({"name": 5, "vertices": 2, "matchings": [[[0, 1]]] * 4}))
    with pytest.raises(FourGraphError):
        FourGraph.from_matchings(2, [[[0, 0]]] * 4)  # loop
    with pytest.raises(FourGraphError):
        FourGraph.from_matchings(4, [[[0, 1]]] * 4)  # vertices 2, 3 unmatched
    with pytest.raises(FourGraphError):
        FourGraph.from_matchings(2, [[[0, 1], [1, 0]]] * 4)  # matched twice
    with pytest.raises(FourGraphError):
        FourGraph.from_matchings(2, [[[0, 2]]] * 4)  # out of range
    with pytest.raises(FourGraphError):
        FourGraph.from_matchings(0, [[]] * 4)


def test_non_bipartite_graph_is_not_a_gem():
    # colors 0, 1, 2 close the odd cycle 0-1-2, so no 2-coloring exists
    g = FourGraph.from_matchings(6, [
        [[0, 1], [2, 3], [4, 5]],
        [[1, 2], [3, 4], [5, 0]],
        [[0, 2], [1, 3], [4, 5]],
        [[0, 2], [1, 3], [4, 5]],
    ])
    report = gem_report(g)
    assert not report["bipartite"]
    assert not report["is_gem"]


def test_gem_report_matches_reference_implementation():
    graphs = seeded_fourgraphs() + [TWO_VERTEX, K33_PLUS]
    reports = [gem_report(g) for g in graphs]
    assert reports == [reference_gem_report(g) for g in graphs]
    assert {g.vertices for g in graphs} == set(range(2, 25, 2))
    assert any(r["is_gem"] for r in reports) and not all(r["is_gem"] for r in reports)
    assert any(r["bipartite"] and not r["residues_spherical"] for r in reports)


def test_gem_report_is_linear_in_vertices():
    # a thickened cycle: dropping color 3 leaves 20,000 two-vertex residues,
    # and rescanning every bicolored cycle for each of them took 47 s
    v = 40000
    a = [[2 * i, 2 * i + 1] for i in range(v // 2)]
    b = [[2 * i + 1, (2 * i + 2) % v] for i in range(v // 2)]
    graph = FourGraph.from_matchings(v, [a, a, a, b])
    start = time.perf_counter()
    report = gem_report(graph)
    assert time.perf_counter() - start < 5
    assert report["is_gem"] and len(report["spheres"]) == v // 2 + 3


def test_gem_report_computes_each_residue_once(monkeypatch):
    calls = []

    def counting_residues(graph, colors):
        calls.append(tuple(colors))
        return residues(graph, colors)

    monkeypatch.setattr(gems, "residues", counting_residues)
    for graph in seeded_fourgraphs()[:20]:
        calls.clear()
        gem_report(graph)
        assert len(calls) == 10 and len(set(calls)) == 10
