import hashlib
import json
import time

import pytest

from linkgroup.diagrams import (Crossing, DiagramStructureError,
                                DiagramSyntaxError, LinkDiagram, blackboardize,
                                parse_diagram, self_writhes,
                                serialize_diagram, under_walks, validate)
from conftest import data_text

UNKNOT0 = '{"components": [["a"]], "crossings": []}'

TREFOIL = json.dumps({
    "name": "trefoil",
    "components": [["a", "b", "c"]],
    "crossings": [
        {"over": "c", "under_in": "a", "under_out": "b", "sign": 1},
        {"over": "a", "under_in": "b", "under_out": "c", "sign": 1},
        {"over": "b", "under_in": "c", "under_out": "a", "sign": 1},
    ],
})


def test_crossingless_unknot():
    d = parse_diagram(UNKNOT0)
    assert d.arcs == frozenset({"a"})
    assert d.crossings == ()
    assert validate(d) == []
    assert under_walks(d) == [[]]
    assert self_writhes(d) == [0]


def test_trefoil_structure():
    d = parse_diagram(TREFOIL)
    assert d.name == "trefoil"
    assert len(d.components) == 1
    assert d.arcs == frozenset({"a", "b", "c"})
    assert len(d.crossings) == 3
    assert validate(d) == []
    assert self_writhes(d) == [3]
    walk, = under_walks(d)
    assert [(c.under_in, c.under_out) for c in walk] == [("a", "b"), ("b", "c"), ("c", "a")]


def test_bundled_diagram_shape():
    d = parse_diagram(data_text("u1466.pd.json"))
    assert len(d.components) == 2
    assert tuple(d.components[0]) == ("a", "b", "c", "d", "e")
    assert tuple(d.components[1]) == ("f", "g", "h", "i")
    assert len(d.crossings) == 9
    assert validate(d) == []


def test_serialize_round_trip():
    for text in (UNKNOT0, TREFOIL, data_text("u2165.pd.json")):
        d = parse_diagram(text)
        assert parse_diagram(serialize_diagram(d)) == d


def test_syntax_errors():
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("not json")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram('{"components": [["a"]], "crossings": [], "extra": 1}')
    with pytest.raises(DiagramSyntaxError):
        parse_diagram('{"components": "a", "crossings": []}')
    # booleans are not acceptable signs even though bool subclasses int
    bad_sign = ('{"components": [["a"]], "crossings": '
                '[{"over": "a", "under_in": "a", "under_out": "a", "sign": true}]}')
    with pytest.raises(DiagramSyntaxError):
        parse_diagram(bad_sign)


def test_missing_crossing_is_an_arc_degree_violation():
    d = LinkDiagram(
        components=(("x", "y"),),
        crossings=(Crossing(over="x", under_in="y", under_out="x", sign=1),),
    )
    problems = validate(d)
    assert any(v.invariant == "arc-degree" and v.element == "x" for v in problems)
    with pytest.raises(DiagramStructureError):
        parse_diagram(serialize_diagram(d))


def torus_closure(n):
    """PD text of the closure of the 2-strand braid sigma^n, the (2, n) torus
    link: crossing k passes a_{k-2} under a_{k-1} into a_k."""
    arcs = ["a%d" % k for k in range(n)]
    crossings = [{"over": arcs[k - 1], "under_in": arcs[k - 2], "under_out": arcs[k], "sign": 1}
                 for k in range(n)]
    components = ([arcs[0::2], arcs[1::2]] if n % 2 == 0
                  else [[arcs[2 * j % n] for j in range(n)]])
    return json.dumps({"components": components, "crossings": crossings})


def test_validate_is_linear_in_crossings():
    # a per-component scan of every crossing tuple took 8 s at 20,000 crossings
    assert len(parse_diagram(torus_closure(3)).components) == 1
    start = time.perf_counter()
    assert len(parse_diagram(torus_closure(20000)).components) == 2
    assert time.perf_counter() - start < 3


def test_duplicate_arc_violation():
    d = LinkDiagram(components=(("a",), ("a",)), crossings=())
    problems = validate(d)
    assert any(v.invariant == "arc-unique" for v in problems)


def test_blackboardize_positive_curl_on_crossingless_circle():
    d = parse_diagram(UNKNOT0)
    d1 = blackboardize(d, [1])
    assert self_writhes(d1) == [1]
    assert len(d1.crossings) == 1
    assert validate(d1) == []
    # writhe already on target: the very same object comes back
    assert blackboardize(d, [0]) is d


def test_blackboardize_multiple_negative_curls():
    d = parse_diagram(TREFOIL)
    d0 = blackboardize(d, [0])
    assert self_writhes(d0) == [0]
    assert len(d0.crossings) == 6
    assert validate(d0) == []
    # the original crossings keep their signs
    signs = sorted(c.sign for c in d0.crossings)
    assert signs == [-1, -1, -1, 1, 1, 1]


def test_blackboardize_two_components():
    d = parse_diagram(data_text("u2125.pd.json"))
    before = self_writhes(d)
    assert len(before) == 2
    targets = [before[0] + 2, before[1] - 1]
    d2 = blackboardize(d, targets)
    assert self_writhes(d2) == targets
    assert validate(d2) == []


# a crossingless circle x at target t: curls x -> xw1 -> ... -> x, each
# (over, under_in, under_out) with over = under_out and sign that of t
CIRCLE_CURLS = {
    1: [("x", "x", "x")],
    2: [("xw1", "x", "xw1"), ("x", "xw1", "x")],
    3: [("xw1", "x", "xw1"), ("xw2", "xw1", "xw2"), ("x", "xw2", "x")],
}


@pytest.mark.parametrize("target", [1, -1, 2, -2, 3, -3])
def test_blackboardize_crossingless_circle_bytes(target):
    curls = CIRCLE_CURLS[abs(target)]
    sign = 1 if target > 0 else -1
    expected = {
        "components": [["x"] + ["xw%d" % i for i in range(1, abs(target))]],
        "crossings": [{"over": over, "under_in": under_in, "under_out": under_out,
                       "sign": sign} for over, under_in, under_out in curls],
    }
    circle = parse_diagram('{"components": [["x"]], "crossings": []}')
    text = serialize_diagram(blackboardize(circle, [target]))
    assert text == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("text, targets, digest", [
    # the curls go after the first arc; the crossing a -> b now enters from
    # the last curl's arc
    (TREFOIL, [0], "5a4a8bc86724b2d6c4a7e0f3d0f662d5227692602172483043a4894e56cc2608"),
    (TREFOIL, [5], "bff2fbdc030589494d7629a8483c3e07b100c5c6e2fa3ecc8bf6d4f944ea937a"),
    (data_text("u2125.pd.json"), [5, -1],
     "c5c7960ae9200b43473996e814a29d00079e9ae3b046ffb7a17671bd06e8a553"),
])
def test_blackboardize_with_follower_crossing_bytes(text, targets, digest):
    framed = serialize_diagram(blackboardize(parse_diagram(text), targets))
    assert hashlib.sha256(framed.encode()).hexdigest() == digest


def test_blackboardize_target_count_mismatch():
    d = parse_diagram(UNKNOT0)
    with pytest.raises(ValueError):
        blackboardize(d, [1, 2])
