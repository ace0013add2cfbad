"""4-regular properly 4-edge-colored graphs and the sphere test for their
3-residues.

A graph is stored as four perfect matchings on the vertex set, one per color;
parallel edges in different colors are allowed.  A graph encodes a closed
orientable 3-manifold exactly when it is bipartite and dropping any one color
leaves components in which vertices - edges + bicolored cycles = 2.
"""

import json
from itertools import combinations

from ._record import Record


class FourGraphError(ValueError):
    """A document that does not describe four perfect matchings."""


class FourGraph(Record):
    __slots__ = ("vertices", "partners")

    def __init__(self, vertices, partners):
        object.__setattr__(self, "vertices", vertices)
        # four involution tuples; partners[color][v] is v's neighbor
        object.__setattr__(self, "partners", partners)

    @classmethod
    def from_matchings(cls, vertices, matchings):
        if type(vertices) is not int or vertices <= 0:
            raise FourGraphError("vertex count must be a positive integer")
        if not isinstance(matchings, (list, tuple)) or len(matchings) != 4:
            raise FourGraphError("expected a list of exactly 4 matchings")
        partners = []
        for color, matching in enumerate(matchings):
            # a perfect matching has vertices/2 pairs; checking that first keeps
            # the partner table no larger than the input
            if not isinstance(matching, (list, tuple)) or 2 * len(matching) != vertices:
                raise FourGraphError("color %d: expected a list of pairs matching all "
                                     "%d vertices" % (color, vertices))
            partner = [-1] * vertices
            for pair in matching:
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise FourGraphError("color %d: edges must be vertex pairs" % color)
                u, v = pair
                for x in (u, v):
                    if type(x) is not int or not 0 <= x < vertices:
                        raise FourGraphError("color %d: vertex %r out of range" % (color, x))
                if u == v:
                    raise FourGraphError("color %d: loop at vertex %d" % (color, u))
                if partner[u] != -1 or partner[v] != -1:
                    raise FourGraphError("color %d: vertex %d matched twice"
                                         % (color, u if partner[u] != -1 else v))
                partner[u] = v
                partner[v] = u
            partners.append(tuple(partner))
        return cls(vertices, tuple(partners))

    def matchings(self):
        out = []
        for partner in self.partners:
            pairs = []
            for u, v in enumerate(partner):
                if u < v:
                    pairs.append([u, v])
            out.append(pairs)
        return out


def parse_fourgraph(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FourGraphError("malformed JSON: %s" % e) from None
    if not isinstance(doc, dict) or set(doc) - {"name", "vertices", "matchings"}:
        raise FourGraphError("expected an object with vertices and matchings")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise FourGraphError("name must be a string")
    return FourGraph.from_matchings(doc.get("vertices"), doc.get("matchings", []))


def serialize_fourgraph(graph):
    doc = {"vertices": graph.vertices, "matchings": graph.matchings()}
    return json.dumps(doc, indent=2) + "\n"


def residues(graph, colors):
    """Connected components of the subgraph using only the given colors.

    Components are returned as sorted vertex tuples, ordered by least vertex.
    """
    seen = [False] * graph.vertices
    out = []
    for start in range(graph.vertices):
        if seen[start]:
            continue
        component = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            component.append(v)
            for c in colors:
                w = graph.partners[c][v]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(tuple(sorted(component)))
    return out


def is_bipartite(graph):
    side = [-1] * graph.vertices
    for start in range(graph.vertices):
        if side[start] != -1:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for c in range(4):
                w = graph.partners[c][v]
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def gem_report(graph):
    """Check the sphere condition on every 3-residue and report the numbers.

    For each dropped color, each component K of the remaining 3-colored graph
    has V vertices, E = 3V/2 edges, and B bicolored cycles; K encodes a sphere
    exactly when V - E + B == 2.
    """
    spheres = []
    all_spherical = True
    pair_cycles = {pair: residues(graph, pair) for pair in combinations(range(4), 2)}
    for dropped in range(4):
        components = residues(graph, [c for c in range(4) if c != dropped])
        component_of = [0] * graph.vertices
        for k, component in enumerate(components):
            for x in component:
                component_of[x] = k
        counts = [0] * len(components)
        for pair, cycles in pair_cycles.items():
            if dropped not in pair:
                for cyc in cycles:
                    counts[component_of[cyc[0]]] += 1
        for component, bigons in zip(components, counts):
            v = len(component)
            e = 3 * v // 2
            euler = v - e + bigons
            if euler != 2:
                all_spherical = False
            spheres.append({
                "dropped_color": dropped,
                "component_min_vertex": component[0],
                "vertices": v,
                "edges": e,
                "bigons": bigons,
                "euler": euler,
            })
    bipartite = is_bipartite(graph)
    return {
        "vertices": graph.vertices,
        "bipartite": bipartite,
        "residues_spherical": all_spherical,
        "is_gem": bipartite and all_spherical,
        "spheres": spheres,
    }
