"""Link diagrams with blackboard framing, given combinatorially by arcs and crossings.

A diagram is a set of oriented circles (components), each listed as a cyclic
sequence of arcs; an arc ends where the circle passes under a crossing.  Each
crossing records its overstrand arc, the understrand arc entering it, the
understrand arc leaving it, and a sign in {+1, -1}.  The blackboard framing of
a component is its self-writhe: the signed count of crossings where the
component crosses itself.
"""

import json
import re

from ._record import Record

ARC_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


class DiagramSyntaxError(ValueError):
    """Malformed document: bad JSON or a schema violation, with its location."""


class DiagramStructureError(ValueError):
    """Well-formed document describing an impossible diagram."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class Violation(Record):
    __slots__ = ("invariant", "element", "detail")

    def __init__(self, invariant, element, detail):
        object.__setattr__(self, "invariant", invariant)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "detail", detail)

    def __str__(self):
        return "%s violation on %r: %s" % (self.invariant, self.element, self.detail)


class Crossing(Record):
    __slots__ = ("over", "under_in", "under_out", "sign")

    def __init__(self, over, under_in, under_out, sign):
        object.__setattr__(self, "over", over)
        object.__setattr__(self, "under_in", under_in)
        object.__setattr__(self, "under_out", under_out)
        object.__setattr__(self, "sign", sign)


class LinkDiagram(Record):
    __slots__ = ("components", "crossings", "name")

    def __init__(self, components, crossings, name=None):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "name", name)

    @property
    def arcs(self):
        return frozenset(arc for comp in self.components for arc in comp)


def _schema_error(path, detail):
    raise DiagramSyntaxError("%s: %s" % (path, detail))


def parse_diagram(text):
    """Parse a PD document into a LinkDiagram; raise on syntax or structure errors."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DiagramSyntaxError("malformed JSON: %s" % e) from None
    if not isinstance(doc, dict):
        _schema_error("$", "document must be a JSON object")
    extra = set(doc) - {"name", "components", "crossings"}
    if extra:
        _schema_error("$", "unknown keys %s" % sorted(extra))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        _schema_error("$.name", "name must be a string")
    comps_doc = doc.get("components")
    if not isinstance(comps_doc, list):
        _schema_error("$.components", "expected a list of components")
    components = []
    for i, comp in enumerate(comps_doc):
        if not isinstance(comp, list) or not all(isinstance(a, str) for a in comp):
            _schema_error("$.components[%d]" % i, "expected a list of arc names")
        components.append(tuple(comp))
    crossings_doc = doc.get("crossings")
    if not isinstance(crossings_doc, list):
        _schema_error("$.crossings", "expected a list of crossings")
    crossings = []
    for i, c in enumerate(crossings_doc):
        path = "$.crossings[%d]" % i
        if not isinstance(c, dict):
            _schema_error(path, "expected an object")
        if set(c) != {"over", "under_in", "under_out", "sign"}:
            _schema_error(path, "keys must be exactly over, under_in, under_out, sign")
        for key in ("over", "under_in", "under_out"):
            if not isinstance(c[key], str):
                _schema_error("%s.%s" % (path, key), "expected an arc name string")
        if type(c["sign"]) is not int:
            _schema_error("%s.sign" % path, "expected an integer")
        crossings.append(Crossing(c["over"], c["under_in"], c["under_out"], c["sign"]))
    diagram = LinkDiagram(tuple(components), tuple(crossings), name)
    violations = validate(diagram)
    if violations:
        raise DiagramStructureError(violations)
    return diagram


def serialize_diagram(diagram):
    """Canonical PD document: fixed key order (Crossing's fields), arrays in stored order."""
    doc = {}
    if diagram.name is not None:
        doc["name"] = diagram.name
    doc["components"] = [list(comp) for comp in diagram.components]
    doc["crossings"] = [c._asdict() for c in diagram.crossings]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def validate(diagram):
    """Check all diagram invariants; return a list of violations, empty iff valid."""
    out = []
    if len(diagram.components) == 0:
        out.append(Violation("component-count", "", "a diagram needs at least one component"))
    seen = {}
    for i, comp in enumerate(diagram.components):
        if len(comp) == 0:
            out.append(Violation("component-empty", "components[%d]" % i, "component has no arcs"))
        for arc in comp:
            if not ARC_NAME.match(arc):
                out.append(Violation("arc-name", arc,
                                     "arc names must match [A-Za-z][A-Za-z0-9]*"))
            if arc in seen:
                out.append(Violation("arc-unique", arc,
                                     "arc also appears in components[%d]" % seen[arc]))
            seen[arc] = i
    for c in diagram.crossings:
        for arc in (c.over, c.under_in, c.under_out):
            if arc not in seen:
                out.append(Violation("unknown-arc", arc, "crossing references an unlisted arc"))
        if c.sign not in (1, -1):
            out.append(Violation("crossing-sign", c.over, "sign must be +1 or -1, got %r" % (c.sign,)))
        if c.under_in in seen and c.under_out in seen and seen[c.under_in] != seen[c.under_out]:
            out.append(Violation("under-orientation", c.under_in,
                                 "understrand enters and leaves in different components"))
    if out:
        return out

    # Each consecutive arc pair of a component must be realized by exactly one
    # crossing; a single-arc component may instead be a crossingless circle.
    by_pair = {}
    for c in diagram.crossings:
        by_pair.setdefault((c.under_in, c.under_out), []).append(c)
    used_pairs = set()
    # the checks above returned unless every understrand stays in one known component
    incident = {seen[c.under_in] for c in diagram.crossings}
    for i, comp in enumerate(diagram.components):
        m = len(comp)
        if m == 1 and i not in incident:
            continue
        for j, arc in enumerate(comp):
            pair = (arc, comp[(j + 1) % m])
            used_pairs.add(pair)
            hits = by_pair.get(pair, [])
            if len(hits) != 1:
                out.append(Violation("arc-degree", arc,
                                     "expected exactly one crossing with understrand %s -> %s, found %d"
                                     % (pair[0], pair[1], len(hits))))
    for pair, hits in sorted(by_pair.items()):
        if pair not in used_pairs:
            out.append(Violation("under-orientation", pair[0],
                                 "crossing understrand %s -> %s does not follow the component order"
                                 % pair))
    return out


def under_walks(diagram):
    """Per component, the crossings under which it passes, in its cyclic arc order."""
    by_pair = {(c.under_in, c.under_out): c for c in diagram.crossings}
    walks = []
    for comp in diagram.components:
        m = len(comp)
        if m == 1 and (comp[0], comp[0]) not in by_pair:
            walks.append([])
        else:
            walks.append([by_pair[(comp[j], comp[(j + 1) % m])] for j in range(m)])
    return walks


def self_writhes(diagram):
    """Per component, the signed count of the crossings where it crosses itself."""
    component_of = {arc: i for i, comp in enumerate(diagram.components) for arc in comp}
    writhes = [0] * len(diagram.components)
    for c in diagram.crossings:
        i = component_of.get(c.over)
        if i is not None and component_of.get(c.under_in) == i == component_of.get(c.under_out):
            writhes[i] += c.sign
    return writhes


def _fresh_names(base, taken, count):
    names, n = [], 1
    while len(names) < count:
        candidate = "%sw%d" % (base, n)
        if candidate not in taken:
            names.append(candidate)
            taken.add(candidate)
        n += 1
    return names


def blackboardize(diagram, targets):
    """Adjust each component's self-writhe to the target by appending curls.

    Curls are added at the end of each component's first arc: abs(delta) new
    crossings of sign(delta), each with the overstrand equal to the understrand
    exit arc.  Existing crossings keep their sign, overstrand and understrand
    exit; only the one crossing that consumed the first arc's end has its
    understrand entry renamed to the last new arc.
    """
    targets = list(targets)
    if len(targets) != len(diagram.components):
        raise ValueError("expected %d targets, got %d" % (len(diagram.components), len(targets)))
    components = [list(comp) for comp in diagram.components]
    crossings = list(diagram.crossings)
    taken = set(diagram.arcs)
    # curls, and the one renamed follower crossing, stay inside their own
    # component, so each self-writhe and follower is read from the input diagram
    writhes = self_writhes(diagram)
    followers = {}
    for j, c in enumerate(crossings):
        followers.setdefault(c.under_in, []).append(j)
    changed = False
    for i, comp in enumerate(components):
        delta = targets[i] - writhes[i]
        if delta == 0:
            continue
        changed = True
        sign = 1 if delta > 0 else -1
        k = abs(delta)
        x = comp[0]
        follower = followers.get(x, [])
        # a crossingless circle has no follower: its chain closes back onto x
        new = _fresh_names(x, taken, k if follower else k - 1)
        chain = [x] + new + ([] if follower else [x])
        comp[1:1] = new
        for j in follower:
            c = crossings[j]
            crossings[j] = Crossing(c.over, chain[-1], c.under_out, c.sign)
        for a, b in zip(chain, chain[1:]):
            crossings.append(Crossing(over=b, under_in=a, under_out=b, sign=sign))
    if not changed:
        return diagram
    result = LinkDiagram(tuple(tuple(c) for c in components), tuple(crossings), diagram.name)
    problems = validate(result)
    if problems or self_writhes(result) != targets:
        raise AssertionError("curl insertion produced an inconsistent diagram: %s"
                             % "; ".join(map(str, problems)))
    return result
