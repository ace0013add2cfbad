"""Finite permutation groups given by generators, with cached multiplication tables.

Permutations on n points are tuples of images of 0..n-1; p then q composes as
mult(p, q)[i] = q[p[i]], so words act on points from the left to the right.
"""

from __future__ import annotations

import json
from importlib import resources


class CatalogError(ValueError):
    """A target-group catalog that fails validation."""


def identity_perm(degree):
    return tuple(range(degree))


def mult(p, q):
    return tuple(q[x] for x in p)


def inverse_perm(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def closure(generators, limit=None):
    """All products of the generators, in deterministic breadth-first order."""
    degree = len(generators[0])
    e = identity_perm(degree)
    elements = [e]
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = mult(x, g)
                if y not in seen:
                    seen.add(y)
                    elements.append(y)
                    nxt.append(y)
                    if limit is not None and len(elements) > limit:
                        raise CatalogError("group closure exceeded %d elements" % limit)
        frontier = nxt
    return elements


class FiniteGroup:
    """A finite permutation group; elements and tables are built on first use."""

    def __init__(self, name, degree, generators, order=None):
        self.name = name
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        self.declared_order = order
        for g in self.generators:
            if sorted(g) != list(range(degree)):
                raise CatalogError("generator of %s is not a permutation of 0..%d"
                                   % (name, degree - 1))
        self._elements = None
        self._tables = None
        self._conj = None
        self._classes = None

    def elements(self):
        if self._elements is None:
            elems = closure(self.generators, limit=self.declared_order)
            if self.declared_order is not None and len(elems) != self.declared_order:
                raise CatalogError("group %s has %d elements, catalog declares %d"
                                   % (self.name, len(elems), self.declared_order))
            self._elements = elems
        return self._elements

    @property
    def order(self):
        return len(self.elements())

    def tables(self):
        """(flat multiplication table, inverse table, identity index)."""
        if self._tables is None:
            elems = self.elements()
            index = {p: i for i, p in enumerate(elems)}
            n = len(elems)
            mul = [0] * (n * n)
            inv = [0] * n
            for i, p in enumerate(elems):
                base = i * n
                for j, q in enumerate(elems):
                    mul[base + j] = index[mult(p, q)]
                inv[i] = index[inverse_perm(p)]
            self._tables = (mul, inv, index[identity_perm(self.degree)])
        return self._tables

    def conjugacy_solutions(self):
        """Map (q, t) -> ascending tuple of all x with x * q * x^-1 = t."""
        if self._conj is None:
            mul, inv, _ = self.tables()
            n = self.order
            sols = {}
            for x in range(n):
                xinv = inv[x]
                base = x * n
                for q in range(n):
                    t = mul[mul[base + q] * n + xinv]
                    key = (q, t)
                    if key in sols:
                        sols[key].append(x)
                    else:
                        sols[key] = [x]
            self._conj = {key: tuple(v) for key, v in sols.items()}
        return self._conj

    def conjugacy_classes(self):
        """((representative, class size), ...), one pair per conjugacy class.

        Each representative is the smallest element index of its class, and the
        pairs come in ascending order of representative.
        """
        if self._classes is None:
            mul, inv, _ = self.tables()
            n = self.order
            seen = [False] * n
            classes = []
            for x in range(n):
                if seen[x]:
                    continue
                cls = {mul[mul[g * n + x] * n + inv[g]] for g in range(n)}
                for y in cls:
                    seen[y] = True
                classes.append((x, len(cls)))
            self._classes = tuple(classes)
        return self._classes

    def __repr__(self):
        return "FiniteGroup(%r, degree=%d)" % (self.name, self.degree)


class Catalog:
    def __init__(self, version, groups):
        self.version = version
        self.groups = list(groups)

    def by_name(self, name):
        for g in self.groups:
            if g.name == name:
                return g
        raise KeyError(name)

    @property
    def names(self):
        return [g.name for g in self.groups]


def parse_catalog(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CatalogError("malformed catalog JSON: %s" % e) from None
    if not isinstance(doc, dict) or not isinstance(doc.get("groups"), list):
        raise CatalogError("catalog must be an object with a groups list")
    version = doc.get("version")
    if not isinstance(version, int):
        raise CatalogError("catalog version must be an integer")
    groups = []
    names = set()
    for entry in doc["groups"]:
        try:
            name = entry["name"]
            degree = entry["degree"]
            order = entry["order"]
            gens = [tuple(g) for g in entry["generators"]]
        except (KeyError, TypeError) as e:
            raise CatalogError("bad catalog entry: %s" % e) from None
        if name in names:
            raise CatalogError("duplicate group name %r" % name)
        names.add(name)
        group = FiniteGroup(name, degree, gens, order=order)
        group.elements()  # verify the declared order eagerly
        groups.append(group)
    return Catalog(version, groups)


_bundled = None


def load_catalog(path=None):
    """The bundled catalog, or one read from an explicit path."""
    global _bundled
    if path is not None:
        with open(path, encoding="utf-8") as f:
            return parse_catalog(f.read())
    if _bundled is None:
        text = resources.files("linkgroup.data").joinpath("catalog.json").read_text("utf-8")
        _bundled = parse_catalog(text)
    return _bundled
