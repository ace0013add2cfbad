"""Finite permutation groups given by generators, with cached multiplication tables.

Permutations on n points are tuples of images of 0..n-1; p then q composes as
mult(p, q)[i] = q[p[i]], so words act on points from the left to the right.
"""

import functools
import json
import math
import operator
import os


# every group enters a search as its full multiplication table: order rows of
# order cells, 25.4M for 7! = 5040, 1.6G for S_8.  Catalog groups, and the S_k
# of the low-index search, are held to this order.
MAX_ORDER = 5040


class CatalogError(ValueError):
    """A target-group catalog that fails validation."""


def identity_perm(degree):
    return tuple(range(degree))


def mult(p, q):
    return tuple(q[x] for x in p)


def _orbit_tree(start, generators, act, limit=None):
    """(orbit, parent, via): the orbit of start under act(x, g), in
    breadth-first order, with its spanning tree.

    Every point j > 0 is act(orbit[parent[j]], generators[via[j]]), and
    parent[j] < j.  The walk returns as soon as the orbit holds more than
    limit points.
    """
    orbit, parent, via, seen = [start], [0], [0], {start}
    for i, x in enumerate(orbit):   # also visits the points appended below
        for s, g in enumerate(generators):
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
                parent.append(i)
                via.append(s)
                if limit is not None and len(orbit) > limit:
                    return orbit, parent, via
    return orbit, parent, via


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
        self._tree = None
        self._tables = None
        self._orbit_tables = {}

    def elements(self):
        if self._tree is None:
            declared = self.declared_order
            tree = _orbit_tree(identity_perm(self.degree), self.generators, mult,
                               declared)
            found = len(tree[0])
            if declared is not None and found != declared:
                has = found if found < declared else "more than %d" % declared
                raise CatalogError("group %s has %s elements, catalog declares %d"
                                   % (self.name, has, declared))
            self._tree = tree
        return self._tree[0]

    @property
    def order(self):
        # a declared order is checked when elements() lists them
        if self.declared_order is not None:
            return self.declared_order
        return len(self.elements())

    @functools.cached_property
    def _element_set(self):
        return frozenset(self.elements())

    def tables(self):
        """(multiplication table, inverse table, identity index).

        The identity is element 0.  The table is a list of rows: mul[i][j]
        is i * j, so a product costs two subscripts and no index arithmetic,
        and builds no int.  Element i is its spanning-tree parent times one
        generator g, so i * j = parent * (g * j): row i is the parent's row
        gathered through g's left action, one C-level gather per row.
        """
        if self._tables is None:
            self.elements()
            elems, parent, via = self._tree
            index = {p: i for i, p in enumerate(elems)}
            left = [operator.itemgetter(*[index[mult(g, p)] for p in elems])
                    for g in self.generators]
            n = len(elems)
            mul = []
            for i in range(n):
                row = [0] * n   # exact size: list() rounds an odd length up
                row[:] = left[via[i]](mul[parent[i]]) if i else range(n)
                mul.append(row)
            self._tables = (mul, [row.index(0) for row in mul], 0)
        return self._tables

    def _orbit_table(self, r):
        """(orbits, stabilisers, orbit of, conjugator) of C(r) on the group.

        C(r), the centraliser of element r, acts on the group by conjugation.
        Per orbit: (v, orbit size) with v its smallest element index, in
        ascending order of v, and the elements of C(r) that commute with v.
        Per element y: its orbit number and one g in C(r) with
        g * v * g^-1 = y.  C(identity) is the whole group, so its orbits are
        the conjugacy classes and its stabilisers the centralisers of their
        representatives.  One scan of C(r) per orbit, on first use for each
        r, except for a central r: C(r) is then the whole group, so it shares
        the identity's orbits.  The identity's table is kept whole, since
        conjugacy_solutions reads it; for any other r it is kept, and
        returned, as its orbits alone.
        """
        table = self._orbit_tables.get(r)
        if table is None and r:
            classes, _, class_of, _ = self._orbit_table(0)
            if classes[class_of[r]][1] == 1:
                table = self._orbit_tables[r] = (classes,)
        if table is None:
            mul, inv, _ = self.tables()
            n = self.order
            cent = [g for g in range(n) if mul[g][r] == mul[r][g]]
            orbits = []
            stabilisers = []
            orbit_of = [-1] * n
            conjugator = [0] * n
            for v in range(n):
                if orbit_of[v] >= 0:
                    continue
                number = len(orbits)
                stabiliser = []
                for g in cent:
                    y = mul[mul[g][v]][inv[g]]
                    if orbit_of[y] < 0:
                        orbit_of[y] = number
                        conjugator[y] = g
                    if y == v:
                        stabiliser.append(g)
                orbits.append((v, len(cent) // len(stabiliser)))
                stabilisers.append(tuple(stabiliser))
            table = (tuple(orbits), tuple(stabilisers), orbit_of, conjugator)[:1 if r else 4]
            self._orbit_tables[r] = table
        return table

    def conjugacy_solutions(self):
        """A function (q, t) -> list of all x with x * q * x^-1 = t.

        With q = g_q r g_q^-1 and t = g_t r g_t^-1 for the representative r of
        their common class, the solutions are the coset g_t C(r) g_q^-1; when q
        and t lie in different classes there are none.  Only the centraliser
        of each representative and one conjugator per element are stored.
        """
        mul, inv, _ = self.tables()
        _, cents, class_of, conjugator = self._orbit_table(0)

        def solve(q, t):
            c = class_of[q]
            if class_of[t] != c:
                return []
            left = mul[conjugator[t]]
            right = inv[conjugator[q]]
            return [mul[left[z]][right] for z in cents[c]]
        return solve

    def centraliser_orbits(self, r):
        """((representative, orbit size), ...): the orbits of C(r) on the group.

        Each representative is the smallest element index of its orbit, and
        the pairs come in ascending order of representative.  For the
        identity, the orbits are the conjugacy classes.
        """
        return self._orbit_table(r)[0]

    @functools.cached_property
    def derived_subgroup(self):
        """The commutator subgroup, on the same points, or self when the group
        is perfect.

        It is the normal closure of the generators' commutators: each new
        generator is such a commutator, or a conjugate of one so far by a
        generator of the group, that the subgroup so far lacks.  Each
        subgroup so far is closed by _orbit_tree, stopped past half the
        group: a subgroup that large is the whole group (Lagrange).  A
        proper subgroup keeps its last closure as its element list, so its
        elements are never listed again.  No table of this group is built.
        """
        identity = identity_perm(self.degree)
        inverses = [tuple(sorted(identity, key=g.__getitem__)) for g in self.generators]
        pending = [mult(mult(inverses[i], inverses[j]), mult(a, b))
                   for i, a in enumerate(self.generators)
                   for j, b in enumerate(self.generators[:i])]
        generators = []
        half = self.order // 2
        tree = _orbit_tree(identity, generators, mult, half)
        while pending and len(tree[0]) <= half:
            x = pending.pop()
            if x not in tree[0]:
                generators.append(x)
                tree = _orbit_tree(identity, generators, mult, half)
                pending += [mult(mult(g_inv, x), g)
                            for g, g_inv in zip(self.generators, inverses)]
        if len(tree[0]) > half:
            return self
        term = FiniteGroup(self.name + "'", self.degree, generators)
        term._tree = tree
        return term

    def __repr__(self):
        return "FiniteGroup(%r, degree=%d)" % (self.name, self.degree)


@functools.lru_cache(maxsize=None)
def symmetric_group(k):
    """S_k on points 0..k-1, generated by (0 1) and (0 1 ... k-1).

    Built on first use and kept; the low-index search maps into it, or into
    a term of its derived series (see FiniteGroup.derived_subgroup).  It is
    not a catalog group.  Its order k! is declared, so reading it lists no
    element.
    """
    transposition = (1, 0) + tuple(range(2, k))
    cycle = tuple(range(1, k)) + (0,)
    return FiniteGroup("S%d" % k, k, [transposition, cycle], order=math.factorial(k))


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
    except (json.JSONDecodeError, RecursionError) as e:
        raise CatalogError("malformed catalog JSON: %s" % e) from None
    if not isinstance(doc, dict) or not isinstance(doc.get("groups"), list):
        raise CatalogError("catalog must be an object with a groups list")
    version = doc.get("version")
    if type(version) is not int:
        raise CatalogError("catalog version must be an integer")
    groups = []
    names = set()
    for entry in doc["groups"]:
        if not isinstance(entry, dict):
            raise CatalogError("each catalog group must be an object")
        name = entry.get("name")
        degree = entry.get("degree")
        order = entry.get("order")
        gens = entry.get("generators")
        if not isinstance(name, str):
            raise CatalogError("group name must be a string, not %r" % (name,))
        for key, value in (("degree", degree), ("order", order)):
            if type(value) is not int or value < 1:
                raise CatalogError("group %s: %s must be a positive integer, not %r"
                                   % (name, key, value))
        if order > MAX_ORDER:
            raise CatalogError("group %s: order %d is above %d" % (name, order, MAX_ORDER))
        if (not isinstance(gens, list) or not gens
                or not all(isinstance(g, list) and len(g) == degree
                           and all(type(x) is int for x in g) for g in gens)):
            raise CatalogError("group %s: generators must be a non-empty list of "
                               "lists of %d integers" % (name, degree))
        if name in names:
            raise CatalogError("duplicate group name %r" % name)
        names.add(name)
        group = FiniteGroup(name, degree, gens, order=order)
        group.elements()  # verify the declared order eagerly
        groups.append(group)
    return Catalog(version, groups)


@functools.lru_cache(maxsize=None)
def _bundled_catalog():
    return load_catalog(os.path.join(os.path.dirname(__file__), "data", "catalog.json"))


def load_catalog(path=None):
    """The bundled catalog, data/catalog.json next to this module, built once,
    or one read afresh from an explicit path; both are read as UTF-8."""
    if path is None:
        return _bundled_catalog()
    with open(path, encoding="utf-8") as f:
        return parse_catalog(f.read())
