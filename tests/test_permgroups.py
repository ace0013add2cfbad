import json
import math
import sys

import pytest

from linkgroup import permgroups
from linkgroup.permgroups import (Catalog, CatalogError, FiniteGroup,
                                  alternating_group, identity_perm, inverse_perm,
                                  load_catalog, mult, parse_catalog,
                                  symmetric_group)
from conftest import CountingList, data_path

EXPECTED_NAMES = ["C2", "C3", "C4", "C5", "C6", "S3", "D4", "A4", "A5", "S4",
                  "S5", "PSL(2,7)", "A6", "2I"]
EXPECTED_ORDERS = {"C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "S3": 6,
                   "D4": 8, "A4": 12, "A5": 60, "S4": 24, "S5": 120,
                   "PSL(2,7)": 168, "A6": 360, "2I": 120}


def test_perm_primitives():
    p = (1, 2, 0)
    q = (1, 0, 2)
    # words act left to right: i -> q[p[i]]
    assert mult(p, q) == (0, 2, 1)
    assert mult(q, p) == (2, 1, 0)
    assert inverse_perm(p) == (2, 0, 1)
    assert mult(p, inverse_perm(p)) == identity_perm(3)


def test_closure_s3():
    elems = FiniteGroup("S3", 3, [(1, 0, 2), (1, 2, 0)], 6).elements()
    assert len(elems) == 6
    assert elems[0] == identity_perm(3)
    with pytest.raises(CatalogError):
        FiniteGroup("C3", 3, [(1, 2, 0)], 2).elements()


def test_catalog_contents(catalog):
    assert catalog.version == 1
    assert catalog.names == EXPECTED_NAMES
    for g in catalog.groups:
        assert g.order == EXPECTED_ORDERS[g.name]
    assert catalog.by_name("A5").order == 60
    with pytest.raises(KeyError):
        catalog.by_name("M11")


def test_load_catalog_from_path_and_caching(catalog):
    assert load_catalog() is catalog
    fresh = load_catalog(data_path("catalog.json"))
    assert fresh is not catalog
    assert fresh.names == catalog.names


def test_tables_are_consistent(catalog):
    for name in ("S3", "A4"):
        g = catalog.by_name(name)
        mul, inv, e = g.tables()
        n = g.order
        for i in range(n):
            assert mul[i][inv[i]] == e
            assert mul[inv[i]][i] == e
            assert mul[i][e] == i
            assert mul[e][i] == i


def test_tables_match_permutation_products(catalog):
    # the catalog and the low-index searches' S_k and A_k, then generating
    # sets whose spanning tree skips a generator: the trivial group, an
    # identity generator, a repeated generator, C2 moving 2 of 4 points
    groups = (catalog.groups + [symmetric_group(k) for k in range(2, 7)]
              + [alternating_group(k) for k in range(3, 7)]
              + [FiniteGroup("1", 1, [(0,)]),
                 FiniteGroup("C3 and 1", 3, [(0, 1, 2), (1, 2, 0)]),
                 FiniteGroup("C4 twice", 4, [(1, 2, 3, 0), (1, 2, 3, 0)]),
                 FiniteGroup("C2 on 4", 4, [(1, 0, 2, 3)])])
    for g in groups:
        elems = g.elements()
        index = {p: i for i, p in enumerate(elems)}
        mul, inv, e = g.tables()
        n = g.order
        assert len(mul) == n and all(len(row) == n for row in mul), g.name
        # rows are allocated to their exact length, odd orders included
        assert all(sys.getsizeof(row) == sys.getsizeof([0] * n) for row in mul), g.name
        assert mul == [[index[mult(p, q)] for q in elems] for p in elems], g.name
        assert inv == [index[inverse_perm(p)] for p in elems], g.name
        assert e == index[identity_perm(g.degree)]


def test_symmetric_groups():
    for k in range(2, 6):
        s = symmetric_group(k)
        assert s.order == math.factorial(k)
        assert symmetric_group(k) is s
        assert len(s.centraliser_orbits(0)) == (2, 3, 5, 7)[k - 2]


def test_conjugacy_solutions_against_brute_force(catalog):
    # the centraliser-coset solver against {x : x q x^-1 = t} for every (q, t)
    for g in catalog.groups + [symmetric_group(k) for k in range(2, 6)]:
        mul, inv, _ = g.tables()
        n = g.order
        solve = g.conjugacy_solutions()
        sizes = dict(g.centraliser_orbits(0))
        assert sum(sizes.values()) == n
        for q in range(n):
            brute = {}
            for x in range(n):
                brute.setdefault(mul[mul[x][q]][inv[x]], []).append(x)
            for t in range(n):
                assert sorted(solve(q, t)) == brute.get(t, []), (g.name, q, t)


def test_centraliser_orbits_against_brute_force(catalog):
    for g in catalog.groups + [symmetric_group(k) for k in range(2, 7)]:
        mul, inv, e = g.tables()
        n = g.order
        solve = g.conjugacy_solutions()

        def centraliser(x):
            return {c for c in range(n) if mul[c][x] == mul[x][c]}

        # the identity's orbits are the conjugacy classes, read off the solver
        classes = {min(t for t in range(n) if solve(v, t)) for v in range(n)}
        classes = [(r, sum(1 for t in range(n) if solve(r, t)))
                   for r in sorted(classes)]
        assert list(g.centraliser_orbits(e)) == classes, g.name
        for r, _ in classes:
            cent = centraliser(r)
            orbits = g.centraliser_orbits(r)
            members = {v: {mul[mul[c][v]][inv[c]] for c in cent}
                       for v in range(n)}
            assert sorted(orbits) == list(orbits)
            assert sorted(x for v, _ in orbits for x in members[v]) == list(range(n))
            for v, size in orbits:
                assert v == min(members[v]), (g.name, r, v)
                assert size == len(members[v]) == len(cent) // len(cent & centraliser(v))
            assert list(orbits) == sorted({(min(m), len(m)) for m in members.values()})


def test_identity_orbit_table_is_scanned_once(catalog):
    # the class roots and the conjugation solver read the same table, so
    # whichever comes second reads no product
    for g in catalog.groups:
        for solver_first in (True, False):
            fresh = FiniteGroup(g.name, g.degree, g.generators, order=g.declared_order)
            mul, inv, e = fresh.tables()
            counted = (CountingList(mul), inv, e)
            fresh.tables = lambda: counted
            calls = [fresh.conjugacy_solutions, lambda: fresh.centraliser_orbits(0)]
            if not solver_first:
                calls.reverse()
            calls[0]()
            reads = counted[0].reads
            assert reads > 0
            calls[1]()
            assert counted[0].reads == reads, (g.name, solver_first)


def test_central_roots_share_the_class_table():
    # in an abelian group every root is central, so C(r) is the whole group
    # and every root's orbits are the conjugacy classes: building them all
    # reads only the identity table's products
    for n in (6, 60):
        cyclic = FiniteGroup("C%d" % n, n, [tuple(range(1, n)) + (0,)])
        mul, inv, e = cyclic.tables()
        counted = (CountingList(mul), inv, e)
        cyclic.tables = lambda: counted
        classes = cyclic.centraliser_orbits(e)
        reads = counted[0].reads
        assert reads == 2 * n + 2 * n * n
        for r, size in classes:
            assert size == 1
            assert cyclic.centraliser_orbits(r) == classes
        assert counted[0].reads == reads, n


def test_second_assign_node_counts(catalog):
    # a search opening with two assigns tries, below each class representative
    # r, one node per C(r)-orbit instead of one per element
    groups = [catalog.by_name(name) for name in ("A5", "PSL(2,7)", "A6")]
    counts = {}
    for g in groups + [symmetric_group(6)]:
        roots = g.centraliser_orbits(0)
        counts[g.name] = (len(roots) * g.order,
                          sum(len(g.centraliser_orbits(r)) for r, _ in roots))
    assert counts == {"A5": (300, 77), "PSL(2,7)": (1008, 197), "A6": (2520, 400),
                      "S6": (7920, 901)}


def test_finite_group_rejects_non_permutation():
    with pytest.raises(CatalogError):
        FiniteGroup("bad", 3, [(0, 0, 1)])


def test_declared_order_is_checked():
    g = FiniteGroup("C3", 3, [(1, 2, 0)], order=4)
    with pytest.raises(CatalogError, match="group C3 has 3 elements, catalog declares 4"):
        g.elements()
    # a closure that outgrows the declared order stops there
    g = FiniteGroup("X", 3, [(1, 0, 2), (1, 2, 0)], order=5)
    with pytest.raises(CatalogError, match="group X has more than 5 elements, "
                                           "catalog declares 5"):
        g.elements()


def test_closure_stops_at_the_declared_order(monkeypatch):
    # S12 has 12! elements; the closure must give up after its eleventh,
    # having multiplied at most the first eleven by each of two generators
    products = []

    def counting(p, q):
        products.append(None)
        return mult(p, q)

    monkeypatch.setattr(permgroups, "mult", counting)
    transposition = (1, 0) + tuple(range(2, 12))
    cycle = tuple(range(1, 12)) + (0,)
    g = FiniteGroup("S12", 12, [transposition, cycle], order=10)
    with pytest.raises(CatalogError) as caught:
        g.elements()
    assert str(caught.value) == "group S12 has more than 10 elements, catalog declares 10"
    assert 0 < len(products) <= 2 * 11


def test_parse_catalog_errors():
    with pytest.raises(CatalogError):
        parse_catalog("nonsense")
    with pytest.raises(CatalogError):
        parse_catalog(json.dumps({"groups": []}))  # missing version
    with pytest.raises(CatalogError):
        parse_catalog(json.dumps({"version": 1, "groups": [{"name": "X"}]}))
    doc = {"version": 1, "groups": [
        {"name": "C2", "degree": 2, "order": 2, "generators": [[1, 0]]},
        {"name": "C2", "degree": 2, "order": 2, "generators": [[1, 0]]},
    ]}
    with pytest.raises(CatalogError):
        parse_catalog(json.dumps(doc))
    # S8 closes in a fraction of a second, but its multiplication table
    # would hold 40320^2 cells
    s8 = {"name": "S8", "degree": 8, "order": 40320,
          "generators": [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]}
    with pytest.raises(CatalogError, match="above 5040"):
        parse_catalog(json.dumps({"version": 1, "groups": [s8]}))


def test_catalog_type():
    c = Catalog(3, [])
    assert c.version == 3
    assert c.names == []
