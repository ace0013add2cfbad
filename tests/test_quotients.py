import functools
import itertools
import json
import random

import pytest

from linkgroup import quotients
from linkgroup.corpus import load_corpus
from linkgroup.homology import first_homology
from linkgroup.permgroups import alternating_group, parse_catalog, symmetric_group
from linkgroup.presentations import (_reduce_generators, parse_presentation,
                                     serialize_presentation, tietze_simplify)
from linkgroup.quotients import (MAX_INDEX, HomCount, ProfileConfig, SubgroupCount,
                                 compare_profiles, count_homs, distinguish,
                                 low_index_single, low_index_subgroups,
                                 presentation_hash, profile, recompute_entry,
                                 search_program, verify_witness)
from conftest import CountingList, data_text, pres
from oracles import (coset_table_low_index, naive_hom_counts,
                     reference_compile_hom_search, reference_orbit_search,
                     reference_search, reference_subgroup_order)

Z = "gens: a\nrels:\n"
Z2 = "gens: a\nrels: a^2\n"
Z3 = "gens: a\nrels: a^3\n"
F2 = "gens: a, b\nrels:\n"
S3_PRES = "gens: a, b\nrels: a^2; b^3; a*b*a*b\n"
TREFOIL = "gens: a, b\nrels: a*b*a = b*a*b\n"
A4_PRES = "gens: a, b\nrels: a^2; b^3; " + "*".join(["a*b"] * 3) + "\n"
A5_PRES = "gens: a, b\nrels: a^2; b^3; " + "*".join(["a*b"] * 5) + "\n"
# the binary icosahedral group, perfect of order 120
TWO_I = "gens: a, b\nrels: a^2 = b^3; b^3 = a*b*a*b*a*b*a*b*a*b\n"


def random_presentation(rng, max_gens=3, max_rels=4, max_len=6):
    names = ("a", "b", "c", "d")[:rng.randint(1, max_gens)]
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        letters = "*".join("%s^%d" % (rng.choice(names), rng.choice((1, -1)))
                           for _ in range(rng.randint(1, max_len)))
        rels.append(letters)
    text = "gens: %s\nrels: %s\n" % (", ".join(names), "; ".join(rels))
    return parse_presentation(text)


def test_count_homs_hand_checked(catalog):
    c3 = catalog.by_name("C3")
    s3 = catalog.by_name("S3")
    assert count_homs(search_program(pres(Z)), c3) == HomCount(3, 2)
    assert count_homs(search_program(pres(Z)), s3) == HomCount(6, 0)
    # x^2 = e in S3: the identity and the three transpositions
    assert count_homs(search_program(pres(Z2)), s3) == HomCount(4, 0)
    assert count_homs(search_program(pres(F2)), c3) == HomCount(9, 8)
    # no generators at all: only the trivial homomorphism
    empty = search_program(pres("gens:\nrels:\n"))
    assert count_homs(empty, s3) == HomCount(1, 0)
    assert count_homs(empty, catalog.by_name("C2")) == HomCount(1, 0)


def test_count_homs_against_naive_on_randoms(catalog):
    rng = random.Random(99)
    small = [g for g in catalog.groups if g.order <= 12]
    # non-solvable targets, with conjugacy classes of up to 90 elements
    large = [catalog.by_name(name) for name in ("A5", "PSL(2,7)")]
    a6 = catalog.by_name("A6")
    by_gens = {1: [], 2: [], 3: []}
    for _ in range(40):
        p = random_presentation(rng)
        by_gens[len(p.generators)].append(p)
        targets = small + large if len(p.generators) <= 2 else small
        program = search_program(p)
        for g in targets:
            got = count_homs(program, g)
            assert not got.budget_exceeded
            assert (got.total, got.surjective) == naive_hom_counts(p, g), g.name
    # the naive oracle tries all 360^2 image pairs of a 2-generator input in
    # A6, so A6 checks every 1-generator input and the first three others
    for p in by_gens[1] + by_gens[2][:3]:
        assert count_homs(search_program(p), a6) == HomCount(*naive_hom_counts(p, a6))
    # one of those maps onto A6
    assert count_homs(search_program(by_gens[2][1]), a6) == HomCount(29160, 12960)


def test_search_returns_weighted_image_tuples(catalog):
    # F2 into A5: a takes the 5 class representatives r of A5, and b one
    # representative v per orbit of C(r) acting by conjugation.  By Burnside's
    # lemma the orbits number 5 for r = e (the classes), 22 for a 3-cycle
    # (C(r) = C3), 16 for each 5-cycle (C5) and 18 for a double transposition
    # (V4): 77 leaves, each one homomorphism keyed by its images (a, b)
    program = search_program(pres(F2))
    found = quotients._search(program[1], catalog.by_name("A5"), 10 ** 8)
    assert len(found) == 77
    assert all(len(images) == 2 for images in found)
    # the weights count homomorphisms: a == b in 60 of the 3600
    assert sum(found.values()) == 3600
    assert sum(weight for (a, b), weight in found.items() if a == b) == 60


class NodeMeter:
    """A node budget that never runs out and keeps the largest node count
    compared against it: the smallest budget under which the search completes.
    """
    used = 0

    def __lt__(self, nodes):    # the search's test nodes > node_budget
        self.used = max(self.used, nodes)
        return False


def regroup(found, classify):
    """{classify(key): summed weight} of a tally {images: weight}, each image
    tuple keyed by its sorted distinct images, as the reference searches key it."""
    tally = {}
    for images, weight in found.items():
        value = classify(tuple(sorted(set(images))))
        tally[value] = tally.get(value, 0) + weight
    return tally


def metered_search(search):
    """search(node_budget)'s result and the smallest budget under which it completes."""
    meter = NodeMeter()
    tally = search(meter)
    assert search(meter.used) == tally
    if meter.used:
        with pytest.raises(quotients.BudgetExceeded):
            search(meter.used - 1)
    return tally, meter.used


def catalog_classify(g, catalog):
    """The subgroup order of an image set in a catalog group (count_homs reads
    whether it is the group's order), its transitive centraliser in S_k."""
    mul, _, e = g.tables()
    if g in catalog.groups:
        return functools.lru_cache(maxsize=None)(
            lambda key: quotients._subgroup_order(key, mul, e, g.order))
    perms = g.elements()
    return functools.lru_cache(maxsize=None)(
        lambda key: quotients._transitive_centraliser(key, perms))


def compiled(p):
    """The compiled search program of p, before it is lowered to slot form."""
    return quotients.compile_hom_search(_reduce_generators(p))


def corpus_programs():
    config = ProfileConfig()
    return [compiled(tietze_simplify(entry.presentation(), budget=config.simplify_budget))
            for entry in load_corpus().values()]


def test_search_matches_reference_search(catalog):
    # the same tally as the search without C(r)-orbits, and never more nodes,
    # so an entry exact under the old search is never flagged now
    inputs = [pres(F2), pres(TREFOIL), pres(S3_PRES),
              pres("gens: a, b\nrels: a*b*a^-1 = b^2\n")]
    rng = random.Random(30)
    inputs += [random_presentation(rng) for _ in range(25)]
    groups = catalog.groups + [symmetric_group(k) for k in range(2, 7)]
    kinds = set()
    for p in inputs:
        program = compiled(p)
        lowered = quotients._lower(program)
        kinds.add(tuple(kind for kind, _, _, _ in program[1]))
        for g in groups:
            if len(program[1]) > 2 and g.order > 24:
                continue    # the reference walks |g|^2 nodes per root there
            classify = catalog_classify(g, catalog)
            found, used = metered_search(lambda budget: quotients._search(lowered, g, budget))
            ref_tally, ref_used = metered_search(
                lambda budget: reference_search(program, g, classify, budget))
            assert regroup(found, classify) == ref_tally and used <= ref_used, g.name
    # searches with no segment, one assign, two assigns, three, and a branch
    assert {(), ("assign",), ("assign", "assign"), ("assign", "assign", "assign"),
            ("assign", "branch")} <= kinds


def test_slot_search_matches_reference_orbit_search(catalog):
    # the slot form tries the same candidates in the same order as the search
    # that walked relators letter by letter: the same tally, and exactly the
    # same smallest budget under which it completes.  Programs compiled
    # without the generator reduction keep deduces inside their segments, and
    # some open with a head, which the reference runs and the slot form drops.
    inputs = [pres(F2), pres(TREFOIL), pres(S3_PRES),
              pres("gens: a, b\nrels: a*b*a^-1 = b^2\n"),
              # a deduce reading a constant run, inside the second branch
              pres("gens: a, b, c, d\nrels: a*b*a^-1 = b^2; b*c*b^-1*a*c^-1*a; "
                   "c*a*d*b*a*c; d*a*d^-1*b^-1*a*b*c*d*c\n")]
    rng = random.Random(31)
    inputs += [random_presentation(rng, max_gens=4, max_rels=5) for _ in range(30)]
    programs = corpus_programs() + [quotients.compile_hom_search(p) for p in inputs]
    groups = catalog.groups + [symmetric_group(k) for k in range(2, 7)]
    kinds = set()
    for program in programs:
        lowered = quotients._lower(program)
        shape = tuple(kind for kind, _, _, _ in program[1])
        kinds.add(shape)
        if any(op[0] == "deduce" for _, _, _, post in program[1] for op in post):
            kinds.add("deduce in a segment")
        if program[0]:
            kinds.add("head")
        for g in groups:
            if shape.count("assign") > 2 and g.order > 24:
                continue    # |g| candidates per node from the third assign on
            classify = catalog_classify(g, catalog)
            found, used = metered_search(lambda budget: quotients._search(lowered, g, budget))
            assert ((regroup(found, classify), used) == metered_search(
                lambda budget: reference_orbit_search(program, g, classify, budget))), g.name
    assert {(), ("assign",), ("assign", "assign"), ("assign", "assign", "branch"),
            ("assign", "branch", "branch"), "deduce in a segment", "head"} <= kinds


class CountedGroup:
    """group, with every subscript of its multiplication table counted.

    The conjugacy and centraliser orbit tables come from group itself, so
    only the search's own products are counted.
    """

    def __init__(self, group):
        mul, inv, e = group.tables()
        self.mul = CountingList(mul)
        self.order = group.order
        self._tables = (self.mul, inv, e)
        self.conjugacy_solutions = group.conjugacy_solutions
        self.centraliser_orbits = group.centraliser_orbits

    def tables(self):
        return self._tables


def test_slot_search_work_count_on_u2165(catalog):
    # constant runs, evaluated once per parent, and shortest checks first cut
    # the table lookups of the corpus search that dominates the profile
    program = corpus_programs()[list(load_corpus()).index("u2165")]
    lowered = quotients._lower(program)
    for g, pinned in ((symmetric_group(6), 121401), (catalog.by_name("A6"), 44667)):
        counted, reference = CountedGroup(g), CountedGroup(g)
        found = quotients._search(lowered, counted, 10 ** 8)
        assert regroup(found, len) == reference_orbit_search(program, reference, len, 10 ** 8)
        assert counted.mul.reads == pinned, g.name
        assert counted.mul.reads < reference.mul.reads


def test_subgroup_order_stops_at_half_the_group(catalog):
    # past |G|/2 elements the closure is G; every image tuple the corpus
    # searches find gets the order of the full closure
    groups = catalog.groups + [symmetric_group(k) for k in range(2, 7)]
    for program in corpus_programs():
        lowered = quotients._lower(program)
        for g in groups:
            mul, _, e = g.tables()
            for images in quotients._search(lowered, g, 10 ** 8):
                assert (quotients._subgroup_order(images, mul, e, g.order)
                        == reference_subgroup_order(images, mul, e, g.order)), g.name


def test_count_homs_invariant_under_simplification(catalog):
    rng = random.Random(5)
    targets = [catalog.by_name("S3"), catalog.by_name("D4")]
    for _ in range(15):
        p = random_presentation(rng)
        q = tietze_simplify(p)
        p_program, q_program = search_program(p), search_program(q)
        for g in targets:
            assert count_homs(p_program, g) == count_homs(q_program, g)


def test_count_homs_budget_flag(catalog):
    a5 = catalog.by_name("A5")
    f2 = search_program(pres(F2))
    flagged = count_homs(f2, a5, node_budget=1)
    assert flagged == HomCount(0, 0, True)
    ok = count_homs(f2, a5, node_budget=10 ** 8)
    assert not ok.budget_exceeded
    assert ok.total == 3600


def test_count_homs_budget_counts_nodes_over_the_whole_search(catalog):
    # F2 onto A5: 5 class-representative roots, then 5 + 22 + 16 + 16 + 18
    # C(r)-orbit representatives (see the test above), 82 nodes
    a5 = catalog.by_name("A5")
    f2 = search_program(pres(F2))
    exact = count_homs(f2, a5, node_budget=10 ** 8)
    assert count_homs(f2, a5, node_budget=400) == exact
    assert count_homs(f2, a5, node_budget=82) == exact
    assert count_homs(f2, a5, node_budget=81).budget_exceeded


def test_low_index_hand_checked():
    # Z has one subgroup of each index, always normal
    assert low_index_subgroups(search_program(pres(Z)), 6) == {
        k: SubgroupCount(1, 1) for k in range(2, 7)}
    # F2 at index 2: three subgroups, all normal
    assert low_index_single(search_program(pres(F2)), 2) == SubgroupCount(3, 3)
    # C2 has only the trivial subgroup below it
    assert low_index_subgroups(search_program(pres(Z2)), 4) == {
        2: SubgroupCount(1, 1), 3: SubgroupCount(0, 0), 4: SubgroupCount(0, 0)}
    # S3: one A3, one class of three order-2 subgroups, the trivial subgroup
    assert low_index_subgroups(search_program(pres(S3_PRES)), 6) == {
        2: SubgroupCount(1, 1), 3: SubgroupCount(1, 3), 4: SubgroupCount(0, 0),
        5: SubgroupCount(0, 0), 6: SubgroupCount(1, 1)}


def test_low_index_f2_known_table():
    # classes / totals for the free group of rank 2
    expected = {2: (3, 3), 3: (7, 13), 4: (26, 71), 5: (97, 461)}
    got = low_index_subgroups(search_program(pres(F2)), 5)
    assert {k: (sc.classes, sc.total) for k, sc in got.items()} == expected


def test_low_index_budget_flags_every_index():
    # every index of F2 needs more than 3 nodes
    f2 = search_program(pres(F2))
    got = low_index_subgroups(f2, 5, node_budget=3)
    assert all(sc == SubgroupCount(0, 0, True) for sc in got.values())
    single = low_index_single(f2, 4, node_budget=3)
    assert single.budget_exceeded
    # each index has its own budget: Z into S_k tries one root per class of
    # S_k, 2 and 3 for S_2 and S_3, 5, 7 and 11 for S_4..S_6
    got = low_index_subgroups(search_program(pres(Z)), 6, node_budget=3)
    assert got == {2: SubgroupCount(1, 1), 3: SubgroupCount(1, 1),
                   4: SubgroupCount(0, 0, True), 5: SubgroupCount(0, 0, True),
                   6: SubgroupCount(0, 0, True)}


def test_low_index_single_matches_the_shared_result():
    # a low-index witness recheck reproduces the profile entry, flag included
    for text in (Z, Z2, Z3, F2, S3_PRES, TREFOIL, TWO_I):
        program = search_program(pres(text))
        for budget in (1, 3, 10, 100, 1000, 10 ** 8):
            got = low_index_subgroups(program, 5, budget)
            for k in range(2, 6):
                assert low_index_single(program, k, budget) == got[k], (text, budget, k)


def test_low_index_against_coset_tables():
    nonabelian = (S3_PRES, TREFOIL,
                  A4_PRES, A5_PRES,
                  "gens: a, b\nrels: a^2; b^5; a*b*a*b\n")  # D5
    cases = [(pres(Z), 6), (pres(F2), 5)] + [(pres(t), 6) for t in nonabelian]
    rng = random.Random(2024)
    cases += [(random_presentation(rng, max_gens=2), 5) for _ in range(30)]
    for p, kmax in cases:
        got = low_index_subgroups(search_program(p), kmax)
        assert {k: (sc.classes, sc.total) for k, sc in got.items()} \
            == coset_table_low_index(p, kmax), serialize_presentation(p)


def odd_free_product_quotients(rng, count):
    """Random quotients of Z3 * Z3, Z3 * Z5 and Z5 * Z5: H1 is a quotient of
    the odd-order group Z_p + Z_q, so it has no Z/2 (and no Z) factor."""
    inputs = []
    for _ in range(count):
        words = ["*".join("%s^%d" % (rng.choice("ab"), rng.choice((1, -1)))
                          for _ in range(rng.randint(2, 8)))
                 for _ in range(rng.randint(1, 2))]
        inputs.append(pres("gens: a, b\nrels: a^%d; b^%d; %s\n" % (
            rng.choice((3, 5)), rng.choice((3, 5)), "; ".join(words))))
    return inputs


def test_low_index_without_index_2_runs_in_alternating_groups(monkeypatch):
    # no index-2 subgroup: every homomorphism to S_k lands in A_k, so the
    # searches above index 2 run there, with the same counts; S_k is asked
    # for at index 2 alone
    asked = []

    def watched(k):
        asked.append(k)
        return symmetric_group(k)

    monkeypatch.setattr(quotients, "symmetric_group", watched)
    inputs = [pres(t) for t in (Z3, A4_PRES, A5_PRES, TWO_I)]
    inputs += odd_free_product_quotients(random.Random(2025), 25)
    nonzero = 0
    for p in inputs:
        assert all(factor % 2 for factor in first_homology(p))    # 0 stands for Z
        program = search_program(p)
        got = low_index_subgroups(program, 6)
        assert got[2] == SubgroupCount(0, 0), serialize_presentation(p)
        assert {k: (sc.classes, sc.total) for k, sc in got.items()} \
            == coset_table_low_index(p, 6), serialize_presentation(p)
        assert low_index_single(program, 6) == got[6]
        nonzero += any(sc.total for sc in got.values())
    assert set(asked) == {2}
    # the A_k tallies found subgroups, not only zeros
    assert nonzero >= 15
    # a flagged index-2 count decides nothing: under a budget of one node,
    # fewer than S_2's two class roots, Z's index-4 entry is asked of S_4
    # (and flagged there too, at five roots)
    assert quotients._low_index(search_program(pres(Z)), 4, 1) == SubgroupCount(0, 0, True)
    assert asked[-1] == 4


def test_low_index_budget_counts_nodes_in_the_alternating_group():
    # u2165 is perfect, so index 6 searches A6: 3,419 nodes, against 9,957 in S6
    program = search_program(tietze_simplify(load_corpus()["u2165"].presentation(),
                                             budget=ProfileConfig().simplify_budget))
    exact = low_index_single(program, 6)
    assert exact == SubgroupCount(3, 18)
    assert low_index_single(program, 6, node_budget=3419) == exact
    assert low_index_single(program, 6, node_budget=3418).budget_exceeded
    assert low_index_subgroups(program, 6, node_budget=3419)[6] == exact
    assert low_index_subgroups(program, 6, node_budget=3418)[6].budget_exceeded
    with pytest.raises(quotients.BudgetExceeded):
        quotients._search(program[1], symmetric_group(6), 3419)
    # node counts are not monotone under the change: A5 at index 3 takes 10
    # nodes in S3 but 12 in A3, so budgets 10 and 11 now flag the entry
    a5 = search_program(pres(A5_PRES))
    assert quotients._search(a5[1], symmetric_group(3), 10)
    for budget in (10, 11):
        assert low_index_single(a5, 3, budget).budget_exceeded
        assert low_index_subgroups(a5, 3, budget)[3].budget_exceeded
    assert low_index_single(a5, 3, 12) == SubgroupCount(0, 0)


def counted_searches(monkeypatch):
    """The group of every _search call made from now on, in call order."""
    searched = []
    search = quotients._search

    def counting(slots, group, node_budget):
        searched.append(group)
        return search(slots, group, node_budget)

    monkeypatch.setattr(quotients, "_search", counting)
    return searched


def test_one_search_per_element_set(monkeypatch):
    # A6 twice, under two generating sets and so two numberings: one search
    # serves both hom counts
    doubled = parse_catalog(json.dumps({"version": 1, "groups": [
        {"name": "A6", "degree": 6, "order": 360,
         "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]},
        {"name": "A6x", "degree": 6, "order": 360,
         "generators": [[1, 2, 3, 4, 0, 5], [1, 5, 2, 3, 4, 0]]}]}))
    first, second = doubled.groups
    assert first.elements() != second.elements()
    u2165 = load_corpus()["u2165"].presentation()
    program = search_program(tietze_simplify(u2165, budget=ProfileConfig().simplify_budget))
    searched = counted_searches(monkeypatch)
    assert count_homs(program, first) == count_homs(program, second) == HomCount(2881, 1440)
    assert searched == [first]
    # and the index-6 count reads the same tally: u2165 is perfect, so A_6
    assert low_index_single(program, 6) == SubgroupCount(3, 18)
    assert searched == [first, symmetric_group(2)]
    # the bundled catalog: S_2, A_3..A_6 are the catalog's C2, C3, A4, A5 and
    # A6, and so are S_3..S_5 for the trefoil, whose S_6 is the one extra search
    for presentation, searches in ((u2165, 14), (pres(TREFOIL), 15)):
        searched.clear()
        profile(presentation)
        assert len(searched) == searches
        assert len({g._element_set for g in searched}) == searches


def test_low_index_reads_the_catalog_tallies(catalog):
    # the same counts from tallies the catalog hom counts left as from a
    # fresh program and from coset tables, on groups with and without an
    # index-2 subgroup
    rng = random.Random(2026)
    inputs = odd_free_product_quotients(rng, 20)
    inputs += [random_presentation(rng, max_gens=2) for _ in range(12)]
    built = [symmetric_group(k) for k in range(2, 7)] + [alternating_group(k)
                                                         for k in range(3, 7)]
    pairs = [(g, h) for g in catalog.groups for h in built if g._element_set == h._element_set]
    assert {(g.name, h.name) for g, h in pairs} == {
        ("C2", "S2"), ("C3", "A3"), ("S3", "S3"), ("A4", "A4"), ("S4", "S4"),
        ("A5", "A5"), ("S5", "S5"), ("A6", "A6")}
    found = {True: 0, False: 0}     # by whether index 2 has a subgroup
    for p in inputs:
        warm = search_program(p)
        for g in catalog.groups:
            count_homs(warm, g)
        got = low_index_subgroups(warm, 6)
        assert got == low_index_subgroups(search_program(p), 6), serialize_presentation(p)
        assert {k: (sc.classes, sc.total) for k, sc in got.items()} \
            == coset_table_low_index(p, 6), serialize_presentation(p)
        found[got[2].total > 0] += any(got[k].total for k in range(3, 7))
        # the catalog group and the built one, in another numbering, need the
        # same node budget: both complete at it and both raise one node below
        for g, h in pairs:
            _, used = metered_search(lambda budget: quotients._search(warm[1], g, budget))
            assert metered_search(
                lambda budget: quotients._search(warm[1], h, budget))[1] == used, g.name
    # the S_k and the A_k tallies read above index 2 found subgroups
    assert found[True] >= 5 and found[False] >= 10


def brute_transitive_centraliser(gens, k):
    """|C_{S_k}(<gens>)| from all k! permutations, 0 when 0's orbit is not all k points."""
    orbit = {0}
    while (grown := orbit | {g[x] for g in gens for x in orbit}) != orbit:
        orbit = grown
    if len(orbit) < k:
        return 0
    return sum(all(c[g[x]] == g[c[x]] for g in gens for x in range(k))
               for c in itertools.permutations(range(k)))


def test_transitive_centraliser_against_brute_force():
    # every image tuple the searches into S_k find, transitive or not
    rng = random.Random(4242)
    inputs = [pres(F2), pres(TREFOIL), pres(S3_PRES)]
    inputs += [random_presentation(rng, max_gens=2) for _ in range(30)]
    sizes = set()
    for k in range(2, 6):
        group = symmetric_group(k)
        perms = group.elements()
        for p in inputs:
            for images in quotients._search(search_program(p)[1], group, 10 ** 8):
                want = brute_transitive_centraliser([perms[g] for g in images], k)
                assert quotients._transitive_centraliser(images, perms) == want, \
                    (serialize_presentation(p), k, images)
                sizes.add(want)
    # non-transitive tuples, and centralisers from trivial to regular
    assert {0, 1, 2, 3, 4, 5} <= sizes


def test_low_index_rejects_indexes_outside_range():
    z = search_program(pres(Z))
    with pytest.raises(ValueError):
        low_index_subgroups(z, MAX_INDEX + 1)
    for k in (1, MAX_INDEX + 1):
        with pytest.raises(ValueError):
            low_index_single(z, k)


def test_profile_compiles_the_search_once(monkeypatch):
    calls = []
    compile_once = quotients.compile_hom_search

    def counting(presentation):
        calls.append(presentation)
        return compile_once(presentation)

    monkeypatch.setattr(quotients, "compile_hom_search", counting)
    profile(load_corpus()["u1466"].presentation())
    assert len(calls) == 1


def test_profile_and_recheck_compile_before_the_first_search(monkeypatch, catalog):
    # the compile is not charged to whichever search comes first
    events = []

    def logged(name, fn):
        def call(*args):
            events.append(name)
            return fn(*args)
        monkeypatch.setattr(quotients, name, call)

    for name in ("compile_hom_search", "count_homs", "low_index_subgroups",
                 "low_index_single"):
        logged(name, getattr(quotients, name))
    config = ProfileConfig(max_index=3)
    for run in (lambda p: profile(p, config),
                lambda p: recompute_entry(p, {"kind": "hom_count", "group": "A5"},
                                          config, catalog),
                lambda p: recompute_entry(p, {"kind": "low_index", "index": 3},
                                          config, catalog)):
        events.clear()
        run(pres(TREFOIL))
        assert events[0] == "compile_hom_search" and events.count("compile_hom_search") == 1


def test_compile_hom_search_matches_reference_implementation():
    corpus = [p.presentation() for p in load_corpus().values()]
    inputs = [_reduce_generators(p) for p in corpus] + [pres(TREFOIL), pres(S3_PRES)]
    # four seeds cover it, and the greedy cover would choose other ones
    inputs.append(pres("gens: g0, g1, g2, g3, g4, g5, g6\n"
                       "rels: g5*g0*g5^-1 = g1; g0*g4*g0^-1 = g3; g4^-1*g6\n"))
    rng = random.Random(23)
    for _ in range(150):
        names = ["g%d" % i for i in range(rng.randint(1, 9))]
        rels = []
        for _ in range(rng.randint(0, len(names))):
            if rng.random() < 0.3:
                # x*y*x^-1 = z, a conjugation equation once y and z are known
                x, y, z = (rng.choice(names) for _ in range(3))
                rels.append("%s*%s*%s^-1 = %s" % (x, y, x, z))
            else:
                rels.append("*".join("%s^%d" % (rng.choice(names), rng.choice((1, -1)))
                                     for _ in range(rng.randint(1, 6))))
        inputs.append(pres("gens: %s\nrels: %s\n" % (", ".join(names), "; ".join(rels))))
    # forced seeds: generators never alone in a relator nor twice with opposite signs
    inputs.append(involutions(6))
    for _ in range(60):
        names = ["g%d" % i for i in range(rng.randint(2, 9))]
        forced = rng.sample(names, rng.randint(1, min(len(names), 6)))
        free = [g for g in names if g not in forced]
        rels = ["%s^%d" % (f, rng.choice((2, 3, -2))) for f in forced]
        for _ in range(rng.randint(0, len(names))):
            f = rng.choice(forced)
            if free and rng.random() < 0.5:
                rels.append("%s*%s^%d" % (rng.choice(free), f, rng.choice((2, -2))))
            elif free:
                rels.append("*".join("%s^%d" % (rng.choice(free), rng.choice((1, -1)))
                                     for _ in range(rng.randint(1, 4))))
            else:
                rels.append("%s*%s*%s*%s" % (f, rng.choice(forced), f, rng.choice(forced)))
        inputs.append(pres("gens: %s\nrels: %s\n" % (", ".join(names), "; ".join(rels))))
    over_four = 0
    for p in inputs:
        program = quotients.compile_hom_search(p)
        assert program == reference_compile_hom_search(p), serialize_presentation(p)
        over_four += sum(kind == "assign" for kind, _, _, _ in program[1]) > 4
    # the greedy fallback, past every seed set of size up to 4, is covered too
    assert over_four >= 10


def involutions(n):
    names = ["x%d" % i for i in range(n)]
    return pres("gens: %s\nrels: %s\n" % (", ".join(names),
                                            "; ".join(x + "^2" for x in names)))


def test_compile_skips_seed_sets_missing_a_forced_seed(monkeypatch):
    # no x_i can be deduced, so no set of 4 seeds covers 40 free involutions:
    # only the greedy stage runs, 40 + 39 + ... + 1 = 820 schedules
    calls = []
    schedule = quotients._closure_schedule

    def counting(seqs, seeds):
        calls.append(seeds)
        return schedule(seqs, seeds)

    monkeypatch.setattr(quotients, "_closure_schedule", counting)
    assert count_homs(search_program(involutions(40)), symmetric_group(3),
                      node_budget=1000).budget_exceeded
    assert len(calls) <= 820


def test_low_index_invariant_under_simplification():
    rng = random.Random(11)
    for _ in range(10):
        p = random_presentation(rng, max_gens=2, max_rels=2, max_len=4)
        q = tietze_simplify(p)
        assert (low_index_subgroups(search_program(p), 4)
                == low_index_subgroups(search_program(q), 4))


def test_profile_of_z(catalog):
    prof = profile(pres(Z))
    assert prof.homology == (0,)
    for name, hc in prof.hom_counts:
        assert hc.total == catalog.by_name(name).order
        assert not hc.budget_exceeded
    assert dict(prof.low_index) == {k: SubgroupCount(1, 1) for k in range(2, 7)}
    assert not prof.any_budget_exceeded
    doc = json.loads(prof.to_json())
    assert doc["schema_version"] == 1
    assert doc["config"]["max_index"] == 6
    assert doc["presentation"]["generators"] == 1
    assert "presentation" not in json.loads(prof.comparable_json())


def test_profile_json_is_stable(catalog):
    a = profile(pres(Z2)).to_json()
    b = profile(pres(Z2)).to_json()
    assert a == b


def test_presentation_hash_tracks_serialization():
    p = pres(Z2)
    assert presentation_hash(p) == presentation_hash(pres(Z2))
    assert presentation_hash(p) != presentation_hash(pres(Z3))


@pytest.mark.parametrize("field, value", [
    ("max_index", "6"), ("max_index", True), ("max_index", -1),
    ("node_budget", 1.5), ("node_budget", -1),
    ("simplify_budget", None), ("simplify_budget", -1)])
def test_profile_config_rejects_non_int_or_negative_fields(field, value):
    with pytest.raises(ValueError):
        ProfileConfig(**{field: value})


def test_compare_profiles_skips_flagged_entries():
    lp = profile(pres(Z2))
    rp = profile(pres(Z3))
    w = compare_profiles(lp, rp)
    assert w.invariant == "homology"
    assert (w.left, w.right) == ([2], [3])
    # identical profiles compare clean
    assert compare_profiles(lp, profile(pres(Z2))) is None
    # a flagged entry on either side is not a witness
    tiny = ProfileConfig(node_budget=1)
    fl = profile(pres(F2), tiny)
    fr = profile(pres(F2), tiny)
    assert fl.any_budget_exceeded
    assert compare_profiles(fl, fr) is None


def test_distinguish_and_witness_replay():
    left, right = pres(Z2), pres(Z3)
    verdict = distinguish(left, right)
    assert verdict.outcome == "Distinguished"
    assert verdict.witness.invariant == "homology"
    doc = verdict.to_dict()
    ok, message = verify_witness(doc, left, right)
    assert ok, message
    tampered = json.loads(json.dumps(doc))
    tampered["witness"]["left"] = [5]
    ok, message = verify_witness(tampered, left, right)
    assert not ok
    assert "recomputed" in message and "[2]" in message


def test_count_witness_replay():
    # trefoil and Z share H1 = Z; S3 is the first catalog group they tell apart
    left, right = pres(TREFOIL), pres(Z)
    verdict = distinguish(left, right)
    witness = verdict.witness
    assert (witness.invariant, witness.left, witness.right) == (
        "hom_count:S3", {"total": 12, "surjective": 6}, {"total": 6, "surjective": 0})
    doc = verdict.to_dict()
    assert verify_witness(doc, left, right) == (True, "witness hom_count:S3 verified")
    # read back from JSON, the recheck has its keys sorted, group before kind
    stored = json.loads(verdict.to_json())
    assert list(stored["witness"]["recheck"]) == ["group", "kind"]
    assert verify_witness(stored, left, right) == (True, "witness hom_count:S3 verified")
    # a witness labelled with an entry other than the one it rechecks
    stored["witness"]["invariant"] = "hom_count:A5"
    with pytest.raises(ValueError):
        verify_witness(stored, left, right)
    # an entry recorded equal in both profiles replays, but is no witness
    left_values = {tuple(r.values()): c.value() for r, c in verdict.left_profile.entries()}
    right_values = {tuple(r.values()): c.value() for r, c in verdict.right_profile.entries()}
    for recheck in ({"kind": "hom_count", "group": "C2"}, {"kind": "low_index", "index": 2}):
        key = tuple(recheck.values())
        assert left_values[key] == right_values[key]
        equal = dict(doc, witness={"invariant": "%s:%s" % key, "left": left_values[key],
                                   "right": right_values[key], "recheck": recheck})
        assert verify_witness(equal, left, right) == (False, "witness values do not differ")


def test_distinguish_same_input_is_inconclusive():
    verdict = distinguish(pres(Z2), pres(Z2))
    assert verdict.outcome == "Inconclusive"
    assert verdict.witness is None
    assert (verdict.left_profile.comparable_json()
            == verdict.right_profile.comparable_json())


def test_verify_witness_rejects_witnessless_and_bad_catalog():
    verdict = distinguish(pres(Z2), pres(Z2))
    ok, message = verify_witness(verdict.to_dict(), pres(Z2), pres(Z2))
    assert not ok and "no witness" in message
    doc = distinguish(pres(Z2), pres(Z3)).to_dict()
    doc["config"]["catalog"] = ["C2"]
    ok, message = verify_witness(doc, pres(Z2), pres(Z3))
    assert not ok and "catalog" in message


def test_verify_witness_rejects_another_catalog_version():
    # the same groups under another version number are another catalog
    left, right = pres(TREFOIL), pres(Z)
    doc = distinguish(left, right).to_dict()
    assert doc["config"]["catalog_version"] == 1
    raw = json.loads(data_text("catalog.json"))
    raw["version"] = 2
    other = parse_catalog(json.dumps(raw))
    assert other.names == doc["config"]["catalog"]
    assert verify_witness(doc, left, right, other) == (
        False, "catalog does not match the one recorded in the verdict")
    # a verdict that records no version is checked against the names alone
    del doc["config"]["catalog_version"]
    assert verify_witness(doc, left, right, other) == (True, "witness hom_count:S3 verified")


def test_homology_witness_replay_compares_json():
    # H1 = Z records [0]; false equals 0 in Python but not in JSON
    left, right = pres(Z), pres(Z2)
    doc = json.loads(distinguish(left, right).to_json())
    assert doc["witness"]["left"] == [0]
    doc["witness"]["left"] = [False]
    assert verify_witness(doc, left, right) == (
        False, "left value mismatch for homology: recomputed [0], recorded [False]")


def test_count_witness_replay_compares_json():
    left, right = pres(TREFOIL), pres(Z)
    doc = json.loads(distinguish(left, right).to_json())
    doc["witness"]["left"] = {"total": 12.0, "surjective": 6.0}
    ok, message = verify_witness(doc, left, right)
    assert not ok
    assert message.startswith("left value mismatch for hom_count:S3: recomputed")


@pytest.mark.parametrize("version", [True, 1.0])
def test_verify_witness_compares_the_catalog_version_as_json(version):
    # the bundled catalog is version 1, which true and 1.0 only equal in Python
    left, right = pres(TREFOIL), pres(Z)
    doc = json.loads(distinguish(left, right).to_json())
    doc["config"]["catalog_version"] = version
    assert verify_witness(doc, left, right) == (
        False, "catalog does not match the one recorded in the verdict")


def test_verify_witness_rejects_a_budget_flagged_recomputation():
    # at node_budget 2 the hom search on Z into S3 is flagged (3 class roots),
    # while a = e leaves no search at all; a flagged side has no value to match
    doc = {
        "outcome": "Distinguished",
        "config": {"node_budget": 2},
        "witness": {"invariant": "hom_count:S3",
                    "left": {"total": 0, "surjective": 0},
                    "right": {"total": 1, "surjective": 0},
                    "recheck": {"kind": "hom_count", "group": "S3"}},
    }
    ok, message = verify_witness(doc, pres(Z), pres("gens: a\nrels: a\n"))
    assert not ok and "budget" in message


def test_recompute_entry_kinds(catalog):
    config = ProfileConfig()
    p = pres(Z2)
    assert recompute_entry(p, {"kind": "homology"}, config, catalog) == [2]
    got = recompute_entry(p, {"kind": "hom_count", "group": "S3"}, config, catalog)
    assert got == {"total": 4, "surjective": 0}
    got = recompute_entry(p, {"kind": "low_index", "index": 2}, config, catalog)
    assert got == {"classes": 1, "total": 1}


@pytest.mark.parametrize("recheck, message", [
    (["homology"], "witness recheck must be an object"),
    ({"kind": "volume"}, "unknown recheck kind 'volume'"),
    ({"kind": "hom_count", "group": "Q8"}, "recheck group 'Q8' is not in the catalog"),
    ({"kind": "low_index", "index": "2"}, "recheck index '2' is not an integer in 2..6"),
    ({"kind": "low_index", "index": 7}, "recheck index 7 is not an integer in 2..6"),
])
def test_malformed_recheck_error_texts(recheck, message, catalog):
    # the command line prints these as its one-line errors
    config = ProfileConfig(max_index=6)
    with pytest.raises(ValueError) as caught:
        recompute_entry(pres(Z2), recheck, config, catalog)
    assert str(caught.value) == message
    doc = {"outcome": "Distinguished", "config": {"max_index": 6},
           "witness": {"invariant": "homology", "left": [2], "right": [3],
                       "recheck": recheck}}
    with pytest.raises(ValueError) as caught:
        verify_witness(doc, pres(Z2), pres(Z3))
    assert str(caught.value) == message


def test_homology_recheck_reads_the_presentation_as_given(monkeypatch, catalog):
    # H1 is a group invariant, so its replay does not simplify first; the
    # recheck is still validated before any work
    doc = distinguish(pres(Z2), pres(Z3)).to_dict()

    def fail(*args, **kwargs):
        raise AssertionError("a homology recheck simplified its input")

    monkeypatch.setattr(quotients, "tietze_simplify", fail)
    config = ProfileConfig()
    p = pres("gens: a, b\nrels: a^6; b = a^2\n")
    assert recompute_entry(p, {"kind": "homology"}, config, catalog) == [6]
    with pytest.raises(ValueError):
        recompute_entry(p, {"kind": "volume"}, config, catalog)
    assert verify_witness(doc, pres(Z2), pres(Z3)) == (True, "witness homology verified")


def test_count_validation():
    with pytest.raises(ValueError):
        HomCount(1, 2)
    with pytest.raises(ValueError):
        SubgroupCount(2, 1)
    # flagged counts are exempt from the range check
    HomCount(0, 0, True)
