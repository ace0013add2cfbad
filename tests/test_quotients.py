import builtins
import functools
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import math
import random
import re
import subprocess
import sys
import tokenize
import weakref
from pathlib import Path

import pytest

from linkgroup import quotients
from linkgroup.corpus import load_corpus
from linkgroup.homology import first_homology
from linkgroup.permgroups import (FiniteGroup, parse_catalog,
                                  symmetric_group)
from linkgroup.presentations import (GroupPresentation, Relator, _reduce_generators,
                                     parse_presentation,
                                     serialize_presentation, tietze_simplify)
from linkgroup.quotients import (MAX_INDEX, HomCount, ProfileConfig, SubgroupCount,
                                 compare_profiles, count_homs, distinguish,
                                 low_index_single, low_index_subgroups,
                                 presentation_hash, profile, search_program,
                                 verify_witness)
from linkgroup.words import Word
from conftest import CountingList, data_text, pres
from oracles import (comparable_json, coset_table_low_index, derived_series,
                     naive_hom_counts, recompute_entry, reference_compile_hom_search,
                     reference_orbit_search, reference_search, reference_subgroup_order)

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
    found = quotients._search(program[0], catalog.by_name("A5"), 10 ** 8)
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


def generated(program):
    """The search function that _search runs for a compiled search program."""
    return quotients._compile_search(quotients._lower(program))


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
        search = generated(program)
        kinds.add(tuple(kind for kind, _, _, _ in program[1]))
        for g in groups:
            if len(program[1]) > 2 and g.order > 24:
                continue    # the reference walks |g|^2 nodes per root there
            classify = catalog_classify(g, catalog)
            found, used = metered_search(lambda budget: quotients._search(search, g, budget))
            ref_tally, ref_used = metered_search(
                lambda budget: reference_search(program, g, classify, budget))
            assert regroup(found, classify) == ref_tally and used <= ref_used, g.name
    # searches with no segment, one assign, two assigns, three, and a branch
    assert {(), ("assign",), ("assign", "assign"), ("assign", "assign", "assign"),
            ("assign", "branch")} <= kinds


def unreduced_programs():
    """Search programs compiled without the generator reduction: they keep
    deduces inside their segments, and some open with a head."""
    inputs = [pres(F2), pres(TREFOIL), pres(S3_PRES),
              pres("gens: a, b\nrels: a*b*a^-1 = b^2\n"),
              # a deduce reading a constant run, inside the second branch
              pres("gens: a, b, c, d\nrels: a*b*a^-1 = b^2; b*c*b^-1*a*c^-1*a; "
                   "c*a*d*b*a*c; d*a*d^-1*b^-1*a*b*c*d*c\n")]
    rng = random.Random(31)
    inputs += [random_presentation(rng, max_gens=4, max_rels=5) for _ in range(30)]
    return [quotients.compile_hom_search(p) for p in inputs]


def test_slot_search_matches_reference_orbit_search(catalog):
    # the slot form tries the same candidates in the same order as the search
    # that walked relators letter by letter: the same tally, and exactly the
    # same smallest budget under which it completes.  Programs compiled
    # without the generator reduction keep deduces inside their segments, and
    # some open with a head, which the reference runs and the slot form drops.
    programs = corpus_programs() + unreduced_programs()
    groups = catalog.groups + [symmetric_group(k) for k in range(2, 7)]
    kinds = set()
    for program in programs:
        search = generated(program)
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
            found, used = metered_search(lambda budget: quotients._search(search, g, budget))
            assert ((regroup(found, classify), used) == metered_search(
                lambda budget: reference_orbit_search(program, g, classify, budget))), g.name
    assert {(), ("assign",), ("assign", "assign"), ("assign", "assign", "branch"),
            ("assign", "branch", "branch"), "deduce in a segment", "head"} <= kinds


def test_lowered_words_name_only_slots_the_search_writes():
    # a lowered word names the image or inverse slot of a generator that a
    # segment assigns or deduces, or a run slot, numbered from 2n; the head
    # deduces the identity, so the letters of its generators are dropped
    dropped = 0
    for program in unreduced_programs():
        head, segments, n = program
        trivial = {op[1] for op in head if op[0] == "deduce"}
        written = set()
        for _, g, data, post in segments:
            for h in [g] + [op[1] for op in post if op[0] == "deduce"]:
                written.update((2 * h, 2 * h + 1))
            seqs = list(data[:3] if data else ()) + [
                seq for op in post for seq in (op[2:4] if op[0] == "deduce" else op[1:])]
            dropped += any(h in trivial for seq in seqs for h, _ in seq)
        lowered, _ = quotients._lower(program)
        runs = [run for *_, slot_runs in lowered for run, _ in slot_runs]
        assert runs == list(range(2 * n, 2 * n + len(runs)))
        for _, slot, branch, ops, slot_runs in lowered:
            assert {slot, slot + 1} <= written
            for word in (branch[:2] if branch else ()) + tuple(op[-1] for op in slot_runs + ops):
                assert written.union(runs).issuperset(word), (program, word)
    # some segment reads a generator that the head deduces
    assert dropped


class CountedGroup:
    """group, with every subscript of its multiplication table counted: a
    subscript of a row is one product, one of the table a row fetched.

    The conjugacy and centraliser orbit tables come from group itself, so
    only the search's own products are counted.
    """

    def __init__(self, group):
        mul, inv, e = group.tables()
        self.mul = CountingList(CountingList(row) for row in mul)
        self.order = group.order
        self._tables = (self.mul, inv, e)
        self.conjugacy_solutions = group.conjugacy_solutions
        self.centraliser_orbits = group.centraliser_orbits

    def tables(self):
        return self._tables

    def products(self):
        return sum(row.reads for row in self.mul)


def test_slot_search_work_count_on_u2165(catalog):
    # constant runs, evaluated once per parent, and shortest checks first cut
    # the table lookups of the corpus search that dominates the profile; each
    # row that a word reads before its last letter is fetched once per write
    program = corpus_programs()[list(load_corpus()).index("u2165")]
    search = generated(program)
    for g, products, rows in ((symmetric_group(6), 121401, 20411),
                              (catalog.by_name("A6"), 44667, 7211)):
        counted, reference = CountedGroup(g), CountedGroup(g)
        found = quotients._search(search, counted, 10 ** 8)
        assert regroup(found, len) == reference_orbit_search(program, reference, len, 10 ** 8)
        assert (counted.products(), counted.mul.reads) == (products, rows), g.name
        assert counted.products() < reference.products()


def test_a_loop_charges_its_candidates_before_the_first_product(catalog):
    # the trefoil into A5 opens with a loop over the 5 conjugacy classes:
    # under a budget of 4 the search raises before it fetches a row or
    # multiplies; under 5 the first root fetches its two rows, and its orbit
    # loop, over the 5 classes again, raises before its first product
    search = generated(compiled(pres(TREFOIL)))
    for budget, rows in ((4, 0), (5, 2)):
        counted = CountedGroup(catalog.by_name("A5"))
        with pytest.raises(quotients.BudgetExceeded):
            quotients._search(search, counted, budget)
        assert (counted.products(), counted.mul.reads) == (0, rows), budget


def test_search_matches_reference_orbit_search_on_random_presentations(catalog):
    # seeded random presentations into groups of orders 2 to 360, catalog
    # numberings and S_k/A_k ones: the same tally, and exactly the same
    # smallest budget under which it completes, as the letter-by-letter search
    groups = [catalog.by_name(name) for name in ("C2", "S3", "A4", "A5", "A6")]
    groups += [symmetric_group(4), symmetric_group(5).derived_subgroup]
    rng = random.Random(27)
    shapes = set()
    for _ in range(40):
        program = compiled(random_presentation(rng, max_rels=3))
        search = generated(program)
        shape = tuple(kind for kind, _, _, _ in program[1])
        shapes.add(shape)
        for g in groups:
            if shape.count("assign") > 2 and g.order > 24:
                continue    # |g| candidates per node from the third assign on
            classify = catalog_classify(g, catalog)
            found, used = metered_search(lambda budget: quotients._search(search, g, budget))
            assert ((regroup(found, classify), used) == metered_search(
                lambda budget: reference_orbit_search(program, g, classify, budget))), g.name
    assert {(), ("assign",), ("assign", "assign"), ("assign", "branch")} <= shapes


def test_subgroup_order_stops_at_half_the_group(catalog):
    # past |G|/2 elements the closure is G; every image tuple the corpus
    # searches find gets the order of the full closure
    groups = catalog.groups + [symmetric_group(k) for k in range(2, 7)]
    for program in corpus_programs():
        search = generated(program)
        for g in groups:
            mul, _, e = g.tables()
            for images in quotients._search(search, g, 10 ** 8):
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


def z2_z3_quotients(rng, count):
    """Random quotients of Z2 * Z3 by one more relator: H1 is a quotient of
    Z/6, so it is 0, Z/2, Z/3 or Z/6 as the relator's exponent sums give."""
    inputs = []
    for _ in range(count):
        word = "*".join("%s^%d" % (rng.choice("ab"), rng.choice((1, -1)))
                        for _ in range(rng.randint(3, 9)))
        inputs.append(pres("gens: a, b\nrels: a^2; b^3; %s\n" % word))
    return inputs


def test_derived_terms_against_naive_counts_and_coset_tables(catalog):
    # H1 trivial, of odd order, of even order or infinite: every hom count
    # and low-index count is the brute-force one, whichever derived term of
    # the target its search ran in
    rng = random.Random(31)
    inputs = [pres(t) for t in (A5_PRES, TWO_I, Z3, A4_PRES, Z2, S3_PRES, Z, TREFOIL)]
    inputs += odd_free_product_quotients(rng, 6) + z2_z3_quotients(rng, 12)
    inputs += [random_presentation(rng, max_gens=2) for _ in range(6)]
    kinds = {}
    descended = 0
    for p in inputs:
        homology = first_homology(p)
        kind = ("infinite" if 0 in homology else "trivial" if not homology
                else "odd" if math.prod(homology) % 2 else "even")
        kinds[kind] = kinds.get(kind, 0) + 1
        program = search_program(p)
        for g in catalog.groups:
            assert count_homs(program, g) == HomCount(*naive_hom_counts(p, g)), \
                (serialize_presentation(p), g.name)
            descended += quotients._tally(program, g, 10 ** 8)[0].order < g.order
        got = low_index_subgroups(program, 5)
        assert {k: (sc.classes, sc.total) for k, sc in got.items()} \
            == coset_table_low_index(p, 5), serialize_presentation(p)
    assert sorted(kinds) == ["even", "infinite", "odd", "trivial"]
    assert min(kinds.values()) >= 4 and descended >= 100


def test_low_index_without_index_2_runs_in_alternating_groups(monkeypatch):
    # H1 finite of odd order: every homomorphism to S_k lands in A_k, and
    # from there in the deepest derived term whose quotients have orders
    # prime to |H1|: the trivial group at index 2, A_3 or 1 at index 3 and
    # A_4 or 1 at index 4 (as 3 divides |H1| or not), A_5 and A_6 above;
    # S_k itself is never searched, and the counts are the coset tables'
    searched = counted_searches(monkeypatch)
    inputs = [pres(t) for t in (Z3, A4_PRES, A5_PRES, TWO_I)]
    inputs += odd_free_product_quotients(random.Random(2025), 25)
    nonzero = 0
    for p in inputs:
        homology = first_homology(p)
        assert all(factor % 2 for factor in homology)    # 0 stands for Z
        threes = any(factor % 3 == 0 for factor in homology)
        program = search_program(p)
        searched.clear()
        got = low_index_subgroups(program, 6)
        assert [(g.degree, g.order) for g in searched] == [
            (2, 1), (3, 3 if threes else 1), (4, 12 if threes else 1), (5, 60), (6, 360)], \
            serialize_presentation(p)
        assert all(g._element_set <= symmetric_group(g.degree)._element_set
                   and g.order < symmetric_group(g.degree).order for g in searched)
        assert got[2] == SubgroupCount(0, 0), serialize_presentation(p)
        assert {k: (sc.classes, sc.total) for k, sc in got.items()} \
            == coset_table_low_index(p, 6), serialize_presentation(p)
        assert low_index_single(program, 6) == got[6]
        nonzero += any(sc.total for sc in got.values())
    # the derived-term tallies found subgroups, not only zeros
    assert nonzero >= 15
    # an infinite or even H1 keeps a search in S_k: Z's index-4 entry and
    # Z/2's index-3 entry are searched there, Z's flagged at five roots
    for text, k, budget in ((Z, 4, 1), (Z2, 3, 10 ** 8)):
        searched.clear()
        low_index_single(search_program(pres(text)), k, budget)
        assert searched == [symmetric_group(k)], text
    assert low_index_single(search_program(pres(Z)), 4, 1) == SubgroupCount(0, 0, True)


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
        quotients._search(program[0], symmetric_group(6), 3419)
    # node counts are not monotone under a change of the searched group: A5
    # at index 3 takes 10 nodes in S3 and 12 in A3, and is searched in S3's
    # trivial term, in 2, so budgets 0 and 1 flag the entry and 2 to 11 do not
    a5 = search_program(pres(A5_PRES))
    s3, a3, trivial = derived_series(symmetric_group(3))
    assert trivial.order == 1
    for group, nodes in ((s3, 10), (a3, 12), (trivial, 2)):
        assert quotients._search(a5[0], group, nodes)
        with pytest.raises(quotients.BudgetExceeded):
            quotients._search(a5[0], group, nodes - 1)
    for budget in (0, 1):
        assert low_index_single(a5, 3, budget).budget_exceeded
        assert low_index_subgroups(a5, 3, budget)[3].budget_exceeded
    for budget in (2, 10, 11):
        assert low_index_single(a5, 3, budget) == SubgroupCount(0, 0)
        assert low_index_subgroups(a5, 3, budget)[3] == SubgroupCount(0, 0)


def counted_searches(monkeypatch):
    """The group of every _search call made from now on, in call order."""
    searched = []
    search = quotients._search

    def counting(compiled_search, group, node_budget):
        searched.append(group)
        return search(compiled_search, group, node_budget)

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
    # and the index-6 count reads the same tally: u2165 is perfect, so S_6's
    # derived subgroup A_6, with no search at index 2 either
    assert low_index_single(program, 6) == SubgroupCount(3, 18)
    assert searched == [first]
    # the bundled catalog: u2165 searches the trivial group on 2..6 points in
    # place of the nine solvable targets, S5 reads the tally of its derived
    # subgroup, the catalog's A5, and each S_k's term is one of those; the
    # trefoil, with H1 = Z, searches every target, and S_2..S_5 are the
    # catalog's C2, S3, S4 and S5, so its S_6 is the one extra search
    for presentation, orders in (
            (u2165, [1, 1, 1, 1, 1, 60, 168, 360, 120]),
            (pres(TREFOIL), [2, 3, 4, 5, 6, 6, 8, 12, 60, 24, 120, 168, 360, 120, 720])):
        searched.clear()
        profile(presentation)
        assert [g.order for g in searched] == orders
        assert len({g._element_set for g in searched}) == len(orders)


def test_low_index_reads_the_catalog_tallies(catalog):
    # the same counts from tallies the catalog hom counts left as from a
    # fresh program and from coset tables, on groups with and without an
    # index-2 subgroup
    rng = random.Random(2026)
    inputs = odd_free_product_quotients(rng, 20)
    inputs += [random_presentation(rng, max_gens=2) for _ in range(12)]
    built = [symmetric_group(k) for k in range(2, 7)]
    built += [symmetric_group(k).derived_subgroup for k in range(3, 7)]
    pairs = [(g, h) for g in catalog.groups for h in built if g._element_set == h._element_set]
    assert {(g.name, h.name) for g, h in pairs} == {
        ("C2", "S2"), ("C3", "S3'"), ("S3", "S3"), ("A4", "S4'"), ("S4", "S4"),
        ("A5", "S5'"), ("S5", "S5"), ("A6", "S6'")}
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
            _, used = metered_search(lambda budget: quotients._search(warm[0], g, budget))
            assert metered_search(
                lambda budget: quotients._search(warm[0], h, budget))[1] == used, g.name
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
            for images in quotients._search(search_program(p)[0], group, 10 ** 8):
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


def test_profile_calls_no_builtin_compile(monkeypatch):
    # the search's source text goes to exec as it is: the builtin compile()
    # sets up the ast node types on its first call in a process
    expected = [profile(pres(text)).to_json() for text in (TREFOIL, Z3)]

    def refused(*args, **kwargs):
        raise AssertionError("builtin compile() called")

    # undone before pytest reports a failure, which compiles its assertion
    with monkeypatch.context() as patched:
        patched.setattr(builtins, "compile", refused)
        found = [profile(pres(text)).to_json() for text in (TREFOIL, Z3)]
    assert found == expected


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


# 60 copies of a*b^-1*a^-1*b^2: one 300-letter relator, holding in A5
LONG_RELATOR = "gens: a, b\nrels: %s\n" % "*".join(["a*b^-1*a^-1*b^2"] * 60)


def test_generated_search_past_the_nesting_limit(catalog):
    # 20 and 40 segment loops, more than one generated function holds, give
    # the same tally and exactly the same smallest completing budget as the
    # search that walked relators letter by letter
    c1 = FiniteGroup("C1", 1, [(0,)])
    c2 = catalog.by_name("C2")
    for n in (20, 40):
        program = compiled(involutions(n))
        assert len(program[1]) == n
        search = generated(program)

        def reference(group, budget):
            return reference_orbit_search(program, group, len, budget)

        # into C1 each loop has one candidate: n nodes and one leaf
        found, used = metered_search(lambda budget: quotients._search(search, c1, budget))
        assert (regroup(found, len), used) == metered_search(
            lambda budget: reference(c1, budget)) == ({1: 1}, n)
        # into C2 the search has 2^(n + 1) - 2 nodes: each run stops at its budget
        for budget in (1, 2, 15, 16, 17, 33, n, 1000):
            for run in (lambda: quotients._search(search, c2, budget),
                        lambda: reference(c2, budget)):
                with pytest.raises(quotients.BudgetExceeded):
                    run()
        # x^2 = x^3 = e leaves x = e alone: into C2 each loop tries two
        # candidates and one passes, so every generated function is entered
        # again, and returns its node count, once per parent
        names = ["x%d" % i for i in range(n)]
        program = compiled(pres("gens: %s\nrels: %s\n" % (
            ", ".join(names), "; ".join("%s^2; %s^3" % (x, x) for x in names))))
        assert len(program[1]) == n
        search = generated(program)
        found, used = metered_search(lambda budget: quotients._search(search, c2, budget))
        assert (regroup(found, len), used) == metered_search(
            lambda budget: reference(c2, budget)) == ({1: 1}, 2 * n)


def test_generated_search_with_a_head_past_the_nesting_limit(catalog):
    # the x^2; x^3 program with a generator y that the head deduces and every
    # segment's checks read: its letters are dropped, and its leaf image is
    # e, across two generated functions
    c2 = catalog.by_name("C2")
    n = 20
    names = ["x%d" % i for i in range(n)]
    program = quotients.compile_hom_search(pres("gens: %s, y\nrels: y; %s\n" % (
        ", ".join(names), "; ".join("%s^2*y; %s^3*y" % (x, x) for x in names))))
    assert program[0] == (("deduce", n, (), (), 1),)
    assert len(program[1]) == n > quotients._LOOPS_PER_FUNCTION
    search = generated(program)
    found, used = metered_search(lambda budget: quotients._search(search, c2, budget))
    assert found == {(0,) * (n + 1): 1}
    assert (regroup(found, len), used) == metered_search(
        lambda budget: reference_orbit_search(program, c2, len, budget)) == ({1: 1}, 2 * n)


def test_head_deduces_past_the_elimination_cap(catalog):
    # a one-letter relator always shrinks the presentation when eliminated,
    # so only _reduce_generators' cap of 1000 eliminations leaves 3 of these
    # 1003 generators, each deduced by the program's head with no segment
    names = ["x%d" % i for i in range(1003)]
    raw = pres("gens: %s\nrels: %s\n" % (", ".join(names), "; ".join(names)))
    reduced = _reduce_generators(raw)
    assert (len(reduced.generators), len(reduced.relators)) == (3, 3)
    assert quotients.compile_hom_search(reduced) == (
        tuple(("deduce", g, (), (), 1) for g in range(3)), (), 3)
    # the trivial group's profile
    found = profile(raw, ProfileConfig(simplify_budget=0))
    assert found.homology == ()
    assert found.hom_counts == tuple((name, HomCount(1, 0)) for name in catalog.names)
    assert found.low_index == tuple((k, SubgroupCount(0, 0)) for k in range(2, 7))


# one product of a generated word: a subscript of a row mN = mul[sN]
ROW_SUBSCRIPT = re.compile(r"\bm\d+\[")


def test_generated_search_of_a_long_relator(catalog):
    # a is assigned after b, so each b*b is one run slot and the check
    # reads 240 slots: as one expression it nests 239 brackets, past
    # CPython's 200, so it is written as statements of at most 32 letters
    program = compiled(pres(LONG_RELATOR))
    search = generated(program)
    source = quotients._emit(quotients._lower(program))
    assert len(ROW_SUBSCRIPT.findall(source)) == 239 + 1
    assert max(len(ROW_SUBSCRIPT.findall(line)) for line in source.splitlines()) \
        <= quotients._LETTERS_PER_STATEMENT
    for g in (catalog.by_name("S3"), catalog.by_name("A5"), symmetric_group(4)):
        classify = catalog_classify(g, catalog)
        found, used = metered_search(lambda budget: quotients._search(search, g, budget))
        assert (regroup(found, classify), used) == metered_search(
            lambda budget: reference_orbit_search(program, g, classify, budget)), g.name
    program = search_program(pres(LONG_RELATOR))
    assert count_homs(program, catalog.by_name("A5")) == HomCount(3600, 2280)
    assert low_index_subgroups(program, 3) == {2: SubgroupCount(3, 3),
                                               3: SubgroupCount(7, 13)}


def renamed(presentation, names):
    """presentation with generator g renamed names[g], built without the
    name check, which rejects a leading underscore."""
    def word(w):
        return Word._of(tuple((names.get(g, g), e) for g, e in w.letters))
    out = object.__new__(GroupPresentation)
    object.__setattr__(out, "generators", tuple(names.get(g, g) for g in presentation.generators))
    object.__setattr__(out, "relators", tuple(Relator(word(r.lhs), word(r.rhs))
                                              for r in presentation.relators))
    return out


def test_generated_search_ignores_generator_names():
    # the generated source holds no name from the input, so generators
    # named like its own locals, or like a builtin, change nothing
    original = load_corpus()["u2165"].presentation()
    hostile = ("mul", "inv", "e", "found", "nodes", "budget", "s0", "__import__")
    names = dict(zip(original.generators, hostile))
    assert len(names) == len(hostile)
    assert (comparable_json(profile(renamed(original, names)))
            == comparable_json(profile(original)))


# every token the emitter writes: its own names, slot, row, run, weight and part
# numbers, digits, operators and layout
EMITTED_NAME = re.compile(r"(s|m|r|w|part)\d+|mul|inv|e|order|solutions|orbits|budget|found|"
                          r"nodes|weight|solve|q|x|c|BudgetExceeded|range|len|"
                          r"def|for|in|if|raise|continue|return")
EMITTED_OP = {"(", ")", "[", "]", ",", ":", "=", "+=", "*", "!=", ">", "<"}


def test_emitted_source_holds_fixed_tokens_only():
    presentations = [entry.presentation() for entry in load_corpus().values()]
    presentations += [pres(t) for t in (Z, F2, TREFOIL, "gens: a, b\nrels: a*b*a^-1 = b^2\n",
                                         LONG_RELATOR)] + [involutions(20)]
    for p in presentations:
        source = quotients._emit(quotients._lower(compiled(p)))
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            kind, text = tokenize.tok_name[token.type], token.string
            assert (kind in ("NEWLINE", "NL", "INDENT", "DEDENT", "ENDMARKER")
                    or kind == "NAME" and EMITTED_NAME.fullmatch(text)
                    or kind == "NUMBER" and text.isdigit()
                    or kind == "OP" and text in EMITTED_OP), (kind, text)


def test_compiled_search_dies_with_its_program(catalog):
    # the generated functions sit in no reference cycle: with the cycle
    # collector off, they go when the program does, and compiling and
    # searching leave no cyclic garbage behind
    gc.collect()
    gc.disable()
    try:
        for p, parts in ((load_corpus()["u2165"].presentation(), 1), (involutions(20), 2)):
            program = search_program(p)
            count_homs(program, catalog.by_name("C2"), node_budget=100)
            # each generated function reaches the next as its last default
            chain = [program[0]]
            while chain[-1].__defaults__:
                chain.append(chain[-1].__defaults__[-1])
            assert len(chain) == parts
            functions = [weakref.ref(f) for f in chain]
            del program, chain
            assert [f() for f in functions] == [None] * parts
            assert gc.collect() == 0
    finally:
        gc.enable()


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
    assert "presentation" not in json.loads(comparable_json(prof))


def test_profile_json_is_stable(catalog):
    a = profile(pres(Z2)).to_json()
    b = profile(pres(Z2)).to_json()
    assert a == b


def test_presentation_hash_tracks_serialization(corpus):
    p = pres(Z2)
    assert presentation_hash(p) == presentation_hash(pres(Z2))
    assert presentation_hash(p) != presentation_hash(pres(Z3))
    # CPython's own SHA-256 gives hashlib's digest of the native serialization
    raw = [entry.presentation() for entry in corpus.values()] + [pres(TREFOIL)]
    rng = random.Random(41)
    inputs = (raw + [tietze_simplify(q) for q in raw]
              + [random_presentation(rng, max_gens=4, max_rels=5) for _ in range(30)])
    for q in inputs:
        text = serialize_presentation(q)
        assert presentation_hash(q) == hashlib.sha256(text.encode()).hexdigest(), text


# Run in a fresh interpreter: the test process may hold hashlib already.
NO_OPENSSL_SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from linkgroup.presentations import parse_presentation
from linkgroup.quotients import distinguish, profile, verify_witness
with open(os.path.join(sys.argv[1], "linkgroup", "data", "trefoil.pres"), encoding="utf-8") as f:
    trefoil = parse_presentation(f.read())
z = parse_presentation("gens: a\\n")
profile(trefoil)
verdict = json.loads(distinguish(trefoil, z).to_json())
print(json.dumps([verify_witness(verdict, trefoil, z), "_hashlib" in sys.modules]))
"""


def test_profile_distinguish_and_replay_do_not_load_openssl():
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("interpreter built without CPython's own SHA-256 module")
    src = str(Path(quotients.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-I", "-c", NO_OPENSSL_SCRIPT, src],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    replay, openssl_loaded = json.loads(run.stdout)
    assert replay == [True, "witness hom_count:S3 verified"]
    assert not openssl_loaded


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
    assert (comparable_json(verdict.left_profile)
            == comparable_json(verdict.right_profile))


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


def test_count_families_agree_across_sections_entries_and_rechecks(catalog):
    # each family is one row of quotients._FAMILIES, which the JSON sections,
    # the entries, the witness labels and the replays all read
    c2 = parse_catalog(json.dumps({"version": 1, "groups": [
        {"name": "C2", "degree": 2, "order": 2, "generators": [[1, 0]]}]}))
    for cat, max_index in ((catalog, 4), (c2, 3)):
        config = ProfileConfig(max_index=max_index)
        indices = range(2, max_index + 1)
        for text in (TREFOIL, Z2, S3_PRES):
            p = pres(text)
            prof = profile(p, config, cat)
            d = prof.to_dict()
            entries = list(prof.entries())
            assert [recheck for recheck, _ in entries] == (
                [{"kind": "hom_count", "group": name} for name in cat.names]
                + [{"kind": "low_index", "index": k} for k in indices])
            assert list(d["hom_counts"]) == cat.names
            assert list(d["low_index"]) == [str(k) for k in indices]
            for recheck, count in entries:
                label, recompute = quotients._recheck(recheck, config, cat)
                assert label == "%s:%s" % tuple(recheck.values())
                if not count.budget_exceeded:
                    assert recompute(p) == count.value(), (text, label)


def test_witness_labels_are_the_labels_their_rechecks_name(catalog):
    # each entry changed on its own, homology included, makes compare_profiles
    # write a witness on it, whose label is the one _recheck gives its recheck
    c2 = parse_catalog(json.dumps({"version": 1, "groups": [
        {"name": "C2", "degree": 2, "order": 2, "generators": [[1, 0]]}]}))
    for cat, max_index in ((catalog, 4), (c2, 3)):
        config = ProfileConfig(max_index=max_index)
        for text in (TREFOIL, Z2, S3_PRES):
            left = profile(pres(text), config, cat)
            fields = left._asdict()
            changed = [dict(fields, homology=fields["homology"] + (7,))]
            for field, *_ in quotients._FAMILIES:
                for i, (key, count) in enumerate(fields[field]):
                    other = HomCount(count.total + 1, 0) if field == "hom_counts" \
                        else SubgroupCount(0, count.total + 1)
                    entries = list(fields[field])
                    entries[i] = (key, other)
                    changed.append(dict(fields, **{field: tuple(entries)}))
            kinds = set()
            for right in changed:
                witness = compare_profiles(left, quotients.InvariantProfile(**right))
                label, _ = quotients._recheck(witness.recheck, config, cat)
                assert witness.invariant == label, (text, witness.recheck)
                kinds.add(witness.recheck["kind"])
            assert len(changed) == 1 + len(cat.names) + max_index - 1
            assert kinds == {"homology", "hom_count", "low_index"}


@pytest.mark.parametrize("recheck, message", [
    (["homology"], "witness recheck must be an object"),
    ({"kind": "volume"}, "unknown recheck kind 'volume'"),
    ({"kind": "hom_count", "group": "Q8"}, "recheck group 'Q8' is not in the catalog"),
    ({"kind": "low_index", "index": "2"}, "recheck index '2' is not an integer in 2..6"),
    ({"kind": "low_index", "index": 7}, "recheck index 7 is not an integer in 2..6"),
    # a key's type is checked before its range: 2.0 and True are in range(2, 7)
    ({"kind": "low_index", "index": True}, "recheck index True is not an integer in 2..6"),
    ({"kind": "low_index", "index": 2.0}, "recheck index 2.0 is not an integer in 2..6"),
    ({"kind": "low_index"}, "recheck index None is not an integer in 2..6"),
    ({"kind": "low_index", "index": [2]}, "recheck index [2] is not an integer in 2..6"),
    ({"kind": "hom_count", "group": 5}, "recheck group 5 is not in the catalog"),
    ({"kind": "hom_count"}, "recheck group None is not in the catalog"),
    ({"kind": "hom_count", "group": ["A5"]}, "recheck group ['A5'] is not in the catalog"),
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
