"""Acceptance suite: ten criteria, one verdict line printed per criterion.

Run with -s (or read the captured stdout of a failure) to see the lines.
Timed criteria print their elapsed time next to the bound they must meet.
"""

import json
import random
import time

from linkgroup import cli
from linkgroup.corpus import load_corpus
from linkgroup.gems import FourGraph, gem_report
from linkgroup.homology import IntegerMatrix, first_homology, smith_normal_form
from linkgroup.permgroups import load_catalog
from linkgroup.presentations import (fundamental_group, parse_presentation,
                                     serialize_presentation, tietze_simplify)
from linkgroup.quotients import (ProfileConfig, count_homs, distinguish,
                                 low_index_subgroups, profile, search_program,
                                 verify_witness)
from conftest import CORPUS_KEYS, data_path, data_text
from oracles import comparable_json, minor_gcd_invariant_factors, naive_hom_counts

# criterion 7's report bytes, reused by criterion 10
_shared = {}


def announce(number, ok, detail):
    print("criterion %02d %s: %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def corpus_presentations():
    return {key: parse_presentation(data_text(key + ".pres"))
            for key in CORPUS_KEYS}


def run_corpus_report(tmp_path, name):
    out = tmp_path / name
    started = time.perf_counter()
    code = cli.main(["corpus", "--report", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0
    return out.read_bytes(), elapsed


def check_against_pins(pinned, homology, hom_counts, low_index):
    """homology list, {name: HomCount}, {index: SubgroupCount} vs one pin block."""
    assert list(homology) == pinned["homology"]
    assert sorted(hom_counts) == sorted(pinned["hom_counts"])
    for name, hc in hom_counts.items():
        assert not hc.budget_exceeded, name
        assert [hc.total, hc.surjective] == pinned["hom_counts"][name], name
    assert sorted(str(k) for k in low_index) == sorted(pinned["low_index"])
    for k, sc in low_index.items():
        assert not sc.budget_exceeded, k
        assert [sc.classes, sc.total] == pinned["low_index"][str(k)], k


def test_c01_bundled_presentations_have_trivial_first_homology():
    slowest = 0.0
    for key, p in corpus_presentations().items():
        started = time.perf_counter()
        homology = first_homology(p)
        slowest = max(slowest, time.perf_counter() - started)
        assert homology == [], key
    announce(1, slowest < 1.0,
             "trivial H1 on all 4 entries, slowest %.3fs (< 1s each)" % slowest)


def test_c02_derivation_reproduces_stored_presentations_byte_for_byte():
    corpus = load_corpus()
    started = time.perf_counter()
    for key, entry in corpus.items():
        derived = serialize_presentation(fundamental_group(entry.diagram()))
        assert derived == entry.presentation_text(), key
    elapsed = time.perf_counter() - started
    announce(2, elapsed < 1.0,
             "derive == stored text for all 4 entries, %.3fs total (< 1s)" % elapsed)


def test_c03_raw_and_phase1_structure_counts():
    for key, p in corpus_presentations().items():
        assert len(p.generators) == 18, key
        assert len(p.relators) == 20, key
        # phase 1 leaves 9 / 11, and the later phases keep them
        simplified = tietze_simplify(p)
        assert len(simplified.generators) == 9, key
        assert len(simplified.relators) == 11, key
    announce(3, True, "18 gens / 20 relators raw; 9 / 11 after simplification, all entries")


def test_c04_smith_form_matches_minor_gcd_oracle():
    rng = random.Random(46104)
    started = time.perf_counter()
    for trial in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        matrix = IntegerMatrix.from_rows(entries)
        dec = smith_normal_form(matrix)
        assert dec.verify(matrix), trial
        assert dec.invariant_factors == minor_gcd_invariant_factors(entries, cols), trial
    elapsed = time.perf_counter() - started
    announce(4, elapsed < 30.0,
             "1000 matrices match the minor-gcd oracle, U*A*V = D re-verified, "
             "%.1fs (< 30s)" % elapsed)


def test_c05_hom_counts_match_naive_enumeration():
    rng = random.Random(46105)
    catalog = load_catalog()
    small = [g for g in catalog.groups if g.order <= 24]
    assert [g.name for g in small] == ["C2", "C3", "C4", "C5", "C6",
                                       "S3", "D4", "A4", "S4"]
    started = time.perf_counter()
    for trial in range(200):
        names = ("a", "b", "c")[:rng.randint(1, 3)]
        rels = []
        for _ in range(rng.randint(0, 4)):
            rels.append("*".join("%s^%d" % (rng.choice(names), rng.choice((1, -1)))
                                 for _ in range(rng.randint(1, 6))))
        p = parse_presentation("gens: %s\nrels: %s\n"
                               % (", ".join(names), "; ".join(rels)))
        program = search_program(p)
        for group in small:
            hc = count_homs(program, group)
            assert (hc.total, hc.surjective) == naive_hom_counts(p, group), \
                (trial, group.name)
    elapsed = time.perf_counter() - started
    announce(5, elapsed < 60.0,
             "200 presentations x 9 groups of order <= 24 equal naive counts, "
             "%.1fs (< 60s)" % elapsed)


def test_c06_closed_form_low_index_counts():
    started = time.perf_counter()
    z = parse_presentation("gens: a\nrels:\n")
    for k, sc in low_index_subgroups(search_program(z), 6).items():
        assert (sc.classes, sc.total) == (1, 1), k
    f2 = parse_presentation("gens: a, b\nrels:\n")
    sc = low_index_subgroups(search_program(f2), 2)[2]
    assert (sc.classes, sc.total) == (3, 3)
    elapsed = time.perf_counter() - started
    announce(6, elapsed < 5.0,
             "<a|> has one subgroup per index <= 6, <a,b|> has 3 at index 2, "
             "%.2fs (< 5s)" % elapsed)


def test_c07_engine_matches_external_pins(tmp_path, monkeypatch):
    monkeypatch.delenv("LINKGROUP_THREADS", raising=False)
    pins = json.loads(data_text("pins.json"))
    catalog = load_catalog()
    assert pins["catalog_version"] == catalog.version
    trefoil = parse_presentation(data_text("trefoil.pres"))
    prof = profile(trefoil, ProfileConfig(), catalog)
    check_against_pins(pins["entries"]["trefoil"], prof.homology,
                       dict(prof.hom_counts), dict(prof.low_index))
    raw, elapsed = run_corpus_report(tmp_path, "report1.json")
    _shared["report"] = raw
    doc = json.loads(raw)
    for key in CORPUS_KEYS:
        pinned = pins["entries"][key]
        computed = doc["entries"][key]["profile"]
        assert computed["homology"] == pinned["homology"], key
        for name, (total, surjective) in pinned["hom_counts"].items():
            assert computed["hom_counts"][name] == \
                {"total": total, "surjective": surjective}, (key, name)
        for index, (classes, total) in pinned["low_index"].items():
            assert computed["low_index"][index] == \
                {"classes": classes, "total": total}, (key, index)
    # the shipped report was produced by this same job and must not drift
    with open(data_path("report.json"), "rb") as f:
        assert raw == f.read()
    announce(7, elapsed < 600.0,
             "trefoil + all 4 corpus profiles match the pinned values, corpus "
             "job %.1fs (< 600s)" % elapsed)


def test_c08_pair_verdicts_are_self_consistent():
    presentations = corpus_presentations()
    catalog = load_catalog()
    config = ProfileConfig()
    outcomes = []
    for left_key, right_key in (("u1466", "u1563"), ("u2125", "u2165")):
        left = presentations[left_key]
        right = presentations[right_key]
        verdict = distinguish(left, right, config, catalog)
        assert verdict.outcome in ("Distinguished", "Inconclusive")
        assert not verdict.left_profile.any_budget_exceeded
        assert not verdict.right_profile.any_budget_exceeded
        bytes_equal = (comparable_json(verdict.left_profile)
                       == comparable_json(verdict.right_profile))
        if verdict.outcome == "Inconclusive":
            assert verdict.witness is None
            assert bytes_equal
        else:
            assert verdict.witness is not None
            assert not bytes_equal
            ok, message = verify_witness(verdict.to_dict(), left, right, catalog)
            assert ok, message
        outcomes.append("%s/%s %s" % (left_key, right_key, verdict.outcome))
    announce(8, True, "; ".join(outcomes) + " (witness and profile bytes agree)")


def test_c09_gem_check_fixtures():
    started = time.perf_counter()
    accepted = gem_report(FourGraph.from_matchings(2, [[[0, 1]]] * 4))
    assert accepted["is_gem"] is True
    assert all(s["euler"] == 2 for s in accepted["spheres"])
    rejected = gem_report(FourGraph.from_matchings(6, [
        [[0, 3], [1, 4], [2, 5]],
        [[0, 4], [1, 5], [2, 3]],
        [[0, 5], [1, 3], [2, 4]],
        [[0, 3], [1, 4], [2, 5]],
    ]))
    assert rejected["is_gem"] is False
    offender = [s for s in rejected["spheres"] if s["dropped_color"] == 3]
    assert [s["euler"] for s in offender] == [0]
    elapsed = time.perf_counter() - started
    announce(9, elapsed < 1.0,
             "2-vertex graph accepted (euler 2), K3,3 plus matching rejected "
             "(euler 0), %.3fs (< 1s)" % elapsed)


def test_c10_report_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    base = _shared.get("report")
    if base is None:
        monkeypatch.delenv("LINKGROUP_THREADS", raising=False)
        base, _ = run_corpus_report(tmp_path, "report1.json")
    monkeypatch.setenv("LINKGROUP_THREADS", "8")
    raw, elapsed = run_corpus_report(tmp_path, "report8.json")
    announce(10, raw == base,
             "corpus report with LINKGROUP_THREADS=8 set, which the program "
             "ignores, is byte-identical to the run without it (%.1fs)" % elapsed)
