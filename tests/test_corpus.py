import json

from linkgroup.corpus import load_corpus
from linkgroup.diagrams import parse_diagram
from linkgroup.permgroups import load_catalog
from linkgroup.presentations import fundamental_group, serialize_presentation
from conftest import CORPUS_KEYS, data_text


def test_corpus_entries_and_pairing():
    corpus = load_corpus()
    assert tuple(corpus) == CORPUS_KEYS
    for key, entry in corpus.items():
        assert entry.key == key
        partner = corpus[entry.partner]
        assert partner.partner == key
        assert partner.family == entry.family
        assert entry.label == "U[%s]" % key[1:]
    assert sorted({e.family for e in corpus.values()}) == ["9_126", "9_199"]


def test_corpus_diagrams_parse_and_have_two_components():
    for key, entry in load_corpus().items():
        diagram = entry.diagram()
        assert parse_diagram(entry.diagram_text()) == diagram
        assert len(diagram.components) == 2
        assert len(diagram.crossings) == 9


def test_stored_presentations_are_rederivable():
    for entry in load_corpus().values():
        derived = fundamental_group(entry.diagram())
        assert serialize_presentation(derived) == entry.presentation_text()


def test_pins_cover_catalog_and_indices(pins):
    catalog = load_catalog()
    names = [g.name for g in catalog.groups]
    assert pins["max_index"] == 6
    assert pins["catalog_version"] == 1
    assert sorted(pins["entries"]) == sorted(("trefoil",) + CORPUS_KEYS)
    for key, pinned in pins["entries"].items():
        assert sorted(pinned["hom_counts"]) == sorted(names)
        assert sorted(pinned["low_index"]) == ["2", "3", "4", "5", "6"]
        for total, surjective in pinned["hom_counts"].values():
            assert 0 <= surjective <= total
        for classes, total in pinned["low_index"].values():
            assert 0 <= classes <= total
        assert all(n >= 0 for n in pinned["homology"])


def test_trefoil_pin_spot_checks(pins):
    # cyclic targets of a knot group: image is generated by one meridian
    # image, so the count over C_n is just n, with surjections phi(n) of
    # them only when that image generates.
    pinned = pins["entries"]["trefoil"]
    assert pinned["homology"] == [0]
    assert pinned["hom_counts"]["C2"] == [2, 1]
    assert pinned["hom_counts"]["C3"] == [3, 2]
    assert pinned["hom_counts"]["C6"] == [6, 2]
    assert pinned["low_index"]["2"] == [1, 1]


def test_shipped_report_matches_pins(pins):
    report = json.loads(data_text("report.json"))
    corpus = load_corpus()
    assert report["schema_version"] == 1
    config = report["config"]
    assert config["max_index"] == pins["max_index"]
    assert config["node_budget"] == 10 ** 8
    assert config["simplify_budget"] == 10 ** 4
    assert sorted(config["catalog"]) == sorted(
        pins["entries"]["trefoil"]["hom_counts"])
    assert sorted(report["entries"]) == sorted(CORPUS_KEYS)
    for key, row in report["entries"].items():
        entry = corpus[key]
        assert row["label"] == entry.label
        assert row["family"] == entry.family
        assert row["partner"] == entry.partner
        profile = row["profile"]
        pinned = pins["entries"][key]
        assert profile["homology"] == pinned["homology"]
        # the flag key only appears when a budget actually ran out
        for name, (total, surjective) in pinned["hom_counts"].items():
            counted = profile["hom_counts"][name]
            assert counted == {"total": total, "surjective": surjective}
        for index, (classes, total) in pinned["low_index"].items():
            found = profile["low_index"][index]
            assert found == {"classes": classes, "total": total}


def test_shipped_report_verdicts_reference_the_pairs():
    report = json.loads(data_text("report.json"))
    corpus = load_corpus()
    assert sorted(report["verdicts"]) == ["9_126", "9_199"]
    for family, block in report["verdicts"].items():
        left = corpus[block["left"]]
        assert left.family == family
        assert block["right"] == left.partner
        assert block["outcome"] in ("Distinguished", "Inconclusive")
        if block["outcome"] == "Inconclusive":
            assert block["witness"] is None
        else:
            assert block["witness"] is not None
