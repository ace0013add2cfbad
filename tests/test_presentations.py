import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from linkgroup import presentations
from linkgroup.diagrams import (LinkDiagram, Crossing, blackboardize, parse_diagram,
                                self_writhes, under_walks)
from linkgroup.presentations import (GroupPresentation, PresentationSyntaxError,
                                     Relator, _reduce_generators,
                                     fundamental_group, parse_presentation,
                                     serialize_presentation, tietze_simplify,
                                     transition_name, wirtinger)
from linkgroup.homology import first_homology
from linkgroup.quotients import ProfileConfig, presentation_hash, profile
from linkgroup.words import Word
from conftest import CORPUS_KEYS, data_text
from oracles import (_ref_cyclic_match, cyclic_reduce, from_syllables, generator_set, inverse,
                     reference_fundamental_group, reference_parse_presentation,
                     reference_reduce_generators, reference_tietze_simplify, relator_word)
from test_diagrams import TREFOIL, UNKNOT0


def test_transition_name():
    assert transition_name("a", "b") == "t_ab"
    assert transition_name("a", "bw1") == "t_a_bw1"


def test_wirtinger_conventions():
    # positive crossing: under_in * over = over * under_out
    d = LinkDiagram(components=(("a", "b"), ("c",)),
                    crossings=(Crossing(over="c", under_in="a", under_out="b", sign=1),))
    r = wirtinger(d).relators[0]
    assert r.lhs.letters == (("a", 1), ("c", 1))
    assert r.rhs.letters == (("c", 1), ("b", 1))
    # negative crossing: under_out * over = over * under_in
    d = LinkDiagram(components=(("a", "b"), ("c",)),
                    crossings=(Crossing(over="c", under_in="a", under_out="b", sign=-1),))
    r = wirtinger(d).relators[0]
    assert r.lhs.letters == (("b", 1), ("c", 1))
    assert r.rhs.letters == (("c", 1), ("a", 1))


def test_crossing_signs_and_arcs_are_checked():
    # wirtinger checks each sign itself, not only fundamental_group's letters
    d = LinkDiagram(components=(("a", "b"), ("c",)),
                    crossings=(Crossing(over="c", under_in="a", under_out="b", sign=2),
                               Crossing(over="c", under_in="b", under_out="a", sign=1)))
    with pytest.raises(ValueError, match="crossing sign must be"):
        wirtinger(d)
    with pytest.raises(ValueError, match=re.escape("letter exponent must be +1 or -1, got c^2")):
        fundamental_group(d)
    # a non-string arc: an overstrand, or an understrand with a len(), fails the
    # letter check (ValueError); one without a len() fails naming its transition
    # generator, and one that is only listed fails the name pattern (TypeError)
    over = LinkDiagram(components=((5,), ("b",)),
                       crossings=(Crossing(over=5, under_in="b", under_out="b", sign=1),))
    sized = LinkDiagram(components=((("x",), "b"), ("c",)),
                        crossings=(Crossing(over="c", under_in=("x",), under_out="b", sign=1),
                                   Crossing(over="c", under_in="b", under_out=("x",), sign=1)))
    unsized = LinkDiagram(components=((5, "b"), ("c",)),
                          crossings=(Crossing(over="c", under_in=5, under_out="b", sign=1),
                                     Crossing(over="c", under_in="b", under_out=5, sign=1)))
    listed = LinkDiagram(components=((5,), ("b",)), crossings=())
    for diagram, wirtinger_error, fundamental_group_error in (
            (over, ValueError, ValueError), (sized, ValueError, ValueError),
            (unsized, ValueError, TypeError), (listed, TypeError, TypeError)):
        with pytest.raises(wirtinger_error):
            wirtinger(diagram)
        with pytest.raises(fundamental_group_error):
            fundamental_group(diagram)


def test_fundamental_group_layout():
    d = parse_diagram(data_text("u1563.pd.json"))
    p = fundamental_group(d)
    # transition generators first, in walk order, then the arcs
    assert p.generators[:9] == tuple(
        transition_name(c.under_in, c.under_out)
        for walk in under_walks(d) for c in walk)
    assert p.generators[9:] == tuple(a for comp in d.components for a in comp)
    # relators: 9 definitions, 2 fillings, 9 conjugations
    assert len(p.relators) == 20
    fillings = p.relators[9:11]
    assert all(r.rhs == Word() for r in fillings)
    assert sum(len(r.lhs) for r in fillings) == 9


def test_corpus_round_trip_single_entry():
    d = parse_diagram(data_text("u2165.pd.json"))
    assert serialize_presentation(fundamental_group(d)) == data_text("u2165.pres")


def test_parse_serialize_idempotent_on_corpus():
    for key in CORPUS_KEYS:
        text = data_text(key + ".pres")
        p = parse_presentation(text)
        assert serialize_presentation(p) == text
        assert parse_presentation(serialize_presentation(p)) == p


def test_parse_errors():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("rels: a\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: a\ngens: b\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: a,\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: a\nrels: b\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: a\nrels: a^0\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: a\nrels: a b\n")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("gens: a\nrels: a = = a\n")


def test_huge_powers_are_rejected_before_expanding(monkeypatch):
    with pytest.raises(PresentationSyntaxError, match=r"^line 2, column 16: .* 1000000 letters"):
        parse_presentation("gens: a, b\nrels: a^2*b; b^300000000\n")
    # thousands of digits, leading zeros included, never reach int()
    with pytest.raises(PresentationSyntaxError, match="^line 2, column 9: "):
        parse_presentation("gens: a\nrels: a^" + "9" * 5000 + "\n")
    p = parse_presentation("gens: a\nrels: a^-" + "0" * 5000 + "7\n")
    assert p.relators[0].lhs.letters == (("a", -1),) * 7
    # the limit counts the letters of all relators together
    monkeypatch.setattr(presentations, "MAX_LETTERS", 10)
    assert len(parse_presentation("gens: a, b\nrels: a^4 = b\nrels: b^-4*a").relators) == 2
    with pytest.raises(PresentationSyntaxError, match="^line 3, column 9: "):
        parse_presentation("gens: a, b\nrels: a^4 = b\nrels: b^-6*a")
    with pytest.raises(PresentationSyntaxError, match="^line 3, column 14: "):
        parse_presentation("gens: a, b\nrels: a^4 = b\nrels: b^-4*a*a")


def test_parse_empty_word_and_powers():
    p = parse_presentation("gens: a, b\nrels: 1; a^3 = b^-2; ;\n")
    assert len(p.relators) == 2
    assert relator_word(p.relators[0]) == Word()
    assert p.relators[1].lhs.letters == (("a", 1),) * 3
    assert p.relators[1].rhs.letters == (("b", -1),) * 2
    # comments and blank lines are ignored
    q = parse_presentation("# header\ngens: a, b\n\nrels: 1; a^3 = b^-2\n")
    assert q == p


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation(("a", "a"), ())
    with pytest.raises(ValueError):
        GroupPresentation(("a",), (Relator(Word((("b", 1),))),))
    with pytest.raises(ValueError):
        GroupPresentation(("9bad",), ())


UNKNOWN_NAME_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from linkgroup.presentations import GroupPresentation, Relator
from linkgroup.words import Word
try:
    GroupPresentation(("a",), (Relator(Word((("b", 1), ("c", 1), ("d", -1)))),))
except ValueError as e:
    print(e)
"""


def test_unknown_generator_error_names_the_first_in_letter_order():
    # a set of unknown names iterates in hash order, which varies with the seed
    # (not -I: it implies -E, which ignores PYTHONHASHSEED)
    src = os.path.dirname(os.path.dirname(os.path.abspath(presentations.__file__)))
    for seed in range(1, 7):
        run = subprocess.run([sys.executable, "-S", "-c", UNKNOWN_NAME_SCRIPT, src],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert run.stdout == "relator uses unknown generator 'b'\n", (seed, run.stderr)
    with pytest.raises(ValueError, match="unknown generator 'q'"):
        GroupPresentation(("a",), (Relator(Word((("a", 1),)), Word((("q", 1), ("p", 1)))),))


def test_serialize_dialects():
    p = parse_presentation("gens: a, b\nrels: a*b = b*a; a^2\n")
    assert serialize_presentation(p, dialect="plain") == "< a, b | a*b = b*a; a*a >\n"
    gap = serialize_presentation(p, dialect="gap")
    assert 'F := FreeGroup( "a", "b" );;' in gap
    assert "F.1*F.2*F.1^-1*F.2^-1" in gap
    assert gap.endswith('Print( AbelianInvariants( G ), "\\n" );\n')
    with pytest.raises(ValueError):
        serialize_presentation(p, dialect="latex")


def test_profile_hash_text_is_the_native_serialization():
    # profile hashes Tietze's encoded output as _serialize writes it; at
    # simplify budget 0 that output is the input, whose text serialize_presentation
    # writes through the same writer from the decoded words
    cases = (
        ("gens: a\nrels: 1\n", "gens: a\nrels: 1\n"),
        ("gens: x\nrels: 1 = x\n", "gens: x\nrels: 1 = x\n"),
        ("gens: a, b\nrels: a^-1*b^-2 = b; b^-1\n", "gens: a, b\nrels: a^-1*b^-1*b^-1 = b; b^-1\n"),
        ("gens: x_1, t_ab2, Y9_\nrels: x_1*t_ab2^-1*Y9_ = Y9_^-1; t_ab2^2\n",
         "gens: x_1, t_ab2, Y9_\nrels: x_1*t_ab2^-1*Y9_ = Y9_^-1; t_ab2*t_ab2\n"),
        ("gens: a, b\n", "gens: a, b\n"),
        ("gens: a, b\nrels:\n", "gens: a, b\n"),
        ("gens:\n", "gens: \n"),
        ("gens:\nrels: 1; 1 = 1\n", "gens: \nrels: 1; 1\n"),
    )
    for text, want in cases:
        p = parse_presentation(text)
        assert serialize_presentation(p) == want, text
        assert presentations._serialize(presentations._tietze(p, 0)) == want, text
        digest = hashlib.sha256(want.encode()).hexdigest()
        config = ProfileConfig(max_index=2, simplify_budget=0)
        assert profile(p, config).presentation_hash == presentation_hash(p) == digest, text


def test_gap_export_writes_relators_over_generator_indices():
    # F would overwrite the free group, end is a GAP keyword, E is read-only
    p = parse_presentation("gens: F, E, end, rels\nrels: F*E = E*F; end^2; rels^-1; 1\n")
    assert serialize_presentation(p, dialect="gap") == (
        'F := FreeGroup( "F", "E", "end", "rels" );;\n'
        "rels := [ F.1*F.2*F.1^-1*F.2^-1, F.3*F.3, F.4^-1, One( F ) ];;\n"
        "G := F / rels;;\n"
        'Print( AbelianInvariants( G ), "\\n" );\n')
    assert serialize_presentation(parse_presentation("gens:\n"), dialect="gap").startswith(
        "F := FreeGroup( 0 );;\nrels := [  ];;\n")


PARSE_ERRORS = (
    ("gens: a\nrels: a$b", "line 2, column 8: unexpected character '$'"),
    ("gens a", "line 1: expected 'gens:'"),
    ("gens: a\nrels a", "line 2: expected 'rels:'"),
    ("gens: a\ngens: b", "line 2: duplicate gens: line"),
    ("gens: a, 1", "line 1, column 10: bad generator name '1'"),
    ("gens: a b", "line 1, column 9: expected ',' between generator names"),
    ("gens: a,", "line 1: trailing comma in gens: line"),
    ("  rel: a", "line 1: expected a 'gens:' or 'rels:' line"),
    ("rels: a", "missing gens: line"),
    ("gens: a\nrels: a*", "line 2, column 8: expected a generator name after this"),
    ("gens: a\nrels: a*^2", "line 2, column 9: expected a generator name"),
    ("gens: a\nrels: b", "line 2, column 7: unknown generator 'b'"),
    ("gens: a\nrels: a^", "line 2, column 8: expected an integer exponent after this"),
    ("gens: a\nrels: a^b", "line 2, column 9: expected an integer exponent"),
    ("gens: a, b\nrels: a^0*b", "line 2, column 9: zero exponent"),
    ("gens: a\nrels: a^0", "line 2, column 9: zero exponent"),
    ("gens: a\nrels: a^-00 = a", "line 2, column 9: zero exponent"),
    ("gens: a\nrels: a a", "line 2, column 9: unexpected token"),
    ("gens: a\nrels: a = a = a", "line 2, column 13: unexpected token"),
    ("gens: a\nrels: a^9999999", "line 2, column 9: the relators expand to more than "
                                  "1000000 letters"),
)


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_messages(text, message):
    with pytest.raises(PresentationSyntaxError) as info:
        parse_presentation(text)
    assert str(info.value) == message


def test_trailing_whitespace_is_skipped_in_linear_time():
    # a regex that skips whitespace before each token rescans a trailing run
    # once per position: 20,000 spaces took seconds that way
    start = time.perf_counter()
    assert parse_presentation("gens: a" + " " * 20000 + "\nrels: a^2" + "\t" * 20000).relators
    assert time.perf_counter() - start < 1


# \x1c splits lines like \n; \u0663 and \u0660 are digits to \d and int()
FRAGMENTS = ("^0", "^-0", "^00", "^", "*", "=", ";", "#", ",", ":", "1", "-", " ", "\n",
             "\nrels: ", "\x1c", "\u00e9", "\u03a9", "\u0663", "\u0660", "$", "!", "a", "b^2")


def mutate(rng, text):
    """text with one to three fragments inserted or short spans deleted."""
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        if rng.random() < 0.6:
            text = text[:pos] + rng.choice(FRAGMENTS) + text[pos:]
        else:
            text = text[:pos] + text[pos + rng.randint(1, 3):]
    return text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        return str(e)


def test_parser_matches_reference_on_mutated_texts():
    rng = random.Random(18)
    corpus = [data_text(key + ".pres") for key in CORPUS_KEYS + ("trefoil",)]
    zero_exponents = 0
    for n in range(20000):
        base = rng.choice(corpus) if n % 20 == 0 else random_tietze_text(rng)
        text = base if n % 10 == 1 else mutate(rng, base)
        got = parse_outcome(parse_presentation, text)
        want = parse_outcome(reference_parse_presentation, text)
        if isinstance(want, str) and want.endswith(("zero exponent", "zero exponent after this")):
            # the reference points one token past the exponent; this parser at it
            zero_exponents += 1
            m = re.fullmatch(r"line (\d+), column (\d+): zero exponent", got)
            assert m and want.startswith("line %s, " % m[1]), (text, got, want)
            line = text.splitlines()[int(m[1]) - 1]
            col = int(m[2]) - 1
            assert line[:col].rstrip().endswith("^"), (text, got)
            assert int(re.match(r"-?\d+", line[col:])[0]) == 0, (text, got)
        else:
            assert got == want, text
    assert zero_exponents > 100


def test_tietze_phase1_counts_on_corpus():
    # phase 1 leaves these counts, and the later phases keep them
    for key in CORPUS_KEYS:
        p = parse_presentation(data_text(key + ".pres"))
        q = tietze_simplify(p)
        assert len(q.generators) == 9
        assert len(q.relators) == 11


def test_tietze_budget_zero_is_identity():
    p = parse_presentation(data_text("u1466.pres"))
    q = tietze_simplify(p, budget=0)
    assert q.generators == p.generators
    assert len(q.relators) == len(p.relators)


def test_tietze_rejects_a_budget_that_is_not_a_non_negative_int():
    p = parse_presentation("gens: a\nrels: a^2\n")
    for budget in (-1, 2.0, True, None):
        with pytest.raises(ValueError):
            tietze_simplify(p, budget=budget)


def test_tietze_drops_trivial_relators():
    p = parse_presentation("gens: a, b\nrels: a*a^-1; b = b; a^2\n")
    q = tietze_simplify(p)
    assert len(q.relators) == 1
    assert q.generators == ("a", "b")
    assert serialize_presentation(q) == "gens: a, b\nrels: a*a\n"


def test_tietze_kills_trivial_group_presentation():
    p = parse_presentation("gens: a, b\nrels: a; b\n")
    q = tietze_simplify(p)
    assert q.generators == ()
    assert q.relators == ()


def test_tietze_eliminates_defined_generator():
    p = parse_presentation("gens: a, b, c\nrels: c = a*b; c^2*a\n")
    q = tietze_simplify(p)
    assert "c" not in q.generators
    assert all("c" not in generator_set(relator_word(r)) for r in q.relators)
    assert first_homology(q) == first_homology(p)


def test_tietze_preserves_homology():
    for key in ("u1466", "u2125"):
        p = parse_presentation(data_text(key + ".pres"))
        assert first_homology(tietze_simplify(p)) == first_homology(p)


def test_reduce_generators_eliminates_and_preserves_homology():
    p = parse_presentation("gens: a, b, c\nrels: c = a*b; a^2*c; b^3\n")
    q = _reduce_generators(p)
    assert len(q.generators) < 3
    assert first_homology(q) == first_homology(p)
    for key in CORPUS_KEYS:
        full = parse_presentation(data_text(key + ".pres"))
        reduced = _reduce_generators(full)
        assert len(reduced.generators) <= 4
        assert first_homology(reduced) == first_homology(full) == []
    # a profile reads H1 from the reduced form of the simplified presentation
    rng = random.Random(1016)
    groups = []
    for _ in range(100):
        raw = random_tietze_input(rng)
        simplified = tietze_simplify(raw)
        h1 = first_homology(raw)
        assert (first_homology(_reduce_generators(simplified)) == first_homology(simplified)
                == first_homology(_reduce_generators(raw)) == h1), serialize_presentation(raw)
        groups.append(h1)
    # free rank and torsion both occur, alone and together
    assert any(0 in h1 and len(set(h1)) > 1 for h1 in groups)
    assert any(h1 and 0 not in h1 for h1 in groups)
    assert any(h1 and set(h1) == {0} for h1 in groups)


def random_word_text(rng, names, max_len):
    letters = ["%s^%d" % (rng.choice(names), rng.choice((1, -1)))
               for _ in range(rng.randint(0, max_len))]
    return "*".join(letters) or "1"


def random_tietze_input(rng):
    """A presentation mixing definitions g = w, equations and bare relators."""
    return parse_presentation(random_tietze_text(rng))


def random_tietze_text(rng):
    """The text of a random_tietze_input presentation."""
    names = ("a", "b", "c", "d", "e")[:rng.randint(1, 5)]
    rels = []
    for _ in range(rng.randint(0, 6)):
        shape = rng.random()
        if shape < 0.3:
            rels.append("%s = %s" % (rng.choice(names), random_word_text(rng, names, 4)))
        elif shape < 0.45:
            rels.append("%s = %s" % (random_word_text(rng, names, 3),
                                     random_word_text(rng, names, 3)))
        else:
            rels.append(random_word_text(rng, names, 9))
    return "gens: %s\nrels: %s\n" % (", ".join(names), "; ".join(rels))


# Relators that lack the first eliminated generator and are not freely
# reduced: the first elimination must still reduce them.
UNREDUCED_INPUTS = (
    "gens: a, b, c\nrels: a = b; c*c^-1*b; b*b^-1 = c\n",
    "gens: a, b, c, d\nrels: d = a*b; a*a^-1*c*b*b^-1; c^-1*c*b*a = b*b^-1*a; b*a*a^-1*b\n",
    "gens: x, y, z\nrels: x*y*y^-1*x^-1*z^3; z*z^-1 = y*y^-1; x = y^2; y*z*z^-1*y*x^-1\n",
)


def test_tietze_matches_reference_implementation():
    raw = [parse_presentation(data_text(key + ".pres")) for key in CORPUS_KEYS]
    rng = random.Random(17)
    inputs = (raw + [tietze_simplify(p) for p in raw]
              + [parse_presentation(data_text("trefoil.pres"))]
              + [parse_presentation(text) for text in UNREDUCED_INPUTS]
              + [random_tietze_input(rng) for _ in range(150)]
              + [fundamental_group(d) for d in framed_diagrams()])
    for p in inputs:
        for budget in (0, 1, 2, 5, 10 ** 4):
            got = serialize_presentation(tietze_simplify(p, budget))
            want = serialize_presentation(reference_tietze_simplify(p, budget))
            assert got == want, (serialize_presentation(p), budget)


def test_tietze_rewrites_only_touched_relators_and_matches_each_pair_once(monkeypatch):
    matched, substituted = [], []
    cyclic_match = presentations._cyclic_match
    substitute_relator = presentations._substitute_relator

    def counting_match(target, source, table):
        matched.append((target, source))
        return cyclic_match(target, source, table)

    def counting_substitute(r, letter, replacement, table):
        inverse_letter = chr(ord(letter) ^ 1)
        substituted.append((letter, any(letter in side or inverse_letter in side for side in r)))
        return substitute_relator(r, letter, replacement, table)

    monkeypatch.setattr(presentations, "_cyclic_match", counting_match)
    monkeypatch.setattr(presentations, "_substitute_relator", counting_substitute)
    # u1466 has nine eliminations; the second input needs many phase-3 rewrites
    later_substitutions = 0
    for text in (data_text("u1466.pres"),
                 "gens: a, b\nrels: b^-2; a^2*b^-1; a*b*a^2*b*a*b*a*b^-1; b^-2*a^-1\n"):
        p = parse_presentation(text)
        # with one two-letter subword shared by every word, the pair filter
        # lets through, and so counts, each pair that reaches it
        with monkeypatch.context() as m:
            m.setattr(presentations, "_pairs", lambda w: {"shared"})
            matched.clear()
            unfiltered = tietze_simplify(p)
            reached = set(matched)
        assert len(reached) > 20 and len(reached) == len(matched), text
        matched.clear()
        substituted.clear()
        assert tietze_simplify(p) == unfiltered
        assert set(matched) < reached and len(set(matched)) == len(matched), text
        first = substituted[0][0]
        later = [hit for name, hit in substituted if name != first]
        assert all(later), text
        later_substitutions += len(later)
    assert later_substitutions > 0


def longest_overlaps(target, source):
    """Every (direction, rotation, start) at which source (direction 0) or its
    inverse (1), rotated, overlaps cyclic target longest, if longer than half
    the source."""
    t, n, found = target.letters, len(target), {}
    for direction, s in enumerate((source.letters, inverse(source).letters)):
        m = len(s)
        for rot in range(m):
            srot = s[rot:] + s[:rot]
            for start in range(n):
                length = 0
                while length < min(m, n) and t[(start + length) % n] == srot[length]:
                    length += 1
                if length > m // 2:
                    found.setdefault(length, []).append((direction, rot, start))
    return found[max(found)] if found else []


def random_cyclic_word(rng, names, max_len):
    """A cyclically reduced word; a third of them powers of a short word."""
    if rng.random() < 1 / 3:
        root = from_syllables((rng.choice(names), rng.choice((1, -1)))
                              for _ in range(rng.randint(1, 3)))
        return cyclic_reduce(Word(root.letters * rng.randint(1, max_len // len(root))))
    return cyclic_reduce(from_syllables((rng.choice(names), rng.choice((1, -1)))
                                        for _ in range(rng.randint(0, max_len))))


def test_cyclic_match_matches_reference_on_random_pairs():
    """The str.find matcher against the oracle's slice comparisons, on pairs
    over few generators, where equally long overlaps are common: in both
    directions, and at several starts of one rotation."""
    names = ("a", "b", "c")
    table = presentations._table(names)

    def encode(word):
        return presentations._encoded(GroupPresentation._of(names, (Relator(word),)))[2][0][0]

    def decode(s):
        return presentations._decoded(names, names, [(s, "")]).relators[0].lhs

    rng = random.Random(29)
    both_directions = several_starts = matched = skipped = 0
    for _ in range(4000):
        sub = names[:rng.randint(1, 3)]
        target, source = random_cyclic_word(rng, sub, 12), random_cyclic_word(rng, sub, 8)
        if not source.letters:
            continue
        want = _ref_cyclic_match(target, source)
        got = presentations._cyclic_match(encode(target), encode(source), table)
        assert (None if got is None else decode(got)) == want, (target, source)
        # the phase-3 filter: a source of two or more letters sharing no cyclic
        # two-letter subword with the target, in itself or its inverse
        shared = (presentations._pairs(encode(source))
                  | presentations._pairs(encode(inverse(source))))
        if len(source) > 1 and shared.isdisjoint(presentations._pairs(encode(target))):
            assert want is None, (target, source)
            skipped += 1
        best = longest_overlaps(target, source) if len(target) >= 2 else []
        matched += want is not None
        both_directions += len({direction for direction, _, _ in best}) == 2
        rotations = [(direction, rot) for direction, rot, _ in best]
        several_starts += len(set(rotations)) < len(rotations)
    assert (matched > 1000 and both_directions > 50 and several_starts > 500
            and skipped > 1000), (matched, both_directions, several_starts, skipped)


def test_reduce_generators_matches_reference_implementation():
    raw = [parse_presentation(data_text(key + ".pres")) for key in CORPUS_KEYS]
    rng = random.Random(23)
    wirtinger = [fundamental_group(d) for d in framed_diagrams()]
    inputs = (raw + [tietze_simplify(p) for p in raw]
              + [parse_presentation(data_text("trefoil.pres"))]
              + [random_tietze_input(rng) for _ in range(150)]
              + wirtinger + [tietze_simplify(p) for p in wirtinger])
    for p in inputs:
        got = serialize_presentation(_reduce_generators(p))
        want = serialize_presentation(reference_reduce_generators(p))
        assert got == want, serialize_presentation(p)


# a Hopf link whose two components are single arcs, each passing under once
HOPF = LinkDiagram(components=(("a",), ("c",)),
                   crossings=(Crossing(over="c", under_in="a", under_out="a", sign=1),
                              Crossing(over="a", under_in="c", under_out="c", sign=1)))


def framed_diagrams():
    """The corpus and test diagrams, as given and blackboardized to seeded framings
    in -3..3, each also with a crossingless circle appended."""
    rng = random.Random(31)
    base = ([parse_diagram(data_text(key + ".pd.json")) for key in CORPUS_KEYS]
            + [parse_diagram(UNKNOT0), parse_diagram(TREFOIL), HOPF])
    out = []
    for d in base:
        circle = LinkDiagram(d.components + (("loose",),), d.crossings, d.name)
        for diagram in (d, circle):
            out.append(diagram)
            for _ in range(4):
                framings = [rng.randint(-3, 3) for _ in diagram.components]
                out.append(blackboardize(diagram, framings))
    return out


def test_fundamental_group_matches_reference_implementation():
    diagrams = framed_diagrams()
    assert len(diagrams) == 70
    assert any(self_writhes(d)[0] == -3 for d in diagrams)
    assert any(self_writhes(d)[0] == 3 for d in diagrams)
    for d in diagrams:
        got = serialize_presentation(fundamental_group(d))
        assert got == serialize_presentation(reference_fundamental_group(d)), d


def test_fundamental_group_walks_each_component_once(monkeypatch):
    walked = []

    def counting_walks(diagram):
        walks = under_walks(diagram)
        walked.append(len(walks))
        return walks

    monkeypatch.setattr(presentations, "under_walks", counting_walks)
    for d in framed_diagrams():
        walked.clear()
        fundamental_group(d)
        assert walked == [len(d.components)]


def hopf_links(count):
    """A PD document of count disjoint Hopf links, each component one arc."""
    components, crossings = [], []
    for i in range(count):
        a, b = "a%d" % i, "b%d" % i
        components += [[a], [b]]
        crossings += [{"over": b, "under_in": a, "under_out": a, "sign": 1},
                      {"over": a, "under_in": b, "under_out": b, "sign": 1}]
    return json.dumps({"components": components, "crossings": crossings})


def test_diagram_layers_are_linear_in_components():
    # one crossing map and one self-writhe pass per diagram: rebuilding them
    # per component took 15 s (fundamental_group) and 8.7 s (blackboardize)
    # at 4,000 components
    small = parse_diagram(hopf_links(3))
    framed = blackboardize(small, [1] * 6)
    assert self_writhes(framed) == [1] * 6
    assert (serialize_presentation(fundamental_group(framed))
            == serialize_presentation(reference_fundamental_group(framed)))
    d = parse_diagram(hopf_links(2000))
    start = time.perf_counter()
    framed = blackboardize(d, [1] * 4000)
    p = fundamental_group(framed)
    assert time.perf_counter() - start < 3
    assert len(framed.crossings) == 8000
    assert len(p.generators) == 8000 + 8000 and len(p.relators) == 8000 + 4000 + 8000


def test_pipeline_checks_each_presentation_once(monkeypatch):
    # the derived presentation is checked; the rewrites build theirs unchecked
    checks = []
    check = GroupPresentation.__post_init__
    monkeypatch.setattr(GroupPresentation, "__post_init__",
                        lambda self: checks.append(self) or check(self))
    p = fundamental_group(parse_diagram(data_text("u1466.pd.json")))
    assert len(checks) == 1 and checks[0] is p
    _reduce_generators(tietze_simplify(p))
    assert len(checks) == 1


def test_unchecked_presentations_pass_the_check():
    rng = random.Random(41)
    inputs = ([parse_presentation(data_text(key + ".pres")) for key in CORPUS_KEYS]
              + [fundamental_group(d) for d in framed_diagrams()]
              + [random_tietze_input(rng) for _ in range(150)])
    built = 0
    for p in inputs:
        for q in (tietze_simplify(p), _reduce_generators(p),
                  _reduce_generators(tietze_simplify(p))):
            assert type(q.generators) is tuple and type(q.relators) is tuple
            assert all(type(r) is Relator and type(r.lhs) is Word and type(r.rhs) is Word
                       for r in q.relators)
            assert GroupPresentation(q.generators, q.relators) == q
            built += 1
    assert built == 3 * (4 + 70 + 150)
