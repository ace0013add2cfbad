import argparse
import contextlib
import copy
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linkgroup import cli, quotients
from linkgroup.diagrams import DiagramStructureError, DiagramSyntaxError
from linkgroup.gems import FourGraphError
from linkgroup.permgroups import CatalogError
from linkgroup.presentations import PresentationSyntaxError
from linkgroup.quotients import distinguish
from conftest import data_path, data_text, pres

Z2 = "gens: a\nrels: a^2\n"
Z3 = "gens: a\nrels: a^3\n"
F2 = "gens: a, b\nrels:\n"
UNKNOT0 = '{"components": [["a"]], "crossings": []}\n'
TWO_VERTEX_GEM = json.dumps({"vertices": 2, "matchings": [[[0, 1]]] * 4})
K33_PLUS = json.dumps({"vertices": 6, "matchings": [
    [[0, 3], [1, 4], [2, 5]],
    [[0, 4], [1, 5], [2, 3]],
    [[0, 5], [1, 3], [2, 4]],
    [[0, 3], [1, 4], [2, 5]],
]})


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_matches_bundled_presentation(capsys):
    code, out, err = run(capsys, ["derive", data_path("u1466.pd.json")])
    assert code == 0 and err == ""
    assert out == data_text("u1466.pres")


def test_derive_out_flag(tmp_path, capsys):
    target = tmp_path / "out.pres"
    code, out, _ = run(capsys, ["derive", data_path("u2125.pd.json"),
                                "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == data_text("u2125.pres")


def test_derive_rejects_presentation_text(tmp_path, capsys):
    path = write(tmp_path, "z2.pres", Z2)
    code, _, err = run(capsys, ["derive", path])
    assert code == 1
    assert "error:" in err


def test_derive_dialects(tmp_path, capsys):
    path = write(tmp_path, "unknot.pd.json", UNKNOT0)
    code, out, _ = run(capsys, ["derive", path, "--dialect", "plain"])
    assert code == 0
    assert out == "< a |  >\n"
    code, out, _ = run(capsys, ["derive", path, "--dialect", "gap"])
    assert code == 0
    assert 'FreeGroup( "a" )' in out


def test_simplify_fixed_point(capsys):
    code, out, _ = run(capsys, ["simplify", data_path("trefoil.pres")])
    assert code == 0
    assert out == data_text("trefoil.pres")


def test_simplify_rejects_a_negative_budget(tmp_path, capsys):
    # simplify and profile reject the same rewrite budgets
    path = write(tmp_path, "z2.pres", Z2)
    for command in ("simplify", "profile"):
        code, out, err = run(capsys, [command, path, "--simplify-budget", "-1"])
        assert code == 1 and out == "", command
        assert err.startswith("error:") and err.count("\n") == 1


def test_homology_json(tmp_path, capsys):
    path = write(tmp_path, "z2.pres", Z2)
    code, out, _ = run(capsys, ["homology", path])
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "homology": [2]}
    diagram = write(tmp_path, "unknot.pd.json", UNKNOT0)
    code, out, _ = run(capsys, ["homology", diagram])
    assert code == 0
    assert json.loads(out)["homology"] == [0]


def test_profile_command(tmp_path, capsys):
    path = write(tmp_path, "z2.pres", Z2)
    code, out, _ = run(capsys, ["profile", path, "--K", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["homology"] == [2]
    assert sorted(doc["low_index"]) == ["2", "3"]
    assert doc["hom_counts"]["S3"] == {"total": 4, "surjective": 0}
    assert doc["config"]["max_index"] == 3
    # S_8 would not fit in memory: an index above 7 is an input error, and so
    # is any negative config value
    for option, value in (("--K", "8"), ("--K", "-1"), ("--budget", "-1"),
                          ("--simplify-budget", "-1")):
        code, out, err = run(capsys, ["profile", path, option, value])
        assert code == 1 and out == "", option
        assert err.startswith("error:") and err.count("\n") == 1


def test_profile_rejects_a_large_index_before_any_work(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simplification ran before the index was checked")

    monkeypatch.setattr(quotients, "tietze_simplify", fail)
    path = write(tmp_path, "z2.pres", Z2)
    code, out, err = run(capsys, ["profile", path, "--K", "8"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_profile_budget_exit_code(tmp_path, capsys):
    path = write(tmp_path, "f2.pres", F2)
    code, out, _ = run(capsys, ["profile", path, "--budget", "3"])
    assert code == 2
    doc = json.loads(out)
    assert doc["low_index"]["2"]["budget_exceeded"] is True


def test_distinguish_exit_codes(tmp_path, capsys):
    z2 = write(tmp_path, "z2.pres", Z2)
    z3 = write(tmp_path, "z3.pres", Z3)
    f2 = write(tmp_path, "f2.pres", F2)
    code, out, _ = run(capsys, ["distinguish", z2, z3])
    assert code == 0
    assert json.loads(out)["outcome"] == "Distinguished"
    code, out, _ = run(capsys, ["distinguish", z2, z2])
    assert code == 10
    assert json.loads(out)["outcome"] == "Inconclusive"
    # equal but budget-flagged profiles are not a clean Inconclusive
    code, out, _ = run(capsys, ["distinguish", f2, f2, "--budget", "3"])
    assert code == 2


CATALOG = {"version": 1, "groups": [
    {"name": "C2", "degree": 2, "order": 2, "generators": [[1, 0]]},
    {"name": "S3", "degree": 3, "order": 6, "generators": [[1, 0, 2], [1, 2, 0]]},
]}


def with_group(**fields):
    doc = copy.deepcopy(CATALOG)
    doc["groups"][1].update(fields)
    return doc


@pytest.mark.parametrize("doc", [
    with_group(generators=[]),
    with_group(degree="3"),
    with_group(degree=2),
    with_group(order=0),
    with_group(name=5),
    with_group(generators=[[1, 0, "2"]]),
    with_group(generators=[3]),
    {"version": 1, "groups": [[1, 0]]},
    dict(CATALOG, version=True),
    # S8 closes quickly, but a search into it would build a 40320^2 table
    with_group(name="S8", degree=8, order=40320,
               generators=[[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]),
], ids=["no-generators", "string-degree", "wrong-degree", "zero-order", "int-name",
        "string-point", "int-generator", "list-entry", "bool-version", "order-above-5040"])
def test_malformed_catalog_is_an_input_error(tmp_path, capsys, doc):
    z2 = write(tmp_path, "z2.pres", Z2)
    catalog = write(tmp_path, "catalog.json", json.dumps(doc))
    code, out, err = run(capsys, ["profile", z2, "--K", "2", "--catalog", catalog])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_catalog_option(tmp_path, capsys):
    z2 = write(tmp_path, "z2.pres", Z2)
    catalog = write(tmp_path, "catalog.json", json.dumps(CATALOG))
    code, out, _ = run(capsys, ["profile", z2, "--K", "2", "--catalog", catalog])
    assert code == 0
    assert json.loads(out)["hom_counts"] == {
        "C2": {"total": 2, "surjective": 1}, "S3": {"total": 4, "surjective": 0}}


def test_gem_check(tmp_path, capsys):
    good = write(tmp_path, "gem.json", TWO_VERTEX_GEM)
    code, out, _ = run(capsys, ["gem-check", good])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1 and doc["is_gem"] is True
    bad = write(tmp_path, "k33.json", K33_PLUS)
    code, out, _ = run(capsys, ["gem-check", bad])
    assert code == 0
    assert json.loads(out)["is_gem"] is False
    for doc in ({"vertices": 2, "matchings": 7},
                {"vertices": 2, "matchings": [[[0, 1]], 5, [[0, 1]], [[0, 1]]]},
                {"vertices": 2, "matchings": [[[0, 1]], [[0, 1]], [[0, 1]], [3]]},
                {"vertices": 10 ** 12, "matchings": [[], [], [], []]},
                # a JSON true is not the vertex 1
                {"vertices": 2, "matchings": [[[0, True]], [[0, 1]], [[0, 1]], [[0, 1]]]}):
        malformed = write(tmp_path, "malformed.json", json.dumps(doc))
        code, out, err = run(capsys, ["gem-check", malformed])
        assert code == 1 and out == "", doc
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_witness_flow(tmp_path, capsys):
    z2 = write(tmp_path, "z2.pres", Z2)
    z3 = write(tmp_path, "z3.pres", Z3)
    verdict = str(tmp_path / "verdict.json")
    code, _, _ = run(capsys, ["distinguish", z2, z3, "--out", verdict])
    assert code == 0
    code, out, _ = run(capsys, ["verify-witness", verdict, z2, z3])
    assert code == 0
    assert json.loads(out)["ok"] is True
    with open(verdict) as f:
        doc = json.load(f)
    doc["witness"]["right"] = [7]
    tampered = write(tmp_path, "tampered.json", json.dumps(doc))
    code, out, _ = run(capsys, ["verify-witness", tampered, z2, z3])
    assert code == 1
    assert json.loads(out)["ok"] is False
    inconclusive = str(tmp_path / "same.json")
    run(capsys, ["distinguish", z2, z2, "--out", inconclusive])
    code, out, _ = run(capsys, ["verify-witness", inconclusive, z2, z2])
    assert code == 1
    assert "no witness" in json.loads(out)["message"]


@pytest.mark.parametrize("argv", [
    ["profile", "z2.pres", "--K", "abc"],
    ["homology", "z2.pres", "--simplify-budget", "3"],
    ["profile"],
    ["no-such-command"],
    [],
])
def test_usage_errors_are_input_errors(capsys, argv):
    # exit 2 means a node budget ran out, so a bad command line exits 1
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, ["corpus"])
    assert code == 0
    doc = json.loads(out)
    keys = [e["key"] for e in doc["entries"]]
    assert keys == ["u1466", "u1563", "u2125", "u2165"]
    byname = {e["key"]: e for e in doc["entries"]}
    assert byname["u1466"]["partner"] == "u1563"
    assert byname["u2165"]["family"] == "9_199"
    assert byname["u2125"]["label"] == "U[2125]"
    # every field of every entry, as shipped
    assert doc["entries"] == json.loads(data_text("corpus.json"))["entries"]


def test_corpus_report_compares_each_family_once(capsys, monkeypatch):
    calls = []
    real = cli.compare_profiles

    def counting(left, right):
        calls.append((left, right))
        return real(left, right)

    monkeypatch.setattr(cli, "compare_profiles", counting)
    code, out, _ = run(capsys, ["corpus", "--report"])
    assert code == 0
    assert len(calls) == 2
    with open(data_path("report.json"), "rb") as f:
        assert out.encode() == f.read()


def test_input_error_classes_are_value_errors():
    # cli._INPUT_ERRORS names ValueError alone for all of them
    for error in (DiagramSyntaxError, DiagramStructureError, PresentationSyntaxError,
                  FourGraphError, CatalogError):
        assert issubclass(error, ValueError), error


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, ["homology", "/does/not/exist.pres"])
    assert code == 1
    assert "error:" in err


# a Distinguished verdict with a homology witness, as distinguish writes it
VERDICT = distinguish(pres(Z2), pres(Z3)).to_dict()
# a hom_count:S3 witness (trefoil against Z) relabelled as one for A5
RELABELLED = distinguish(pres("gens: a, b\nrels: a*b*a = b*a*b\n"),
                         pres("gens: a\n")).to_dict()
RELABELLED["witness"]["invariant"] = "hom_count:A5"


def malformed(edit):
    doc = copy.deepcopy(VERDICT)
    edit(doc)
    return doc


@pytest.mark.parametrize("doc", [
    malformed(lambda d: d["config"].update(max_index=None)),
    malformed(lambda d: d["witness"]["recheck"].update(kind="hom_count", group="Q8")),
    malformed(lambda d: d["witness"]["recheck"].update(kind="low_index", index=7)),
    malformed(lambda d: d.update(witness="homology")),
    [VERDICT],
    RELABELLED,
], ids=["null-max-index", "unknown-group", "index-above-max", "string-witness",
        "list-document", "relabelled-witness"])
def test_verify_witness_rejects_malformed_verdicts(tmp_path, capsys, doc):
    z2 = write(tmp_path, "z2.pres", Z2)
    z3 = write(tmp_path, "z3.pres", Z3)
    verdict = write(tmp_path, "verdict.json", json.dumps(doc))
    code, out, err = run(capsys, ["verify-witness", verdict, z2, z3])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("option", ["--K", "--budget", "--simplify-budget"])
def test_verify_witness_takes_no_config_options(tmp_path, capsys, option):
    # the replay runs under the verdict's recorded config
    z2 = write(tmp_path, "z2.pres", Z2)
    z3 = write(tmp_path, "z3.pres", Z3)
    verdict = write(tmp_path, "verdict.json", json.dumps(VERDICT))
    code, out, err = run(capsys, ["verify-witness", verdict, z2, z3, option, "0"])
    assert code == 1 and out == ""
    assert err.startswith("error: unrecognized arguments") and err.count("\n") == 1
    code, out, _ = run(capsys, ["verify-witness", verdict, z2, z3, "--catalog",
                                data_path("catalog.json")])
    assert code == 0 and json.loads(out)["ok"] is True


_KEYS = ("kind", "group", "index", "left", "right", "invariant", "name", "degree",
         "order", "generators", "vertices", "matchings")
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.text(max_size=3)
    | st.sampled_from(["Distinguished", "homology", "hom_count", "low_index",
                       "A5", "Q8"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3)),
    max_leaves=5)
_PATHS = [(), ("outcome",), ("config",), ("config", "max_index"),
          ("config", "node_budget"), ("config", "simplify_budget"),
          ("config", "catalog"), ("witness",), ("witness", "invariant"),
          ("witness", "left"), ("witness", "right"), ("witness", "recheck"),
          ("witness", "recheck", "kind"), ("witness", "recheck", "group"),
          ("witness", "recheck", "index")]


def mutate(doc, path, value, delete):
    """Set or delete the value at a path of object keys and list indexes;
    the empty path replaces the document.  A path that leads nowhere changes
    nothing."""
    if not path:
        return value
    node = doc
    try:
        for key in path[:-1]:
            node = node[key]
        if delete:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


def run_mutated(tmp_path, base, mutations, argv):
    """Run the command line on a mutated copy of base, passed as its INPUT
    argument, and return its exit code and standard error.  It exits with a
    documented code, and prints nothing or one error line, with exit 1."""
    doc = copy.deepcopy(base)
    for path, value, delete in mutations:
        doc = mutate(doc, path, value, delete)
    path = write(tmp_path, "mutated.json", json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([path if a == "INPUT" else a for a in argv]
                        + ["--out", str(tmp_path / "out.json")])
    text = err.getvalue()
    assert code in (0, 1, 2, 10)
    assert text == "" or (code == 1 and text.startswith("error: ")
                          and text.count("\n") == 1)
    return code, text


def mutation_lists(paths):
    return st.lists(st.tuples(st.sampled_from(paths), _VALUES, st.booleans()),
                    min_size=1, max_size=3)


FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(mutation_lists(_PATHS))
def test_verify_witness_survives_mutated_verdicts(tmp_path, mutations):
    z2 = write(tmp_path, "z2.pres", Z2)
    z3 = write(tmp_path, "z3.pres", Z3)
    run_mutated(tmp_path, VERDICT, mutations, ["verify-witness", "INPUT", z2, z3])


_CATALOG_PATHS = [(), ("version",), ("groups",), ("groups", 1)] + [
    ("groups", 1, key) for key in ("name", "degree", "order", "generators")] + [
    ("groups", 1, "generators", 0), ("groups", 1, "generators", 1, 2)]


@FUZZ
@given(mutation_lists(_CATALOG_PATHS))
def test_profile_survives_mutated_catalogs(tmp_path, mutations):
    z2 = write(tmp_path, "z2.pres", Z2)
    code, err = run_mutated(tmp_path, CATALOG, mutations,
                            ["profile", z2, "--K", "2", "--catalog", "INPUT"])
    assert code in (0, 1) and (code == 1) == bool(err)


_GEM_PATHS = [(), ("vertices",), ("matchings",), ("matchings", 1),
              ("matchings", 1, 0), ("matchings", 1, 0, 1), ("matchings", 3, 2)]


@FUZZ
@given(mutation_lists(_GEM_PATHS))
def test_gem_check_survives_mutated_graphs(tmp_path, mutations):
    code, err = run_mutated(tmp_path, json.loads(K33_PLUS), mutations,
                            ["gem-check", "INPUT"])
    assert code in (0, 1) and (code == 1) == bool(err)


_DIAGRAM_PATHS = [(), ("name",), ("components",), ("components", 0), ("components", 1, 2),
                  ("crossings",), ("crossings", 3)] + [
    ("crossings", 3, key) for key in ("over", "under_in", "under_out", "sign")]


@FUZZ
@given(mutation_lists(_DIAGRAM_PATHS))
def test_diagram_commands_survive_mutated_diagrams(tmp_path, mutations):
    base = json.loads(data_text("u1466.pd.json"))
    for command in ("derive", "homology"):
        code, err = run_mutated(tmp_path, base, mutations, [command, "INPUT"])
        assert code in (0, 1) and (code == 1) == bool(err)


BASE_PRESENTATION = "# two generators\ngens: a, b\nrels: a*b*a = b*a*b; a^2 = b^-1*a\n"
_TEXT_EDITS = st.lists(st.tuples(
    st.integers(0, len(BASE_PRESENTATION)), st.integers(0, 3),
    st.sampled_from(["", "a", "b", "x", "^", "-", "*", "=", ";", ":", ",", "#", " ",
                     "\n", "1", "0", "^-1", "gens:", "rels:", "é", "\t"])),
    min_size=1, max_size=3)


@FUZZ
@given(_TEXT_EDITS)
def test_presentation_commands_survive_mutated_text(tmp_path, edits):
    """Each edit replaces up to three characters at a position by a snippet;
    every command exits with a documented code, with nothing or one error
    line on standard error."""
    text = BASE_PRESENTATION
    for position, width, snippet in edits:
        position = min(position, len(text))
        text = text[:position] + snippet + text[position + width:]
    path = write(tmp_path, "mutated.pres", text)
    for argv in (["simplify", path], ["homology", path], ["profile", path, "--K", "2"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert code in (0, 1, 2, 10)
        assert err.getvalue() == "" or (code == 1 and err.getvalue().startswith("error: ")
                                        and err.getvalue().count("\n") == 1)


def test_huge_power_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "huge.pres", "gens: a\nrels: a^300000000\n")
    for argv in (["simplify", path], ["homology", path], ["profile", path, "--K", "2"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: line 2, column 9: ") and err.count("\n") == 1


# json.loads raises RecursionError, not JSONDecodeError, this deep
DEEP = "[" * 200000


@pytest.mark.parametrize("argv, prefix", [
    (["verify-witness", "deep", "z2", "z2"], ""),
    (["gem-check", "deep"], ""),
    (["profile", "z2", "--K", "2", "--catalog", "deep"], ""),
    (["homology", "deep"], '{"components": [[['),
    (["derive", "deep"], '{"components": [[['),
], ids=["verdict", "fourgraph", "catalog", "diagram-homology", "diagram-derive"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, argv, prefix):
    files = {"z2": write(tmp_path, "z2.pres", Z2),
             "deep": write(tmp_path, "deep.json", prefix + DEEP)}
    code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_readme_synopsis_lists_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = {line.split()[1]: line for line in readme.splitlines()
                if line.startswith("linkgroup ")}
    commands = next(a for a in cli._parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(synopsis) == set(commands)
    for name, parser in commands.items():
        flags = {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[A-Za-z-]+", synopsis[name])) == flags, name
