import copy
import inspect
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linkgroup
from linkgroup import (CorpusEntry, Crossing, FourGraph, GroupPresentation, HomCount,
                       LinkDiagram, ProfileConfig, Relator, SubgroupCount, Verdict,
                       Witness, Word,
                       corpus, diagrams, gems, homology, permgroups, profile, quotients,
                       words)
from linkgroup._record import Record
from linkgroup.diagrams import Violation


def test_every_exported_name_resolves_once():
    assert len(linkgroup.__all__) == len(set(linkgroup.__all__))
    for name in linkgroup.__all__:
        assert hasattr(linkgroup, name), name
    assert linkgroup.self_writhes is diagrams.self_writhes


def test_removed_wrappers_stay_removed():
    # each job is done by the public call named beside it
    removed = [
        (homology, "is_perfect"),                     # first_homology(p) == []
        (homology, "IntegerMatrix"),                  # first_homology(p)
        (homology, "SmithDecomposition"),             # first_homology(p)
        (homology, "smith_normal_form"),              # first_homology(p)
        (homology, "abelianization_matrix"),          # first_homology(p)
        (permgroups, "closure"),                      # FiniteGroup(...).elements()
        (permgroups, "inverse_perm"),                 # FiniteGroup(...).tables()[1]
        (permgroups, "alternating_group"),            # symmetric_group(k).derived_subgroup
        (permgroups.FiniteGroup, "derived_series"),   # walk .derived_subgroup
        (gems, "is_gem"),                             # gem_report(g)["is_gem"]
        (diagrams, "self_writhe"),                    # self_writhes(d)[i]
        (diagrams.LinkDiagram, "component_of"),
        (words.Word, "exponent_sum"),
        (quotients.InvariantProfile, "comparable_dict"),  # oracles.comparable_json
        (quotients.InvariantProfile, "comparable_json"),  # oracles.comparable_json
        (words.Word, "cyclic_reduce"),                # oracles.cyclic_reduce
        (words.Word, "substitute"),                   # oracles.substitute
        (corpus, "load_pins"),                        # json.loads(data_text("pins.json"))
        (quotients, "recompute_entry"),               # oracles.recompute_entry
    ]
    for owner, name in removed:
        assert not hasattr(owner, name), name
        assert name not in linkgroup.__all__
    # H1 is read one way: first_homology is the Smith form's only public entry
    assert [name for name in vars(homology) if not name.startswith("_")] == ["first_homology"]


# The second interpreter imports nothing, so its modules are the start-up set
# that the first one's are compared against.  Both run with -S, so no site
# hook (a .pth file importing importlib.resources, say) loads a module first.
MODULES_SCRIPT = """
import json, sys
if len(sys.argv) > 1:
    sys.path.insert(0, sys.argv[1])
    import linkgroup
print(json.dumps(sorted(sys.modules)))
"""


def test_import_loads_no_dataclass_machinery():
    src = str(Path(linkgroup.__file__).resolve().parents[1])
    loaded = []
    for argv in ([src], []):
        run = subprocess.run([sys.executable, "-S", "-I", "-c", MODULES_SCRIPT, *argv],
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        loaded.append(set(json.loads(run.stdout)))
    added = loaded[0] - loaded[1]
    assert "linkgroup.quotients" in added
    # bundled files are read by path, so neither importlib.resources nor
    # what it imports is loaded; a witness document is copied through json
    assert not added & {"dataclasses", "inspect", "ast", "dis", "importlib.resources",
                        "pathlib", "tempfile", "typing", "zipfile", "copy"}


CORPUS_REPORT_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from linkgroup.cli import main
sys.exit(main(["corpus", "--report", "--K", "3"]))
"""


def test_bundled_files_are_read_as_utf8():
    # a read in the locale's default encoding warns under
    # warn_default_encoding, and the warning is an error here
    src = str(Path(linkgroup.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-S", "-I", "-X", "warn_default_encoding",
                          "-W", "error::EncodingWarning", "-c", CORPUS_REPORT_SCRIPT, src],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def value_instances():
    """One instance of each value class, built through its public constructor."""
    word = Word((("a", 1), ("b", -1)))
    relator = Relator(word, Word((("b", 1),)))
    config = ProfileConfig(max_index=3)
    z2 = profile(GroupPresentation(("a",), (Relator(Word((("a", 1),) * 2)),)), config)
    z3 = profile(GroupPresentation(("a",), (Relator(Word((("a", 1),) * 3)),)), config)
    witness = Witness("homology", [2], [3], {"kind": "homology"})
    return [
        word, relator, GroupPresentation(("a", "b"), (relator,)),
        Violation("component-empty", "components[0]", "component has no arcs"),
        Crossing("a", "b", "c", 1),
        LinkDiagram((("a",),), (), "unknot"),
        FourGraph.from_matchings(2, [[[0, 1]]] * 4),
        CorpusEntry("u1", "U[1]", "9_126", "u2"),
        HomCount(12, 6), SubgroupCount(1, 3), config, z2, witness,
        Verdict("Distinguished", witness, z2, z3),
    ]


def test_value_classes_behave_as_frozen_records():
    values = value_instances()
    assert {type(v) for v in values} == set(Record.__subclasses__())
    assert len(values) == 14
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value
            if isinstance(value, (Witness, Verdict)):
                # a witness holds JSON lists and dicts, as its dataclass did
                with pytest.raises(TypeError):
                    hash(twin)
            else:
                assert hash(twin) == hash(value)
        for name in (value.__slots__[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == "%s(%s)" % (type(value).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(value, name)) for name in value.__slots__))
    assert repr(values[0]) == "Word(letters=(('a', 1), ('b', -1)))"
    assert repr(HomCount(12, 6)) == "HomCount(total=12, surjective=6, budget_exceeded=False)"
    assert repr(ProfileConfig()) == ("ProfileConfig(max_index=6, node_budget=100000000, "
                                     "simplify_budget=10000)")
    assert HomCount(1, 1) != SubgroupCount(1, 1)
    assert SubgroupCount(1, 1) != HomCount(1, 1)


# the defaults each value class's constructor takes; every other field is required
DEFAULTS = {
    Word: {"letters": ()},
    Relator: {"rhs": Word()},
    LinkDiagram: {"name": None},
    HomCount: {"budget_exceeded": False},
    SubgroupCount: {"budget_exceeded": False},
    ProfileConfig: {"max_index": 6, "node_budget": 10 ** 8, "simplify_budget": 10 ** 4},
}


def test_value_class_constructors_take_exactly_their_fields():
    for value in value_instances():
        cls = type(value)
        fields = value._values()
        names = cls.__slots__
        params = inspect.signature(cls).parameters
        assert tuple(params) == names
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
        assert {name: p.default for name, p in params.items()
                if p.default is not p.empty} == DEFAULTS.get(cls, {})
        assert cls(*fields) == cls(**value._asdict()) == value
        calls = [((*fields, None), {}), (fields, {"extra": None})]
        if any(name not in DEFAULTS.get(cls, {}) for name in names):
            calls.append(((), {}))
        for args, kwargs in calls:
            with pytest.raises(TypeError, match=re.escape(cls.__qualname__ + ".__init__()")):
                cls(*args, **kwargs)


def test_witness_and_verdict_documents_are_fresh_copies():
    witness = Witness("hom_count:S3", {"total": 6, "surjective": 3},
                      {"total": 3, "surjective": 0}, {"kind": "hom_count", "group": "S3"})
    trivial = profile(GroupPresentation(("a",), ()), ProfileConfig(max_index=2))
    verdict = Verdict("Distinguished", witness, trivial, trivial)
    for owner, read in ((witness, lambda d: d), (verdict, lambda d: d["witness"])):
        first = read(owner.to_dict())
        first["left"]["total"] = 0
        first["recheck"]["group"] = "A5"
        assert read(owner.to_dict()) == {
            "invariant": "hom_count:S3", "left": {"total": 6, "surjective": 3},
            "right": {"total": 3, "surjective": 0},
            "recheck": {"kind": "hom_count", "group": "S3"}}
