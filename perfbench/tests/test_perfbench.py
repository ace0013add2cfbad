"""Tests of the benchmark itself: generator, checks, metric names, smoke runs.

    python3 -m pytest perfbench/tests
"""

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from linkgroup import blackboardize, first_homology, fundamental_group, parse_diagram  # noqa: E402
from linkgroup.corpus import load_corpus  # noqa: E402


def framed_homology(text, framings):
    return first_homology(fundamental_group(blackboardize(parse_diagram(text), framings)))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_generator_is_byte_identical_for_a_seed():
    for make in (gen.surgery_pairs, gen.large_diagrams):
        first = json.dumps(make(7), sort_keys=True)
        assert json.dumps(make(7), sort_keys=True) == first
        assert json.dumps(make(8), sort_keys=True) != first


def test_generated_diagrams_are_valid_and_sized():
    for pair in gen.surgery_pairs(3):
        for side in ("left", "right"):
            diagram = parse_diagram(pair[side]["text"])
            assert 10 <= len(diagram.crossings) <= 16
            assert len(diagram.components) == len(pair[side]["framings"])
    for item in gen.large_diagrams(3):
        diagram = parse_diagram(item["text"])
        assert 50 <= len(diagram.crossings) <= 100
        assert all(-6 <= f <= 6 for f in item["framings"])


def test_pair_kinds():
    pairs = gen.surgery_pairs(5)
    assert [p["kind"] for p in pairs[:3]] == list(gen.PAIR_KINDS)
    for pair in pairs:
        left, right = pair["left"], pair["right"]
        if pair["kind"] == "mirror":
            assert right["framings"] == [-f for f in left["framings"]]
        if pair["kind"] == "equal_homology":
            assert (checks.expected_homology(left["text"], left["framings"])
                    == checks.expected_homology(right["text"], right["framings"]))


@pytest.mark.parametrize("matrix, factors", [
    ([[0]], [0]),
    ([[5]], [5]),
    ([[-1]], []),
    ([[2, 0], [0, 4]], [2, 4]),
    ([[6, 0], [0, 4]], [2, 12]),
    ([[1, 1], [1, 1]], [0]),
    ([[2, 1], [1, 2]], [3]),
    ([[0, 0], [0, 0]], [0, 0]),
])
def test_invariant_factors_by_hand(matrix, factors):
    assert checks.invariant_factors(matrix) == factors


@pytest.mark.parametrize("n, word, framings, expected", [
    (2, [(1, 1)] * 3, [5], [5]),               # trefoil, +5 surgery
    (2, [(1, -1)] * 3, [-1], []),              # homology sphere
    (2, [(1, 1)] * 2, [2, 2], [3]),            # Hopf link: det 2*2 - 1
    (2, [(1, 1)] * 4, [2, 2], [2, 0]),         # lk 2: [[2,2],[2,2]]
    (3, [(1, 1), (2, -1)] * 2, [0], [0]),      # figure eight, 0 surgery
    (3, [], [1, 2, 3], [6]),                   # three unknots, lens spaces
])
def test_linking_matrix_check_matches_first_homology(n, word, framings, expected):
    text = gen.pd_text(gen.braid_closure(n, word))
    assert checks.expected_homology(text, framings) == expected
    assert framed_homology(text, framings) == expected


def test_linking_matrix_check_on_the_corpus():
    for entry in load_corpus().values():
        text = entry.diagram_text()
        assert checks.expected_homology(text) == []
        assert first_homology(fundamental_group(parse_diagram(text))) == []


def test_linking_matrix_check_on_generated_items():
    for item in gen.large_diagrams(11, count=3):
        assert (checks.expected_homology(item["text"], item["framings"])
                == framed_homology(item["text"], item["framings"]))


def toy_verdict(witness):
    side = {"config": {"catalog": ["C2", "C3"]}, "low_index": {"3": {}, "2": {}}}
    return {"left": side, "right": side, "witness": witness}


def test_decisive_entries_on_toy_verdicts():
    # comparison order: homology, hom_count:C2, hom_count:C3, low_index:2, low_index:3
    assert checks.decisive_entries(toy_verdict(None)) == (10, 10)
    assert checks.decisive_entries(toy_verdict({"invariant": "homology"})) == (2, 10)
    assert checks.decisive_entries(toy_verdict({"invariant": "hom_count:C3"})) == (6, 10)
    assert checks.decisive_entries(toy_verdict({"invariant": "low_index:3"})) == (10, 10)


def result_line(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


@pytest.mark.parametrize("workload", ["surgery_pairs", "large_diagrams", "corpus_report"])
def test_tiny_runs_print_the_declared_metrics(workload):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = result_line(run_bench("--workload", workload, "--seed", "1",
                                       "--seconds", "0", "--trace", trace, "--tiny"))
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared(key)
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_reference_starts_no_collection():
    running, started = [False], []

    def watch(phase, info):
        if phase == "start":
            started.append(running[0])

    gc.callbacks.append(watch)
    try:
        for _ in range(50):
            running[0] = True
            run.reference_seconds()
            running[0] = False
    finally:
        gc.callbacks.remove(watch)
    assert not any(started)
    assert gc.isenabled()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "surgery_pairs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_dump_writes_replayable_files(tmp_path):
    gen.dump("large_diagrams", 2, str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for item in manifest["items"]:
        framed = parse_diagram((tmp_path / (item["id"] + ".pd.json")).read_text())
        closure = (tmp_path / (item["id"] + ".closure.pd.json")).read_text()
        assert (first_homology(fundamental_group(framed))
                == checks.expected_homology(closure, item["framings"]))
