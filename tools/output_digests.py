"""Record the count and SHA-256 of the package's outputs on a fixed input set.

The inputs are the benchmark's seeded surgery pairs (perfbench/gen.py, seeds
1-3), the four corpus entries and the trefoil.  For each family of outputs
the digest covers every text in order, so any changed byte in any one of them
changes it:

- verdicts: `distinguish` on every pair at max_index 4 and node budgets 60,
  400 and 10^8, as verdict JSON;
- replays: `verify_witness` on each Distinguished verdict, as JSON [ok, message];
- diagrams: `serialize_diagram` of every blackboardized side;
- profiles: the corpus entries at max_index 6 and the trefoil at 7, as JSON.

Run from the repository root:  python3 tools/output_digests.py
It writes tools/output_digests.json; CI regenerates it and fails on a diff.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen
from linkgroup import (ProfileConfig, blackboardize, distinguish,
                       fundamental_group, load_catalog, load_corpus, parse_diagram,
                       parse_presentation, profile, serialize_diagram, verify_witness)

SEEDS = (1, 2, 3)
PAIR_MAX_INDEX = 4
BUDGETS = (60, 400, 10 ** 8)


def outputs():
    """{family: [text, ...]} in a fixed order."""
    catalog = load_catalog()
    out = {"verdicts": [], "replays": [], "diagrams": [], "profiles": []}
    for seed in SEEDS:
        for pair in gen.surgery_pairs(seed):
            sides = []
            for side in (pair["left"], pair["right"]):
                diagram = blackboardize(parse_diagram(side["text"]), side["framings"])
                out["diagrams"].append(serialize_diagram(diagram))
                sides.append(fundamental_group(diagram))
            for budget in BUDGETS:
                config = ProfileConfig(max_index=PAIR_MAX_INDEX, node_budget=budget)
                verdict = distinguish(*sides, config, catalog)
                out["verdicts"].append(verdict.to_json())
                if verdict.outcome == "Distinguished":
                    replay = verify_witness(verdict.to_dict(), *sides, catalog)
                    out["replays"].append(json.dumps(list(replay)))
    for entry in load_corpus().values():
        out["profiles"].append(profile(entry.presentation(), ProfileConfig(), catalog).to_json())
    with open(os.path.join(ROOT, "src", "linkgroup", "data", "trefoil.pres"),
              encoding="utf-8") as f:
        trefoil = parse_presentation(f.read())
    out["profiles"].append(profile(trefoil, ProfileConfig(max_index=7), catalog).to_json())
    return out


def main():
    doc = {family: {"count": len(texts),
                    "sha256": hashlib.sha256("".join(texts).encode()).hexdigest()}
           for family, texts in outputs().items()}
    path = os.path.join(ROOT, "tools", "output_digests.json")
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
