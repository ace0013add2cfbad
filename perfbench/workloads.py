"""The three workloads: their inputs, the calls into the package, and the checks.

Every call into the package goes through a module attribute
(``lg.quotients.profile``, not a name bound at import), so the traced run's
wrappers see exactly the calls the untraced run makes.
"""

import contextlib
import importlib
import io
import json
import os
import random

import checks
import gen

SURGERY_MAX_INDEX = 4


class CorpusReport:
    """The paper's corpus job: profile the four bundled entries, pair verdicts, report."""

    name = "corpus_report"

    def __init__(self, lg, catalog, seed, tiny, src):
        self.lg = lg
        self.catalog = catalog
        self.config = lg.quotients.ProfileConfig()
        self.entries = lg.corpus.load_corpus()
        data = os.path.join(src, "linkgroup", "data")
        with open(os.path.join(data, "pins.json"), encoding="utf-8") as f:
            self.pins = json.load(f)["entries"]
        with open(os.path.join(data, "report.json"), "rb") as f:
            self.report = f.read()
        keys = list(self.entries)
        random.Random("corpus_report:%d" % seed).shuffle(keys)
        self.keys = ["u2165"] if tiny else keys   # tiny: the quickest entry alone

    def items(self):
        return self.keys

    def item_id(self, key):
        return key

    def run(self, key):
        presentation = self.entries[key].presentation()
        return self.lg.quotients.profile(presentation, self.config, self.catalog, workers=1)

    def check(self, key, prof):
        d = prof.to_dict()
        problems = checks.profile_mismatches(d, self.pins[key])
        if checks.budget_flagged(d):
            problems.append("budget exceeded")
        return problems

    def finish(self, profiles):
        """Run the program's own `corpus --report` on the pass's profiles.

        `linkgroup.cli.profile` answers from the profiles the timed pass
        computed, so this check re-runs no search; everything else, from the
        argument defaults to the report's assembly and bytes, is the command's.
        """
        if len(profiles) != len(self.entries):
            return 0, [], None
        cli = importlib.import_module("linkgroup.cli")
        problems, order = [], iter(self.entries)

        def answered(presentation, config, catalog, workers=1):
            key = next(order)
            if presentation != self.entries[key].presentation() or config != self.config:
                problems.append("corpus command profiled %s with other input or config" % key)
            return profiles[key]

        real, cli.profile, out = cli.profile, answered, io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["corpus", "--report"])
        finally:
            cli.profile = real
        if code != 0:
            problems.append("corpus --report exited with %d" % code)
        if out.getvalue().encode() != self.report:
            return 1, problems + ["report bytes differ from data/report.json"], None
        decisive = computed = 0
        for verdict in json.loads(out.getvalue())["verdicts"].values():
            d, c = checks.decisive_entries({
                "left": profiles[verdict["left"]].to_dict(),
                "right": profiles[verdict["right"]].to_dict(),
                "witness": verdict["witness"]})
            decisive += d
            computed += c
        return 1, problems, (decisive, computed)


class SurgeryPairs:
    """Generated framed 3-strand closures, compared pairwise at index 4."""

    name = "surgery_pairs"

    def __init__(self, lg, catalog, seed, tiny, src):
        self.lg = lg
        self.catalog = catalog
        self.config = lg.quotients.ProfileConfig(max_index=SURGERY_MAX_INDEX)
        self.pairs = gen.surgery_pairs(seed, count=3 if tiny else gen.SURGERY_PAIRS)

    def items(self):
        return self.pairs

    def item_id(self, pair):
        return pair["id"]

    def _presentation(self, side):
        lg = self.lg
        diagram = lg.diagrams.parse_diagram(side["text"])
        diagram = lg.diagrams.blackboardize(diagram, side["framings"])
        return lg.presentations.fundamental_group(diagram)

    def run(self, pair):
        q = self.lg.quotients
        left = self._presentation(pair["left"])
        right = self._presentation(pair["right"])
        verdict = q.distinguish(left, right, self.config, self.catalog, workers=1)
        doc = verdict.to_dict()
        replay = None
        if verdict.outcome == "Distinguished":
            replay = q.verify_witness(doc, left, right, self.catalog, workers=1)
        return doc, replay

    def check(self, pair, output):
        doc, replay = output
        problems = []
        expected = {}
        for side in ("left", "right"):
            expected[side] = checks.expected_homology(pair[side]["text"], pair[side]["framings"])
            if doc[side]["homology"] != expected[side]:
                problems.append("%s homology %r, linking matrix gives %r"
                                % (side, doc[side]["homology"], expected[side]))
            if checks.budget_flagged(doc[side]):
                problems.append("%s budget exceeded" % side)
        if pair["kind"] == "mirror" and doc["outcome"] != "Inconclusive":
            problems.append("mirror pair came out %s" % doc["outcome"])
        if expected["left"] != expected["right"] and (
                doc["outcome"] != "Distinguished" or doc["witness"]["invariant"] != "homology"):
            problems.append("homology differs but the verdict has no homology witness")
        if doc["outcome"] == "Distinguished" and not (replay and replay[0]):
            problems.append("witness did not replay: %r" % (replay,))
        return problems

    def finish(self, outputs):
        decisive = computed = 0
        for doc, _ in outputs.values():
            d, c = checks.decisive_entries(doc)
            decisive += d
            computed += c
        return 0, [], (decisive, computed)


class LargeDiagrams:
    """Generated 4-6 strand closures through the `linkgroup homology` pipeline."""

    name = "large_diagrams"

    def __init__(self, lg, catalog, seed, tiny, src):
        self.lg = lg
        self.diagrams = gen.large_diagrams(seed, count=1 if tiny else gen.LARGE_DIAGRAMS)

    def items(self):
        return self.diagrams

    def item_id(self, item):
        return item["id"]

    def run(self, item):
        lg = self.lg
        diagram = lg.diagrams.parse_diagram(item["text"])
        diagram = lg.diagrams.blackboardize(diagram, item["framings"])
        presentation = lg.presentations.fundamental_group(diagram)
        simplified = lg.presentations.tietze_simplify(presentation)
        return lg.homology.first_homology(simplified)

    def check(self, item, homology):
        expected = checks.expected_homology(item["text"], item["framings"])
        if homology != expected:
            return ["homology %r, linking matrix gives %r" % (homology, expected)]
        return []

    def finish(self, outputs):
        return 0, [], (0, 0)


WORKLOADS = {w.name: w for w in (CorpusReport, SurgeryPairs, LargeDiagrams)}
