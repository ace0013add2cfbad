"""Command line for deriving presentations from framed link diagrams and
comparing the groups' finite-quotient invariants.

Exit codes: 0 success (or Distinguished), 10 Inconclusive, 1 input error
(a command line that does not parse included), 2 node budget exceeded.  No environment variable is read.
"""

import argparse
import json
import sys

from .corpus import load_corpus
from .diagrams import DiagramSyntaxError, parse_diagram
from .gems import gem_report, parse_fourgraph
from .homology import first_homology
from .permgroups import load_catalog
from .presentations import (fundamental_group, parse_presentation,
                            serialize_presentation, tietze_simplify)
from .quotients import (ProfileConfig, compare_profiles, distinguish,
                        json_text, profile, verify_witness)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_INCONCLUSIVE = 10


class UsageError(Exception):
    """A command line that does not parse."""


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError instead of exiting with 2,
    the exit code of an exceeded node budget."""

    def error(self, message):
        raise UsageError(message)


# every input-error class of the package is a ValueError
_INPUT_ERRORS = (OSError, ValueError, UsageError)


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_presentation(path):
    """A presentation from a file holding either presentation text or PD-JSON."""
    text = _read(path)
    if text.lstrip().startswith("{"):
        return fundamental_group(parse_diagram(text))
    return parse_presentation(text)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _config(args):
    return ProfileConfig(max_index=args.K, node_budget=args.budget,
                         simplify_budget=args.simplify_budget)


def cmd_derive(args):
    text = _read(args.file)
    if not text.lstrip().startswith("{"):
        raise DiagramSyntaxError("derive expects a PD-JSON diagram file")
    p = fundamental_group(parse_diagram(text))
    _emit(serialize_presentation(p, dialect=args.dialect), args.out)
    return EXIT_OK


def cmd_simplify(args):
    p = _load_presentation(args.file)
    simplified = tietze_simplify(p, budget=args.simplify_budget)
    _emit(serialize_presentation(simplified, dialect=args.dialect), args.out)
    return EXIT_OK


def cmd_homology(args):
    p = _load_presentation(args.file)
    doc = {"schema_version": 1, "homology": first_homology(p)}
    _emit(json_text(doc), args.out)
    return EXIT_OK


def cmd_profile(args):
    p = _load_presentation(args.file)
    prof = profile(p, _config(args), load_catalog(args.catalog))
    _emit(prof.to_json(), args.out)
    return EXIT_BUDGET if prof.any_budget_exceeded else EXIT_OK


def cmd_distinguish(args):
    left = _load_presentation(args.file_a)
    right = _load_presentation(args.file_b)
    verdict = distinguish(left, right, _config(args), load_catalog(args.catalog))
    _emit(verdict.to_json(), args.out)
    if verdict.outcome == "Distinguished":
        return EXIT_OK
    if verdict.left_profile.any_budget_exceeded or verdict.right_profile.any_budget_exceeded:
        return EXIT_BUDGET
    return EXIT_INCONCLUSIVE


def cmd_gem_check(args):
    graph = parse_fourgraph(_read(args.file))
    doc = {"schema_version": 1}
    doc.update(gem_report(graph))
    _emit(json_text(doc), args.out)
    return EXIT_OK


def cmd_verify_witness(args):
    try:
        doc = json.loads(_read(args.verdict))
    except RecursionError as e:
        raise ValueError("malformed verdict JSON: %s" % e) from None
    left = _load_presentation(args.file_a)
    right = _load_presentation(args.file_b)
    ok, message = verify_witness(doc, left, right, load_catalog(args.catalog))
    _emit(json_text({"schema_version": 1, "ok": ok, "message": message}),
          args.out)
    return EXIT_OK if ok else EXIT_INPUT


def cmd_corpus(args):
    entries = load_corpus()
    if not args.report:
        doc = {"schema_version": 1, "entries": [e._asdict() for e in entries.values()]}
        _emit(json_text(doc), args.out)
        return EXIT_OK

    config = _config(args)
    catalog = load_catalog(args.catalog)
    profiles = {key: profile(entry.presentation(), config, catalog)
                for key, entry in entries.items()}
    report_entries = {key: {"label": entry.label, "family": entry.family,
                            "partner": entry.partner, "profile": profiles[key].to_dict()}
                      for key, entry in entries.items()}
    pairs = {entry.family: sorted((key, entry.partner)) for key, entry in entries.items()}
    verdicts = {}
    for family, (left, right) in pairs.items():
        witness = compare_profiles(profiles[left], profiles[right])
        verdicts[family] = {
            "left": left,
            "right": right,
            "outcome": "Distinguished" if witness else "Inconclusive",
            "witness": None if witness is None else witness.to_dict(),
        }
    doc = {
        "schema_version": 1,
        "config": next(iter(profiles.values())).config_dict(),
        "entries": report_entries,
        "verdicts": verdicts,
    }
    _emit(json_text(doc), args.out)
    if any(p.any_budget_exceeded for p in profiles.values()):
        return EXIT_BUDGET
    return EXIT_OK


def _parser():
    parser = _Parser(
        prog="linkgroup",
        description="Fundamental-group invariants of blackboard framed surgery "
                    "diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = ProfileConfig()

    def common(p, config=False, catalog=False, simplify=False, dialect=False):
        p.add_argument("--out", default=None, help="write output to this file")
        if config:
            p.add_argument("--K", type=int, default=defaults.max_index,
                           help="largest subgroup index to count (default %(default)s)")
            p.add_argument("--budget", type=int, default=defaults.node_budget,
                           help="search node budget (default %(default)s)")
        if config or catalog:
            p.add_argument("--catalog", default=None,
                           help="path to an alternate target-group catalog")
        if config or simplify:
            p.add_argument("--simplify-budget", type=int,
                           default=defaults.simplify_budget,
                           help="rewrite budget for simplification (default %(default)s)")
        if dialect:
            p.add_argument("--dialect", choices=("native", "plain", "gap"),
                           default="native", help="output text dialect")

    commands = (
        ("derive", "presentation from a PD-JSON diagram", ["file"], cmd_derive,
         dict(dialect=True)),
        ("simplify", "rewrite a presentation smaller", ["file"], cmd_simplify,
         dict(simplify=True, dialect=True)),
        ("homology", "first homology of the presented group", ["file"], cmd_homology, {}),
        ("profile", "invariant profile of one input", ["file"], cmd_profile, dict(config=True)),
        ("distinguish", "compare the profiles of two inputs", ["file_a", "file_b"],
         cmd_distinguish, dict(config=True)),
        ("gem-check", "sphere test for a 4-colored graph", ["file"], cmd_gem_check, {}),
        # the replay runs under the config recorded in the verdict
        ("verify-witness", "replay a stored verdict witness", ["verdict", "file_a", "file_b"],
         cmd_verify_witness, dict(catalog=True)),
        ("corpus", "list bundled entries or run the report", [], cmd_corpus, dict(config=True)),
    )
    for name, help_text, positionals, func, options in commands:
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        if name == "corpus":
            p.add_argument("--report", action="store_true",
                           help="compute profiles and pair verdicts for all entries")
        common(p, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _INPUT_ERRORS as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
