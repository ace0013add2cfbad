"""Bundled worked examples: two pairs of surgery diagrams whose manifolds share
a family label; whether the members of a pair can be told apart is exactly what
the invariant profiles are for.

Each entry carries a framed link diagram and the presentation derived from it,
as shipped files, so tests and the command line can replay the whole pipeline
against fixed inputs.
"""

import json
import os

from ._record import Record
from .diagrams import parse_diagram
from .presentations import parse_presentation


def _data(name):
    """The text of the bundled file data/<name> next to this module, read as UTF-8."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return f.read()


class CorpusEntry(Record):
    __slots__ = ("key", "label", "family", "partner")

    def __init__(self, key, label, family, partner):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "partner", partner)

    def diagram_text(self):
        return _data(self.key + ".pd.json")

    def diagram(self):
        return parse_diagram(self.diagram_text())

    def presentation_text(self):
        return _data(self.key + ".pres")

    def presentation(self):
        return parse_presentation(self.presentation_text())


def load_corpus():
    """The bundled entries keyed by entry key, in shipped order."""
    doc = json.loads(_data("corpus.json"))
    return {row["key"]: CorpusEntry(**row) for row in doc["entries"]}
