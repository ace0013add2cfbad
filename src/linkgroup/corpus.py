"""Bundled worked examples: two pairs of surgery diagrams whose manifolds share
a family label; whether the members of a pair can be told apart is exactly what
the invariant profiles are for.

Each entry carries a framed link diagram and the presentation derived from it,
as shipped files, so tests and the command line can replay the whole pipeline
against fixed inputs.
"""

import json
from dataclasses import dataclass
from importlib import resources

from .diagrams import parse_diagram
from .presentations import parse_presentation


def _data(name):
    return (resources.files(__package__) / "data" / name).read_text()


@dataclass(frozen=True)
class CorpusEntry:
    key: str
    label: str
    family: str
    partner: str

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


def load_pins():
    """Frozen expected values for the bundled entries, for replay checks."""
    return json.loads(_data("pins.json"))
