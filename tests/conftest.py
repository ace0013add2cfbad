import json

import pytest
from importlib import resources

from linkgroup import load_catalog, parse_presentation
from linkgroup.corpus import load_corpus

CORPUS_KEYS = ("u1466", "u1563", "u2125", "u2165")


def data_path(name):
    """Filesystem path of a bundled data file (the install is a plain tree)."""
    return str(resources.files("linkgroup") / "data" / name)


def data_text(name):
    return (resources.files("linkgroup") / "data" / name).read_text()


def pres(text):
    return parse_presentation(text)


class CountingList(list):
    """A list that counts its subscripts."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def pins():
    return json.loads(data_text("pins.json"))
