import json
import os

import pytest

import linkgroup
from linkgroup import load_catalog, parse_presentation
from linkgroup.corpus import load_corpus
from linkgroup.homology import _smith

CORPUS_KEYS = ("u1466", "u1563", "u2125", "u2165")


def data_path(name):
    """Filesystem path of a bundled data file, next to the package as corpus._data reads it."""
    return os.path.join(os.path.dirname(linkgroup.__file__), "data", name)


def data_text(name):
    with open(data_path(name), encoding="utf-8") as f:
        return f.read()


def pres(text):
    return parse_presentation(text)


def sparse_rows(matrix, cols):
    """Dense rows over cols columns in the layout _smith takes: {column: entry}
    dicts with ascending keys, and each column's set of rows."""
    rows = [{j: x for j, x in enumerate(line) if x} for line in matrix]
    return rows, [{i for i, row in enumerate(rows) if j in row} for j in range(cols)]


def smith(matrix, cols):
    """(diagonal, log) of _smith on the dense rows over cols columns."""
    return _smith(cols, *sparse_rows(matrix, cols))


def diagonal_matrix(diag, rows, cols):
    """The rows x cols matrix D with diag down its diagonal, as row tuples."""
    return tuple(tuple(diag[i] if i == j else 0 for j in range(cols)) for i in range(rows))


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
