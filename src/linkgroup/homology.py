"""Exact integer matrices, Smith normal form, and first homology of a presentation.

Everything here is integer arithmetic; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntegerMatrix:
    """An immutable integer matrix; cols is kept explicitly so 0-row matrices work."""

    entries: tuple
    cols: int

    def __post_init__(self):
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix row")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise ValueError("matrix entries must be plain ints, got %r" % (x,))

    @classmethod
    def _of(cls, entries, cols):
        """A matrix from rows of plain ints known to be valid, built without checking them."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", entries)
        object.__setattr__(matrix, "cols", cols)
        return matrix

    @property
    def rows(self):
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [tuple(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(rows[0])
        return cls(tuple(rows), cols)


@dataclass(frozen=True)
class SmithDecomposition:
    """D = U·A·V in a divisibility chain, certified by the log of operations.

    Each op is (axis, i, j, factor) on the rows (axis 0) or columns (axis 1):
    swap lines i and j (factor None), add factor times line j to line i
    (i != j), or negate line i (i == j, factor -1).  U is the product of the
    row ops and V of the column ops, each unimodular by its type.
    """

    d: IntegerMatrix
    ops: tuple

    @property
    def invariant_factors(self):
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))
                     if self.d.entries[i][i] != 0)

    def verify(self, matrix):
        """Re-check the decomposition exactly against the original matrix.

        D must be diagonal, nonnegative and a divisibility chain, and replaying
        the log on a copy of A must give D; that proves U·A·V == D with U and V
        unimodular.  A D of the wrong shape or a malformed op is rejected, not
        an error.
        """
        m, n = matrix.rows, matrix.cols
        if self.d.rows != m or self.d.cols != n:
            return False
        diag = [self.d.entries[i][i] for i in range(min(m, n))]
        # nonnegative, each entry dividing the next (zeros last), nothing off it
        if any(x < 0 for x in diag) or any(y if x == 0 else y % x
                                           for x, y in zip(diag, diag[1:])):
            return False
        if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(self.d.entries)):
            return False
        a = [list(row) for row in matrix.entries]
        for op in self.ops:
            if not _is_op(op, m, n):
                return False
            _apply(a, *op)
        return a == [list(row) for row in self.d.entries]


def _is_op(op, m, n):
    """True when op is one of the three unimodular kinds, within an m x n matrix."""
    if type(op) is not tuple or len(op) != 4:
        return False
    axis, i, j, factor = op
    if type(axis) is not int or axis not in (0, 1):
        return False
    size = n if axis else m
    if not all(type(k) is int and 0 <= k < size for k in (i, j)):
        return False
    if factor is None:
        return i != j
    return type(factor) is int and (i != j or factor == -1)


def _apply(a, axis, i, j, factor):
    """Apply one logged op to the rows of a (axis 0) or its columns (axis 1), in place."""
    if axis == 0:
        if factor is None:
            a[i], a[j] = a[j], a[i]
        elif i == j:
            a[i] = [-x for x in a[i]]
        else:
            a[i] = [x + factor * y for x, y in zip(a[i], a[j])]
    else:
        for row in a:
            if factor is None:
                row[i], row[j] = row[j], row[i]
            elif i == j:
                row[i] = -row[i]
            elif row[j]:
                row[i] += factor * row[j]


def smith_normal_form(matrix):
    """Diagonalize over the integers, logging every elementary operation.

    The pivot is a minimal-absolute-value nonzero entry of the remaining
    block, the first in row-major order, which keeps entries small.  It is
    picked again after every row or column sweep that leaves a remainder,
    since that remainder is smaller (Havas, Holt and Rees, "Recognizing badly
    presented Z-modules", 1993).  Every returned decomposition is re-verified
    by replaying its log before being handed back.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    ops = []

    def run(*op):
        ops.append(op)
        _apply(a, *op)

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j, x in enumerate(a[i][t:], t):
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, i, j = best
        if i != t:
            run(0, t, i, None)
        if j != t:
            run(1, t, j, None)

        # rows and columns before t are clear, so each sweep starts past t
        pivot = a[t][t]
        for i in range(t + 1, m):
            if a[i][t]:
                run(0, i, t, -(a[i][t] // pivot))
        if any(a[i][t] for i in range(t + 1, m)):
            continue
        for j in range(t + 1, n):
            if a[t][j]:
                run(1, j, t, -(a[t][j] // pivot))
        if any(a[t][t + 1:]):
            continue

        # a unit pivot divides everything left
        if abs(pivot) != 1:
            offender = next((i for i in range(t + 1, m)
                             if any(x % pivot for x in a[i][t + 1:])), None)
            if offender is not None:
                run(0, t, offender, 1)
                continue
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            run(0, i, i, -1)

    decomposition = SmithDecomposition(IntegerMatrix._of(tuple(map(tuple, a)), n), tuple(ops))
    if not decomposition.verify(matrix):
        raise RuntimeError("Smith normal form self-check failed")
    return decomposition


def abelianization_matrix(presentation):
    """Relator-by-generator matrix of exponent sums."""
    index = {g: i for i, g in enumerate(presentation.generators)}
    rows = []
    for r in presentation.relators:
        row = [0] * len(index)
        for name, exp in r.word.letters:
            row[index[name]] += exp
        rows.append(tuple(row))
    return IntegerMatrix._of(tuple(rows), len(index))


def first_homology(presentation):
    """Invariant factors of H1: torsion factors > 1, then one 0 per free rank."""
    matrix = abelianization_matrix(presentation)
    factors = smith_normal_form(matrix).invariant_factors
    return [x for x in factors if x > 1] + [0] * (matrix.cols - len(factors))
