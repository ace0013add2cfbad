"""Exact integer matrices, Smith normal form, and first homology of a presentation.

Everything here is integer arithmetic; no floating point is used anywhere.
The Smith form works on one sparse layout, built by _sparse: each row is a
{column: nonzero entry} dict, and each column keeps the set of rows holding
it.  _apply runs one logged op on that layout, for the elimination and for
the replay that checks it alike.
"""

from itertools import compress

from ._record import Record


class IntegerMatrix(Record):
    """An immutable integer matrix; cols is kept explicitly so 0-row matrices work."""

    __slots__ = ("entries", "cols")

    def __init__(self, entries, cols):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "cols", cols)
        self.__post_init__()

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


class SmithDecomposition(Record):
    """D = U·A·V in a divisibility chain, certified by the log of operations.

    Each op is (axis, i, j, factor) on the rows (axis 0) or columns (axis 1):
    swap lines i and j (factor None), add factor times line j to line i
    (i != j), or negate line i (i == j, factor -1).  U is the product of the
    row ops and V of the column ops, each unimodular by its type.
    """

    __slots__ = ("d", "ops")

    def __init__(self, d, ops):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "ops", ops)

    @property
    def invariant_factors(self):
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))
                     if self.d.entries[i][i] != 0)

    def verify(self, matrix):
        """Re-check the decomposition exactly against the original matrix.

        D must be diagonal, nonnegative and a divisibility chain, and replaying
        the log on a sparse copy of A must give D; that proves U·A·V == D with
        U and V unimodular.  A D of the wrong shape or a malformed op is
        rejected, not an error.
        """
        m, n = matrix.rows, matrix.cols
        if self.d.rows != m or self.d.cols != n:
            return False
        if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(self.d.entries)):
            return False
        diag = [self.d.entries[i][i] for i in range(min(m, n))]
        return _replays(diag, self.ops, n, *_sparse(matrix.entries, n))


def _replays(diag, ops, n, rows, cols):
    """True when diag is a divisibility chain and ops take the sparse rows to it.

    diag is the diagonal of a D over n columns that holds nothing off it.
    The ops are checked one by one and applied to rows and cols in place.
    """
    # nonnegative, each entry dividing the next (zeros last)
    if min(diag, default=0) < 0 or any(y if x == 0 else y % x for x, y in zip(diag, diag[1:])):
        return False
    m = len(rows)
    for op in ops:
        if not _is_op(op, m, n):
            return False
        _apply(rows, cols, *op)
    return rows == [{i: x} if x else {} for i, x in enumerate(diag)] + [{}] * (m - len(diag))


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


def _sparse(lines, n):
    """Dense rows over n columns as {column: nonzero entry} dicts, and each column's set of rows."""
    span = range(n)
    rows, cols = [], [set() for _ in span]
    for i, line in enumerate(lines):
        row = {}
        for j in compress(span, line):
            row[j] = line[j]
            cols[j].add(i)
        rows.append(row)
    return rows, cols


def _apply(rows, cols, axis, i, j, factor):
    """Apply one logged op to the sparse rows and column sets, in place.

    A row op reads only line j's nonzeros, and a column op only the rows
    that hold column j; each keeps the other index in step.
    """
    if factor is None:
        if axis:
            for r in cols[i] | cols[j]:
                row = rows[r]
                if i not in row:
                    row[i] = row.pop(j)
                elif j in row:
                    row[i], row[j] = row[j], row[i]
                else:
                    row[j] = row.pop(i)
            cols[i], cols[j] = cols[j], cols[i]
        else:
            a = rows[j]
            b = rows[j] = rows[i]
            rows[i] = a
            for c in a.keys() ^ b.keys():
                col = cols[c]
                if c in a:
                    col.remove(j)
                    col.add(i)
                else:
                    col.remove(i)
                    col.add(j)
    elif i == j:
        if axis:
            for r in cols[i]:
                rows[r][i] = -rows[r][i]
        else:
            row = rows[i]
            for c in row:
                row[c] = -row[c]
    elif not factor:
        return  # adding 0 times a line changes nothing
    elif axis:
        target = cols[i]
        for r in cols[j]:
            row = rows[r]
            if i in row:
                x = row[i] + factor * row[j]
                if x:
                    row[i] = x
                else:
                    del row[i]
                    target.remove(r)
            else:
                row[i] = factor * row[j]
                target.add(r)
    else:
        target = rows[i]
        for c, y in rows[j].items():
            if c in target:
                x = target[c] + factor * y
                if x:
                    target[c] = x
                else:
                    del target[c]
                    cols[c].remove(i)
            else:
                target[c] = factor * y
                cols[c].add(i)


def smith_normal_form(matrix):
    """D and the log of elementary ops that takes matrix to it, re-verified (see _smith)."""
    m, n = matrix.rows, matrix.cols
    diag, ops = _smith(n, *_sparse(matrix.entries, n))
    line, d = [0] * n, []
    for i, x in enumerate(diag):
        line[i] = x
        d.append(tuple(line))
        line[i] = 0
    d += [tuple(line)] * (m - len(diag))
    return SmithDecomposition(IntegerMatrix._of(tuple(d), n), tuple(ops))


def _smith(n, rows, cols):
    """(diagonal, log): diagonalize the sparse rows over n columns, logging every op.

    The pivot is a nonzero entry of least absolute value in the remaining
    block.  Rows are searched from the first remaining one, and the search
    stops at the first row that holds a unit; ties go to the column with the
    fewest entries, so a sweep touches few rows.  The pivot is picked again
    after every row or column sweep that leaves a remainder, since that
    remainder is smaller (Havas, Holt and Rees, "Recognizing badly presented
    Z-modules", 1993).  A line's sign is fixed as soon as it is done.  rows
    and cols are consumed, and the log is re-verified by replaying it on a
    copy of them taken first.
    """
    m = len(rows)
    original = [row.copy() for row in rows], [col.copy() for col in cols]
    ops = []

    def run(*op):
        ops.append(op)
        _apply(rows, cols, *op)

    k, t = min(m, n), 0
    while t < k:
        least = 0
        for r in range(t, m):
            for c, x in rows[r].items():
                size = abs(x)
                if not least or size < least or size == least and len(cols[c]) < count:
                    least, count, i, j = size, len(cols[c]), r, c
            if least == 1:
                break
        if not least:
            break
        if i != t:
            run(0, t, i, None)
        if j != t:
            run(1, t, j, None)

        # rows and columns before t are clear, so only rows and columns past t
        # hold entries; a column op from column t touches only the rows in cols[t]
        row = rows[t]
        pivot = row[t]
        for i in cols[t] - {t}:
            run(0, i, t, -(rows[i][t] // pivot))
        if len(cols[t]) > 1:
            continue
        for j in row.keys() - {t}:
            run(1, j, t, -(row[j] // pivot))
        if len(row) > 1:
            continue

        # a unit pivot divides everything left
        if least != 1:
            offender = next((i for i in range(t + 1, m)
                             if any(x % pivot for x in rows[i].values())), None)
            if offender is not None:
                run(0, t, offender, 1)
                continue
        # line t is done: no later op reads or writes it
        if pivot < 0:
            run(0, t, t, -1)
        t += 1

    diag = [rows[i].get(i, 0) for i in range(k)]
    if not _replays(diag, ops, n, *original):
        raise RuntimeError("Smith normal form self-check failed")
    return diag, ops


def _exponent_sums(presentation):
    """Each relator's exponent sum of every generator, one list per relator."""
    index = {g: i for i, g in enumerate(presentation.generators)}
    lines = []
    for r in presentation.relators:
        line = [0] * len(index)
        for name, exp in r.word.letters:
            line[index[name]] += exp
        lines.append(line)
    return lines


def abelianization_matrix(presentation):
    """Relator-by-generator matrix of exponent sums."""
    return IntegerMatrix._of(tuple(map(tuple, _exponent_sums(presentation))),
                             len(presentation.generators))


def first_homology(presentation):
    """Invariant factors of H1: torsion factors > 1, then one 0 per free rank.

    The exponent sums go straight to sparse rows: no IntegerMatrix, and no D.
    """
    n = len(presentation.generators)
    diag, _ = _smith(n, *_sparse(_exponent_sums(presentation), n))
    factors = [x for x in diag if x]
    return [x for x in factors if x > 1] + [0] * (n - len(factors))
