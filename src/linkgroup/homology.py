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

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)), cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        out = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                    for row in self.entries)
        return IntegerMatrix(out, other.cols)

    def det(self):
        """Exact determinant by Bareiss fraction-free elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal in a divisibility chain."""

    d: IntegerMatrix
    u: IntegerMatrix
    v: IntegerMatrix

    @property
    def invariant_factors(self):
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))
                     if self.d.entries[i][i] != 0)

    def verify(self, matrix):
        """Re-check the decomposition exactly against the original matrix."""
        if (self.u @ matrix) @ self.v != self.d:
            return False
        if abs(self.u.det()) != 1 or abs(self.v.det()) != 1:
            return False
        diag = [self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))]
        # nonnegative, each entry dividing the next (zeros last), nothing off it
        if any(x < 0 for x in diag) or any(y if x == 0 else y % x
                                           for x, y in zip(diag, diag[1:])):
            return False
        return not any(self.d.entries[i][j] for i in range(self.d.rows)
                       for j in range(self.d.cols) if i != j)


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a, u, dst, src, factor):
    a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]


def _add_col(a, v, dst, src, factor):
    for row in a:
        row[dst] += factor * row[src]
    for row in v:
        row[dst] += factor * row[src]


def smith_normal_form(matrix):
    """Diagonalize over the integers, tracking the row and column transforms.

    The pivot is always a minimal-absolute-value nonzero entry of the remaining
    block, which keeps intermediate entries small.  Every returned
    decomposition is re-verified exactly before being handed back.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            _swap_rows(a, u, t, best[0])
        if best[1] != t:
            _swap_cols(a, v, t, best[1])

        while True:
            dirty = False
            for i in range(m):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        _add_row(a, u, i, t, -q)
                    if a[i][t] != 0:
                        _swap_rows(a, u, i, t)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(n):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        _add_col(a, v, j, t, -q)
                    if a[t][j] != 0:
                        _swap_cols(a, v, j, t)
                        dirty = True
                        break
            if not dirty:
                break

        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, u, t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    decomposition = SmithDecomposition(
        IntegerMatrix.from_rows(a, n),
        IntegerMatrix.from_rows(u, m),
        IntegerMatrix.from_rows(v, n),
    )
    if not decomposition.verify(matrix):
        raise RuntimeError("Smith normal form self-check failed")
    return decomposition


def abelianization_matrix(presentation):
    """Relator-by-generator matrix of exponent sums."""
    gens = presentation.generators
    rows = []
    for r in presentation.relators:
        w = r.word
        rows.append(tuple(w.exponent_sum(g) for g in gens))
    return IntegerMatrix(tuple(rows), len(gens))


def first_homology(presentation):
    """Invariant factors of H1: torsion factors > 1, then one 0 per free rank."""
    matrix = abelianization_matrix(presentation)
    decomposition = smith_normal_form(matrix)
    diag = [decomposition.d.entries[i][i]
            for i in range(min(decomposition.d.rows, decomposition.d.cols))]
    torsion = [x for x in diag if x > 1]
    free_rank = matrix.cols - sum(1 for x in diag if x != 0)
    return torsion + [0] * free_rank


def is_perfect(presentation):
    """True when the abelianization is trivial."""
    return first_homology(presentation) == []
