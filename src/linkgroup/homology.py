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

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)), cols)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D diagonal in a divisibility chain.

    u_inv and v_inv are the inverses of U and V; they make the certificate
    checkable from sparse products alone.
    """

    d: IntegerMatrix
    u: IntegerMatrix
    v: IntegerMatrix
    u_inv: IntegerMatrix
    v_inv: IntegerMatrix

    @property
    def invariant_factors(self):
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols))
                     if self.d.entries[i][i] != 0)

    def verify(self, matrix):
        """Re-check the decomposition exactly against the original matrix.

        U @ A == D @ V^-1 together with U @ U^-1 == I and V @ V^-1 == I gives
        U @ A @ V == D with U and V unimodular (an integer matrix with an
        integer inverse has determinant +-1).  A decomposition of the wrong
        shape is rejected before any product.
        """
        m, n = matrix.rows, matrix.cols
        shapes = ((self.d, m, n), (self.u, m, m), (self.u_inv, m, m),
                  (self.v, n, n), (self.v_inv, n, n))
        if any(x.rows != rows or x.cols != cols for x, rows, cols in shapes):
            return False
        diag = [self.d.entries[i][i] for i in range(min(m, n))]
        # nonnegative, each entry dividing the next (zeros last), nothing off it
        if any(x < 0 for x in diag) or any(y if x == 0 else y % x
                                           for x, y in zip(diag, diag[1:])):
            return False
        if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(self.d.entries)):
            return False
        # D is diagonal: row i of D @ V^-1 is d_i times row i of V^-1, zero past the diagonal
        d_v_inv = [[x * diag[i] for x in self.v_inv.entries[i]] if i < len(diag) else [0] * n
                   for i in range(m)]
        return (_product(self.u.entries, matrix.entries, n) == d_v_inv
                and _product(self.u.entries, self.u_inv.entries, m) == _identity(m)
                and _product(self.v.entries, self.v_inv.entries, n) == _identity(n))


def _product(left, right, cols):
    """The rows of left @ right as lists, formed from the nonzeros of both."""
    right = [[(j, x) for j, x in enumerate(row) if x] for row in right]
    out = []
    for row in left:
        acc = [0] * cols
        for k, c in enumerate(row):
            if c:
                for j, x in right[k]:
                    acc[j] += c * x
        out.append(acc)
    return out


def _identity(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def smith_normal_form(matrix):
    """Diagonalize over the integers, tracking the row and column transforms.

    The pivot is always a minimal-absolute-value nonzero entry of the remaining
    block, the first in row-major order, which keeps intermediate entries
    small.  Each row operation on A is applied to U and, inverted, to U^-1;
    each column operation to V and, inverted, to V^-1.  U^-1 and V are kept
    transposed, so that every operation rewrites whole rows.  Every returned
    decomposition is re-verified exactly before being handed back.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    u = _identity(m)
    u_inv_t = _identity(m)
    v_t = _identity(n)
    v_inv = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        v_t[i], v_t[j] = v_t[j], v_t[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(dst, src, factor):
        # R_dst += f R_src on A and U is C_src -= f C_dst on U^-1
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]
        u_inv_t[src] = [x - factor * y for x, y in zip(u_inv_t[src], u_inv_t[dst])]

    def add_col(dst, src, factor):
        # C_dst += f C_src on A and V is R_src -= f R_dst on V^-1
        for row in a:
            if row[src]:
                row[dst] += factor * row[src]
        v_t[dst] = [x + factor * y for x, y in zip(v_t[dst], v_t[src])]
        v_inv[src] = [x - factor * y for x, y in zip(v_inv[src], v_inv[dst])]

    t = 0
    while t < min(m, n):
        best = None
        low = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (best is None or x < low):
                    best, low = (i, j), x
                    if x == 1:
                        break
            if low == 1:
                break
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])

        while True:
            dirty = False
            for i in range(m):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(n):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
                        break
            if not dirty:
                break

        # a unit pivot divides everything left
        pivot = a[t][t]
        offender = None
        if abs(pivot) != 1:
            offender = next((i for i in range(t + 1, m)
                             if any(x % pivot for x in a[i][t + 1:])), None)
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
            u_inv_t[i] = [-x for x in u_inv_t[i]]

    decomposition = SmithDecomposition(
        IntegerMatrix._of(tuple(map(tuple, a)), n),
        IntegerMatrix._of(tuple(map(tuple, u)), m),
        IntegerMatrix._of(tuple(zip(*v_t)), n),
        IntegerMatrix._of(tuple(zip(*u_inv_t)), m),
        IntegerMatrix._of(tuple(map(tuple, v_inv)), n),
    )
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


def is_perfect(presentation):
    """True when the abelianization is trivial."""
    return first_homology(presentation) == []
