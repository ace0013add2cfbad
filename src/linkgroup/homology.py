"""First homology of a presentation, by a sparse Smith normal form.

Everything here is integer arithmetic; no floating point is used anywhere.
The Smith form works on one sparse layout: each row is a {column: nonzero
entry} dict, and each column keeps the set of rows holding it.  _apply runs
one logged op on that layout, for the elimination and for the replay that
checks it alike.
"""


def _replays(diag, ops, rows, cols):
    """True when diag is a divisibility chain and ops take the sparse rows to it.

    Each op is (axis, i, j, factor) on the rows (axis 0) or columns (axis 1):
    swap lines i and j (factor None), add factor times line j to line i
    (i != j), or negate line i (i == j, factor -1).  Each is unimodular by
    its type, so rows ending as the diagonal proves U·A·V == D with U and V
    unimodular.  Every op is one that _smith logged, so its form is not
    checked again.  The ops are applied to rows and cols in place.
    """
    # nonnegative, each entry dividing the next (zeros last)
    if min(diag, default=0) < 0 or any(y if x == 0 else y % x for x, y in zip(diag, diag[1:])):
        return False
    for op in ops:
        _apply(rows, cols, *op)
    return rows == [{i: x} if x else {} for i, x in enumerate(diag)] + [{}] * (len(rows) - len(diag))


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
    if not _replays(diag, ops, *original):
        raise RuntimeError("Smith normal form self-check failed")
    return diag, ops


def first_homology(presentation):
    """Invariant factors of H1: torsion factors > 1, then one 0 per free rank.

    Each relator's exponent sums, its lhs exponents less its rhs ones, go
    straight to a sparse row, its columns in ascending order, the order in
    which _smith's pivot search breaks ties; no dense row or matrix is built.
    """
    index = {g: i for i, g in enumerate(presentation.generators)}
    n = len(index)
    rows, cols = [], [set() for _ in range(n)]
    for r, relator in enumerate(presentation.relators):
        sums = {}
        for name, exp in relator.lhs.letters:
            j = index[name]
            sums[j] = sums.get(j, 0) + exp
        for name, exp in relator.rhs.letters:
            j = index[name]
            sums[j] = sums.get(j, 0) - exp
        row = {j: sums[j] for j in sorted(sums) if sums[j]}
        for j in row:
            cols[j].add(r)
        rows.append(row)
    diag, _ = _smith(n, rows, cols)
    factors = [x for x in diag if x]
    return [x for x in factors if x > 1] + [0] * (n - len(factors))
