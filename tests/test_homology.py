import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from linkgroup import cli, homology
from linkgroup.homology import _replays, first_homology
from linkgroup.presentations import parse_presentation, tietze_simplify
from conftest import CORPUS_KEYS, data_text, diagonal_matrix, smith, sparse_rows
from oracles import (minor_gcd_invariant_factors, reference_det, reference_log_transforms,
                     reference_matmul, reference_smith_normal_form, reference_smith_verify)


def replays(diag, ops, matrix, cols):
    """_replays on a fresh sparse copy of the dense rows."""
    return _replays(diag, ops, *sparse_rows(matrix, cols))


def nonzero(diag):
    return tuple(x for x in diag if x)


def test_det():
    assert reference_det(((2, 0), (0, 3))) == 6
    assert reference_det(((0, 1), (1, 0))) == -1
    assert reference_det(((1, 2), (2, 4))) == 0
    assert reference_det(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))) == 1
    assert reference_det(()) == 1
    with pytest.raises(ValueError):
        reference_det(((1, 2),))


def test_matmul():
    a = ((1, 2), (3, 4))
    assert reference_matmul(a, ((1, 0), (0, 1)), 2) == a
    assert reference_matmul(((), ()), (), 3) == ((0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        reference_matmul(a, ((1, 2, 3),), 3)


def test_snf_known_cases():
    assert nonzero(smith([[2, 0], [0, 3]], 2)[0]) == (1, 6)
    assert nonzero(smith([[2, 4], [4, 8]], 2)[0]) == (2,)
    assert nonzero(smith([[0, 0]] * 3, 2)[0]) == ()
    assert nonzero(smith([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)[0]) == (1, 1, 1)
    # the classic 2x2 with a unit: [[2,1],[0,2]] ~ diag(1, 4)
    assert nonzero(smith([[2, 1], [0, 2]], 2)[0]) == (1, 4)


def test_snf_verify_rejects_tampering():
    m = [[2, 0], [0, 3]]
    diag, ops = smith(m, 2)
    d = diagonal_matrix(diag, 2, 2)
    assert replays(diag, ops, m, 2) and certificate_holds(d, ops, m, 2)
    # 2 does not divide 3
    assert not replays([2, 3], [], m, 2)
    assert not certificate_holds(tuple(map(tuple, m)), [], m, 2)
    negative = [[-2]]
    assert smith(negative, 1)[1] == [(0, 0, 0, -1)]
    assert not replays([-2], [], negative, 1)
    assert not certificate_holds(((-2,),), [], negative, 1)
    # a D of the wrong shape is rejected, not an error
    for wrong in (((0, 0, 0),) * 2, ((0, 0),) * 3):
        assert not certificate_holds(wrong, ops, m, 2)
    # each malformed op is rejected, not an error; the pairs would otherwise
    # undo each other and leave the certificate intact
    for bad in ([(0, 0, 0, 2)] * 2,           # i == j scales by other than -1
                [(1, 1, 1, None)],            # a line swapped with itself
                [(0, 2, 0, 1)],               # index out of range
                [(0, -1, 0, None)] * 2,
                [(0, 0, 1, True), (0, 0, 1, -1)],  # a bool factor
                [(0, 0, 1, 1.0), (0, 0, 1, -1.0)],  # a float factor
                [(2, 0, 1, None)] * 2,        # an axis other than 0/1
                [(True, 0, 1, None)] * 2,
                [(0, 0, 1)],                  # not a 4-tuple
                [(0, 0, 1, None, 0)] * 2,
                [[0, 0, 1, None]] * 2):
        for changed in (ops + bad, bad + ops):
            assert certificate_holds(d, changed, m, 2) is False, bad


def test_self_check_rejects_a_dropped_op_and_a_changed_factor():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    diag, ops = smith(m, 3)
    assert diag == [2, 6, 12]
    d = diagonal_matrix(diag, 3, 3)
    assert replays(diag, ops, m, 3) and certificate_holds(d, ops, m, 3)
    # the additions: _apply negates an op with i == j whatever its factor
    added = [k for k, (_, i, j, factor) in enumerate(ops) if factor is not None and i != j]
    assert len(ops) == 11 and len(added) == 8
    for k in range(len(ops)):
        dropped = ops[:k] + ops[k + 1:]
        assert not replays(diag, dropped, m, 3), k
        assert not certificate_holds(d, dropped, m, 3), k
    for k in added:
        axis, i, j, factor = ops[k]
        changed = ops[:k] + [(axis, i, j, factor + 1)] + ops[k + 1:]
        assert not replays(diag, changed, m, 3), k
        assert not certificate_holds(d, changed, m, 3), k


def test_first_homology_raises_when_the_self_check_fails(monkeypatch):
    monkeypatch.setattr(homology, "_replays", lambda *args: False)
    with pytest.raises(RuntimeError, match="Smith normal form self-check failed"):
        first_homology(parse_presentation("gens: a, b\nrels: a^2; b^3\n"))


def test_snf_matches_minor_gcd_oracle_on_seeded_randoms():
    rng = random.Random(20260814)
    for _ in range(150):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        diag, ops = smith(rows, c)
        assert certificate_holds(diagonal_matrix(diag, r, c), ops, rows, c)
        assert nonzero(diag) == minor_gcd_invariant_factors(rows, c)


def wirtinger_like(rng, cols):
    """Sparse rows as abelianized Wirtinger and filling relators give them.

    Each row is x_i - x_j; about a third also carry two entries of +-1/+-2.
    There are one to three more rows than columns.
    """
    rows = []
    for _ in range(cols + rng.randint(1, 3)):
        row = [0] * cols
        i, j, k, l = rng.sample(range(cols), 4)
        row[i], row[j] = 1, -1
        if rng.random() < 0.3:
            row[k], row[l] = rng.choice((1, -1, 2, -2)), rng.choice((1, -1, 2, -2))
        rows.append(row)
    return rows


def certificate_holds(d, ops, matrix, cols):
    """The log checked densely: D against the U, V that the oracle builds from it."""
    transforms = reference_log_transforms(ops, len(matrix), cols)
    return transforms is not None and reference_smith_verify(d, *transforms, matrix, cols)


def tampered(rng, d, ops, matrix, cols):
    """(D, log, matrix) triples one change away from the certificate (d, ops) of matrix."""
    m = len(matrix)

    def with_ops(changed):
        return d, changed, matrix

    def with_op(k, op):
        return with_ops(ops[:k] + [op] + ops[k + 1:])

    def bumped(x):
        i, j = rng.randrange(len(x)), rng.randrange(cols)
        rows = [list(r) for r in x]
        rows[i][j] += rng.choice((-2, -1, 1, 2))
        return tuple(map(tuple, rows))

    numeric = [k for k, op in enumerate(ops) if op[3] is not None]
    if numeric:
        k = rng.choice(numeric)
        axis, i, j, factor = ops[k]
        yield with_op(k, (axis, i, j, factor + rng.choice((-1, 1))))
    if ops:
        k = rng.randrange(len(ops))
        axis, i, j, factor = ops[k]
        size = (m, cols)[axis]
        moved = rng.choice([x for x in range(size) if x != i] or [size])
        yield with_op(k, (axis, i, moved, factor) if rng.random() < 0.5
                      else (axis, moved, j, factor))
        yield with_op(k, (1 - axis, i, j, factor))
        yield with_ops(ops[:k] + ops[k + 1:])
    if len(ops) > 1:
        k = rng.randrange(len(ops) - 1)
        yield with_ops(ops[:k] + [ops[k + 1], ops[k]] + ops[k + 2:])
    if m and cols:
        yield bumped(d), ops, matrix
        yield d, ops, bumped(matrix)


def tampered_verdict(d, ops, matrix, cols):
    """The dense check's verdict on a tampered certificate, after asserting that
    _replays agrees wherever it can read the input: a diagonal D and a log of
    well-formed ops.  _smith writes only such ops, so _replays has no check
    for the others."""
    expected = certificate_holds(d, ops, matrix, cols)
    diag = [d[i][i] for i in range(min(len(d), cols))]
    if (d == diagonal_matrix(diag, len(matrix), cols)
            and reference_log_transforms(ops, len(matrix), cols) is not None):
        assert replays(diag, ops, matrix, cols) == expected
    else:
        assert expected is False
    return expected


def test_snf_matches_reference_and_verify_agrees():
    rng = random.Random(20261018)
    matrices = [([], 3), ([[]] * 2, 0), ([[0, 0]] * 3, 2)]
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        matrices.append(([[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                           for _ in range(c)] for _ in range(r)], c))
    matrices += [(wirtinger_like(rng, cols), cols) for cols in (30, 30, 45, 60, 80, 100)]
    outcomes = {True: 0, False: 0}
    for matrix, cols in matrices:
        diag, ops = smith(matrix, cols)
        d = diagonal_matrix(diag, len(matrix), cols)
        assert d == reference_smith_normal_form(matrix, cols)[0]
        assert certificate_holds(d, ops, matrix, cols)
        if cols > 45:
            continue  # the dense reference check is slow; the shapes above cover it
        for _ in range(3):
            for candidate in tampered(rng, d, ops, matrix, cols):
                outcomes[tampered_verdict(*candidate, cols)] += 1
    # some changes leave a valid certificate (commuting ops swapped, an op with no effect)
    assert outcomes[False] > 600 and outcomes[True] > 50


def found_shaped(rng, cols):
    """4 entries of +-1/+-2 per row, 1-3 more rows than columns.

    An elimination that kept dense U and V let their entries grow past
    10^5 bits at 70 columns.
    """
    rows = []
    for _ in range(cols + rng.randint(1, 3)):
        row = [0] * cols
        for j in rng.sample(range(cols), 4):
            row[j] = rng.choice((1, -1, 2, -2))
        rows.append(row)
    return rows


def test_snf_coefficients_stay_bounded_on_large_sparse_matrices(tmp_path, capsys):
    rng = random.Random(20261019)
    for cols in (70, 100, 150):
        matrix = found_shaped(rng, cols)
        diag, ops = smith(matrix, cols)
        assert replays(diag, ops, matrix, cols)
        assert all(abs(op[3]) < 2 ** 128 for op in ops if op[3] is not None)
        rows = list(range(len(matrix)))
        columns = list(range(cols))
        rng.shuffle(rows)
        rng.shuffle(columns)
        permuted = [[matrix[i][j] for j in columns] for i in rows]
        transposed = list(zip(*matrix))
        for other, width in ((permuted, cols), (transposed, len(matrix))):
            assert nonzero(smith(other, width)[0]) == nonzero(diag)
        if cols == 100:
            # the same matrix as a presentation, through the command line
            gens = ["x%d" % j for j in range(cols)]
            relators = ["*".join("%s^%d" % (gens[j], x) for j, x in enumerate(row) if x)
                        for row in matrix]
            path = tmp_path / "sparse.pres"
            path.write_text("gens: %s\nrels: %s\n" % (", ".join(gens), "; ".join(relators)))
            assert cli.main(["homology", str(path)]) == 0
            factors = nonzero(diag)
            expected = [x for x in factors if x > 1] + [0] * (cols - len(factors))
            assert json.loads(capsys.readouterr().out)["homology"] == expected


# Small blocks with their Smith forms; every entry is 0 or 2^a 3^b
SMITH_BLOCKS = ((((1,),), (1,)), (((2,),), (2,)), (((0,),), (0,)),
                (((2, 1), (0, 2)), (1, 4)), (((2, 0), (0, 3)), (1, 6)),
                (((3, 3), (0, 6)), (3, 6)))


def chain_of_diagonal(diagonal):
    """Invariant factors of a diagonal matrix of 0s and 2^a 3^b: the k-th smallest
    power of each prime goes to the k-th factor, and the zeros drop out."""
    nonzero = [x for x in diagonal if x]
    factors = [1] * len(nonzero)
    for p in (2, 3):
        powers = []
        for x in nonzero:
            q = 1
            while x % (q * p) == 0:
                q *= p
            powers.append(q)
        factors = [f * q for f, q in zip(factors, sorted(powers))]
    return tuple(factors)


def mixed_smith(rng, rows, cols):
    """(A, invariant factors of A) for a seeded rows x cols matrix of known Smith form.

    Small Smith blocks run down the diagonal; rows + cols seeded row and
    column additions of +-1 or +-2 times another line, then a shuffle of
    the rows and of the columns, hide them without changing the factors.
    """
    a = [[0] * cols for _ in range(rows)]
    diagonal = []
    t = 0
    while t < min(rows, cols):
        block, smith = rng.choice(SMITH_BLOCKS)
        if t + len(block) > min(rows, cols):
            block, smith = SMITH_BLOCKS[0]
        for i, line in enumerate(block):
            a[t + i][t:t + len(line)] = line
        diagonal += smith
        t += len(block)
    for _ in range(rows + cols):
        axis = rng.randrange(2)
        i, j = rng.sample(range((rows, cols)[axis]), 2)
        factor = rng.choice((1, -1, 1, -1, 2, -2))
        if axis == 0:
            a[i] = [x + factor * y for x, y in zip(a[i], a[j])]
        else:
            for line in a:
                line[i] += factor * line[j]
    rng.shuffle(a)
    order = rng.sample(range(cols), cols)
    return [[line[j] for j in order] for line in a], chain_of_diagonal(diagonal)


def test_chain_of_diagonal_matches_minor_gcds():
    rng = random.Random(20261020)
    for _ in range(40):
        diagonal = [rng.choice((0, 1, 2, 3, 4, 6, 8, 9, 12, 18)) for _ in range(rng.randint(1, 4))]
        rows = [[x if i == j else 0 for j in range(len(diagonal))] for i, x in enumerate(diagonal)]
        assert chain_of_diagonal(diagonal) == minor_gcd_invariant_factors(rows, len(diagonal))


def test_snf_known_factors_at_scale():
    """Sparse matrices of known Smith form at 100-600 columns, 480 x 241 among them.

    The dense certificate_holds builds U and V and takes their Bareiss
    determinants: 0.3 s at 101 x 100, 2.4 s at 250 x 200 and 9 s at
    480 x 241 on a 2-CPU Xeon, so only the two smaller ones get it.
    """
    rng = random.Random(20261021)
    for rows, cols in ((101, 100), (250, 200), (480, 241), (600, 600)):
        matrix, factors = mixed_smith(rng, rows, cols)
        diag, ops = smith(matrix, cols)
        assert nonzero(diag) == factors, (rows, cols)
        assert replays(diag, ops, matrix, cols)
        if rows > 250:
            continue
        d = diagonal_matrix(diag, rows, cols)
        assert certificate_holds(d, ops, matrix, cols)
        if cols == 100:
            outcomes = {True: 0, False: 0}
            for candidate in tampered(rng, d, ops, matrix, cols):
                outcomes[tampered_verdict(*candidate, cols)] += 1
            assert outcomes[False] >= 5


def test_snf_matches_reference_on_wirtinger_like_matrices():
    # sizes between those test_snf_matches_reference_and_verify_agrees takes
    rng = random.Random(20261022)
    for cols in (40, 50, 55, 65, 70, 75):
        matrix = wirtinger_like(rng, cols)
        diag, ops = smith(matrix, cols)
        d = diagonal_matrix(diag, len(matrix), cols)
        assert d == reference_smith_normal_form(matrix, cols)[0]
        assert certificate_holds(d, ops, matrix, cols)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_snf_divisibility_chain(rows):
    factors = nonzero(smith(rows, 3)[0])
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(f > 0 for f in factors)


def test_abelianization_matrix(monkeypatch):
    # each relator's exponent sums reach _smith as a sparse row, columns ascending
    seen = []

    def record(n, rows, cols):
        seen.append((n, rows, cols))
        return [], []

    monkeypatch.setattr(homology, "_smith", record)
    first_homology(parse_presentation("gens: a, b\nrels: a*b*a^-1*b^-1; a^3 = b; b^2*a^-1*b\n"))
    [(n, rows, cols)] = seen
    assert n == 2
    assert [list(row.items()) for row in rows] == [[], [(0, 3), (1, -1)], [(0, -1), (1, 3)]]
    assert cols == [{1, 2}, {1, 2}]


def test_first_homology_small_groups():
    assert first_homology(parse_presentation("gens: a\nrels:\n")) == [0]
    assert first_homology(parse_presentation("gens: a\nrels: a^2\n")) == [2]
    assert first_homology(parse_presentation("gens: a, b\nrels: a^2; b^3\n")) == [6]
    assert first_homology(parse_presentation("gens: a, b\nrels: a*b*a^-1*b^-1\n")) == [0, 0]
    trefoil = parse_presentation(data_text("trefoil.pres"))
    assert first_homology(trefoil) == [0]


def test_corpus_presentations_are_perfect():
    for key in CORPUS_KEYS:
        p = parse_presentation(data_text(key + ".pres"))
        assert first_homology(p) == []


def test_homology_invariant_under_simplification_on_randoms():
    rng = random.Random(7)
    names = ("a", "b", "c")
    for _ in range(40):
        n_gens = rng.randint(1, 3)
        gens = names[:n_gens]
        rels = []
        for _ in range(rng.randint(0, 3)):
            letters = "*".join(
                "%s^%d" % (rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 5)))
            rels.append(letters)
        text = "gens: %s\nrels: %s\n" % (", ".join(gens), "; ".join(rels))
        p = parse_presentation(text)
        assert first_homology(tietze_simplify(p)) == first_homology(p)
