import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from linkgroup import cli
from linkgroup.homology import (IntegerMatrix, SmithDecomposition,
                                abelianization_matrix, first_homology,
                                smith_normal_form)
from linkgroup.presentations import parse_presentation, tietze_simplify
from conftest import CORPUS_KEYS, data_text
from oracles import (minor_gcd_invariant_factors, reference_det, reference_log_transforms,
                     reference_matmul, reference_smith_normal_form, reference_smith_verify)


def mat(rows, cols=None):
    return IntegerMatrix.from_rows(rows, cols)


def test_matrix_validation():
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])
    with pytest.raises(ValueError):
        mat([[True]])
    with pytest.raises(ValueError):
        mat([])
    assert mat([], cols=3).rows == 0


def test_det():
    assert reference_det(mat([[2, 0], [0, 3]])) == 6
    assert reference_det(mat([[0, 1], [1, 0]])) == -1
    assert reference_det(mat([[1, 2], [2, 4]])) == 0
    assert reference_det(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == 1
    assert reference_det(mat([], cols=0)) == 1
    with pytest.raises(ValueError):
        reference_det(mat([[1, 2]]))


def test_matmul():
    a = mat([[1, 2], [3, 4]])
    assert reference_matmul(a, mat([[1, 0], [0, 1]])) == a
    with pytest.raises(ValueError):
        reference_matmul(a, mat([[1, 2, 3]]))


def test_snf_known_cases():
    assert smith_normal_form(mat([[2, 0], [0, 3]])).invariant_factors == (1, 6)
    assert smith_normal_form(mat([[2, 4], [4, 8]])).invariant_factors == (2,)
    assert smith_normal_form(mat([[0, 0]] * 3)).invariant_factors == ()
    assert smith_normal_form(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).invariant_factors == (1, 1, 1)
    # the classic 2x2 with a unit: [[2,1],[0,2]] ~ diag(1, 4)
    assert smith_normal_form(mat([[2, 1], [0, 2]])).invariant_factors == (1, 4)


def test_snf_verify_rejects_tampering():
    m = mat([[2, 0], [0, 3]])
    good = smith_normal_form(m)
    assert good.verify(m)
    assert not SmithDecomposition(m, ()).verify(m)  # 2 does not divide 3
    negative = mat([[-2]])
    assert smith_normal_form(negative).ops == ((0, 0, 0, -1),)
    assert not SmithDecomposition(negative, ()).verify(negative)
    # a D of the wrong shape is rejected, not an error
    for d in (mat([[0, 0, 0]] * 2), mat([[0, 0]] * 3)):
        assert not SmithDecomposition(d, good.ops).verify(m)
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
        for ops in (good.ops + tuple(bad), tuple(bad) + good.ops):
            assert SmithDecomposition(good.d, ops).verify(m) is False, bad
            assert certificate_holds(SmithDecomposition(good.d, ops), m) is False, bad


def test_snf_matches_minor_gcd_oracle_on_seeded_randoms():
    rng = random.Random(20260814)
    for _ in range(150):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        m = mat(rows, c)
        dec = smith_normal_form(m)
        assert dec.verify(m)
        assert dec.invariant_factors == minor_gcd_invariant_factors(rows, c)


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
    return mat(rows, cols)


def certificate_holds(dec, matrix):
    """The certificate checked densely on D and the U, V that the oracle builds from the log."""
    transforms = reference_log_transforms(dec.ops, matrix.rows, matrix.cols)
    return transforms is not None and reference_smith_verify(dec.d, *transforms, matrix)


def tampered(rng, dec, matrix):
    """Decompositions one change away from dec, and the matrix each is checked against."""
    ops = list(dec.ops)

    def with_ops(changed):
        return SmithDecomposition(dec.d, tuple(changed)), matrix

    def with_op(k, op):
        return with_ops(ops[:k] + [op] + ops[k + 1:])

    def bumped(x):
        i, j = rng.randrange(x.rows), rng.randrange(x.cols)
        rows = [list(r) for r in x.entries]
        rows[i][j] += rng.choice((-2, -1, 1, 2))
        return mat(rows, x.cols)

    numeric = [k for k, op in enumerate(ops) if op[3] is not None]
    if numeric:
        k = rng.choice(numeric)
        axis, i, j, factor = ops[k]
        yield with_op(k, (axis, i, j, factor + rng.choice((-1, 1))))
    if ops:
        k = rng.randrange(len(ops))
        axis, i, j, factor = ops[k]
        size = (matrix.rows, matrix.cols)[axis]
        moved = rng.choice([x for x in range(size) if x != i] or [size])
        yield with_op(k, (axis, i, moved, factor) if rng.random() < 0.5
                      else (axis, moved, j, factor))
        yield with_op(k, (1 - axis, i, j, factor))
        yield with_ops(ops[:k] + ops[k + 1:])
    if len(ops) > 1:
        k = rng.randrange(len(ops) - 1)
        yield with_ops(ops[:k] + [ops[k + 1], ops[k]] + ops[k + 2:])
    if matrix.rows and matrix.cols:
        yield SmithDecomposition(bumped(dec.d), dec.ops), matrix
        yield dec, bumped(matrix)


def test_snf_matches_reference_and_verify_agrees():
    rng = random.Random(20261018)
    matrices = [mat([], cols=3), mat([[]] * 2, cols=0), mat([[0, 0]] * 3)]
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        matrices.append(mat([[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                              for _ in range(c)] for _ in range(r)], c))
    matrices += [wirtinger_like(rng, cols) for cols in (30, 30, 45, 60, 80, 100)]
    outcomes = {True: 0, False: 0}
    for matrix in matrices:
        dec = smith_normal_form(matrix)
        assert dec.d == reference_smith_normal_form(matrix)[0]
        assert certificate_holds(dec, matrix)
        if matrix.cols > 45:
            continue  # the dense reference check is slow; the shapes above cover it
        for _ in range(3):
            for candidate, against in tampered(rng, dec, matrix):
                expected = certificate_holds(candidate, against)
                assert candidate.verify(against) == expected
                outcomes[expected] += 1
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
    return mat(rows, cols)


def test_snf_coefficients_stay_bounded_on_large_sparse_matrices(tmp_path, capsys):
    rng = random.Random(20261019)
    for cols in (70, 100, 150):
        matrix = found_shaped(rng, cols)
        dec = smith_normal_form(matrix)
        assert dec.verify(matrix)
        assert all(abs(op[3]) < 2 ** 128 for op in dec.ops if op[3] is not None)
        rows = list(range(matrix.rows))
        columns = list(range(cols))
        rng.shuffle(rows)
        rng.shuffle(columns)
        permuted = mat([[matrix.entries[i][j] for j in columns] for i in rows], cols)
        transposed = mat(list(zip(*matrix.entries)), matrix.rows)
        for other in (permuted, transposed):
            assert smith_normal_form(other).invariant_factors == dec.invariant_factors
        if cols == 100:
            # the same matrix as a presentation, through the command line
            gens = ["x%d" % j for j in range(cols)]
            relators = ["*".join("%s^%d" % (gens[j], x) for j, x in enumerate(row) if x)
                        for row in matrix.entries]
            path = tmp_path / "sparse.pres"
            path.write_text("gens: %s\nrels: %s\n" % (", ".join(gens), "; ".join(relators)))
            assert cli.main(["homology", str(path)]) == 0
            factors = dec.invariant_factors
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
    return mat([[line[j] for j in order] for line in a], cols), chain_of_diagonal(diagonal)


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
        dec = smith_normal_form(matrix)
        assert dec.invariant_factors == factors, (rows, cols)
        assert dec.verify(matrix)
        if rows > 250:
            continue
        assert certificate_holds(dec, matrix)
        if cols == 100:
            outcomes = {True: 0, False: 0}
            for candidate, against in tampered(rng, dec, matrix):
                expected = certificate_holds(candidate, against)
                assert candidate.verify(against) == expected
                outcomes[expected] += 1
            assert outcomes[False] >= 5


def test_snf_matches_reference_on_wirtinger_like_matrices():
    # sizes between those test_snf_matches_reference_and_verify_agrees takes
    rng = random.Random(20261022)
    for cols in (40, 50, 55, 65, 70, 75):
        matrix = wirtinger_like(rng, cols)
        dec = smith_normal_form(matrix)
        assert dec.d == reference_smith_normal_form(matrix)[0]
        assert dec.verify(matrix)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_snf_divisibility_chain(rows):
    dec = smith_normal_form(mat(rows, 3))
    factors = dec.invariant_factors
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(f > 0 for f in factors)


def test_abelianization_matrix():
    p = parse_presentation("gens: a, b\nrels: a*b*a^-1*b^-1; a^3 = b\n")
    m = abelianization_matrix(p)
    assert m.entries == ((0, 0), (3, -1))


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
