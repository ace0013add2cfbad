import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from linkgroup.homology import (IntegerMatrix, SmithDecomposition,
                                abelianization_matrix, first_homology,
                                is_perfect, smith_normal_form)
from linkgroup.presentations import parse_presentation, tietze_simplify
from conftest import CORPUS_KEYS, data_text
from oracles import (minor_gcd_invariant_factors, reference_det, reference_matmul,
                     reference_smith_normal_form, reference_smith_verify)


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
    assert reference_det(IntegerMatrix.identity(4)) == 1
    assert reference_det(mat([], cols=0)) == 1
    with pytest.raises(ValueError):
        reference_det(mat([[1, 2]]))


def test_matmul():
    a = mat([[1, 2], [3, 4]])
    assert reference_matmul(a, IntegerMatrix.identity(2)) == a
    with pytest.raises(ValueError):
        reference_matmul(a, mat([[1, 2, 3]]))


def test_snf_known_cases():
    assert smith_normal_form(mat([[2, 0], [0, 3]])).invariant_factors == (1, 6)
    assert smith_normal_form(mat([[2, 4], [4, 8]])).invariant_factors == (2,)
    assert smith_normal_form(IntegerMatrix.zeros(3, 2)).invariant_factors == ()
    assert smith_normal_form(IntegerMatrix.identity(3)).invariant_factors == (1, 1, 1)
    # the classic 2x2 with a unit: [[2,1],[0,2]] ~ diag(1, 4)
    assert smith_normal_form(mat([[2, 1], [0, 2]])).invariant_factors == (1, 4)


def test_snf_verify_rejects_tampering():
    m = mat([[2, 0], [0, 3]])
    good = smith_normal_form(m)
    assert good.verify(m)
    i2, i3 = IntegerMatrix.identity(2), IntegerMatrix.identity(3)
    bad = SmithDecomposition(mat([[2, 0], [0, 3]]), i2, i2, i2, i2)
    assert not bad.verify(m)  # 2 does not divide 3
    swapped = SmithDecomposition(good.d, good.v, good.u, good.v_inv, good.u_inv)
    assert not swapped.verify(m)
    # a decomposition of the wrong shape is rejected, not an error
    for mis_shaped in (SmithDecomposition(m, i3, i2, i2, i2),
                       SmithDecomposition(m, i2, i3, i2, i2),
                       SmithDecomposition(m, i2, i2, i3, i2),
                       SmithDecomposition(m, i2, i2, i2, i3),
                       SmithDecomposition(IntegerMatrix.zeros(2, 3), i2, i2, i2, i2),
                       SmithDecomposition(IntegerMatrix.zeros(3, 2), i2, i2, i2, i2)):
        assert not mis_shaped.verify(m)


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
    """The old certificate on D, U, V, and U^-1, V^-1 the inverses of U, V."""
    def inverse_pair(x, x_inv):
        product = reference_matmul(x, x_inv)
        return product == IntegerMatrix.identity(product.rows)

    try:
        return (reference_smith_verify(dec.d, dec.u, dec.v, matrix)
                and inverse_pair(dec.u, dec.u_inv) and inverse_pair(dec.v, dec.v_inv))
    except ValueError:  # shape mismatch
        return False


def tampered(rng, dec, matrix):
    """Decompositions one change away from dec, and the matrix each is checked against."""
    fields = ("d", "u", "v", "u_inv", "v_inv")
    for name in fields:
        x = getattr(dec, name)
        if x.rows and x.cols:
            i, j = rng.randrange(x.rows), rng.randrange(x.cols)
            rows = [list(r) for r in x.entries]
            rows[i][j] += rng.choice((-2, -1, 1, 2))
            yield dataclasses.replace(dec, **{name: mat(rows, x.cols)}), matrix
    if matrix.rows and matrix.cols:
        i, j = rng.randrange(matrix.rows), rng.randrange(matrix.cols)
        rows = [list(r) for r in matrix.entries]
        rows[i][j] += 1
        yield dec, mat(rows, matrix.cols)
    yield SmithDecomposition(dec.d, dec.v, dec.u, dec.v_inv, dec.u_inv), matrix
    if matrix.rows > 1:
        # row i += c * row r on U, with U^-1 kept its inverse: every check but
        # U @ A == D @ V^-1 still holds; rows past the diagonal included
        i, r = rng.sample(range(matrix.rows), 2)
        c = rng.choice((-1, 1))
        u = [list(row) for row in dec.u.entries]
        u[i] = [x + c * y for x, y in zip(u[i], u[r])]
        u_inv = [list(row) for row in dec.u_inv.entries]
        for row in u_inv:
            row[r] -= c * row[i]
        yield dataclasses.replace(dec, u=mat(u, matrix.rows),
                                  u_inv=mat(u_inv, matrix.rows)), matrix


def test_snf_matches_reference_and_verify_agrees():
    rng = random.Random(20261018)
    matrices = [mat([], cols=3), mat([[]] * 2, cols=0), IntegerMatrix.zeros(3, 2)]
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        matrices.append(mat([[rng.randint(-9, 9) if rng.random() < 0.6 else 0
                              for _ in range(c)] for _ in range(r)], c))
    matrices += [wirtinger_like(rng, cols) for cols in (30, 30, 45, 60, 80, 100)]
    outcomes = {True: 0, False: 0}
    for matrix in matrices:
        dec = smith_normal_form(matrix)
        assert (dec.d, dec.u, dec.v) == reference_smith_normal_form(matrix)
        assert certificate_holds(dec, matrix)
        if matrix.cols > 45:
            continue  # the dense reference check is slow; the shapes above cover it
        for candidate, against in tampered(rng, dec, matrix):
            expected = certificate_holds(candidate, against)
            assert candidate.verify(against) == expected
            outcomes[expected] += 1
    # some tampering leaves a valid decomposition (an entry with nothing to meet)
    assert outcomes[False] > 300 and outcomes[True] > 0


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
    assert not is_perfect(trefoil)


def test_corpus_presentations_are_perfect():
    for key in CORPUS_KEYS:
        p = parse_presentation(data_text(key + ".pres"))
        assert first_homology(p) == []
        assert is_perfect(p)


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
