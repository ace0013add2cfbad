import pytest
from hypothesis import given, settings, strategies as st

from linkgroup.words import Word
from oracles import cyclic_reduce, substitute


def w(*letters):
    return Word(tuple(letters))


def test_letters_are_validated():
    with pytest.raises(ValueError):
        Word((("a", 2),))
    with pytest.raises(ValueError):
        Word((("", 1),))
    with pytest.raises(ValueError):
        Word.from_syllables([("a", 0)])


def test_operations_do_not_validate_again(monkeypatch):
    u, v = w(("a", 1), ("b", -1)), w(("b", 1), ("c", 1))
    checks = []
    monkeypatch.setattr(Word, "__post_init__", lambda self: checks.append(self))
    results = [u * v, u.inverse(), (u * v).free_reduce(), (u * u.inverse()).free_reduce(),
               substitute(u, "a", v)]
    assert checks == []
    assert [r.letters for r in results] == [
        (("a", 1), ("b", -1), ("b", 1), ("c", 1)), (("b", 1), ("a", -1)),
        (("a", 1), ("c", 1)), (), (("b", 1), ("c", 1), ("b", -1))]
    Word((("a", 1),))
    assert len(checks) == 1


def test_from_syllables_expands_powers():
    assert Word.from_syllables([("a", 3)]).letters == (("a", 1),) * 3
    assert Word.from_syllables([("a", -2)]).letters == (("a", -1),) * 2
    assert Word.from_syllables([("a", 1), ("b", -1)]).letters == (("a", 1), ("b", -1))


def test_mul_and_inverse():
    u = w(("a", 1), ("b", 1))
    assert (u * u).letters == (("a", 1), ("b", 1), ("a", 1), ("b", 1))
    assert u.inverse().letters == (("b", -1), ("a", -1))
    assert len(u) == 2
    assert list(u) == [("a", 1), ("b", 1)]


def test_free_reduce():
    assert w(("a", 1), ("a", -1)).free_reduce() == Word()
    assert w(("a", 1), ("b", 1), ("b", -1), ("a", 1)).free_reduce().letters == (("a", 1),) * 2
    # reduction cascades through newly adjacent pairs
    assert w(("a", 1), ("b", 1), ("b", -1), ("a", -1)).free_reduce() == Word()


def test_cyclic_reduce():
    assert cyclic_reduce(w(("a", 1), ("b", 1), ("a", -1))).letters == (("b", 1),)
    assert cyclic_reduce(w(("a", 1), ("b", 1))).letters == (("a", 1), ("b", 1))
    assert cyclic_reduce(w(("a", 1), ("a", 1))).letters == (("a", 1), ("a", 1))


def test_generators():
    u = w(("a", 1), ("b", -1), ("a", 1))
    assert u.generators() == {"a", "b"}


def test_substitute_does_not_reduce():
    u = w(("a", 1), ("b", 1), ("a", -1))
    r = w(("c", 1), ("c", 1))
    out = substitute(u, "a", r)
    assert out.letters == (("c", 1), ("c", 1), ("b", 1), ("c", -1), ("c", -1))
    assert substitute(u, "z", r) == u


letters_st = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))),
    max_size=12).map(tuple)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(letters_st)
def test_word_times_inverse_reduces_to_identity(letters):
    u = Word(letters)
    assert (u * u.inverse()).free_reduce() == Word()
    assert (u.inverse() * u).free_reduce() == Word()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(letters_st, letters_st)
def test_inverse_antihomomorphism(first, second):
    u, v = Word(first), Word(second)
    lhs = (u * v).inverse().free_reduce()
    rhs = (v.inverse() * u.inverse()).free_reduce()
    assert lhs == rhs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(letters_st)
def test_reductions_are_idempotent(letters):
    u = Word(letters)
    assert u.free_reduce().free_reduce() == u.free_reduce()
    v = cyclic_reduce(u)
    assert cyclic_reduce(v) == v
    # a cyclically reduced word is freely reduced and has no cancelling ends
    if len(v) >= 2:
        first, last = v.letters[0], v.letters[-1]
        assert not (first[0] == last[0] and first[1] == -last[1])
