from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quiddity import sturm
from quiddity.frieze import frieze
from quiddity.search import generative_enumerate
from quiddity.sturm import iterate, rotation_index
from quiddity.surgery import (
    NotASolutionError,
    SolutionClass,
    apply_type1,
    apply_type2,
    classify,
    solution_class,
)

words = st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=8).map(tuple)


def _broken_line(w):
    """The points P_i = (V1_i, V2_i), i = 0..n, over one period of the
    word, from the two basis sequences with initial data (1,0) and (0,1)."""
    s1 = iterate(w, 1, 0, len(w))
    s2 = iterate(w, 0, 1, len(w))
    points = tuple(zip(s1, s2))
    assert (0, 0) not in points, "broken line passes through the origin"
    return points


def _wronskian(points):
    """The common cross product of consecutive points of a broken line."""
    assert len(points) >= 2
    (x0, y0), (x1, y1) = points[0], points[1]
    w = x1 * y0 - x0 * y1
    for (xa, ya), (xb, yb) in zip(points, points[1:]):
        assert xb * ya - xa * yb == w, "Wronskian is not constant; broken invariant"
    assert w != 0, "Wronskian vanishes; the two sequences are dependent"
    return w


def test_iterate_hexagon():
    assert iterate((1,) * 6, 1, 0, 6) == (1, 0, -1, -1, 0, 1, 1)


def test_iterate_periodic_coefficients():
    # coefficients repeat with period n past the first period
    v = iterate((2, 3), 0, 1, 6)
    for i in range(1, 6):
        assert v[i + 1] == (2, 3)[(i - 1) % 2] * v[i] - v[i - 1]


def test_each_word_is_checked_once(monkeypatch):
    # frieze checks its word itself and runs the recurrence on every
    # column unchecked; rotation_index checks its word once, and neither
    # the recurrence nor the doubled Problem III word is checked again
    calls = []
    check_word = sturm.check_word
    monkeypatch.setattr(sturm, "check_word", lambda w: calls.append(w) or check_word(w))
    for w in ((1, 3, 1, 2, 2), (1, 1, 2, 1, 1), (2, 1, 2, 1, 1, 1, 1)):
        if solution_class(w) is not SolutionClass.PROBLEM_I:
            frieze(w)
            assert calls == []
        rotation_index(w)
        assert calls == [w]
        calls.clear()
    assert iterate((2, 3), 0, 1, 6) == (0, 1, 2, 5, 8, 19, 30)
    assert calls == [(2, 3)]


def test_broken_line_hexagon():
    points = _broken_line((1,) * 6)
    assert points == ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0))
    assert _wronskian(points) == -1


@given(words)
def test_wronskian_always_minus_one(w):
    assert _wronskian(_broken_line(w)) == -1


def test_rotation_index_examples():
    assert rotation_index((1,) * 6) == 1
    assert rotation_index((2, 1, 2, 1)) == Fraction(1, 2)
    assert rotation_index((1, 1, 2, 1, 1)) == Fraction(3, 2)
    assert rotation_index((1, 1, 1)) == Fraction(1, 2)


def test_rotation_index_rejects_non_solution():
    with pytest.raises(NotASolutionError):
        rotation_index((3, 3))


def test_index_matches_certificate():
    for problem in ("I", "II"):
        for n in range(3, 9):
            for w in generative_enumerate(problem, n).words:
                _, cert = classify(w)
                assert rotation_index(w) == Fraction(cert.type2_count + 1, 2)


def test_index_rotation_invariant():
    w = (2, 1, 2, 1, 1, 1, 1)
    base = rotation_index(w)
    for k in range(len(w)):
        assert rotation_index(w[k:] + w[:k]) == base


def test_surgeries_shift_index():
    # type 1 keeps the index, type 2 raises it by 1/2
    for problem in ("I", "II"):
        for n in range(3, 7):
            for w in generative_enumerate(problem, n).words:
                base = rotation_index(w)
                for i in range(n):
                    assert rotation_index(apply_type1(w, i)) == base
                    for a1 in range(1, w[i] + 1):
                        grown = apply_type2(w, i, (a1, w[i] + 1 - a1))
                        assert rotation_index(grown) == base + Fraction(1, 2)
