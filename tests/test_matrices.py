import itertools
import random

import pytest

from quiddity.matrices import (
    IDENTITY,
    Mat2,
    NEG_IDENTITY,
    SolutionClass,
    canonical_dihedral,
    canonical_rotation,
    check_word,
    classify_matrix,
    continuant,
    elementary,
    product_from_continuants,
    rotate,
    word_product,
)


def _rotundus(w):
    """Trace of the word product; cyclically invariant in w."""
    return word_product(w).trace()


def test_mat2_basics():
    m = Mat2(1, 2, 3, 7)
    assert m.det() == 1
    assert m.trace() == 8
    assert m * m.inverse() == IDENTITY
    assert (-m).rows() == [[-1, -2], [-3, -7]]


def test_elementary():
    assert elementary(3) == Mat2(3, -1, 1, 0)
    assert elementary(0).det() == 1
    for a in [*range(-3, 70), 10**20]:
        assert elementary(a) == Mat2(a, -1, 1, 0), a
    assert all(elementary(a) is elementary(a) for a in range(64))
    # other numbers keep their own type, as Mat2 itself does
    assert repr(elementary(True)) == repr(Mat2(True, -1, 1, 0))
    assert repr(elementary(1.0)) == repr(Mat2(1.0, -1, 1, 0))


def test_word_product_order():
    # leftmost factor comes from the last entry of the word
    w = (2, 5)
    assert word_product(w) == elementary(5) * elementary(2)


def test_word_product_concatenation():
    u, v = (1, 4, 2), (3, 1)
    assert word_product(u + v) == word_product(v) * word_product(u)


def test_known_products():
    assert word_product((1, 1, 1)) == NEG_IDENTITY
    assert word_product((1, 1, 2, 1, 1)) == -Mat2(0, -1, 1, 0)
    assert word_product((1,) * 6) == IDENTITY


def test_rotundus_small():
    # closed forms for short words
    a, b, c = 4, 7, 3
    assert _rotundus((a,)) == a
    assert _rotundus((a, b)) == a * b - 2
    assert _rotundus((1, 1, 1)) == -2
    assert _rotundus((a, b, c)) == _rotundus((b, c, a)) == a * b * c - a - b - c


def test_continuant_recurrence():
    assert continuant(()) == 1
    assert continuant((5,)) == 5
    assert continuant((1, 2, 2)) == continuant((1, 2)) * 2 - continuant((1,))
    assert continuant((1, 1, 1)) == -1


def test_product_from_continuants_random():
    rng = random.Random(7)
    for _ in range(10_000):
        n = rng.randint(2, 8)
        w = tuple(rng.randint(1, 9) for _ in range(n))
        assert product_from_continuants(w) == word_product(w)


def test_word_product_matches_its_definition():
    # against the fold E(a_n) * ... * E(a_1) from the identity and
    # against the four continuants, one-entry words included
    rng = random.Random(11)
    for _ in range(2_000):
        w = tuple(rng.randint(1, 10**6) for _ in range(rng.randint(1, 40)))
        m = IDENTITY
        for a in w:
            m = elementary(a) * m
        assert word_product(w) == m
        assert product_from_continuants(w) == m
    for bad in [(), (0,), (2, -1)]:
        with pytest.raises(ValueError):
            word_product(bad)
        with pytest.raises(ValueError):
            product_from_continuants(bad)


def test_rotation_helpers():
    w = (3, 1, 2)
    assert rotate(w, 1) == (1, 2, 3)
    assert rotate(w, -1) == (2, 3, 1)
    assert rotate(w, 7) == (1, 2, 3)
    assert canonical_rotation((2, 1, 3)) == (1, 3, 2)
    for word, k in (((), 1), ([], 0)):
        with pytest.raises(ValueError, match="empty word"):
            rotate(word, k)


def _least_rotation(w):
    return min(w[k:] + w[:k] for k in range(len(w)))


def test_canonical_forms_match_their_definitions():
    # every word over {1, 2, 3} up to length 7, then random words with
    # entries below 1 too: the canonical forms take any integers
    words = [w for n in range(1, 8) for w in itertools.product((1, 2, 3), repeat=n)]
    rng = random.Random(20)
    words += [tuple(rng.randint(-2, 5) for _ in range(rng.randint(1, 16)))
              for _ in range(2_000)]
    for w in words:
        least = _least_rotation(w)
        assert canonical_rotation(w) == least, w
        assert canonical_dihedral(w) == min(least, _least_rotation(w[::-1])), w
    assert canonical_rotation([2, 1, 1, 2, 1]) == (1, 1, 2, 1, 2)
    assert canonical_dihedral([2, 1, 3]) == (1, 2, 3)
    for canonical in (canonical_rotation, canonical_dihedral):
        assert type(canonical([3, 1, 2])) is tuple
        with pytest.raises(ValueError):
            canonical(())
        with pytest.raises(ValueError):
            canonical([])


def test_canonical_forms_reject_the_empty_word():
    for canonical in (canonical_rotation, canonical_dihedral):
        for word in ((), []):
            with pytest.raises(ValueError, match="empty word"):
                canonical(word)


def test_classify_matrix():
    assert classify_matrix(IDENTITY) is SolutionClass.PROBLEM_I
    assert classify_matrix(NEG_IDENTITY) is SolutionClass.PROBLEM_II
    assert classify_matrix(Mat2(0, -1, 1, 0)) is SolutionClass.PROBLEM_III
    assert classify_matrix(Mat2(2, 1, 1, 1)) is SolutionClass.NOT_A_SOLUTION
    with pytest.raises(ValueError):
        classify_matrix(Mat2(1, 0, 0, 2))


def test_check_word_rejects():
    with pytest.raises(ValueError):
        check_word(())
    with pytest.raises(ValueError):
        check_word((1, 0, 2))
    with pytest.raises(ValueError):
        check_word((1, -3))
