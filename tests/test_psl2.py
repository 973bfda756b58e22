import itertools
import random

import pytest

from quiddity import limits
from quiddity.limits import BudgetExceededError
from quiddity.matrices import IDENTITY, Mat2, NEG_IDENTITY, word_product
from quiddity.dissection import from_certificate, profile
from quiddity.psl2 import (
    conjecture_probe,
    element_index,
    element_quiddity,
    reduced_decomposition,
    uniqueness_spot_check,
)
from quiddity.surgery import is_reduced, reduce_word

S = Mat2(0, -1, 1, 0)
T = Mat2(1, 1, 0, 1)
COHN_A = Mat2(2, 1, 1, 1)
COHN_B = Mat2(5, 2, 2, 1)


def assert_decomposes_to(m, expected):
    w = reduced_decomposition(m)
    assert w == expected
    assert is_reduced(w)
    prod = word_product(w)
    assert prod == m or prod == -m


def test_generator_decompositions():
    assert_decomposes_to(S, (1, 1, 2, 1, 1))
    assert_decomposes_to(T, (1, 1, 2))
    assert_decomposes_to(T.inverse(), (1, 2, 1, 1))


def test_cohn_decompositions():
    assert_decomposes_to(COHN_A, (1, 1, 2, 2))
    assert_decomposes_to(COHN_A.inverse(), (1, 3, 1, 1))
    assert_decomposes_to(COHN_B, (1, 1, 2, 2, 3))
    assert_decomposes_to(COHN_B.inverse(), (1, 2, 4, 1, 1))


def test_identity_decomposition():
    assert reduced_decomposition(IDENTITY) == (1, 1, 1)
    assert reduced_decomposition(NEG_IDENTITY) == (1, 1, 1)


def test_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        reduced_decomposition(Mat2(2, 0, 0, 2))


def test_element_quiddities():
    # the pair of reduced words of m and m^-1
    assert element_quiddity(S) == ((1, 1, 2, 1, 1), (1, 1, 2, 1, 1))
    assert element_quiddity(T) == ((1, 1, 2), (1, 2, 1, 1))
    assert element_quiddity(COHN_A) == ((1, 1, 2, 2), (1, 3, 1, 1))


def test_element_indices():
    assert element_index(S) * 2 == 3
    assert element_index(T) == 1
    assert element_index(COHN_A) == 1
    assert element_index(COHN_B) == 1


def test_element_dissections():
    def dissection(m):
        left, right = element_quiddity(m)
        return from_certificate(reduce_word(left + right))

    assert profile(dissection(S)) == (6, 6)
    assert profile(dissection(T)) == (3, 6)
    assert profile(dissection(COHN_A)) == (3, 3, 6)


def test_random_st_words_round_trip():
    rng = random.Random(11)
    for _ in range(1000):
        m = IDENTITY
        for _ in range(rng.randint(1, 12)):
            m = m * rng.choice((S, T, T.inverse()))
        w = reduced_decomposition(m)
        assert is_reduced(w)
        prod = word_product(w)
        assert prod == m or prod == -m


def test_reduced_word_round_trip():
    # the reduced word is recovered exactly from its own product
    for n in range(1, 6):
        for w in itertools.product(range(1, 5), repeat=n):
            if is_reduced(w):
                assert reduced_decomposition(word_product(w)) == w


@pytest.mark.parametrize("m", [1, 2, 10, 5000])
def test_closed_forms(m):
    # T^m, T^-m, L^m and L^-m, with L = [[1, 0], [1, 1]]
    assert reduced_decomposition(Mat2(1, m, 0, 1)) == (1, 1, m + 1)
    assert reduced_decomposition(Mat2(1, -m, 0, 1)) == (1,) + (2,) * m + (1, 1)
    assert reduced_decomposition(Mat2(1, 0, m, 1)) == (1, 1) + (2,) * m + (1,)
    assert reduced_decomposition(Mat2(1, 0, -m, 1)) == (m + 1, 1, 1)


def test_long_reduced_words_round_trip():
    # length 20..60, interior entries 2..9, an optional 1 or 1, 1 at either end
    rng = random.Random(3)
    ends = [(), (1,), (1, 1)]
    for _ in range(500):
        head, tail = rng.choice(ends), rng.choice(ends)
        size = rng.randint(20, 60) - len(head) - len(tail)
        w = head + tuple(rng.randint(2, 9) for _ in range(size)) + tail
        assert is_reduced(w)
        assert reduced_decomposition(word_product(w)) == w


def test_uniqueness_spot_check():
    assert uniqueness_spot_check(5)
    with pytest.raises(BudgetExceededError):
        uniqueness_spot_check(11)


def test_element_quiddities_are_unique_to_length_12():
    # the uniqueness frontier: every element quiddity of length <= 12 is
    # carried by exactly one 3d-dissection, and no element is reported twice
    reports = conjecture_probe(12)
    assert len(reports) == 2306
    assert len({tuple(map(tuple, r["element"])) for r in reports}) == 2306
    assert all(r["dissections_found"] == 1 for r in reports)


def test_conjecture_probe_budget(monkeypatch):
    # the probe takes no budget; only QUIDDITY_BUDGET raises its ceiling
    monkeypatch.delenv(limits.ENV_VAR, raising=False)
    with pytest.raises(BudgetExceededError):
        conjecture_probe(15)


def test_conjecture_probe_reports():
    reports = conjecture_probe(8)
    assert reports
    keys = {"element", "reduced", "quiddity", "index_twice", "dissections_found"}
    assert all(set(r) == keys for r in reports)
    # the probe reaches the T and Cohn A quiddities at this bound
    quiddities = {tuple(r["quiddity"]) for r in reports}
    assert (1, 1, 2, 1, 2, 1, 1) in quiddities
    assert (1, 1, 2, 2, 1, 3, 1, 1) in quiddities
