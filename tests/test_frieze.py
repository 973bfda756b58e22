import hashlib
from fractions import Fraction
from math import gcd

import pytest

import quiddity.frieze as frieze_module
from quiddity.dissection import Dissection, quiddity
from quiddity.frieze import (
    Frieze,
    check_glide,
    check_tame,
    farey_quiddity,
    frieze,
    is_totally_positive,
    render_text,
)
from quiddity.matrices import continuant
from quiddity.search import generative_enumerate
from quiddity.surgery import NotASolutionError, SolutionClass, solution_class


def _check_diamond(f):
    """Unimodular rule: e(r,i) e(r,i+1) - e(r+1,i) e(r-1,i+1) = 1."""
    for r in range(f.r_max):
        for i in range(f.n):
            if f.entry(r, i) * f.entry(r, i + 1) - f.entry(r + 1, i) * f.entry(r - 1, i + 1) != 1:
                return False
    return True


TRACE_ZERO_ROWS = (
    (1, 1, 1, 1, 1),
    (1, 1, 2, 1, 1),
    (0, 1, 1, 0, 0),
    (-1, 0, -1, -1, -1),
    (-1, -1, -2, -1, -2),
    (0, -1, -1, -1, -1),
    (1, 0, 0, 0, 1),
    (1, 1, 1, 1, 2),
    (1, 1, 1, 1, 1),
)


def test_trace_zero_frieze_full_array():
    f = frieze((1, 1, 2, 1, 1))
    assert f.r_max == 8
    assert f.rows == TRACE_ZERO_ROWS
    assert _check_diamond(f)
    assert check_tame(f)
    assert check_glide(f)


def test_coxeter_frieze():
    f = frieze((1, 3, 1, 2, 2))
    assert f.rows == (
        (1, 1, 1, 1, 1),
        (1, 3, 1, 2, 2),
        (2, 2, 1, 3, 1),
        (1, 1, 1, 1, 1),
    )
    assert _check_diamond(f)
    assert check_tame(f)


def test_default_row_counts():
    assert frieze((1, 3, 1, 2, 2)).r_max == 3  # n - 2 for -Id words
    assert frieze((1, 2)).r_max == 2  # 2n - 2 for trace zero


def test_virtual_rows():
    f = frieze((1, 2))
    assert f.entry(-1, 3) == 0
    assert f.entry(-2, 0) == -1
    # no row lies above the two virtual ones, and none below r_max
    g = frieze((1, 2, 2, 1, 3))
    assert g.entry(g.r_max, 0) == g.rows[-1][0]
    for r in (-3, -4, -len(g.rows), g.r_max + 1):
        with pytest.raises(IndexError):
            g.entry(r, 0)


def test_frieze_rejects():
    with pytest.raises(NotASolutionError):
        frieze((2, 2))
    with pytest.raises(NotASolutionError):
        frieze((1,) * 6)  # Id words carry no frieze
    with pytest.raises(ValueError, match="need at least rows 0 and 1"):
        frieze((1, 2), r_max=0)
    # rows past 2n - 2 repeat with a sign flip: K_{r+n} = -K_r for II and
    # K_{r+2n} = -K_r for III
    for w in ((1, 2), (1, 3, 1, 2, 2)):
        last = 2 * len(w) - 2
        assert frieze(w, r_max=last).r_max == last
        with pytest.raises(ValueError, match="2n - 2"):
            frieze(w, r_max=last + 1)
    f = frieze((1, 3, 1, 2, 2), r_max=8)
    assert f.rows[5:] == tuple(tuple(-x for x in row) for row in f.rows[:4])


def test_corrupted_frieze_is_not_tame():
    f = frieze((1, 1, 2, 1, 1))
    rows = [list(r) for r in f.rows]
    rows[4][2] += 1
    broken = Frieze(f.word, tuple(tuple(r) for r in rows))
    assert not check_tame(broken)
    assert not _check_diamond(broken)


def _tame_by_entry(f):
    """Every contiguous 3x3 diamond, read entry by entry, has determinant zero."""
    for r in range(f.r_max - 1):
        for i in range(f.n):
            m = [[f.entry(r + t - s, i + s) for t in range(3)] for s in range(3)]
            if (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                    - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                    + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) != 0:
                return False
    return True


def _glide_by_entry(f):
    """Row 2n-2-r equals row r read with the column shift r+1, entry by entry."""
    m = 2 * f.n
    return all(f.entry(m - 2 - r, i) == f.entry(r, i - r - 1)
               for r in range(f.r_max + 1) for i in range(f.n))


def test_tame_and_glide_match_their_entrywise_definitions():
    # check_tame and check_glide index the rows directly; their verdicts
    # must be those of the diamonds and glide read through Frieze.entry
    friezes = []
    for problem, lengths in (("II", range(3, 10)), ("III", range(2, 8))):
        for n in lengths:
            for w in generative_enumerate(problem, n).words:
                friezes.append(frieze(w))
                if problem == "II":
                    friezes.append(frieze(w, r_max=2 * n - 2))  # glide fails here
    # the corrupted frieze of test_corrupted_frieze_is_not_tame, and every
    # other one-entry corruption of two full arrays
    for w in ((1, 1, 2, 1, 1), (1, 3, 1, 2, 2)):
        f = frieze(w, r_max=2 * len(w) - 2)
        for r in range(f.r_max + 1):
            for i in range(f.n):
                rows = [list(row) for row in f.rows]
                rows[r][i] += 1
                friezes.append(Frieze(f.word, tuple(tuple(row) for row in rows)))
    tame, glide = [], []
    for f in friezes:
        tame.append(check_tame(f))
        assert tame[-1] == _tame_by_entry(f), f
        if f.r_max == 2 * f.n - 2:
            glide.append(check_glide(f))
            assert glide[-1] == _glide_by_entry(f), f
    assert set(tame) == set(glide) == {True, False}


def test_glide_needs_full_array():
    with pytest.raises(ValueError):
        check_glide(frieze((1, 1, 2, 1, 1), r_max=4))


def test_total_positivity():
    assert is_totally_positive((1, 3, 1, 2, 2))
    assert is_totally_positive((5, 2, 2, 2, 1))
    assert not is_totally_positive((1, 1, 2, 1, 1))  # trace zero but R = 1
    assert not is_totally_positive((1,) * 9)
    with pytest.raises(NotASolutionError):
        is_totally_positive((1,) * 6)


def test_render_text_layout():
    f = frieze((1, 3, 1, 2, 2))
    lines = render_text(f).split("\n")
    assert len(lines) == 4
    # odd rows are offset by half a column
    assert lines[1].startswith(" ") and len(lines[1]) > len(lines[0])


def test_farey_quiddity():
    w = farey_quiddity(5)
    assert w == (4, 1, 2, 3, 1, 5, 1, 3, 2, 1, 4)
    assert solution_class(w) is SolutionClass.PROBLEM_II
    assert sum(w) == 3 * len(w) - 6 == 27
    assert is_totally_positive(w)


def test_farey_small_orders():
    assert farey_quiddity(2) == (1, 1, 1)
    with pytest.raises(ValueError):
        farey_quiddity(1)


@pytest.mark.parametrize("order", [2.5, 2.0, True, "5", 1, -3])
def test_farey_order_must_be_an_integer_of_at_least_two(order):
    with pytest.raises(ValueError):
        farey_quiddity(order)


def test_farey_words_are_pinned():
    # sha256 over each word's entries, comma-joined, each followed by ";"
    digest = hashlib.sha256()
    for order in range(2, 121):
        digest.update((",".join(map(str, farey_quiddity(order))) + ";").encode())
    assert digest.hexdigest() == "f59724ab0699efa6015ca8ba7619146e05172f9322207715bdd1880e36d0ace8"


def test_farey_builds_no_dissection(monkeypatch):
    def refuse(self):
        raise AssertionError("a Dissection was built")

    monkeypatch.setattr(Dissection, "__post_init__", refuse)
    assert len(farey_quiddity(300)) == 27399
    assert not hasattr(frieze_module, "Dissection")


def _farey_quiddity_pairwise(order):
    """The Farey polygon by definition: every unimodular pair of
    fractions in F_order that is not a polygon side is a diagonal."""
    fracs = sorted({Fraction(p, q) for q in range(1, order + 1) for p in range(q + 1)})
    n = len(fracs)
    diagonals = frozenset(
        (i, j) for i in range(n) for j in range(i + 2, n)
        if j - i != n - 1
        and abs(fracs[i].numerator * fracs[j].denominator
                - fracs[j].numerator * fracs[i].denominator) == 1)
    return quiddity(Dissection(n, diagonals))


def test_farey_walk_matches_pairwise_definition():
    for order in range(2, 26):
        assert farey_quiddity(order) == _farey_quiddity_pairwise(order)


def test_farey_large_order():
    # |F_200| = 1 + sum of Euler's phi(k) for k <= 200
    w = farey_quiddity(200)
    phi_sum = sum(1 for q in range(1, 201) for p in range(1, q + 1) if gcd(p, q) == 1)
    assert len(w) == 1 + phi_sum == 12233
    assert sum(w) == 3 * len(w) - 6
    # the product class, not the certificate: reduce_word is quadratic in the length
    assert solution_class(w) in (SolutionClass.PROBLEM_I, SolutionClass.PROBLEM_II)


def test_rows_match_continuants():
    # rows come from the three-term recurrence; check every entry against
    # a continuant computed from scratch, Problem III rows with their zeros
    for problem, lengths in (("II", range(3, 10)), ("III", range(2, 7))):
        for n in lengths:
            for w in generative_enumerate(problem, n).words:
                f = frieze(w)
                assert f.rows == tuple(
                    tuple(continuant(w[(i + k) % n] for k in range(r)) for i in range(n))
                    for r in range(f.r_max + 1)
                )
                full = w + w if problem == "III" else w
                m = len(full)
                assert is_totally_positive(w) == all(
                    continuant(full[(i + k) % m] for k in range(j + 1)) > 0
                    for j in range(m - 2) for i in range(m)
                )
