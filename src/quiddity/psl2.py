"""Reduced positive decompositions in the modular group.

Every determinant-1 integer matrix A equals, up to sign, a product
E(a_n)...E(a_1) with positive entries, and exactly one such word is
reduced (no linear fragment (a,1,b) with a,b > 1, no interior fragment
(a,1,1,b)).  ``reduced_decomposition`` computes that word in two steps.
A Euclidean column reduction peels off E(q) factors with arbitrary
integer q.  Then one left-to-right pass makes every entry positive and
removes the forbidden fragments, with the two identities

    M(..., x, y, ...)   = M(..., x+1, 1, y+1, ...)
    M(..., c, 1, 1, d, ...) = -M(..., c+d-1, ...)

the first also read right to left, as (a, 1, b) -> (a-1, b-1).

Concatenating the reduced words of A and of A^{-1} gives the quiddity
of A, a Problem I or II solution, hence the quiddity of an actual
dissection with a rotation index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from . import limits
from .dissection import dissections_with_quiddity
from .matrices import Mat2, Word, word_product
from .search import generative_enumerate
from .surgery import is_reduced
from .sturm import rotation_index


def _canonical_sign(m: Mat2) -> Mat2:
    """The one of m and -m whose first non-zero entry is positive: the
    key of m's class in PSL(2,Z)."""
    for x in (m.a, m.b, m.c, m.d):
        if x > 0:
            return m
        if x < 0:
            return -m
    raise ValueError("zero matrix cannot occur with determinant 1")


def _euclid_word(a: Mat2) -> list[int]:
    """An integer-entry word w with word_product(w) == +-a."""
    entries_left: list[int] = []  # peeled q's, leftmost factor first
    b = a
    while b.c != 0:
        # E(q)^{-1} b has bottom-left q*b.c - b.a; q nearest a/c at least halves it
        q = (2 * b.a + b.c) // (2 * b.c)
        entries_left.append(q)
        b = Mat2(b.c, b.d, q * b.c - b.a, q * b.d - b.b)
    # now b = +-T^m with m = b.a * b.b, and T^m = -M((0, m))
    tail = [0, b.a * b.b]
    return tail + list(reversed(entries_left))


def _normalize(entries: list[int]) -> Word:
    """The reduced positive word with the product of ``entries`` up to
    sign, in one left-to-right pass.

    ``w`` holds the settled entries, which contain no forbidden fragment.
    An entry x < 1 is glued to the next entry y as (x+1, 1, y+1), or, if
    it is the last, to the previous one taken back off ``w``.  Any other
    entry is pushed, and a forbidden fragment can then only end at it:
    (a, 1, b) with a, b > 1 becomes (a-1, b-1) and (c, 1, 1, d) becomes
    (c+d-1), until the end of ``w`` is clean again.
    """
    todo = entries[::-1]  # the raw entries, next one last
    w: list[int] = []
    while todo:
        x = todo.pop()
        if x < 1:
            u, v = (x, todo.pop()) if todo else (w.pop(), x)
            todo += [v + 1, 1, u + 1]  # (u, v) -> (u+1, 1, v+1)
            continue
        w.append(x)
        while True:
            if len(w) >= 3 and w[-2] == 1 and w[-3] > 1 and w[-1] > 1:
                w[-3:] = [w[-3] - 1, w[-1] - 1]
            elif len(w) >= 4 and w[-3] == w[-2] == 1:
                w[-4:] = [w[-4] + w[-1] - 1]
            else:
                break
    return tuple(w)


def reduced_decomposition(m: Mat2) -> Word:
    """The unique reduced positive word w with word_product(w) == +-m."""
    if m.det() != 1:
        raise ValueError(f"determinant must be 1, got {m.det()}")
    word = _normalize(_euclid_word(m))
    prod = word_product(word)
    if prod != m and prod != -m:
        raise AssertionError(f"decomposition of {m} lost the product")
    if not is_reduced(word):
        raise AssertionError(f"decomposition of {m} is not reduced: {word}")
    return word


def element_quiddity(m: Mat2) -> tuple[Word, Word]:
    """The reduced words of m and m^{-1}, whose concatenation, the
    quiddity of m, is a Problem I or II solution: each decomposition
    checks its product, so M(left + right) = (+-m^-1)(+-m) = +-Id."""
    return reduced_decomposition(m), reduced_decomposition(m.inverse())


def element_index(m: Mat2) -> Fraction:
    """Rotation index of the quiddity of m."""
    left, right = element_quiddity(m)
    return rotation_index(left + right)


#: Entry ceiling for exhaustive reduced-word generation.  Entries of
#: reduced words are unbounded in general; the spot checks scan all
#: words with entries up to this cap, which already separates every
#: product class they cover.
DEFAULT_ENTRY_CAP = 6


def _reduced_words(max_length: int) -> Iterator[Word]:
    """The reduced words of length 1..max_length with entries up to
    DEFAULT_ENTRY_CAP, each before its extensions.  A forbidden fragment
    has at most four entries, so a reduced prefix stays reduced with one
    more entry exactly when its last four entries are."""
    def extend(prefix: list[int]):
        if prefix:
            yield tuple(prefix)
        if len(prefix) == max_length:
            return
        for a in range(1, DEFAULT_ENTRY_CAP + 1):
            prefix.append(a)
            if is_reduced(prefix[-4:]):
                yield from extend(prefix)
            prefix.pop()

    return extend([])


def uniqueness_spot_check(max_length: int) -> bool:
    """True iff no two distinct reduced words of length <= max_length
    (entries <= DEFAULT_ENTRY_CAP) have the same product up to sign."""
    if max_length > 10:
        raise limits.BudgetExceededError("spot check is limited to length 10")
    seen: dict[Mat2, Word] = {}
    for w in _reduced_words(max_length):
        key = _canonical_sign(word_product(w))
        other = seen.setdefault(key, w)
        if other != w:
            return False
    return True


def conjecture_probe(word_length_bound: int) -> list[dict]:
    """Experimental report: for every group element whose combined
    quiddity has length <= the bound, how many dissections carry that
    quiddity.  Reports, never asserts.

    The elements are found by splitting every Problem I/II solution of
    length <= the bound into two reduced halves: the combined quiddity
    of an element is exactly such a split, with A the product of the
    first half.  The reduced words of an element and of its inverse are
    unique, so each element comes from one split and is reported once.
    """
    limits.check_budget(word_length_bound, limits.DEFAULT_DISSECTION_CEILING,
                        None, "conjecture probe")
    reports = []
    for n in range(3, word_length_bound + 1):
        for problem in ("I", "II"):
            for u in generative_enumerate(problem, n).words:
                for k in range(1, n):
                    left, right = u[:k], u[k:]
                    if not (is_reduced(left) and is_reduced(right)):
                        continue
                    m = _canonical_sign(word_product(left))
                    reports.append({
                        "element": m.rows(),
                        "reduced": list(left),
                        "quiddity": list(u),
                        "index_twice": int(rotation_index(u) * 2),
                        "dissections_found": len(dissections_with_quiddity(u)),
                    })
    reports.sort(key=lambda r: (len(r["quiddity"]), r["quiddity"], r["element"]))
    return reports
