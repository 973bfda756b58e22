"""Exact 2x2 integer matrix algebra for words of positive integers.

A word (a_1, ..., a_n) of positive integers is mapped to the matrix

    M(a_1, ..., a_n) = E(a_n) * E(a_{n-1}) * ... * E(a_1),

where E(a) = [[a, -1], [1, 0]].  Note the reversed order: the *last*
entry of the word is the *leftmost* factor.  All arithmetic is exact
(Python integers), so there is no overflow anywhere.

``word_product`` folds the factors one ``Mat2`` product at a time; it is
the reference.  ``product_from_continuants`` advances the four
continuants that make up the same matrix together, in one scalar pass
over the word.  Classification (``surgery.solution_class``) reads those
four integers and builds no ``Mat2``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

Word = tuple[int, ...]


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def inverse(self) -> "Mat2":
        det = self.det()
        if det != 1:
            raise ValueError(f"only determinant-1 matrices can be inverted here, got det={det}")
        return Mat2(self.d, -self.b, -self.c, self.a)

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


IDENTITY = Mat2(1, 0, 0, 1)
NEG_IDENTITY = Mat2(-1, 0, 0, -1)
_E = tuple(Mat2(a, -1, 1, 0) for a in range(64))


class SolutionClass(enum.Enum):
    """Which equation a word's product solves: M = Id (I), M = -Id (II),
    trace M = 0 (III), or none of them."""

    PROBLEM_I = "I"
    PROBLEM_II = "II"
    PROBLEM_III = "III"
    NOT_A_SOLUTION = "none"


def check_word(w: Sequence[int]) -> Word:
    """Validate a word: non-empty, all entries integers >= 1."""
    word = tuple(w)
    if not word:
        raise ValueError("empty word")
    for x in word:
        if not isinstance(x, int) or x < 1:
            raise ValueError(f"word entries must be positive integers, got {x!r}")
    return word


def rotate(w: Sequence[int], k: int) -> Word:
    """Cyclic rotation: rotate(w, 1) starts with the second entry of w.
    Rejects the empty word."""
    word = tuple(w)
    if not word:
        raise ValueError("empty word")
    k %= len(word)
    return word[k:] + word[:k]


def canonical_rotation(w: Sequence[int]) -> Word:
    """Lexicographically least rotation of w.

    Only rotations that start at an occurrence of the least entry m can
    win: any other starts with an entry above m, and the rotation that
    starts at m is smaller in its first place.  So only those are
    compared, each as one slice of the doubled word: the rotation by k
    is ww[k:k + n].  The second copy holds m too, so the search for the
    next m never fails, and the scan stops once it passes the first
    copy.  Rejects the empty word.
    """
    word = tuple(w)
    if not word:
        raise ValueError("empty word")
    n = len(word)
    least = min(word)
    ww = word + word
    k = word.index(least)
    best = ww[k:k + n]
    k = ww.index(least, k + 1)
    while k < n:
        rotation = ww[k:k + n]
        if rotation < best:
            best = rotation
        k = ww.index(least, k + 1)
    return best


def canonical_dihedral(w: Sequence[int]) -> Word:
    """Lexicographically least rotation of w or of its reversal."""
    word = tuple(w)
    return min(canonical_rotation(word), canonical_rotation(word[::-1]))


def elementary(a: int) -> Mat2:
    """E(a) = [[a, -1], [1, 0]]; E(0) is the generator S.  E(0)..E(63) are
    built once and shared (a ``Mat2`` is frozen); any other argument, such
    as -1, 64, True or 1.0, gets a new matrix."""
    if type(a) is int and 0 <= a < 64:
        return _E[a]
    return Mat2(a, -1, 1, 0)


def word_product(w: Sequence[int]) -> Mat2:
    """M(a_1..a_n) = E(a_n) * ... * E(a_1), the reference fold.  Rejects
    the empty word."""
    word = check_word(w)
    m = elementary(word[0])
    for a in word[1:]:
        m = elementary(a) * m
    return m


def continuant(xs: Iterable[int]) -> int:
    """Tridiagonal determinant K(x_1..x_i) with off-diagonal 1s.

    Satisfies K_i = x_i * K_{i-1} - K_{i-2} with K_0 = 1, K_{-1} = 0.
    The empty sequence gives 1.
    """
    prev, cur = 0, 1
    for x in xs:
        prev, cur = cur, x * cur - prev
    return cur


def _continuants(w: Sequence[int]) -> tuple[int, int, int, int]:
    """The entries (a, b, c, d) of M(w), advanced together from Id in one
    pass over the checked word: E(x) times them is (x*a - c, x*b - d, a, b)."""
    a, b, c, d = 1, 0, 0, 1
    for x in check_word(w):
        a, b, c, d = x * a - c, x * b - d, a, b
    return a, b, c, d


def product_from_continuants(w: Sequence[int]) -> Mat2:
    """Word product from its four continuants, advanced in one scalar pass:

        M(a_1..a_n) = [[K(a_1..a_n), -K(a_2..a_n)],
                       [K(a_1..a_{n-1}), -K(a_2..a_{n-1})]].
    """
    return Mat2(*_continuants(w))


def _classify(a: int, b: int, c: int, d: int) -> SolutionClass:
    """Sort the determinant-1 matrix [[a, b], [c, d]] into Id / -Id /
    trace-zero / other.

    Trace zero is equivalent to M*M == -Id.  With determinant 1,
    b == c == 0 means a == d == +-1, and the three cases are exclusive."""
    if a * d - b * c != 1:
        raise ValueError(f"expected determinant 1, got {a * d - b * c}")
    if b == c == 0:
        return SolutionClass.PROBLEM_I if a == 1 else SolutionClass.PROBLEM_II
    if a + d == 0:
        return SolutionClass.PROBLEM_III
    return SolutionClass.NOT_A_SOLUTION


def classify_matrix(m: Mat2) -> SolutionClass:
    """Sort a determinant-1 ``Mat2`` into Id / -Id / trace-zero / other."""
    return _classify(m.a, m.b, m.c, m.d)
