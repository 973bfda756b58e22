"""Friezes of continuants, tameness and glide diagnostics, total
positivity, and Farey-polygon quiddities.

Row r of the frieze of a word (a_1..a_n) holds the cyclic continuants
K_r(a_i,...,a_{i+r-1}); row 0 is all 1s, row 1 is the word itself.
Column i is the ``sturm.iterate`` sequence of the word read from a_i,
started at (V_0, V_1) = (0, 1), whose V_{r+1} is that K_r: friezes and
Sturm sequences run one recurrence, which ``frieze`` runs on the word it
has checked, without a check per column.  Two virtual rows K_{-1} = 0 and
K_{-2} = -1 sit above the array and take part in the tameness diamonds.
A Farey polygon's quiddity is read off the next-term rule of the Farey
sequence, which is the frieze relation on its vertex vectors.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .matrices import Word, _Record, check_word
from .search import sum_bound
from .sturm import _recur
from .surgery import NotASolutionError, SolutionClass, solution_class


class Frieze(_Record):
    _fields = ("word", "rows")

    def __init__(self, word: Word, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def r_max(self) -> int:
        return len(self.rows) - 1

    def entry(self, r: int, i: int) -> int:
        # two virtual rows above the array close the tameness diamonds
        if r == -1:
            return 0
        if r == -2:
            return -1
        if r < -2:
            raise IndexError(f"row {r} is above the frieze's two virtual rows")
        return self.rows[r][i % self.n]

    def to_json(self) -> dict:
        return {"word": list(self.word), "rows": [list(row) for row in self.rows]}


def frieze(w: Sequence[int], r_max: Optional[int] = None) -> Frieze:
    """Continuant frieze of a Problem II or III solution.

    Defaults: n-1 rows (r = 0..n-2) for Problem II, bordered by 1s on
    both sides; 2n-1 rows (r = 0..2n-2) for Problem III, where the word
    acts as an n-periodic coefficient sequence and the array is glide
    symmetric about its middle row.  ValueError if ``r_max`` > 2n - 2: later
    rows repeat with a sign flip, K_{r+n} = -K_r (II), K_{r+2n} = -K_r (III).
    """
    word = check_word(w)
    cls = solution_class(word)
    if cls not in (SolutionClass.PROBLEM_II, SolutionClass.PROBLEM_III):
        raise NotASolutionError(word, "friezes are built from Problem II or III solutions")
    n = len(word)
    if r_max is None:
        r_max = n - 2 if cls is SolutionClass.PROBLEM_II else 2 * n - 2
    if r_max < 1:
        raise ValueError("need at least rows 0 and 1")
    if r_max > 2 * n - 2:
        raise ValueError(f"rows past 2n - 2 = {2 * n - 2} repeat the frieze with a sign flip")
    columns = [_recur(word[i:] + word[:i], 0, 1, r_max + 1)[1:] for i in range(n)]
    return Frieze(word, tuple(zip(*columns)))


def check_tame(f: Frieze) -> bool:
    """True iff every contiguous 3x3 diamond has determinant zero."""
    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    for r in range(f.r_max - 1):
        for i in range(f.n):
            m = [[f.entry(r + t - s, i + s) for t in range(3)] for s in range(3)]
            if det3(m) != 0:
                return False
    return True


def check_glide(f: Frieze) -> bool:
    """Reflection symmetry of a full Problem III array: row m-2-r equals
    row r read with the column shift r+1, where m = 2n."""
    m = 2 * f.n
    if f.r_max != m - 2:
        raise ValueError("glide check needs the full array of 2n-1 rows")
    for r in range(f.r_max + 1):
        for i in range(f.n):
            if f.entry(m - 2 - r, i) != f.entry(r, i - r - 1):
                return False
    return True


def is_totally_positive(w: Sequence[int]) -> bool:
    """True iff all cyclic continuants K_{j+1}, j <= n-3, are positive.

    Applies to Problem II solutions directly and to Problem III
    solutions through their doubled word.  By Conway and Coxeter the
    totally positive ones are the quiddities of triangulations, the
    solutions with R = 0 type-2 steps, so the test is that the entry sum
    reaches ``search.sum_bound`` (the sum is that bound minus 6R).
    """
    word = check_word(w)
    cls = solution_class(word)
    if cls not in (SolutionClass.PROBLEM_II, SolutionClass.PROBLEM_III):
        raise NotASolutionError(word, "total positivity applies to Problem II or III solutions")
    return _is_totally_positive(word, cls)


def _is_totally_positive(word: Word, cls: SolutionClass) -> bool:
    """``is_totally_positive`` of a checked word of known class ``cls``."""
    return sum(word) == sum_bound(cls, len(word))


def render_text(f: Frieze) -> str:
    """Staggered text layout of two periods: consecutive rows offset by
    half a column, entries right-aligned."""
    width = max(len(str(f.entry(r, i))) for r in range(f.r_max + 1) for i in range(f.n)) + 2
    lines = []
    for r in range(f.r_max + 1):
        pad = " " * (width // 2) if r % 2 else ""
        cells = "".join(str(f.entry(r, i)).rjust(width) for i in range(2 * f.n))
        lines.append(pad + cells)
    return "\n".join(lines)


def farey_quiddity(order: int) -> Word:
    """Quiddity of the triangulated polygon on the Farey fractions of
    the given order in [0,1], with unimodular pairs joined.

    The entry at c/d, whose vertex vector is v_i = (c, d), is the a_i of
    the frieze relation v_{i-1} + v_{i+1} = a_i v_i, which for Farey is
    the next-term rule: after consecutive fractions a/b < c/d comes
    (k c - a)/(k d - b) with k = (order + b) // d.  The fractions joined
    to c/d are (j c - a)/(j d - b), read with a positive denominator, for
    the j with |j d - b| <= order; as b + d > order, those are j = 0..k,
    from a/b to the next fraction, and consecutive ones are joined, so
    the k + 1 neighbours fan out into k triangles at c/d.  Each end, 0/1
    and 1/1, is joined to every 1/q, so it lies in order - 1 triangles.
    """
    if type(order) is not int or order < 2:
        raise ValueError(f"the Farey polygon needs an integer order >= 2, not {order!r}")
    word = [order - 1]
    a, b, c, d = 0, 1, 1, order
    while d > 1:  # c/d = 1/1 ends the walk
        k = (order + b) // d
        word.append(k)
        a, b, c, d = c, d, k * c - a, k * d - b
    word.append(order - 1)
    return tuple(word)
