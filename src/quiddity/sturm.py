"""Sequences of the three-term recurrence V_{i+1} = a_i V_i - V_{i-1}
with n-periodic coefficients, and the rotation index.

All arithmetic is exact.  The index is returned as a Fraction with
denominator 1 or 2; no floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .matrices import Word, check_word
from .surgery import NotASolutionError, SolutionClass, solution_class


def iterate(w: Sequence[int], v0: int, v1: int, steps: int) -> tuple[int, ...]:
    """Run the recurrence for ``steps`` steps, producing V_0..V_steps.

    The coefficient applied at step i is a_i = w[(i-1) mod n], so that
    (V_{n+1}, V_n) = M_n(a_1..a_n) (V_1, V_0).
    """
    word = check_word(w)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return _recur(word, v0, v1, steps)


def _recur(word: Word, v0: int, v1: int, steps: int) -> tuple[int, ...]:
    """``iterate`` on a word that has been checked, for steps >= 0."""
    n = len(word)
    values = [v0, v1][:steps + 1]
    for i in range(1, steps):
        values.append(word[(i - 1) % n] * values[i] - values[i - 1])
    return tuple(values)


def rotation_index(w: Sequence[int]) -> Fraction:
    """Half-integer winding of the broken line over one period.

    Counts, over one period of the (0,1)-initial sequence, the zeros
    plus the strict sign changes; the index is half that count.  A zero
    value counts once and never also as a sign change (consecutive
    zeros are impossible).  For Problems I/II this equals (R+1)/2.  A
    Problem III word only closes up after doubling, so the value
    reported is the index of the doubled word (a Problem II solution).
    """
    word = check_word(w)
    cls = solution_class(word)
    if cls is SolutionClass.NOT_A_SOLUTION:
        raise NotASolutionError(word)
    return _rotation_index(word, cls)


def _rotation_index(word: Word, cls: SolutionClass) -> Fraction:
    """``rotation_index`` of a checked solution whose class is ``cls``."""
    if cls is SolutionClass.PROBLEM_III:
        word = word + word
    n = len(word)
    values = _recur(word, 0, 1, n)
    s = sum(1 for i in range(n) if values[i] == 0)
    s += sum(1 for i in range(n) if values[i] * values[i + 1] < 0)
    return Fraction(s, 2)
