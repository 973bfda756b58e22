"""Surgery operations on words and reduction to base solutions.

Two local surgeries act on words of positive integers:

* type 1 ("glue"): insert a 1 between two entries and increment both
  neighbors.  The word product is unchanged.
* type 2 ("split"): replace an entry a by (a', 1, 1, a'') with
  a' + a'' = a + 1.  The word product changes sign.

Every word whose product is Id, -Id, or trace-zero can be brought down
to a base word ((1,1,1) for the first two, (1,2)/(2,1) for trace zero)
by inverting these surgeries.  ``reduce_word`` does this with a fixed
deterministic scan and returns a replayable certificate, which proves the
word's class by itself (``ReductionCertificate.solution_class``), so
``classify`` reads the class from it.

Positions are cyclic.  A step splices its entries into the stored
tuple and then rotates the result by its ``shift``: a step that acts
across the wrap-around point only changes which rotation of the word is
stored, so certificate replay reproduces the original tuple exactly,
not merely up to rotation.  Every forward step is one ``_splice`` on a
checked word; ``replay`` checks only the base.

``solution_class`` reads the word product in one scalar pass over its
four continuants and classifies those four integers, with no ``Mat2``;
``word_product``, the fold of ``Mat2`` products, stays the reference it
is tested against.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .matrices import SolutionClass, Word, _Record, _classify, _continuants, check_word, rotate

BASES_CENTRAL = ((1, 2), (2, 1))
BASE_TRIANGLE = (1, 1, 1)


class NotASolutionError(ValueError):
    """Raised when a word's product is neither +-Id nor trace zero."""

    def __init__(self, word: Word, message: str = "word is not a solution"):
        super().__init__(f"{message}: {word}")
        self.word = word


class SurgeryStep(_Record):
    """One forward surgery step at ``position`` of the stored word: type 2
    when it has a ``split`` (a', a''), else type 1.  The spliced result is
    then rotated by ``shift`` (``matrices.rotate``); any integer is allowed.
    """

    _fields = ("position", "split", "shift")

    def __init__(self, position: int, split: Optional[tuple[int, int]] = None, shift: int = 0):
        put = object.__setattr__
        put(self, "position", position)
        put(self, "split", split)
        put(self, "shift", shift)


def solution_class(w: Sequence[int]) -> SolutionClass:
    """Which of the three equations (if any) the word solves, read from
    the four continuants of the word as plain integers (no ``Mat2``)."""
    return _classify(*_continuants(w))


class ReductionCertificate(_Record):
    """A base word plus forward steps that rebuild the original word."""

    _fields = ("base", "steps")

    def __init__(self, base: Word, steps: tuple[SurgeryStep, ...] = ()):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "steps", steps)

    @property
    def type1_count(self) -> int:
        """S: number of triangle-gluing (type 1) steps."""
        return sum(1 for s in self.steps if s.split is None)

    @property
    def type2_count(self) -> int:
        """R: number of entry-splitting (type 2) steps."""
        return sum(1 for s in self.steps if s.split is not None)

    @property
    def solution_class(self) -> SolutionClass:
        """III from a central base; from (1,1,1), whose product is -Id, I after
        an odd number of splits and II after an even one; else ValueError."""
        if self.base in BASES_CENTRAL:
            return SolutionClass.PROBLEM_III
        if self.base != BASE_TRIANGLE:
            raise ValueError(f"no solution class for a certificate with base {self.base}")
        return SolutionClass.PROBLEM_I if self.type2_count % 2 else SolutionClass.PROBLEM_II

    def replay(self) -> Word:
        """The word the steps rebuild; the base is checked once."""
        w = check_word(self.base)
        for step in self.steps:
            w = _splice(w, step.position, step.split, step.shift)
        return w


def _splice(word: Word, i: int, split: Optional[tuple[int, int]], shift: int) -> Word:
    """One forward step on a checked word: type 1 at i when ``split`` is
    None, else type 2 with that split, then a rotation by ``shift``."""
    n = len(word)
    if not 0 <= i < n:
        raise ValueError(f"position {i} out of range for word of length {n}")
    if split is None:
        out = list(word)
        out[i] += 1
        out[(i + 1) % n] += 1
        out.insert(i + 1, 1)
        spliced = tuple(out)
    else:
        a1, a2 = split
        if a1 < 1 or a2 < 1 or a1 + a2 != word[i] + 1:
            raise ValueError(f"invalid split {split} for entry {word[i]}")
        spliced = word[:i] + (a1, 1, 1, a2) + word[i + 1:]
    return rotate(spliced, shift) if shift else spliced


def apply_type1(w: Sequence[int], i: int) -> Word:
    """Insert 1 between a_i and a_{i+1} (cyclically), incrementing both.

    For i == n-1 the insertion straddles the wrap-around and the new 1
    is appended at the end.
    """
    return _splice(check_word(w), i, None, 0)


def apply_type2(w: Sequence[int], i: int, split: tuple[int, int]) -> Word:
    """Replace a_i by (a', 1, 1, a'') with a' + a'' = a_i + 1."""
    return _splice(check_word(w), i, split, 0)


def _inverse_type1(word: Word, i: int) -> tuple[Word, SurgeryStep]:
    """Remove the 1 at position i and decrement its neighbors, keeping
    the other entries in place.  The forward step glues after entry
    i - 1 of the shorter word: its last entry when i == 0, and then a
    shift of -1 brings the 1 back to the front."""
    n = len(word)
    out = list(word)
    out[(i - 1) % n] -= 1
    out[(i + 1) % n] -= 1
    del out[i]
    step = SurgeryStep((i - 1) % (n - 1), shift=-1 if i == 0 else 0)
    return tuple(out), step


def _inverse_type2(word: Word, i: int) -> tuple[Word, SurgeryStep]:
    """Undo a type-2 surgery at the two adjacent 1s starting at position i."""
    n = len(word)
    q = (i - 1) % n  # first index of the fragment (a', 1, 1, a'')
    outer1, outer2 = word[q], word[(q + 3) % n]
    merged = outer1 + outer2 - 1
    if q <= n - 4:
        out = word[:q] + (merged,) + word[q + 4:]
        return out, SurgeryStep(q, (outer1, outer2))
    # the fragment wraps round the end: split the front entry, then rotate
    # the fragment's first n - q entries back to the end
    out = (merged,) + word[q + 4 - n:q]
    return out, SurgeryStep(0, (outer1, outer2), shift=n - q)


def reduce_word(w: Sequence[int]) -> ReductionCertificate:
    """Deterministically reduce a solution word to its base.

    Scan order at each step: the first position (from 0) admitting an
    inverse type-2, else the first admitting an inverse type-1.  A length
    guard keeps the intermediate words inside the solution sets: the
    result of either inverse surgery must have length >= 3 for Id/-Id
    words and >= 2 for trace-zero words; the inverse surgeries check
    nothing else.  A stuck scan, or a certificate whose replay or class
    is not the word's, contradicts the paper's theorem: AssertionError.
    """
    word = check_word(w)
    cls = solution_class(word)
    if cls is SolutionClass.NOT_A_SOLUTION:
        raise NotASolutionError(word)
    central = cls is SolutionClass.PROBLEM_III
    min_length, bases = (2, BASES_CENTRAL) if central else (3, (BASE_TRIANGLE,))

    steps_reversed: list[SurgeryStep] = []
    cur = word
    while cur not in bases:
        n = len(cur)
        step = None
        if n - 3 >= min_length:
            for i in range(n):
                if cur[i] == 1 and cur[(i + 1) % n] == 1:
                    cur, step = _inverse_type2(cur, i)
                    break
        if step is None and n - 1 >= min_length:
            for i in range(n):
                if cur[i] == 1 and cur[(i - 1) % n] >= 2 and cur[(i + 1) % n] >= 2:
                    cur, step = _inverse_type1(cur, i)
                    break
        if step is None:
            raise AssertionError(f"reduction of the solution {word} got stuck")
        steps_reversed.append(step)

    cert = ReductionCertificate(cur, tuple(reversed(steps_reversed)))
    if cert.replay() != word or cert.solution_class is not cls:
        raise AssertionError(f"certificate does not rebuild {word} of class {cls}")
    return cert


def classify(w: Sequence[int]) -> tuple[SolutionClass, Optional[ReductionCertificate]]:
    """Solution class of a word, with a reduction certificate if it is one:
    the certificate's class, which ``reduce_word`` checked."""
    try:
        cert = reduce_word(w)
    except NotASolutionError:
        return SolutionClass.NOT_A_SOLUTION, None
    return cert.solution_class, cert


def is_reduced(w: Sequence[int]) -> bool:
    """True if w contains no linear fragment (a,1,b) with a,b > 1 and no
    linear fragment (a,1,1,b).  Leading or trailing 1s are allowed."""
    word = check_word(w)
    n = len(word)
    for i in range(n - 2):
        if word[i] > 1 and word[i + 1] == 1 and word[i + 2] > 1:
            return False
    for i in range(n - 3):
        if word[i + 1] == 1 and word[i + 2] == 1:
            return False
    return True
