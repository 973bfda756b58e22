"""Two independent enumerators for the word equations.

``brute_force_enumerate`` walks tuples below the proved entry bound and
the proved sum bound (every solution satisfies sum <= 3n-6,
respectively 3n-3 for the trace-zero problem), carrying the running
product as four integers and multiplying by one ``elementary`` matrix
per visited tuple.  Rotating a word conjugates its product and keeps
its entries, so the three conditions and both bounds hold for all
rotations of a word or for none.  The walk therefore visits only words
whose first entry is their largest, at least one per rotation class,
and adds every rotation of each hit.  For M = Id and M = -Id it meets
in the middle: the short tails are indexed by their matrix, and the
heads, largest entry first, are streamed against that index.  For trace
zero, a condition no such index can match, it walks the first n-1
entries depth first and solves the trace condition, linear in the last
entry, for it.  It uses only matrix products, the bounds and rotations,
never the surgeries.  The test suite checks for small n that the sum
bound cuts no solution: its own walk over every tuple below the entry
bound alone finds the same words.

``generative_enumerate`` grows the base solutions by the two surgeries,
applied at every cyclic position of one representative per rotation
class, and collects everything of the requested length.  The two
enumerators must agree; that cross-check is the library's strongest
self-test.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from . import limits
from .matrices import Word, canonical_dihedral, canonical_rotation, elementary
from .surgery import (
    BASES_CENTRAL,
    BASE_TRIANGLE,
    SolutionClass,
    apply_type1,
    apply_type2,
)


@dataclass(frozen=True)
class SolutionSet:
    """All solutions of one problem at one length, as ordered tuples.

    Rotations of a solution are distinct members, matching the counting
    convention of the source lists (e.g. 7 solutions at I, n=7).
    """

    words: tuple[Word, ...]

    def __len__(self) -> int:
        return len(self.words)


_NUMERALS = {"1": "I", "2": "II", "3": "III"}


def _as_problem(problem: SolutionClass | str) -> SolutionClass:
    """The problem named by a SolutionClass, "I".."III" or "1".."3"."""
    cls = SolutionClass(_NUMERALS.get(problem, problem))
    if cls is SolutionClass.NOT_A_SOLUTION:
        raise ValueError("pick one of the problems I, II, III")
    return cls


def entry_bound(problem: SolutionClass, n: int) -> int:
    """Largest value any entry of a length-n solution can take."""
    if problem is SolutionClass.PROBLEM_I:
        return n - 5
    if problem is SolutionClass.PROBLEM_II:
        return n - 2
    return n


def sum_bound(problem: SolutionClass, n: int) -> int:
    """Largest possible entry sum of a length-n solution."""
    return 3 * n - 3 if problem is SolutionClass.PROBLEM_III else 3 * n - 6


def _walk(m: int, bound: int, node: tuple) -> Iterator[tuple[Word, int, int, int, int, int]]:
    """Every extension of the start node to m entries by entries in
    1..bound that keeps the entry sum within its room, with its product
    M = [[a, b], [c, d]] and the room left, as (word, a, b, c, d, room).

    A node is (prefix, a, b, c, d, room): the root ((), 1, 0, 0, 1, cap)
    walks every tuple with entry sum <= cap, and ``_max_first`` starts
    one walk per first entry.  The product is carried as four integers; appending
    x multiplies it by E(x) on the left, one ``elementary`` per visited
    tuple.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        word, a, b, c, d, room = node
        depth = len(word)
        if depth == m:
            yield node
            continue
        # every entry still to come after this one takes at least 1
        for x in range(1, min(bound, room - (m - depth - 1)) + 1):
            e = elementary(x)
            stack.append((word + (x,), e.a * a + e.b * c, e.a * b + e.b * d,
                          e.c * a + e.d * c, e.c * b + e.d * d, room - x))


def _max_first(m: int, bound: int, cap: int) -> Iterator[tuple[Word, int, int, int, int, int]]:
    """The nodes of the walk from the root ((), 1, 0, 0, 1, cap) to m >= 1
    entries whose first entry f is their largest: one walk with entries
    up to f from each prefix (f,)."""
    for f in range(1, min(bound, cap - (m - 1)) + 1):
        e = elementary(f)
        yield from _walk(m, f, ((f,), e.a, e.b, e.c, e.d, cap - f))


def _with_rotations(found: set[Word], w: Word) -> None:
    """Add w and every rotation of it to found."""
    found.update(w[k:] + w[:k] for k in range(len(w)))


def brute_force_enumerate(
    problem: SolutionClass | str, n: int, budget: int | None = None
) -> SolutionSet:
    """Every tuple of length n within the proved entry and sum bounds
    whose matrix lands on the target.

    All three conditions and both bounds are invariant under rotation
    (rotating a word conjugates its product), and every rotation class
    has a member whose first entry is its largest.  So only those words
    are walked, and each hit brings in all n of its rotations.
    """
    problem = _as_problem(problem)
    limits.check_budget(n, limits.DEFAULT_BRUTE_FORCE_CEILING, budget, "brute-force search")
    if n < 1:
        raise ValueError("length must be >= 1")
    bound = entry_bound(problem, n)
    # a single entry a has trace a > 0, so Problem III starts at n = 2
    if bound < 1 or n == 1:
        return SolutionSet(())
    smax = sum_bound(problem, n)
    found: set[Word] = set()

    if problem is SolutionClass.PROBLEM_III:
        # With P the first n-1 entries, trace M(P + (x,)) = x*a - c + b for
        # M(P) = [[a, b], [c, d]], so the last entry is solved, not walked.
        # It is capped, like every other entry, by the first one.
        for prefix, a, b, c, d, room in _max_first(n - 1, bound, smax - 1):
            top = min(prefix[0], room + 1)
            if a:
                x, rest = divmod(c - b, a)
                lasts = (x,) if rest == 0 and 1 <= x <= top else ()
            else:
                lasts = range(1, top + 1)
            for x in lasts:
                e = elementary(x)
                if e.a * a + e.b * c + e.c * b + e.d * d == 0:
                    _with_rotations(found, prefix + (x,))
        return SolutionSet(tuple(sorted(found)))

    # M(w) = M(tail) * M(head), so M(w) = sign * Id exactly when
    # M(tail) = sign * M(head)^-1.  The shorter tail is indexed in full by
    # its matrix, and the heads, largest entry first, are streamed against
    # that index by the key.  Each half leaves room for the other's
    # entries, at least 1 apiece.
    sign = 1 if problem is SolutionClass.PROBLEM_I else -1
    k = n // 2
    index: dict[tuple[int, int, int, int], list[Word]] = {}
    for tail, a, b, c, d, _ in _walk(k, bound, ((), 1, 0, 0, 1, smax - (n - k))):
        index.setdefault((a, b, c, d), []).append(tail)
    for head, a, b, c, d, room in _max_first(n - k, bound, smax - k):
        tails = index.get((sign * d, -sign * b, -sign * c, sign * a))
        if tails:
            f = head[0]
            for tail in tails:
                # the head's room kept 1 apiece for the k tail entries
                if max(tail) <= f and sum(tail) <= room + k:
                    _with_rotations(found, head + tail)
    return SolutionSet(tuple(sorted(found)))


def _closure(problem: SolutionClass, n_max: int) -> dict[int, dict[Word, int]]:
    """Canonical rotations of every word the surgeries build from the
    base words, up to length n_max, by length, each with the parity of
    its type-2 steps.

    A child of any rotation of a word is a rotation of a child of the
    word itself (positions are cyclic and ``apply_type1`` handles the
    wrap), so each representative is operated on once.  For the Id/-Id
    problems the parity selects the problem (odd -> Id, even -> -Id);
    parity is a word invariant, which the closure asserts as it
    deduplicates.  Every level is made up front, and each parent's
    children, type 1 at every position and then type 2 at every position
    and split, go straight into the level one or three longer.
    """
    if problem is SolutionClass.PROBLEM_III:
        base, bases = 2, {canonical_rotation(b): 0 for b in BASES_CENTRAL}
    else:
        base, bases = 3, {BASE_TRIANGLE: 0}
    levels = {length: {} for length in range(base, n_max + 1)}
    levels[base] = bases
    for length in range(base, n_max):
        up1, up3 = levels[length + 1], levels.get(length + 3)
        for word, parity in levels[length].items():
            for i in range(length):
                child = canonical_rotation(apply_type1(word, i))
                if up1.setdefault(child, parity) != parity:
                    raise AssertionError(f"parity clash for {child}")
            if up3 is None:
                continue
            flipped = parity ^ 1
            for i in range(length):
                for a1 in range(1, word[i] + 1):
                    child = canonical_rotation(apply_type2(word, i, (a1, word[i] + 1 - a1)))
                    if up3.setdefault(child, flipped) != flipped:
                        raise AssertionError(f"parity clash for {child}")
    return levels


def _level_classes(
    problem: SolutionClass, levels: dict[int, dict[Word, int]], n: int
) -> list[Word]:
    """The length-n representatives of one problem, one per rotation class."""
    at_n = levels.get(n, {})
    if problem is SolutionClass.PROBLEM_III:
        return list(at_n)
    wanted = 1 if problem is SolutionClass.PROBLEM_I else 0
    return [w for w, parity in at_n.items() if parity == wanted]


def _level_words(
    problem: SolutionClass, levels: dict[int, dict[Word, int]], n: int
) -> tuple[Word, ...]:
    """All rotations of the length-n representatives of one problem, sorted."""
    classes = _level_classes(problem, levels, n)
    return tuple(sorted({w[k:] + w[:k] for w in classes for k in range(n)}))


@functools.lru_cache(maxsize=None)
def _proper_divisors(n: int) -> tuple[int, ...]:
    """The divisors p < n of n, ascending."""
    return tuple(p for p in range(1, n // 2 + 1) if n % p == 0)


def _period(w: Word) -> int:
    """The number of distinct rotations of w: the least p dividing len(w)
    with w rotated by p equal to w.

    Only the proper divisors p of n are tried, and otherwise the period
    is n itself.  For such a p, w rotated by p equals w exactly when
    w[p:] == w[:-p]: both say that w repeats its first p entries.
    """
    for p in _proper_divisors(len(w)):
        if w[p:] == w[:-p]:
            return p
    return len(w)


def generative_enumerate(
    problem: SolutionClass | str, n: int, budget: int | None = None
) -> SolutionSet:
    """Closure of the base words under the surgeries, cut at length n."""
    problem = _as_problem(problem)
    limits.check_budget(n, limits.DEFAULT_GENERATIVE_CEILING, budget, "generative search")
    if n < 1:
        raise ValueError("length must be >= 1")
    return SolutionSet(_level_words(problem, _closure(problem, n), n))


def orbit_representatives(s: SolutionSet, symmetry: str = "rotation") -> list[Word]:
    """The least member of each orbit of s.words under rotations, or
    rotations plus reflections ("dihedral"), sorted."""
    if symmetry not in ("rotation", "dihedral"):
        raise ValueError(f"unknown symmetry {symmetry!r}")
    canonical = canonical_dihedral if symmetry == "dihedral" else canonical_rotation
    return sorted({canonical(w) for w in s.words})


def count_table(
    problem: SolutionClass | str, n_max: int, cross_check_up_to: int = 0
) -> list[tuple[int, int]]:
    """(n, solution count) for n up to n_max, from one generative
    closure built up to n_max.

    Every length is counted the same way: a rotation class of period p
    holds exactly p words, so the count is the sum of the periods of the
    closure's representatives.  Lengths up to ``cross_check_up_to`` also
    list every word: the brute-force oracle's words must equal them, and
    their number must equal that sum, or the table raises.
    """
    problem = _as_problem(problem)
    limits.check_budget(n_max, limits.DEFAULT_GENERATIVE_CEILING, None, "generative search")
    levels = _closure(problem, n_max)
    n_min = 2 if problem is SolutionClass.PROBLEM_III else 3
    table = []
    for n in range(n_min, n_max + 1):
        count = sum(map(_period, _level_classes(problem, levels, n)))
        if n <= cross_check_up_to:
            words = brute_force_enumerate(problem, n).words
            if words != _level_words(problem, levels, n) or len(words) != count:
                raise AssertionError(f"enumerator disagreement for {problem.value}, n={n}")
        table.append((n, count))
    return table
