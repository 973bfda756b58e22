import dataclasses
import inspect
import itertools
import random

import pytest

import quiddity.search
import quiddity.surgery
from quiddity.frieze import is_totally_positive
from quiddity.limits import BudgetExceededError
from quiddity.matrices import canonical_dihedral, canonical_rotation
from quiddity.search import (
    SolutionClass,
    _as_problem,
    _period,
    brute_force_enumerate,
    count_table,
    entry_bound,
    generative_enumerate,
    orbit_representatives,
    sum_bound,
)


def test_bounds():
    assert entry_bound(SolutionClass.PROBLEM_I, 7) == 2
    assert entry_bound(SolutionClass.PROBLEM_II, 7) == 5
    assert entry_bound(SolutionClass.PROBLEM_III, 7) == 7
    assert sum_bound(SolutionClass.PROBLEM_I, 7) == 15
    assert sum_bound(SolutionClass.PROBLEM_III, 7) == 18


def test_problem_i_counts():
    assert [len(generative_enumerate("I", n)) for n in range(3, 9)] == [0, 0, 0, 1, 7, 34]


def test_problem_ii_counts():
    catalan = [1, 2, 5, 14, 42, 132]
    assert [len(generative_enumerate("II", n)) for n in range(3, 9)] == catalan
    assert len(generative_enumerate("II", 9)) == 430
    assert len(generative_enumerate("II", 10)) == 1445


def test_problem_iii_counts():
    assert [len(generative_enumerate("III", n)) for n in range(2, 7)] == [2, 6, 20, 75, 290]


def test_problem_iii_totally_positive_counts():
    got = []
    for n in range(2, 7):
        s = generative_enumerate("III", n)
        got.append(sum(1 for w in s.words if is_totally_positive(w)))
    assert got == [2, 6, 20, 70, 252]


def test_oracle_equivalence():
    for problem in ("I", "II", "III"):
        start = 2 if problem == "III" else 3
        for n in range(start, 9):
            brute = brute_force_enumerate(problem, n)
            gen = generative_enumerate(problem, n)
            assert brute.words == gen.words, (problem, n)


def test_oracles_agree_at_larger_n():
    # test_oracle_equivalence covers n <= 8
    for problem, count in (("I", 9647), ("II", 17554)):
        for n in range(9, 13):
            brute = brute_force_enumerate(problem, n)
            assert brute.words == generative_enumerate(problem, n).words, (problem, n)
        assert len(brute) == count
    assert len(generative_enumerate("III", 8)) == 4472
    for n, count in ((9, 17772), (10, 71072)):
        brute = brute_force_enumerate("III", n)
        assert brute.words == generative_enumerate("III", n).words, ("III", n)
        assert len(brute) == count


def test_brute_force_uses_no_surgery(monkeypatch):
    # the oracle stands apart from the closure: products, bounds and
    # rotations only, so it must not notice every surgery failing
    cases = [(p, n) for p in ("I", "II", "III") for n in range(1, 9)]
    expected = {case: generative_enumerate(*case).words for case in cases}

    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle called a surgery")

    monkeypatch.setattr(quiddity.search, "apply_type1", refuse)
    monkeypatch.setattr(quiddity.search, "apply_type2", refuse)
    for name, value in vars(quiddity.surgery).items():
        if (not name.startswith("_") and inspect.isfunction(value)
                and value.__module__ == quiddity.surgery.__name__):
            monkeypatch.setattr(quiddity.surgery, name, refuse)
    for case in cases:
        assert brute_force_enumerate(*case).words == expected[case], case
    with pytest.raises(AssertionError, match="surgery"):
        generative_enumerate("II", 4)


def _solves(problem, w):
    # M(w) = E(a_n)...E(a_1) with E(x) = [[x, -1], [1, 0]], folded as four
    # integers, independent of the library's matrices
    a, b, c, d = 1, 0, 0, 1
    for x in w:
        a, b, c, d = x * a - c, x * b - d, a, b
    if problem == "I":
        return (a, b, c, d) == (1, 0, 0, 1)
    if problem == "II":
        return (a, b, c, d) == (-1, 0, 0, -1)
    return a + d == 0


def test_sum_prune_misses_nothing():
    # the oracle's sum bound cuts no solution: every tuple below the entry
    # bound alone, with no sum cap, gives the same words
    for problem in ("I", "II", "III"):
        for n in range(3, 7):
            bound = entry_bound(_as_problem(problem), n)
            full = tuple(w for w in itertools.product(range(1, bound + 1), repeat=n)
                         if _solves(problem, w))
            assert brute_force_enumerate(problem, n).words == full, (problem, n)


def _rotations(w):
    return [w[k:] + w[:k] for k in range(len(w))]


def test_orbit_counts():
    s = generative_enumerate("I", 7)
    assert len(orbit_representatives(s, "rotation")) == 1
    assert len(orbit_representatives(s, "dihedral")) == 1
    # the 38 non-TP trace-zero words at n=6 fall into 4 dihedral classes
    s6 = generative_enumerate("III", 6)
    non_tp = [w for w in s6.words if not is_totally_positive(w)]
    assert len(non_tp) == 38
    reps = {min(_rotations(w) + _rotations(w[::-1])) for w in non_tp}
    assert len(reps) == 4
    assert (1, 1, 1, 1, 2, 3) in reps
    # against the least rotation (and reflection) taken over every word
    for problem, n, classes in (("I", 12, (809, 419)), ("II", 12, (1491, 772)),
                                ("III", 9, (1976, 991))):
        s = generative_enumerate(problem, n)
        rotation = sorted({min(_rotations(w)) for w in s.words})
        dihedral = sorted({min(_rotations(w) + _rotations(w[::-1])) for w in s.words})
        assert orbit_representatives(s) == rotation
        assert orbit_representatives(s, "dihedral") == dihedral
        assert (len(rotation), len(dihedral)) == classes, problem


def test_period_counts_distinct_rotations():
    # every word over {1, 2, 3} up to length 7 and random words up to 16
    words = [w for n in range(1, 8) for w in itertools.product((1, 2, 3), repeat=n)]
    rng = random.Random(20)
    words += [tuple(rng.randint(-2, 5) for _ in range(rng.randint(1, 16)))
              for _ in range(2_000)]
    for w in words:
        assert _period(w) == len(set(_rotations(w))), w
    # periods of exactly n/2, where a scan that stopped short would give n
    assert _period((1, 2, 1, 2)) == 2
    assert _period((2, 1, 1, 2, 1, 1)) == 3
    assert _period((1, 1)) == 1
    assert _period((1, 2)) == 2


def test_canonical_forms_and_periods_of_long_words():
    # lengths up to 40, primes and 24, 30 and 36 among them: every
    # divisor d of n as a block length, the block repeated and then
    # spoilt in one place (period n, but long ties between rotations),
    # and words with ten or more 1s, many candidate rotations each
    words = [(1, 2) * k for k in range(1, 21)] + [(1, 1, 2) * k for k in range(1, 14)]
    words += [(1,) * n for n in range(1, 41)]
    rng = random.Random(28)
    for n in (23, 24, 29, 30, 31, 36, 37, 40):
        for d in range(1, n + 1):
            if n % d == 0:
                block = tuple(rng.choice((1, 1, 1, 2, 3)) for _ in range(d))
                word = block * (n // d)
                i = rng.randrange(n)
                words += [word, word[:i] + (word[i] + 1,) + word[i + 1:]]
        for _ in range(20):
            word = [1] * 10 + [rng.randint(1, 3) for _ in range(n - 10)]
            rng.shuffle(word)
            words.append(tuple(word))
    for w in words:
        rotations = _rotations(w)
        least = min(rotations)
        assert canonical_rotation(w) == least, w
        assert canonical_dihedral(w) == min(least, min(_rotations(w[::-1]))), w
        assert _period(w) == len(set(rotations)), w
    assert canonical_rotation((2, 1) * 20) == (1, 2) * 20
    assert canonical_rotation((1,) * 36 + (2,) + (1,) * 3) == (1,) * 39 + (2,)
    assert [_period((1, 2) * k) for k in (12, 15, 18, 20)] == [2] * 4
    assert [_period((1, 1, 2) * k) for k in (8, 10, 12, 13)] == [3] * 4
    assert _period((1,) * 37) == 1
    assert _period((1,) * 36 + (2,)) == 37
    assert _period(((1,) * 5 + (2,)) * 6) == 6
    assert _period(((1,) * 11 + (2,)) * 2 + (1,) * 11 + (3,)) == 36


def test_problem_names():
    for names, cls in ((("1", "I"), SolutionClass.PROBLEM_I),
                       (("2", "II"), SolutionClass.PROBLEM_II),
                       (("3", "III"), SolutionClass.PROBLEM_III)):
        for name in names + (cls,):
            assert _as_problem(name) is cls
    # SolutionClass("none") is NOT_A_SOLUTION, so "none" is refused by name
    for name in ("ii", "PROBLEM_II", "BII", "LIII", "4", "none", SolutionClass.NOT_A_SOLUTION):
        with pytest.raises(ValueError):
            _as_problem(name)


def test_orbit_representatives():
    s = generative_enumerate("II", 5)
    assert orbit_representatives(s) == [(1, 2, 2, 1, 3)]
    assert orbit_representatives(s, "dihedral") == [(1, 2, 2, 1, 3)]


def test_orbit_count_rejects_bad_symmetry():
    with pytest.raises(ValueError):
        orbit_representatives(generative_enumerate("II", 4), "mirror")


def test_count_table_cross_checked():
    table = count_table("II", 7, cross_check_up_to=7)
    assert table == [(3, 1), (4, 2), (5, 5), (6, 14), (7, 42)]


def test_count_table_counts_classes_by_period():
    for problem, n_max in (("I", 11), ("II", 11), ("III", 9)):
        start = 2 if problem == "III" else 3
        expected = [(n, len(generative_enumerate(problem, n).words))
                    for n in range(start, n_max + 1)]
        assert count_table(problem, n_max) == expected, problem
    # classes with fewer than n rotations must count their period, not n
    assert (1, 3, 1, 3, 1, 3) in generative_enumerate("II", 6).words
    assert (1, 2, 1, 2, 1, 2) in generative_enumerate("III", 6).words


def test_count_table_raises_on_disagreement(monkeypatch):
    oracle = brute_force_enumerate

    def drops_a_word(problem, n, **kwargs):
        s = oracle(problem, n, **kwargs)
        return dataclasses.replace(s, words=s.words[1:]) if n == 6 else s

    monkeypatch.setattr(quiddity.search, "brute_force_enumerate", drops_a_word)
    assert count_table("II", 7, cross_check_up_to=5) == [(3, 1), (4, 2), (5, 5), (6, 14), (7, 42)]
    with pytest.raises(AssertionError, match="II, n=6"):
        count_table("II", 7, cross_check_up_to=6)


def test_count_table_counts_by_period_at_cross_checked_lengths(monkeypatch):
    # every length is counted by period, so a cross-checked length also
    # checks the period sum against the number of words it listed
    monkeypatch.setattr(quiddity.search, "_period", lambda w: len(w) + 1)
    with pytest.raises(AssertionError, match="II, n=3"):
        count_table("II", 7, cross_check_up_to=7)


def test_closure_and_oracle_call_counts(monkeypatch):
    # the benchmark's traced counts read these calls: search.surgeries
    # (type 1 plus type 2), search.canonical_rotation.calls and
    # search.brute_nodes over the count-tables workload's three tables
    counts = dict.fromkeys(("apply_type1", "apply_type2", "canonical_rotation", "elementary"), 0)

    def counted(name):
        original = getattr(quiddity.search, name)

        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    for name in counts:
        monkeypatch.setattr(quiddity.search, name, counted(name))
    count_table("I", 11, cross_check_up_to=9)
    count_table("II", 11, cross_check_up_to=9)
    count_table("III", 9, cross_check_up_to=7)
    assert counts == {"apply_type1": 12035, "apply_type2": 2073,
                      "canonical_rotation": 14110, "elementary": 11188}


def test_closure_asserts_parity(monkeypatch):
    # a word reached by an odd and by an even number of splits would break
    # the theorem; a canonical form that merges every word of a length
    # forces that clash, at a type-1 child (its level already holds a
    # type-2 child)
    monkeypatch.setattr(quiddity.search, "canonical_rotation", lambda w: (1,) * len(w))
    for problem in ("II", "III"):
        with pytest.raises(AssertionError, match="parity clash"):
            count_table(problem, 7)
    # splits that all give the word of 1s force it at a type-2 child, which
    # no type-1 child can be: level 6 holds words of both parities
    monkeypatch.undo()
    monkeypatch.setattr(quiddity.search, "apply_type2", lambda w, i, split: (1,) * (len(w) + 3))
    with pytest.raises(AssertionError, match="parity clash"):
        count_table("II", 9)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        brute_force_enumerate("II", 13)
    with pytest.raises(BudgetExceededError):
        generative_enumerate("II", 15)
    # explicit budget raises the ceiling
    assert len(brute_force_enumerate("I", 6, budget=13)) == 1
