import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import quiddity.surgery
from quiddity.frieze import farey_quiddity
from quiddity.dissection import iter_dissections, quiddity as dissection_quiddity
from quiddity.matrices import Mat2, check_word, classify_matrix, rotate, word_product
from quiddity.search import generative_enumerate
from quiddity.surgery import (
    NotASolutionError,
    ReductionCertificate,
    SolutionClass,
    SurgeryStep,
    _inverse_type1,
    _inverse_type2,
    apply_type1,
    apply_type2,
    classify,
    is_reduced,
    reduce_word,
    solution_class,
)

words = st.lists(st.integers(min_value=1, max_value=7), min_size=2, max_size=9).map(tuple)


def _one_step(w, step):
    """The word that one forward step rebuilds from w."""
    return ReductionCertificate(w, (step,)).replay()


def test_apply_type1_interior():
    assert apply_type1((2, 3, 4), 0) == (3, 1, 4, 4)
    assert apply_type1((2, 3, 4), 1) == (2, 4, 1, 5)


def test_apply_type1_wraparound():
    assert apply_type1((2, 3, 4), 2) == (3, 3, 5, 1)
    assert apply_type1((5,), 0) == (7, 1)
    assert _one_step((2, 3, 4), SurgeryStep(2, shift=-1)) == (1, 3, 3, 5)
    # any shift rotates the spliced word, wherever the step sits
    assert _one_step((2, 3, 4), SurgeryStep(0, shift=-1)) == (4, 3, 1, 4)
    assert _one_step((2, 3, 4), SurgeryStep(0, shift=7)) == (4, 3, 1, 4)


def test_apply_type2():
    assert apply_type2((5, 2), 0, (2, 4)) == (2, 1, 1, 4, 2)
    assert _one_step((5, 2), SurgeryStep(0, (2, 4), shift=3)) == (4, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        apply_type2((5, 2), 0, (2, 3))
    assert _one_step((5, 2), SurgeryStep(1, (1, 2), shift=1)) == (1, 1, 1, 2, 5)
    assert _one_step((5, 2), SurgeryStep(1, (1, 2), shift=-6)) == (2, 5, 1, 1, 1)


@given(words, st.data())
def test_type1_preserves_product(w, data):
    # interior insertions keep the product on the nose
    i = data.draw(st.integers(min_value=0, max_value=len(w) - 2))
    assert word_product(apply_type1(w, i)) == word_product(w)


@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=9).map(tuple))
def test_type1_wraparound_preserves_trace(w):
    # insertion across the wrap conjugates the product, so only the
    # trace survives for a general word; a word of length 1 is its own
    # neighbour on both sides
    grown = apply_type1(w, len(w) - 1)
    assert word_product(grown).trace() == word_product(w).trace()


@given(words, st.data())
def test_type2_negates_product(w, data):
    i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
    a1 = data.draw(st.integers(min_value=1, max_value=w[i]))
    assert word_product(apply_type2(w, i, (a1, w[i] + 1 - a1))) == -word_product(w)


@given(words, st.data())
def test_inverse_type1_round_trip(w, data):
    i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
    grown = apply_type1(w, i)
    shorter, step = _inverse_type1(grown, (i + 1) % len(grown))
    assert shorter == w
    assert _one_step(shorter, step) == grown
    # on any rotation, the returned step rebuilds that rotation exactly
    r = data.draw(st.integers(min_value=0, max_value=len(grown) - 1))
    turned = rotate(grown, r)
    shorter, step = _inverse_type1(turned, (i + 1 - r) % len(grown))
    assert _one_step(shorter, step) == turned


@given(words, st.data())
def test_inverse_type2_round_trip(w, data):
    i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
    a1 = data.draw(st.integers(min_value=1, max_value=w[i]))
    grown = apply_type2(w, i, (a1, w[i] + 1 - a1))
    shorter, step = _inverse_type2(grown, i + 1)
    assert shorter == w
    assert _one_step(shorter, step) == grown
    # rotations move the fragment across the wrap, where the step shifts
    r = data.draw(st.integers(min_value=0, max_value=len(grown) - 1))
    turned = rotate(grown, r)
    shorter, step = _inverse_type2(turned, (i + 1 - r) % len(grown))
    assert _one_step(shorter, step) == turned


def test_solution_class():
    assert solution_class((1,) * 6) is SolutionClass.PROBLEM_I
    assert solution_class((1, 1, 1)) is SolutionClass.PROBLEM_II
    assert solution_class((1, 2)) is SolutionClass.PROBLEM_III
    assert solution_class((2, 2)) is SolutionClass.NOT_A_SOLUTION


def _grown_solutions(rng, count):
    """Random solutions of every class, grown from the bases by random
    forward surgeries, to lengths up to 40."""
    out = []
    for _ in range(count):
        w = rng.choice([(1, 1, 1), (1, 2), (2, 1)])
        for _ in range(rng.randint(0, 30)):
            i = rng.randrange(len(w))
            if rng.random() < 0.3 and len(w) <= 36:
                a1 = rng.randint(1, w[i])
                w = apply_type2(w, i, (a1, w[i] + 1 - a1))
            elif len(w) < 40:
                w = apply_type1(w, i)
        out.append(w)
    return out


def test_solution_class_matches_word_product():
    # the continuant classifier against the Mat2 fold, on random words
    # (almost all non-solutions), grown solutions of every class, and the
    # quiddity of every 3d-dissection of the 11-gon
    rng = random.Random(17)
    randoms = [tuple(rng.randint(1, rng.choice((3, 9, 1000))) for _ in range(rng.randint(1, 40)))
               for _ in range(3_000)]
    grown = _grown_solutions(rng, 1_000)
    quiddities = [dissection_quiddity(d) for d in iter_dissections(11)]
    seen = set()
    for w in randoms + grown + quiddities:
        cls = solution_class(w)
        assert cls is classify_matrix(word_product(w)), w
        seen.add(cls)
    assert seen == set(SolutionClass)
    assert len(quiddities) == 7_997


def test_classification_needs_no_mat2_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("Mat2 product taken")

    monkeypatch.setattr(Mat2, "__mul__", refuse)
    with pytest.raises(AssertionError):
        word_product((1, 2))
    assert solution_class((1,)) is SolutionClass.NOT_A_SOLUTION
    assert solution_class((1,) * 6) is SolutionClass.PROBLEM_I
    assert solution_class((1, 1, 1)) is SolutionClass.PROBLEM_II
    assert solution_class((1, 1, 2, 1, 1)) is SolutionClass.PROBLEM_III
    assert classify((2, 1, 2, 1, 1, 1, 1))[0] is SolutionClass.PROBLEM_I
    assert classify((2, 2))[0] is SolutionClass.NOT_A_SOLUTION


def test_reduce_word_replay_exact():
    w = (2, 1, 2, 1, 1, 1, 1)
    cert = reduce_word(w)
    assert cert.replay() == w
    assert cert.base == (1, 1, 1)


def test_replay_checks_the_word_once(monkeypatch):
    w = farey_quiddity(20)
    cert = reduce_word(w)
    assert len(cert.steps) > 100
    calls = []

    def counting(word):
        calls.append(len(word))
        return check_word(word)

    monkeypatch.setattr(quiddity.surgery, "check_word", counting)
    assert cert.replay() == w
    assert calls == [len(cert.base)]


def test_certificates_are_pinned():
    # sha256 of the (position, split, shift) lists of every I/II word with
    # n <= 9 and every III word with n <= 7, in enumeration order
    digest = hashlib.sha256()
    count = 0
    for problem, top in (("I", 9), ("II", 9), ("III", 7)):
        for n in range(1, top + 1):
            for w in generative_enumerate(problem, n).words:
                steps = [(s.position, s.split, s.shift) for s in reduce_word(w).steps]
                digest.update(f"{steps}\n".encode())
                count += 1
    assert count == 2342
    assert digest.hexdigest() == "0c0cbbc2955cad7ec6a45746a5b70e39b339c71f7c2873e5f21ccf6e08aa0cce"


def test_reduce_word_rotation_independent_counts():
    w = (1, 1, 2, 1, 1, 1, 1, 2, 1, 1)
    base_cert = reduce_word(w)
    for k in range(len(w)):
        cert = reduce_word(rotate(w, k))
        assert cert.type1_count == base_cert.type1_count
        assert cert.type2_count == base_cert.type2_count


def test_reduce_word_rejects_non_solution(monkeypatch):
    with pytest.raises(NotASolutionError):
        reduce_word((3, 3, 3))
    # a certificate of another class, or a solution that no inverse
    # surgery reduces, would contradict the theorem: not "no solution"
    monkeypatch.setattr(quiddity.surgery, "solution_class", lambda w: SolutionClass.PROBLEM_I)
    with pytest.raises(AssertionError, match="class"):
        reduce_word((1, 1, 1))
    with pytest.raises(AssertionError, match="stuck"):
        reduce_word((2, 2, 2))


def test_classify_parity():
    for w, cls in [
        ((1,) * 6, SolutionClass.PROBLEM_I),
        ((1, 1, 1), SolutionClass.PROBLEM_II),
        ((1, 1, 2, 1, 1), SolutionClass.PROBLEM_III),
    ]:
        got, cert = classify(w)
        assert got is cls
        if cls is SolutionClass.PROBLEM_I:
            assert cert.type2_count % 2 == 1
        elif cls is SolutionClass.PROBLEM_II:
            assert cert.type2_count % 2 == 0


def test_classify_non_solution_has_no_certificate():
    cls, cert = classify((4, 1))
    assert cls is SolutionClass.NOT_A_SOLUTION
    assert cert is None


def test_sum_formula_from_certificate():
    # sum = 3n - 6R - 6 for Id/-Id, 3n - 6R - 3 for trace zero
    for w in [(1, 1, 1), (1,) * 6, (2, 1, 2, 1, 1, 1, 1), (1, 1, 2, 1, 1), (1, 2)]:
        cls, cert = classify(w)
        offset = 3 if cls is SolutionClass.PROBLEM_III else 6
        assert sum(w) == 3 * len(w) - 6 * cert.type2_count - offset


def test_doubling_shifts_class():
    # doubling a -Id word gives Id, doubling a trace-zero word gives -Id
    assert solution_class((1, 1, 1) * 2) is SolutionClass.PROBLEM_I
    assert solution_class((1, 1, 2, 1, 1) * 2) is SolutionClass.PROBLEM_II


def test_is_reduced():
    assert is_reduced((1, 1, 2, 1, 1))
    assert is_reduced((2, 2, 1, 1))  # trailing 1s are fine
    assert not is_reduced((2, 1, 2))
    assert not is_reduced((3, 1, 1, 2))
    assert is_reduced((1, 1, 2))
