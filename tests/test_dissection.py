import copy
import dataclasses
import gc
import itertools
import json
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiddity import dissection as dissection_module
from quiddity import limits, surgery
from quiddity.cli import main
from quiddity.dissection import (
    Dissection,
    dissections_with_quiddity,
    even_face_parity,
    faces,
    from_certificate,
    is_3d_dissection,
    is_centrally_symmetric,
    iter_dissections,
    profile,
    quiddity,
    symmetric_dissection,
    symmetric_dissections,
    to_dot,
    to_svg,
)
from quiddity.frieze import is_totally_positive
from quiddity.limits import BudgetExceededError
from quiddity.search import generative_enumerate, orbit_representatives
from quiddity.surgery import (
    BASE_TRIANGLE,
    NotASolutionError,
    ReductionCertificate,
    SolutionClass,
    SurgeryStep,
    apply_type1,
    reduce_word,
    solution_class,
)


def _make_dissection(n, diagonals):
    """A Dissection from diagonals given with their ends in either order."""
    return Dissection(n, frozenset((min(i, j), max(i, j)) for i, j in diagonals))


def _half_quiddity(d):
    """The first n/2 entries of the quiddity, which must be (n/2)-periodic."""
    if d.n % 2 != 0:
        raise ValueError("half-quiddity needs an even vertex count")
    q, h = quiddity(d), d.n // 2
    if q[:h] != q[h:]:
        raise ValueError("quiddity is not half-periodic")
    return q[:h]


def _dihedral_classes(ds):
    """One representative per orbit under rotations and reflections."""
    seen = set()
    reps = []
    for d in ds:
        n = d.n
        images = [[((i + k) % n, (j + k) % n) for i, j in d.diagonals] for k in range(n)]
        images += [[((k - i) % n, (k - j) % n) for i, j in d.diagonals] for k in range(n)]
        key = min(tuple(sorted((min(a, b), max(a, b)) for a, b in img)) for img in images)
        if key not in seen:
            seen.add(key)
            reps.append(d)
    return reps


def test_make_dissection_validation():
    _make_dissection(6, [(0, 2), (0, 4)])
    with pytest.raises(ValueError):
        _make_dissection(6, [(0, 2), (1, 3)])  # crossing
    with pytest.raises(ValueError):
        _make_dissection(6, [(0, 1)])  # boundary edge
    with pytest.raises(ValueError):
        _make_dissection(6, [(0, 7)])


def test_constructor_freezes_any_diagonal_collection():
    # a list, a set or a list with repeats names the same dissection as
    # its frozenset: equal, hashable alike and cut into the same faces
    expected = Dissection(6, frozenset({(0, 2), (2, 5)}))
    for diagonals in ([(0, 2), (2, 5)], {(0, 2), (2, 5)}, [(2, 5), (0, 2), (2, 5), (0, 2)]):
        d = Dissection(6, diagonals)
        assert d == expected
        assert hash(d) == hash(expected)
        assert faces(d) == faces(expected) == [(0, 1, 2), (0, 2, 5), (2, 3, 4, 5)]
    assert faces(Dissection(4, [(0, 2), (0, 2)])) == [(0, 1, 2), (0, 2, 3)]


def test_faces_of_fan():
    d = _make_dissection(5, [(0, 2), (0, 3)])
    assert faces(d) == [(0, 1, 2), (0, 2, 3), (0, 3, 4)]
    assert is_3d_dissection(d)
    assert profile(d) == (3, 3, 3)
    assert quiddity(d) == (3, 1, 2, 2, 1)


def test_quiddity_needs_3d():
    # (0, 3) cuts two quadrilaterals; (0, 2) cuts a triangle, then the pentagon
    # (0, 2, 3, 4, 5), so the 3d check must look past the first face
    for diagonals in ([(0, 3)], [(0, 2)]):
        d = _make_dissection(6, diagonals)
        assert not is_3d_dissection(d)
        with pytest.raises(ValueError):
            quiddity(d)
        with pytest.raises(ValueError):
            even_face_parity(d)


def test_hexagon_count():
    # 14 triangulations plus the undissected hexagon
    all_d = list(iter_dissections(6))
    assert len(all_d) == 15
    assert sum(1 for d in all_d if profile(d) == (3, 3, 3, 3)) == 14
    assert sum(1 for d in all_d if d.diagonals == frozenset()) == 1


def test_pentagon_example():
    cert = reduce_word((1, 3, 1, 2, 2))
    d = from_certificate(cert)
    assert quiddity(d) == (1, 3, 1, 2, 2)
    assert sorted(d.diagonals) == [(1, 3), (1, 4)]


def test_heptagon_example():
    d = from_certificate(reduce_word((2, 1, 2, 1, 1, 1, 1)))
    assert profile(d) == (3, 6)
    assert quiddity(d) == (2, 1, 2, 1, 1, 1, 1)


def test_round_trip_all_solutions():
    # each type-1 step adds one diagonal; a Problem III certificate is
    # replayed twice over, on a square that already has one diameter; the
    # certificate's own class is the word's
    for problem in ("I", "II"):
        for n in range(3, 9):
            for w in generative_enumerate(problem, n).words:
                cert = reduce_word(w)
                d = from_certificate(cert)
                assert quiddity(d) == w
                assert len(d.diagonals) == cert.type1_count
                assert cert.solution_class == solution_class(w)
    for n in range(2, 9):
        for w in generative_enumerate("III", n).words:
            cert = reduce_word(w)
            d = from_certificate(cert)
            assert quiddity(d) == w + w
            assert is_centrally_symmetric(d)
            assert len(d.diagonals) == 2 * cert.type1_count + 1
            assert cert.solution_class == solution_class(w)
    # a certificate on any other base replays, but proves no class
    cert = ReductionCertificate((2, 2), (SurgeryStep(0),))
    assert cert.replay() == (3, 1, 3)
    with pytest.raises(ValueError):
        cert.solution_class


@pytest.mark.parametrize("base,steps", [
    ((1, 1, 1), [SurgeryStep(3)]),
    ((1, 1, 1), [SurgeryStep(-1, (1, 1))]),
    ((1, 1, 1), [SurgeryStep(0, (2, 1))]),
    ((1, 1, 1), [SurgeryStep(0), SurgeryStep(0, (1, 1))]),
    ((1, 1, 1), [SurgeryStep(0), SurgeryStep(0, (3, 0))]),
    ((2, 1), [SurgeryStep(2)]),
    ((2, 1), [SurgeryStep(0, (3, 1))]),
    # the first antipodal copy of each step fits, the step itself does not
    ((1, 2), [SurgeryStep(-1)]),
    ((2, 1), [SurgeryStep(0, (1, 0))]),
], ids=["position-too-large", "position-negative", "split-too-large",
        "split-too-small", "split-zero", "III-position-too-large", "III-split-too-large",
        "III-position-negative", "III-split-zero"])
def test_malformed_certificate_rejected_by_both_replays(base, steps):
    cert = ReductionCertificate(base, tuple(steps))
    with pytest.raises(ValueError):
        cert.replay()
    with pytest.raises(ValueError):
        from_certificate(cert)


@pytest.mark.parametrize("base,steps", [
    ((1, 1, 1), [SurgeryStep(2, shift=-1)]),
    ((1, 1, 1), [SurgeryStep(0), SurgeryStep(3, shift=-1)]),
    ((1, 1, 1), [SurgeryStep(0, (1, 1), shift=1)]),
    ((1, 1, 1), [SurgeryStep(0), SurgeryStep(0, (2, 1), shift=3)]),
    ((1, 1, 1), [SurgeryStep(2), SurgeryStep(0, (1, 2))]),
    ((1, 2), [SurgeryStep(1, shift=-1), SurgeryStep(0, (1, 1), shift=2)]),
    ((1, 1, 1), [SurgeryStep(0, shift=-1)]),
    ((1, 1, 1), [SurgeryStep(0), SurgeryStep(1, shift=-6)]),
    ((1, 1, 1), [SurgeryStep(1, (1, 1), shift=1)]),
    ((1, 1, 1), [SurgeryStep(0, (1, 1), shift=10)]),
    ((1, 2), [SurgeryStep(0, shift=-1)]),
], ids=["type1-wrap", "type1-wrap-later", "type2-wrap", "type2-wrap-split", "type2-split",
        "III-wraps", "type1-shift-interior", "type1-shift-later",
        "type2-shift-interior", "type2-shift-overlong", "III-shift-interior"])
def test_well_formed_certificate_accepted_by_both_replays(base, steps):
    cert = ReductionCertificate(base, tuple(steps))
    w = cert.replay()
    d = from_certificate(cert)
    if base == BASE_TRIANGLE:
        assert quiddity(d) == w
    else:
        assert quiddity(d) == w + w
        assert is_centrally_symmetric(d)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([BASE_TRIANGLE, (1, 2), (2, 1)]), st.data())
def test_shifted_certificates_agree_in_both_replays(base, data):
    # random steps at any position with any shift; splits fit the entry
    w, steps = base, []
    for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
        i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
        shift = data.draw(st.integers(min_value=-12, max_value=12))
        if data.draw(st.booleans()):
            step = SurgeryStep(i, shift=shift)
        else:
            a1 = data.draw(st.integers(min_value=1, max_value=w[i]))
            step = SurgeryStep(i, (a1, w[i] + 1 - a1), shift)
        steps.append(step)
        w = ReductionCertificate(w, (step,)).replay()
    cert = ReductionCertificate(base, tuple(steps))
    assert cert.replay() == w
    d = from_certificate(cert)
    if base == BASE_TRIANGLE:
        assert quiddity(d) == w
    else:
        assert quiddity(d) == w + w
        assert is_centrally_symmetric(d)


def test_parity_predicts_problem():
    for n in range(3, 9):
        for d in iter_dissections(n):
            cls = solution_class(quiddity(d))
            want = "odd" if cls is SolutionClass.PROBLEM_I else "even"
            assert cls in (SolutionClass.PROBLEM_I, SolutionClass.PROBLEM_II)
            assert even_face_parity(d) == want


def test_certificate_counts_match_geometry():
    # S = number of diagonals, R = sum over faces of (size/3 - 1)
    for n in range(3, 9):
        for d in iter_dissections(n):
            cert = reduce_word(quiddity(d))
            assert cert.type1_count == len(d.diagonals)
            assert cert.type2_count == sum(len(f) // 3 - 1 for f in faces(d))


def test_octagon_profile_class():
    found = [d for d in iter_dissections(8) if profile(d) == (3, 3, 6)]
    assert len(found) == 36
    assert len(_dihedral_classes(found)) == 4


def test_octagon_twin_quiddities():
    twins = dissections_with_quiddity((2, 1, 2, 1, 2, 1, 2, 1))
    assert len(twins) == 2
    assert all(quiddity(d) == (2, 1, 2, 1, 2, 1, 2, 1) for d in twins)


def test_symmetric_decagon():
    half = (5, 2, 2, 2, 1)
    assert solution_class(half) is SolutionClass.PROBLEM_III
    d = symmetric_dissection(half)
    assert d.n == 10
    assert is_centrally_symmetric(d)
    assert _half_quiddity(d) == half


def test_symmetric_dissection_is_the_certificates():
    # a 302-entry Problem III word: its 604-gon is far past the ceiling
    # of the search over the doubled word
    w = (1, 2)
    for _ in range(300):
        w = apply_type1(w, 0)
    d = symmetric_dissection(w)
    assert d.n == 604
    assert is_centrally_symmetric(d)
    assert quiddity(d) == w + w
    assert d == from_certificate(reduce_word(w))
    for n in range(2, 7):
        for w in generative_enumerate("III", n).words:
            assert symmetric_dissection(w) in list(symmetric_dissections(w))
    # a Problem I or II word solves another problem; a word that solves
    # none of the three is not a solution at all
    for w, problem in (((1, 1, 1, 1, 1, 1), SolutionClass.PROBLEM_I),
                       ((1, 1, 1), SolutionClass.PROBLEM_II)):
        assert solution_class(w) is problem
        with pytest.raises(ValueError, match="not a Problem III solution"):
            symmetric_dissection(w)
    with pytest.raises(NotASolutionError):
        symmetric_dissection((2, 2, 2))


def test_symmetric_dissections_refuses_what_symmetric_dissection_refuses(monkeypatch):
    # a Problem I or II word, and a word that solves nothing, raise in
    # both the same error; a Problem III word is classified once and the
    # doubled word searched
    for w in ((1, 1, 1), (1, 1, 1, 1, 1, 1), (1, 1, 2), (2, 2, 2)):
        with pytest.raises(ValueError) as single:
            symmetric_dissection(w)
        with pytest.raises(ValueError) as listed:
            symmetric_dissections(w)
        assert (type(listed.value), str(listed.value)) == (type(single.value), str(single.value))
        expected = NotASolutionError if solution_class(w) is SolutionClass.NOT_A_SOLUTION else ValueError
        assert type(listed.value) is expected
    calls = []
    solution_class_of = dissection_module.solution_class
    monkeypatch.setattr(dissection_module, "solution_class",
                        lambda w: calls.append(w) or solution_class_of(w))
    assert symmetric_dissections((1, 1, 1, 1, 2)) == [Dissection(10, {(4, 9)})]
    assert calls == [(1, 1, 1, 1, 2)]


def test_symmetric_dissection_classifies_once(monkeypatch):
    # one classification in reduce_word, and one replay, in its check:
    # from_certificate checks each step as it builds
    calls = []
    solution_class_of = surgery.solution_class
    replay = ReductionCertificate.replay

    def counted(w):
        calls.append("solution_class")
        return solution_class_of(w)

    def counted_replay(cert):
        calls.append("replay")
        return replay(cert)

    monkeypatch.setattr(surgery, "solution_class", counted)
    monkeypatch.setattr(ReductionCertificate, "replay", counted_replay)
    symmetric_dissection((5, 2, 2, 2, 1))
    assert sorted(calls) == ["replay", "solution_class"]


def test_enumerators_hand_over_their_faces(monkeypatch):
    # both enumerators keep the faces they chose, so neither sweeps; a
    # dissection replayed from a certificate is swept once, by the
    # constructor
    calls = []
    sweep = dissection_module._sweep

    def counted(n, diagonals):
        calls.append(n)
        return sweep(n, diagonals)

    monkeypatch.setattr(dissection_module, "_sweep", counted)
    assert len(list(iter_dissections(8))) == 168
    assert len(dissections_with_quiddity((2, 1) * 6)) == 5
    assert calls == []
    for w in ((1, 3, 1, 2, 2), (5, 2, 2, 2, 1), (2, 1, 2, 1)):
        from_certificate(reduce_word(w))
    assert calls == [5, 10, 4]


def test_enumerated_dissections_build_diagonals_on_first_read():
    # a reader of the faces alone never builds the diagonals, and a read
    # keeps them on the instance
    found = list(iter_dissections(9)) + dissections_with_quiddity((2, 1) * 6)
    assert len(found) == 595 + 5
    for d in found:
        faces(d)
        quiddity(d)
        profile(d)
        even_face_parity(d)
        is_3d_dissection(d)
        assert "diagonals" not in vars(d)
        diagonals = d.diagonals
        assert vars(d)["diagonals"] is diagonals is d.diagonals


def test_unread_dissection_behaves_like_the_constructors():
    # an enumerated dissection whose diagonals were never read compares,
    # hashes, prints and serialises like the constructor's from the same
    # diagonals, and survives pickle and copy
    for n, k in ((9, 0), (9, 200), (12, 30082)):
        twin = next(itertools.islice(iter_dissections(n), k, None))
        swept = Dissection(n, twin.diagonals)
        for make in (lambda d: d, lambda d: pickle.loads(pickle.dumps(d)), copy.copy):
            d = next(itertools.islice(iter_dissections(n), k, None))
            unread = make(d)
            assert "diagonals" not in vars(d)
            assert "diagonals" not in vars(unread)
            assert hash(unread) == hash(swept)
            assert repr(unread) == repr(swept)
            assert unread.to_json() == swept.to_json()
            assert unread == swept and faces(unread) == faces(swept)
    with pytest.raises(TypeError):
        Dissection(5)
    with pytest.raises(AttributeError):
        Dissection.diagonals
    with pytest.raises(dataclasses.FrozenInstanceError):
        swept.diagonals = frozenset()
    unread = next(iter_dissections(7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        unread.diagonals = frozenset()
    assert "diagonals" not in vars(unread)


def test_half_quiddity_tetradecagon():
    d = _make_dissection(14, [(0, 7), (0, 8), (1, 7), (3, 5), (10, 12)])
    assert is_centrally_symmetric(d)
    assert _half_quiddity(d) == (3, 2, 1, 2, 1, 2, 1)
    assert solution_class(_half_quiddity(d)) is SolutionClass.PROBLEM_III


def test_half_quiddity_rejects_aperiodic():
    d = _make_dissection(6, [(0, 2)])
    with pytest.raises(ValueError):
        _half_quiddity(d)


def test_json_round_trip():
    d = _make_dissection(7, [(0, 2), (2, 6)])
    doc = json.loads(json.dumps(d.to_json()))
    assert Dissection(doc["n"], frozenset(map(tuple, doc["diagonals"]))) == d


def test_constructor_reads_json_back_and_names_malformed_diagonals():
    # a to_json document goes straight back into the constructor, lists
    # and all; a diagonal that is not two integers is named
    for d in iter_dissections(8):
        doc = json.loads(json.dumps(d.to_json()))
        assert Dissection(doc["n"], doc["diagonals"]) == d
    for bad in ((0, 2, 3), (0.5, 2), ("0", 2), (0,)):
        for diagonals in ([bad], [bad, (2, 4)], [[1, 3], list(bad)]):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                Dissection(6, diagonals)


@pytest.mark.parametrize("n, diagonals, named", [
    ("8", [], "'8'"),
    (8.0, [], "8.0"),
    (True, [], "True"),
    (6, None, "None"),
    (6, 7, "7"),
    (6, [5], "[5]"),
    (6, [[[0], 2]], "[[[0], 2]]"),
])
def test_constructor_names_a_malformed_count_or_collection(n, diagonals, named):
    # ValueError, not a TypeError from deep inside, naming the value
    with pytest.raises(ValueError, match=re.escape(named)):
        Dissection(n, diagonals)


def test_render_smoke():
    d = _make_dissection(5, [(0, 2), (0, 3)])
    assert "graph" in to_dot(d)
    svg = to_svg(d)
    assert svg.startswith("<svg") and "</svg>" in svg


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        next(iter_dissections(15))


def test_symmetric_dissections_checks_the_budget_at_the_call(monkeypatch):
    # the doubled word of this Problem III solution is a 16-gon; the list
    # is refused when it is asked for, before anything is iterated
    monkeypatch.delenv(limits.ENV_VAR, raising=False)
    with pytest.raises(BudgetExceededError):
        symmetric_dissections((1, 1, 2, 1, 1, 1, 1, 1))


def _reference_lists(poly):
    """The enumerator's order, as a plain recursion on label tuples:
    for each face on edge (poly[0], poly[1]), by size and then by its
    vertices, the closing chords of the arcs it leaves over and, in
    nested product order, the diagonals cut inside each arc."""
    m = len(poly)
    for k in range(3, m + 1, 3):
        for rest in itertools.combinations(range(2, m), k - 2):
            cuts = (1,) + rest
            arcs = [poly[cuts[t]:cuts[t + 1] + 1] for t in range(len(cuts) - 1)]
            arcs.append(poly[cuts[-1]:] + (poly[0],))
            arcs = [a for a in arcs if len(a) >= 3]
            chords = [(min(a[0], a[-1]), max(a[0], a[-1])) for a in arcs]
            for parts in itertools.product(*(_reference_lists(a) for a in arcs)):
                yield chords + [d for part in parts for d in part]


def test_enumeration_order_is_pinned():
    # _quiddity_lists promises this order, and test_search_equals_filter
    # compares its lists with the enumerator's
    for n in range(3, 12):
        expected = [frozenset(ds) for ds in _reference_lists(tuple(range(n)))]
        assert [d.diagonals for d in iter_dissections(n)] == expected


def test_conway_coxeter_triangulations():
    # Conway-Coxeter: the quiddities of the triangulated n-gons are exactly
    # the totally positive solutions of Problem II, C_{n-2} of them
    catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
    for n in range(3, 11):
        triangulated = [quiddity(d) for d in iter_dissections(n)
                        if profile(d) == (3,) * (n - 2)]
        positive = {w for w in generative_enumerate("II", n).words if is_totally_positive(w)}
        assert len(triangulated) == len(positive) == catalan[n - 2]
        assert set(triangulated) == positive


def test_enumeration_memory_stays_bounded():
    # each arc maps the interned faces of its length once, so the lists
    # share their face tuples: a peak of about 1.7 MiB at n = 12, against
    # 2.8 MiB with a fresh tuple per mapped face.  A count never reads the
    # diagonals, so none is built; listing every dissection and reading
    # its diagonals peaks at about 27.5 MiB
    tracemalloc.start()
    try:
        assert sum(1 for _ in iter_dissections(12)) == 30083
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_enumeration_leaves_no_cycles():
    # the per-length memo is freed with the enumeration by reference
    # counting; nothing waits for the cyclic collector
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert sum(1 for _ in iter_dissections(10)) == 2160
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_quiddity_searches_leave_no_cycles():
    # the searches for a given quiddity are a plain recursion of
    # module-level functions; nothing waits for the cyclic collector
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert len(dissections_with_quiddity((2, 1) * 6)) == 5
        assert gc.collect() == 0
        assert solution_class((1, 1, 1, 1, 2)) is SolutionClass.PROBLEM_III
        found = list(symmetric_dissections((1, 1, 1, 1, 2)))
        assert [d.diagonals for d in found] == [frozenset({(4, 9)})]
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _dissection_counts(n_max, sign=1):
    """[x^(n-1)] F for n = 3..n_max, where F = x + sum_{k>=1} s_k F^(3k-1)
    is the polygon-dissection equation for faces of 3, 6, 9, ... sides
    (Flajolet-Sedgewick, Analytic Combinatorics, I.5).  A face of 3k
    sides has weight s_k = ``sign`` when 3k is even and 1 otherwise, so
    sign=-1 counts each dissection as (-1)^(number of even faces)."""
    top = n_max - 1  # highest power of x needed

    def mul(a, b):
        c = [0] * (top + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b[:top + 1 - i]):
                    c[i + j] += x * y
        return c

    f = [0, 1] + [0] * (top - 1)
    for _ in range(top):  # each round fixes at least one more coefficient
        square = mul(f, f)
        g = [0, 1] + [0] * (top - 1)
        power = square  # F^2, then F^5, F^8, ...
        weight = 1  # s_1; the face sizes 3, 6, 9, ... alternate odd, even
        while any(power):
            g = [x + weight * y for x, y in zip(g, power)]
            power = mul(mul(power, square), f)
            weight = sign if weight == 1 else 1
        f = g
    return {n: f[n - 1] for n in range(3, n_max + 1)}


def _odd_parity_counts(n_max):
    """[x^(n-1)] (F_1 - F_{-1}) / 2: the 3d-dissections with an odd
    number of even faces, i.e. those whose quiddity solves Problem I."""
    plain, signed = _dissection_counts(n_max), _dissection_counts(n_max, sign=-1)
    return {n: (plain[n] - signed[n]) // 2 for n in plain}


def test_counts_match_generating_function():
    expected = _dissection_counts(11)
    assert (expected[6], expected[10], expected[11]) == (15, 2160, 7997)
    for n, count in expected.items():
        assert sum(1 for _ in iter_dissections(n)) == count


def test_parity_counts_match_signed_generating_function():
    odd = _odd_parity_counts(12)
    # the n = 12 split 12,377 / 17,706 of the 30,083 dissections
    assert (odd[12], _dissection_counts(12)[12] - odd[12]) == (12377, 17706)
    for n in range(3, 12):
        assert sum(1 for d in iter_dissections(n) if even_face_parity(d) == "odd") == odd[n]


def _walked_faces(n, diagonals):
    """Faces found without the constructor's sweep: split off the polygon
    each diagonal closes, shortest arc first; the vertices still left on
    the arc i..j of diagonal (i, j) form that polygon."""
    removed = set()
    out = []
    for i, j in sorted(diagonals, key=lambda d: d[1] - d[0]):
        face = tuple(v for v in range(i, j + 1) if v not in removed)
        out.append(face)
        removed.update(face[1:-1])
    out.append(tuple(v for v in range(n) if v not in removed))
    return sorted(out)


def _incidence(n, fs):
    """How many of the faces fs hold each vertex of the n-gon."""
    return tuple(sum(v in f for f in fs) for v in range(n))


def test_quiddities_are_exactly_the_solutions():
    # the main theorem both ways: every quiddity solves I or II, and every
    # solution is the quiddity of some 3d-dissection
    for n in range(3, 11):
        quiddities = set()
        for d in iter_dissections(n):
            quiddities.add(quiddity(d))
            fresh = Dissection(d.n, d.diagonals)  # built again from its diagonals
            assert fresh == d
            assert (hash(fresh), repr(fresh), fresh.to_json()) == (hash(d), repr(d), d.to_json())
            assert faces(fresh) == faces(d)
            assert faces(d) == _walked_faces(d.n, d.diagonals)
            assert quiddity(d) == quiddity(fresh) == _incidence(d.n, _walked_faces(d.n, d.diagonals))
        solutions = set(generative_enumerate("I", n).words) | set(generative_enumerate("II", n).words)
        assert quiddities == solutions


def test_certificate_faces_match_walk():
    for problem in ("I", "II"):
        for n in range(3, 9):
            for w in generative_enumerate(problem, n).words:
                d = from_certificate(reduce_word(w))
                assert faces(d) == faces(_make_dissection(d.n, d.diagonals))
                assert faces(d) == _walked_faces(d.n, d.diagonals)
                assert quiddity(d) == _incidence(d.n, _walked_faces(d.n, d.diagonals)) == w


def test_faces_are_fresh_lists():
    d = next(iter_dissections(6))
    faces(d).clear()
    assert len(faces(d)) == len(d.diagonals) + 1


def _from_every_builder():
    """Fresh dissections from every builder, no diagonals read: both
    enumerators, the symmetric search, certificate replays and the
    constructor, on 3d-dissections and on others."""
    found = [d for n in range(3, 10) for d in iter_dissections(n)]
    for w in ((2, 1) * 6, (1, 2, 1, 2, 1, 2, 1, 3, 1, 2, 2, 2, 1, 3), (1, 3, 1, 2, 2)):
        found += dissections_with_quiddity(w)
    for w in ((1, 1, 1, 1, 2), (5, 2, 2, 2, 1), (7, 2, 2, 2, 2, 2, 1)):
        found += symmetric_dissections(w)
    for w in ((1, 3, 1, 2, 2), (5, 2, 2, 2, 1), (2, 1, 2, 1), (1, 1, 2, 1, 1), (1,) * 12):
        found.append(from_certificate(reduce_word(w)))
    for n, diagonals in ((3, ()), (6, ((1, 3),)), (7, ((0, 2), (2, 6))), (8, ((0, 4), (1, 3), (5, 7))),
                         (9, ((1, 8), (2, 4), (4, 7), (5, 7)))):
        found.append(Dissection(n, diagonals))
    return found


def _readings(d):
    """What every reader of the stored faces gives."""
    readings = (faces(d), profile(d), is_3d_dissection(d))
    if is_3d_dissection(d):
        readings += (quiddity(d), even_face_parity(d))
    return readings


def test_faces_sort_only_when_asked():
    # each builder stores its faces in the order it made them, and only
    # faces() sorts: a fresh sorted list, the walk's faces; no other
    # reader depends on the stored order, nor do the diagonals that an
    # enumerated dissection builds from its faces on the first read
    found = _from_every_builder()
    assert len(found) == 859
    assert any(list(d._faces) != sorted(d._faces) for d in found)
    for d in found:
        got = faces(d)
        assert type(got) is list and got is not faces(d)
        assert got == sorted(got) == _walked_faces(d.n, d.diagonals)
    unread = 0
    for d, twin in zip(_from_every_builder(), found):
        unread += "diagonals" not in vars(d)
        object.__setattr__(d, "_faces", d._faces[::-1])
        assert _readings(d) == _readings(twin)
        assert d.diagonals == twin.diagonals
        assert d == twin and hash(d) == hash(twin) and d.to_json() == twin.to_json()
    # all but the ten swept ones and the three that the symmetric
    # search's filter read
    assert unread == len(found) - 13


def test_validation_matches_pairwise_check():
    # every set of heptagon diagonals: accepted iff no two cross, and a
    # rejection names the first crossing pair in sorted order
    n = 7
    chords = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)]
    for r in range(len(chords) + 1):
        for subset in itertools.combinations(chords, r):
            crossing = next(
                ((a, b) for a, b in itertools.combinations(subset, 2)
                 if a[0] < b[0] < a[1] < b[1]), None)
            if crossing is None:
                Dissection(n, frozenset(subset))
            else:
                message = f"diagonals {crossing[0]} and {crossing[1]} cross"
                with pytest.raises(ValueError, match=re.escape(message)):
                    Dissection(n, frozenset(subset))


@pytest.mark.parametrize("n, diagonals, message", [
    (6, {(0, 1), (0, 9)}, "(0, 1) is a boundary edge, not a diagonal"),
    # a range error wins over a crossing
    (6, {(0, 3), (1, 4), (2, 9)}, "diagonal (2, 9) must satisfy 0 <= i < j < n"),
    # the sweep meets (1, 3) first, but (0, 4) and (2, 6) come first in sorted order
    (8, {(0, 4), (1, 3), (2, 6)}, "diagonals (0, 4) and (2, 6) cross"),
])
def test_validation_message_precedence(n, diagonals, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Dissection(n, frozenset(diagonals))


def _reference_outcome(n, diagonals):
    """What Dissection(n, diagonals) must give, by the documented
    precedence: the first invalid diagonal in sorted order names its
    range error, or else its boundary error; then the first crossing pair
    in sorted order; otherwise the faces, as ``_walked_faces`` finds them."""
    diags = sorted(diagonals)
    for i, j in diags:
        if not 0 <= i < j < n:
            return f"diagonal {(i, j)} must satisfy 0 <= i < j < n"
        if j - i in (1, n - 1):
            return f"{(i, j)} is a boundary edge, not a diagonal"
    for a, b in itertools.combinations(diags, 2):
        if a[0] < b[0] < a[1] < b[1]:
            return f"diagonals {a} and {b} cross"
    return _walked_faces(n, diags)


def test_constructor_matches_reference_on_random_sets():
    # ends in -1..n, out of range now and then; a few pairs keep their order
    rng = random.Random(16)
    kinds = {}
    for _ in range(20000):
        n = rng.randint(3, 12)
        diagonals = set()
        for _ in range(rng.randint(0, n - 3)):
            a, b = (rng.choice((-1, n)) if rng.random() < 0.03 else rng.randrange(n)
                    for _ in range(2))
            diagonals.add((a, b) if rng.random() < 0.05 else (min(a, b), max(a, b)))
        expected = _reference_outcome(n, diagonals)
        try:
            got = faces(Dissection(n, frozenset(diagonals)))
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (n, diagonals)
        kind = "faces" if isinstance(expected, list) else expected.split()[-1]
        kinds[kind] = kinds.get(kind, 0) + 1
    # every outcome is drawn often: faces, and range, boundary and crossing errors
    assert set(kinds) == {"faces", "n", "diagonal", "cross"}
    assert min(kinds.values()) > 500, kinds


def test_faces_match_walk_on_every_11gon_dissection():
    # and on every 12-gon dissection; the enumerator's faces are also the
    # ones the constructor sweeps from the diagonals
    for n, expected in ((11, 7997), (12, 30083)):
        count = 0
        for d in iter_dissections(n):
            assert faces(d) == _walked_faces(d.n, d.diagonals)
            assert faces(d) == faces(Dissection(d.n, d.diagonals))
            count += 1
        assert count == expected


def _filtered(n, key):
    """The dissections of the n-gon grouped by ``key``, each group in
    enumeration order: the filter the quiddity search replaced, run once
    for every word of length n."""
    groups = {}
    for d in iter_dissections(n):
        groups.setdefault(key(d), []).append(d)
    return groups


def test_search_equals_filter():
    # I and II up to the census length n = 10, III up to the 12-gon
    by_quiddity = {n: _filtered(n, quiddity) for n in range(3, 11)}
    for n, groups in by_quiddity.items():
        for problem in ("I", "II"):
            for w in generative_enumerate(problem, n).words:
                assert dissections_with_quiddity(w) == groups[w]
                assert all(faces(d) == faces(Dissection(d.n, d.diagonals))
                           for d in dissections_with_quiddity(w))
    for n in range(2, 7):
        by_half = _filtered(2 * n, lambda d: quiddity(d)[:n] if is_centrally_symmetric(d) else None)
        for w in generative_enumerate("III", n).words:
            assert list(symmetric_dissections(w)) == by_half[w]
    # random words with the entry sum 3n - 6 of a triangulated n-gon, most
    # of them no quiddity: the search finds what the filter finds, and
    # nothing where the filter has no group
    rng = random.Random(21)
    hits = 0
    for _ in range(500):
        n = rng.randint(4, 10)
        cuts = [0, *sorted(rng.sample(range(1, 3 * n - 6), n - 1)), 3 * n - 6]
        w = tuple(b - a for a, b in zip(cuts, cuts[1:]))
        assert dissections_with_quiddity(w) == by_quiddity[n].get(w, [])
        hits += w in by_quiddity[n]
    assert hits > 5, hits


def test_per_word_counts_sum_to_generating_function():
    # every 3d-dissection carries exactly one solution of Problem I or II,
    # of Problem I exactly when it has an odd number of even faces
    expected, odd = _dissection_counts(10), _odd_parity_counts(10)
    for n, count in expected.items():
        per_problem = {p: sum(len(dissections_with_quiddity(w))
                              for w in generative_enumerate(p, n).words)
                       for p in ("I", "II")}
        assert per_problem == {"I": odd[n], "II": count - odd[n]}
    # |D(w)| is the same for every rotation of w, so at n = 12 each rotation
    # class is searched once and weighted by its number of distinct rotations
    n = 12
    odd_n = _odd_parity_counts(n)[n]
    per_problem = {p: sum(len({w[k:] + w[:k] for k in range(n)}) * len(dissections_with_quiddity(w))
                          for w in orbit_representatives(generative_enumerate(p, n)))
                   for p in ("I", "II")}
    assert per_problem == {"I": odd_n, "II": _dissection_counts(n)[n] - odd_n} == {"I": 12377, "II": 17706}


def _half_turn_invariant(n, diagonals):
    """True iff turning the n-gon by half a turn fixes the diagonal set."""
    h = n // 2
    turned = {tuple(sorted(((i + h) % n, (j + h) % n))) for i, j in diagonals}
    return n % 2 == 0 and turned == set(diagonals)


def test_dissect_trace_zero_is_centrally_symmetric(capsys):
    words = [w for n in range(2, 7) for w in generative_enumerate("III", n).words]
    # regression check: replaying the certificate of w + w, not w's twice
    # over, builds a 12-gon here that is not centrally symmetric
    assert (1, 2, 1, 2, 1, 2) in words
    for w in words:
        assert main(["--format", "json", "dissect", ",".join(map(str, w))]) == 0
        doc = json.loads(capsys.readouterr().out)
        diagonals = [tuple(d) for d in doc["diagonals"]]
        assert doc["n"] == 2 * len(w)
        assert _half_turn_invariant(doc["n"], diagonals)
        walked = [0] * doc["n"]
        for face in _walked_faces(doc["n"], diagonals):
            for v in face:
                walked[v] += 1
        assert tuple(walked) == w + w
        assert _make_dissection(doc["n"], diagonals) in list(symmetric_dissections(w))
