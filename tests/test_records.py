"""Value semantics of the six frozen records, and the package's import graph.

The records are plain classes on one private base, ``matrices._Record``,
so that importing the package loads neither ``dataclasses`` nor the
modules it brings in.  Pinned here: ``repr``, equality within a class
only, hashing, frozen fields, and ``pickle`` and ``copy`` round trips.
"""

import copy
import itertools
import os
import pickle
import subprocess
import sys

import pytest

import quiddity
from quiddity.dissection import Dissection, iter_dissections
from quiddity.frieze import Frieze, frieze
from quiddity.matrices import Mat2
from quiddity.search import SolutionSet, generative_enumerate
from quiddity.surgery import ReductionCertificate, SurgeryStep, reduce_word

RECORDS = [
    (lambda: Mat2(1, 0, 0, 1), "Mat2(a=1, b=0, c=0, d=1)"),
    (lambda: SurgeryStep(0), "SurgeryStep(position=0, split=None, shift=0)"),
    (lambda: SurgeryStep(2, (1, 3), -1), "SurgeryStep(position=2, split=(1, 3), shift=-1)"),
    (lambda: ReductionCertificate((1, 2)), "ReductionCertificate(base=(1, 2), steps=())"),
    (lambda: reduce_word((1, 1, 2, 1, 1)),
     "ReductionCertificate(base=(2, 1), steps=(SurgeryStep(position=0, split=(1, 2), shift=1),))"),
    (lambda: SolutionSet(((1, 1, 1),)), "SolutionSet(words=((1, 1, 1),))"),
    (lambda: generative_enumerate("II", 4), "SolutionSet(words=((1, 2, 1, 2), (2, 1, 2, 1)))"),
    (lambda: Dissection(3, []), "Dissection(n=3, diagonals=frozenset())"),
    (lambda: Dissection(6, [(0, 3)]), "Dissection(n=6, diagonals=frozenset({(0, 3)}))"),
    (lambda: frieze((1, 2)), "Frieze(word=(1, 2), rows=((1, 1), (1, 2), (1, 1)))"),
]
IDS = [text.split("(")[0] + str(k) for k, (_, text) in enumerate(RECORDS)]
FIELDS = {Mat2: ("a", "b", "c", "d"), SurgeryStep: ("position", "split", "shift"),
          ReductionCertificate: ("base", "steps"), SolutionSet: ("words",),
          Dissection: ("n", "diagonals"), Frieze: ("word", "rows")}


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_is_pinned(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_equal_values_hash_alike_and_only_within_the_class(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    values = tuple(getattr(a, f) for f in FIELDS[type(a)])
    assert a != values and values != a
    with pytest.raises(TypeError):
        a < b


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(make, text):
    record = make()
    for name in FIELDS[type(record)]:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(record, name)
        assert getattr(record, name) == before
    with pytest.raises(AttributeError, match="'extra'"):
        record.extra = 1


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(make, text):
    record = make()
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and repr(twin) == text


def test_enumerated_dissection_stays_unread_through_pickle_and_copy():
    d = next(itertools.islice(iter_dissections(9), 7, None))
    twins = [pickle.loads(pickle.dumps(d)), copy.copy(d)]
    assert "diagonals" not in vars(d)
    assert all("diagonals" not in vars(twin) for twin in twins)
    assert all(twin == Dissection(9, d.diagonals) for twin in twins)


def test_mat2_fields_live_in_its_dict_in_order():
    assert list(vars(Mat2(1, 2, 3, 4)).items()) == [("a", 1), ("b", 2), ("c", 3), ("d", 4)]


def test_traced_methods_sit_in_their_class_bodies():
    # the benchmark's tracer rebinds these two on the classes themselves
    assert "__mul__" in vars(Mat2)
    assert "__post_init__" in vars(Dissection)


def test_import_loads_no_dataclasses():
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    code = f"import sys, quiddity.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(quiddity.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # -S: without site, whose .pth files could load any of them first
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "[]\n"
