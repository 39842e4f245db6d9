"""The value classes' contract: equality, hashing, repr, immutability,
pickling, copying, keyword construction, pattern matching and validation.

Written against the behaviour of frozen, slotted dataclasses, which the
classes must keep whatever they are built from.
"""

import copy
import pickle
import sys

import pytest

import steinhaus
from steinhaus import (
    DEFAULT_MAX_STATES,
    AdmissibleClasses,
    ArithmeticProgression,
    MultiplicityVector,
    SearchBudget,
    SearchReport,
    Sequence,
    Triangle,
    UsageError,
)

_S12 = Sequence(3, (1, 2))
_ROWS = (Sequence(3, (1, 2)), Sequence(3, (0,)))

# (class, field names, field values, other values, expected repr)
CASES = [
    (Sequence, ("modulus", "terms"), (3, (1, 2)), (3, (2, 1)),
     "Sequence(modulus=3, terms=(1, 2))"),
    (Triangle, ("rows",), (_ROWS,), ((Sequence(3, (0, 0)), Sequence(3, (0,))),),
     "Triangle(rows=(Sequence(modulus=3, terms=(1, 2)), Sequence(modulus=3, terms=(0,))))"),
    (MultiplicityVector, ("modulus", "counts"), (3, (1, 1, 1)), (3, (2, 1, 0)),
     "MultiplicityVector(modulus=3, counts=(1, 1, 1))"),
    (AdmissibleClasses, ("period", "residues"), (6, (0, 2, 3, 5)), (6, (0, 5)),
     "AdmissibleClasses(period=6, residues=(0, 2, 3, 5))"),
    (ArithmeticProgression, ("modulus", "start", "step", "length"), (7, 1, 2, 5), (7, 1, 2, 6),
     "ArithmeticProgression(modulus=7, start=1, step=2, length=5)"),
    (SearchBudget, ("max_states", "workers"), (1000, 2), (1000, 1),
     "SearchBudget(max_states=1000, workers=2)"),
    (SearchReport, ("modulus", "length", "found", "count", "states_examined"),
     (2, 3, (_S12,), 1, 8), (2, 3, (), 0, 8),
     "SearchReport(modulus=2, length=3, found=(Sequence(modulus=3, terms=(1, 2)),),"
     " count=1, states_examined=8)"),
]

_IDS = [case[0].__name__ for case in CASES]


@pytest.fixture(params=CASES, ids=_IDS)
def case(request):
    return request.param


def test_equality_and_hash(case):
    cls, _, values, other, _ = case
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    # another class never compares equal, even with the same field values
    assert a != values and a.__eq__(values) is NotImplemented


def test_repr(case):
    cls, _, values, _, expected = case
    assert repr(cls(*values)) == expected


def test_fields_are_read_only(case):
    cls, names, values, other, _ = case
    obj = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values


def test_no_instance_dict(case):
    cls, _, values, _, _ = case
    obj = cls(*values)
    assert not hasattr(obj, "__dict__")


def test_pickle_and_deepcopy_round_trip(case):
    cls, _, values, _, _ = case
    obj = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(obj, protocol))
        assert type(back) is cls and back == obj
    assert copy.deepcopy(obj) == obj
    assert copy.copy(obj) == obj


def test_keyword_construction(case):
    cls, names, values, _, _ = case
    assert cls(**dict(zip(names, values))) == cls(*values)


def test_match_on_positional_fields(case):
    cls, names, values, _, _ = case
    assert cls.__match_args__ == names
    match cls(*values):
        case Sequence(n, terms):
            assert (n, terms) == values
        case Triangle(rows):
            assert (rows,) == values
        case MultiplicityVector(n, counts):
            assert (n, counts) == values
        case AdmissibleClasses(period, residues):
            assert (period, residues) == values
        case ArithmeticProgression(n, a, d, m):
            assert (n, a, d, m) == values
        case SearchBudget(max_states, workers):
            assert (max_states, workers) == values
        case SearchReport(n, m, found, count, states):
            assert (n, m, found, count, states) == values
        case _:
            pytest.fail(f"no pattern matched {cls.__name__}")


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
def test_copy_replace(case):
    cls, names, values, other, _ = case
    obj = cls(*values)
    changed = copy.replace(obj, **{names[-1]: other[-1]})
    assert changed == cls(*values[:-1], other[-1])
    assert copy.replace(obj) == obj
    with pytest.raises(TypeError):
        copy.replace(obj, no_such_field=1)


def test_replace_called_directly(case):
    # test_copy_replace through the hook itself, which runs on every Python
    cls, names, values, other, _ = case
    obj = cls(*values)
    assert obj.__replace__(**{names[-1]: other[-1]}) == cls(*values[:-1], other[-1])
    assert obj.__replace__() == obj
    with pytest.raises(TypeError):
        obj.__replace__(no_such_field=1)


def test_one_field_classes_override_every_reader_of_fields():
    # _fields is attrgetter(*names), which returns a bare value, not a
    # 1-tuple, for one name; only the overrides keep such a class correct.
    from steinhaus._value import _Value

    for name in steinhaus.__all__:
        getattr(steinhaus, name)  # import every submodule, and so every class
    classes, one_field = [_Value], []
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if cls is not _Value and len(cls.__match_args__) == 1:
            one_field.append(cls)
    assert Triangle in one_field
    for cls in one_field:
        for method in ("__eq__", "__hash__", "__reduce__"):
            assert method in cls.__dict__, f"{cls.__name__} must override {method}"


def test_search_budget_defaults():
    assert SearchBudget() == SearchBudget(DEFAULT_MAX_STATES, 1)
    assert SearchBudget(workers=3) == SearchBudget(max_states=DEFAULT_MAX_STATES, workers=3)
    assert SearchBudget(5) == SearchBudget(max_states=5, workers=1)


def test_sequence_converts_terms_to_a_tuple():
    assert Sequence(3, [1, 2]).terms == (1, 2)
    assert Sequence(3, iter([1, 2])) == _S12
    assert Sequence._trusted(3, (1, 2)) == _S12
    assert repr(Sequence._trusted(3, (1, 2))) == repr(_S12)


@pytest.mark.parametrize("build, message", [
    (lambda: Sequence(0, (1,)), "modulus must be positive, got 0"),
    (lambda: Sequence(3, ()), "a sequence needs at least one term"),
    (lambda: Sequence(3, (1, 3)), "3 is not a residue mod 3"),
    (lambda: Sequence(3, (-1,)), "-1 is not a residue mod 3"),
    (lambda: Triangle(()), "a triangle needs at least one row"),
    (lambda: Triangle((Sequence(3, (1, 2)), Sequence(4, (0,)))), "rows mix moduli"),
    (lambda: Triangle((Sequence(3, (1, 2)), Sequence(3, (0, 1)))),
     "row lengths must shrink by one per row"),
    (lambda: Triangle((Sequence(3, (1, 2)),)), "the last row must be a single entry"),
    (lambda: Triangle((Sequence(3, (1, 2)), Sequence(3, (1,)))),
     "row 2 is not the derived row of row 1"),
    (lambda: Triangle((Sequence(5, (1, 2, 4)), Sequence(5, (3, 1)), Sequence(5, (3,)))),
     "row 3 is not the derived row of row 2"),
    (lambda: MultiplicityVector(3, (1, 1)), "need exactly one count per residue"),
    (lambda: ArithmeticProgression(0, 0, 0, 1), "modulus must be positive, got 0"),
    (lambda: ArithmeticProgression(3, 0, 0, 0), "length must be positive, got 0"),
    (lambda: ArithmeticProgression(3, 3, 0, 1), "3 is not a residue mod 3"),
    (lambda: ArithmeticProgression(3, 0, -1, 1), "-1 is not a residue mod 3"),
    (lambda: AdmissibleClasses(0, ()), "period must be positive, got 0"),
    (lambda: AdmissibleClasses(6, (5, 0)), "residues must be strictly increasing within 0..5"),
    (lambda: AdmissibleClasses(6, (0, 0, 9)),
     "residues must be strictly increasing within 0..5"),
    (lambda: AdmissibleClasses(6, (0, 6)), "residues must be strictly increasing within 0..5"),
    (lambda: AdmissibleClasses(6, (-1, 5)), "residues must be strictly increasing within 0..5"),
    (lambda: SearchBudget(max_states=0), "max_states must be positive, got 0"),
    (lambda: SearchBudget(workers=0), "workers must be positive, got 0"),
])
def test_validation_messages(build, message):
    with pytest.raises(UsageError) as info:
        build()
    assert str(info.value) == message
