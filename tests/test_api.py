"""The package's public names and the slotted record classes."""

import importlib
import inspect

import pytest

import qkflag
from qkflag.conjecture import DiffReport
from qkflag.correlators import CorrelatorQuery
from qkflag.flags import AdmissibleSequenceSet, FlagShape, StabilizationInput
from qkflag.qkring import MultiplicationTable, Operator, build_table
from qkflag.verify import VerificationReport

PUBLIC = {
    "SchubertIndex": "basis",
    "enumerate_basis": "basis",
    "linear_index": "basis",
    "from_linear": "basis",
    "length": "basis",
    "codim": "basis",
    "dual_index": "basis",
    "NovikovPolynomial": "poly",
    "QKClass": "poly",
    "CurveDegree": "poly",
    "k_product": "kring",
    "k_class_product": "kring",
    "chow_product": "kring",
    "MultiplicationTable": "qkring",
    "build_table": "qkring",
    "qk_product": "qkring",
    "chevalley_apply": "qkring",
    "quantum_correction": "qkring",
    "degree_bound_check": "qkring",
}


def test_all_lists_the_public_names():
    assert len(qkflag.__all__) == len(set(qkflag.__all__)) == 20
    assert set(qkflag.__all__) == {*PUBLIC, "__version__"}
    assert qkflag.__version__ == "0.1.0"


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_name_resolves_to_its_module(name):
    module = importlib.import_module(f"qkflag.{PUBLIC[name]}")
    assert getattr(qkflag, name) is getattr(module, name)
    assert name in dir(qkflag)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qkflag import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(qkflag.__all__)
    assert namespace["build_table"] is build_table


def test_submodules_resolve_as_attributes():
    for name in ("basis", "cli", "conjecture", "correlators", "errors", "flags", "kring", "poly", "qkring", "verify"):
        assert getattr(qkflag, name) is importlib.import_module(f"qkflag.{name}")


@pytest.mark.parametrize("name", ["no_such_name", "Operator", "_EXPORTS_", "dataclass"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=name):
        getattr(qkflag, name)
    assert not hasattr(qkflag, name)


def _table():
    return build_table(3)


# record class, constructor parameters, two equal-argument factories, one different, frozen
RECORDS = [
    (
        Operator,
        ["n", "cols"],
        lambda: Operator.identity(3),
        lambda: Operator(3, [col + col for col in Operator.identity(3).cols]),
        False,
    ),
    (
        MultiplicationTable,
        ["n", "ops", "step_c_variant", "arbitration"],
        lambda: MultiplicationTable(3, _table().ops, "h2"),
        lambda: MultiplicationTable(3, _table().ops, "h1"),
        False,
    ),
    (
        VerificationReport,
        ["check", "n", "passed", "counterexamples", "details"],
        lambda: VerificationReport("ring", 3, True, [], {"a": 1}),
        lambda: VerificationReport("ring", 3, False, [], {"a": 1}),
        False,
    ),
    (
        DiffReport,
        ["n", "gating", "mismatches", "details"],
        lambda: DiffReport(4, "flipped", [{"u": [1, 2]}]),
        lambda: DiffReport(4, "literal", [{"u": [1, 2]}]),
        False,
    ),
    (
        CorrelatorQuery,
        ["inputs", "dual_output", "degree"],
        lambda: CorrelatorQuery(((2, 3),), (5, 3), (1, 0)),
        lambda: CorrelatorQuery(((2, 3),), (5, 3), (0, 1)),
        True,
    ),
    (
        FlagShape,
        ["ranks", "n"],
        lambda: FlagShape([1, 3], 5),
        lambda: FlagShape([1, 3], 6),
        True,
    ),
    (
        AdmissibleSequenceSet,
        ["sequences", "degrees"],
        lambda: AdmissibleSequenceSet([[1, 2]], [3]),
        lambda: AdmissibleSequenceSet([[0, 3]], [3]),
        True,
    ),
    (
        StabilizationInput,
        ["ranks", "n", "degrees", "k", "r"],
        lambda: StabilizationInput([1, 3], 5, [2, 4], 2, 3),
        lambda: StabilizationInput([1, 3], 5, [2, 4], 2, 1),
        True,
    ),
]


@pytest.mark.parametrize("cls, params, make, other, frozen", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, params, make, other, frozen):
    assert list(inspect.signature(cls).parameters) == params
    a, b = make(), make()
    assert a == b and not a != b
    assert a != other() and a != tuple(getattr(a, p) for p in params)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{p}={getattr(a, p)!r}" for p in params) + ")"
    assert not hasattr(a, "__dict__")
    if frozen:
        assert hash(a) == hash(b)
        with pytest.raises(AttributeError, match=params[0]):
            setattr(a, params[0], None)
        with pytest.raises(AttributeError):
            delattr(a, params[-1])
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        o = other()
        field = next(p for p in params if getattr(a, p) != getattr(o, p))
        setattr(a, field, getattr(o, field))
        assert a != b and a == o


def test_record_reprs_read_as_before():
    assert repr(FlagShape([1, 3], 5)) == "FlagShape(ranks=(1, 3), n=5)"
    assert repr(AdmissibleSequenceSet([[1, 2]], [3])) == "AdmissibleSequenceSet(sequences=((1, 2),), degrees=(3,))"
    assert repr(StabilizationInput([1, 3], 5, [2, 4], 2, 3)) == (
        "StabilizationInput(ranks=(1, 3), n=5, degrees=(2, 4), k=2, r=3)"
    )
    assert repr(VerificationReport("ring", 3, True)) == (
        "VerificationReport(check='ring', n=3, passed=True, counterexamples=[], details={})"
    )
    assert repr(DiffReport(4, "flipped")) == "DiffReport(n=4, gating='flipped', mismatches=[], details={})"
    assert repr(CorrelatorQuery(((2, 3),), (5, 3), (1, 0))) == (
        "CorrelatorQuery(inputs=((2, 3),), dual_output=(5, 3), degree=(1, 0))"
    )


def test_record_defaults_are_fresh_per_instance():
    a, b = VerificationReport("ring", 3, True), VerificationReport("ring", 3, True)
    a.counterexamples.append(1)
    a.details["x"] = 1
    assert b.counterexamples == [] and b.details == {}
    d1, d2 = DiffReport(3, "flipped"), DiffReport(3, "flipped")
    assert d1.mismatches is not d2.mismatches and d1.details is not d2.details
    t1, t2 = MultiplicationTable(3, [], "h2"), MultiplicationTable(3, [], "h2")
    assert t1.arbitration == {} and t1.arbitration is not t2.arbitration


def test_frozen_records_validate_before_storing():
    from qkflag.errors import ShapeMismatch

    for bad in (lambda: FlagShape([3, 1], 5), lambda: FlagShape([], 5), lambda: FlagShape([1, 5], 5)):
        with pytest.raises(ShapeMismatch):
            bad()
    for bad in (
        lambda: StabilizationInput([1, 3], 5, [2], 2, 3),
        lambda: StabilizationInput([1, 3], 5, [2, 4], 3, 3),
        lambda: StabilizationInput([1, 3], 5, [2, 4], 2, -1),
    ):
        with pytest.raises(ShapeMismatch):
            bad()


def test_records_of_different_classes_differ():
    class Shape(FlagShape):
        __slots__ = ()

    assert Shape([1, 3], 5) != FlagShape([1, 3], 5)
    assert FlagShape([1, 3], 5) != Shape([1, 3], 5)
    assert repr(Shape([1, 3], 5)).startswith("test_records_of_different_classes_differ.<locals>.Shape(ranks=")
