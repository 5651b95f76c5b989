"""The contract of the package's immutable result types: equality needs
the same type, the hash is that of the field tuple, the repr names each
field, fields cannot be assigned or deleted, and each constructor keeps
its checks."""

import pytest

from semiabel.classifier import ClassificationReport, OneMotiveElliptic
from semiabel.elliptic import CurveInvariants, QuasiPeriods, eisenstein_invariants
from semiabel.errors import InternalInconsistency
from semiabel.lattice import Lattice, make_lattice
from semiabel.pairing import UnitCircleValue
from semiabel.periods import BranchedValue, EllipticPoint, GeneralizedAbelianLog
from semiabel.relations import RelationCertificate
from semiabel.semiabelian import ExtensionParam, SemiAbelianPoint


def _report(**changes):
    fields = dict(
        dim_B=1, dim_B_vstar=0, dim_B_Q=1, dim_Z1=1, dim_UR=3, dim_Gal=7,
        table_row="p-torsion", cm=False, cm_discriminant=None, deficient=None,
        bounds={"SA": 7}, confidence="numeric",
    )
    return ClassificationReport(**{**fields, **changes})


def _values():
    """One instance of each value class."""
    P = EllipticPoint(1j, 2j)
    return [
        CurveInvariants(4.0, 0.0),
        QuasiPeriods(1.0, 2j),
        Lattice(1.0, 1j),
        UnitCircleValue(1j),
        P,
        BranchedValue(0.5j),
        GeneralizedAbelianLog(0.5, 1.5),
        RelationCertificate((1, -2), 1e-12, 2, 1000),
        ExtensionParam(0.25 + 0.5j),
        SemiAbelianPoint(P, 2.0),
        _report(),
    ]


def test_equality_needs_the_same_type():
    v = 0.3 + 0.1j
    assert BranchedValue(v) == BranchedValue(v)
    assert BranchedValue(v) != ExtensionParam(v)
    assert ExtensionParam(v) != BranchedValue(v)
    assert BranchedValue(v) != (v,)
    assert ExtensionParam(v) != (v,)
    assert CurveInvariants(1.0, 2.0) != QuasiPeriods(1.0, 2.0)
    assert EllipticPoint(1.0, 2.0) != EllipticPoint(1.0, 2.0, True)
    assert BranchedValue(v).__eq__((v,)) is NotImplemented


def test_hash_is_the_hash_of_the_field_tuple():
    P = EllipticPoint(1.0 + 2j, 3j)
    assert hash(P) == hash((P.x, P.y, P.is_identity))
    c = RelationCertificate((1, 2, -3), 1e-12, 3, 1000)
    assert hash(c) == hash(((1, 2, -3), 1e-12, 3, 1000))
    assert len({EllipticPoint(1.0, 2.0), EllipticPoint(1.0, 2.0)}) == 1


def test_lattice_equality_and_hash_ignore_its_cache():
    L = make_lattice(1.0, 0.3 + 1.1j)
    eisenstein_invariants(L)
    L.reduced_basis()
    fresh = Lattice(L.omega1, L.omega2)
    assert L._cache and not fresh._cache
    assert L == fresh
    assert hash(L) == hash(fresh) == hash((L.omega1, L.omega2))
    assert "_cache" not in repr(L)


def test_repr_names_each_field():
    assert repr(EllipticPoint(1j, 2j)) == "EllipticPoint(x=1j, y=2j, is_identity=False)"
    assert repr(Lattice(1.0, 1j)) == "Lattice(omega1=1.0, omega2=1j)"
    assert repr(EllipticPoint.identity()) == "EllipticPoint(x=0j, y=0j, is_identity=True)"
    assert repr(RelationCertificate((1, -1), 0.0, 1, 1000)) == (
        "RelationCertificate(coefficients=(1, -1), residual=0.0, height=1, height_cap=1000)"
    )
    assert repr(SemiAbelianPoint(EllipticPoint.identity(), 2.0)) == (
        "SemiAbelianPoint(base=EllipticPoint(x=0j, y=0j, is_identity=True), fiber=2.0)"
    )
    assert repr(_report()).startswith("ClassificationReport(dim_B=1, dim_B_vstar=0, ")
    assert repr(_report()).endswith("confidence='numeric', relations=())")


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    name = repr(value).split("(", 1)[1].split("=", 1)[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 0
    assert repr(value) == before


def test_positional_keyword_and_default_construction():
    assert EllipticPoint() == EllipticPoint(0j, 0j, False)
    assert EllipticPoint(is_identity=True) == EllipticPoint.identity()
    assert EllipticPoint(y=2.0, x=1.0) == EllipticPoint(1.0, 2.0)
    assert GeneralizedAbelianLog(1.0, 2.0).is_identity is False
    assert GeneralizedAbelianLog(z=1.0, w=2.0, is_identity=True).is_identity is True
    assert Lattice(omega2=1j, omega1=1.0) == Lattice(1.0, 1j)
    assert RelationCertificate(
        coefficients=(1,), residual=0.0, height=1, height_cap=2
    ) == RelationCertificate((1,), 0.0, 1, 2)
    assert SemiAbelianPoint(fiber=2.0, base=EllipticPoint()) == SemiAbelianPoint(
        EllipticPoint(), 2.0
    )
    assert _report().relations == ()
    assert CurveInvariants(g3=1.0, g2=4.0).discriminant() == 4.0**3 - 27


def test_constructors_keep_their_checks():
    with pytest.raises(ValueError):
        UnitCircleValue(2.0)
    assert UnitCircleValue(1j).value == 1j

    L = make_lattice(1.0, 1j)
    inv = eisenstein_invariants(L)
    q = ExtensionParam(0.3 + 0.2j)
    with pytest.raises(ValueError):
        OneMotiveElliptic(inv, L, [q], [])
    R = SemiAbelianPoint(EllipticPoint.identity(), 2.0)
    m = OneMotiveElliptic(inv, L, [q], [R])
    assert m.extension_params == (q,) and m.points == (R,)
    assert (m.n, m.s, m.cm_override) == (1, 1, None)
    assert m == OneMotiveElliptic(inv, L, (q,), (R,))

    _report()
    for broken in ({"dim_UR": 4}, {"dim_Gal": 5}, {"dim_B_Q": 0}):
        with pytest.raises(InternalInconsistency):
            _report(**broken)


def test_as_dict_is_the_classify_document():
    cert = RelationCertificate((1, -2), 1e-12, 2, 1000)
    report = _report(relations=(cert,))
    doc = report.as_dict()
    assert doc == {
        "dim_B": 1, "dim_B_vstar": 0, "dim_B_Q": 1, "dim_Z1": 1, "dim_UR": 3,
        "dim_Gal": 7, "table_row": "p-torsion", "cm": False,
        "cm_discriminant": None, "deficient": None, "bounds": {"SA": 7},
        "confidence": "numeric",
        "relations": ({"coefficients": (1, -2), "residual": 1e-12, "height": 2,
                       "height_cap": 1000},),
    }
    assert type(doc["relations"]) is tuple
    assert doc["bounds"] is not report.bounds


@pytest.mark.parametrize(
    "make",
    (
        lambda: CurveInvariants(4.0, 0.0, 1.0),
        lambda: EllipticPoint(1j, 2j, False, 0),
        lambda: Lattice(1.0, 1j, 2.0),
        lambda: ClassificationReport(*range(14)),
        lambda: EllipticPoint(1j, z=2j),
        lambda: BranchedValue(value=0.5, branch=0),
        lambda: CurveInvariants(4.0, g2=4.0),
        lambda: SemiAbelianPoint(EllipticPoint(), 2.0, base=EllipticPoint()),
        lambda: CurveInvariants(4.0),
        lambda: RelationCertificate((1,), 0.0, 1),
        lambda: ExtensionParam(),
        lambda: ClassificationReport(1, 0, 1, 1, 3, 7, "p-torsion"),
        lambda: QuasiPeriods(1.0, eta3=2.0),
        lambda: GeneralizedAbelianLog(z=1.0, v=2.0),
    ),
    ids=(
        "too-many-positional", "too-many-with-defaults", "too-many-lattice",
        "too-many-report", "unknown-name", "unknown-name-after-all-fields",
        "given-twice", "given-twice-last", "missing", "missing-last",
        "missing-only", "missing-report", "unknown-in-place-of-missing",
        "unknown-in-place-of-missing-with-default",
    ),
)
def test_a_wrong_call_raises_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_type_errors_name_the_class_and_the_fault():
    with pytest.raises(TypeError, match=r"CurveInvariants.__init__\(\) takes 3 positional"):
        CurveInvariants(4.0, 0.0, 1.0)
    with pytest.raises(TypeError, match="got multiple values for argument 'g2'"):
        CurveInvariants(4.0, g2=4.0)
    with pytest.raises(TypeError, match="got an unexpected keyword argument 'g4'"):
        CurveInvariants(4.0, g4=0.0)
    with pytest.raises(TypeError, match=r"Lattice.__init__\(\) missing 1 required .*'omega2'"):
        Lattice(1.0)
    with pytest.raises(TypeError, match=r"ClassificationReport.__init__\(\) missing 1 required .*'confidence'"):
        ClassificationReport(1, 0, 1, 1, 3, 7, "p-torsion", False, None, None, {})


def test_a_left_out_field_takes_its_class_default():
    assert EllipticPoint(y=2j) == EllipticPoint(0j, 2j, False)
    assert GeneralizedAbelianLog(1.0, w=2.0) == GeneralizedAbelianLog(1.0, 2.0, False)
    L = make_lattice(1.0, 1j)
    inv = eisenstein_invariants(L)
    R = SemiAbelianPoint(EllipticPoint.identity(), 2.0)
    assert OneMotiveElliptic(inv, L, [], [R]).cm_override is None
    report = ClassificationReport(1, 0, 1, 1, 3, 7, "p-torsion", False, None, None, {}, "numeric")
    assert report == _report(bounds={}) and report.relations == ()
