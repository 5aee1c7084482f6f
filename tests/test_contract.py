"""The public contract of the package: where each public name lives, and how every
record class is built, compared, hashed and protected from assignment."""

import importlib
import subprocess
import sys
from fractions import Fraction

import pytest

import recgrow
from recgrow.bounds import BenchmarkRow, BoundCertificate, ConvergenceProfile
from recgrow.report import Report
from recgrow.errors import CertificateError
from recgrow.general import EnvelopePair, PowerFamily, PowerNonlinearity
from recgrow.growth import GrowthEnclosure
from recgrow.matrixrec import MatrixParams
from recgrow.nsmodel import CostProjection, CostRow, DiscrepancyRow, NsModel
from recgrow.recurrence import Params, SequenceTable, ValidationReport

F = Fraction

#: home module of every public name of the package
HOMES = {
    "errors": "CapExceededError CertificateError InvalidParamsError NonIntegerParamsError RecgrowError "
    "ToleranceUnachievableError",
    "recurrence": "DEFAULT_CAP Params SequenceTable ValidationReport evaluate is_monotone q_factor validate_params",
    "bounds": "BenchmarkRow BoundCertificate ConvergenceProfile certify compare_to_benchmark convergence_profile "
    "doubling_benchmark integer_envelope lower_bound ratio upper_bound",
    "growth": "GrowthEnclosure growth_enclosure log_log_index",
    "general": "EnvelopePair PowerFamily PowerNonlinearity closed_form_lower envelope iterate_family verify_sandwich",
    "matrixrec": "MATRIX_DEFAULT_CAP MatrixParams evaluate_matrix max_row_sum scalar_envelope",
    "nsmodel": "CostProjection NsModel cost_projection published_3d_discrepancies summand_budget term_count",
}
HOME = {name: module for module, names in HOMES.items() for name in names.split()}


def test_public_names_resolve_to_their_home_modules():
    assert sorted(recgrow.__all__) == sorted(HOME)
    for name, module in HOME.items():
        assert getattr(recgrow, name) is getattr(importlib.import_module(f"recgrow.{module}"), name), name
    assert recgrow.__version__ == "0.1.0"
    assert recgrow.bounds.q_factor is recgrow.q_factor  # its home before it moved to recurrence


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from recgrow import *", namespace)
    assert set(recgrow.__all__) <= set(namespace)
    assert set(recgrow.__all__) <= set(dir(recgrow))


def test_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        recgrow.no_such_name


_FAMILY = PowerFamily(2, F(1), F(1))
_MODEL = NsModel(3, 4, 8)
_ONE = ((F(1),),)

#: class, its fields in order, valid example values, the defaults of the fields that have one
RECORDS = [
    (Params, "a b d0", (F(1, 2), F(1, 2), F(3)), {"d0": F(1)}),
    (ValidationReport, "ok violations", (True, ()), {"violations": ()}),
    (SequenceTable, "params values", (Params(1, 1), (F(1), F(2))), {}),
    (BoundCertificate, "k l q_l lower upper actual ratio holds", (1, 2, F(3, 2), F(4), F(6), F(5), F(5, 4), True), {}),
    (ConvergenceProfile, "k rows", (2, ((1, F(1, 9), F(1, 3)),)), {}),
    (GrowthEnclosure, "l c_lo c_hi digits", (3, F(13, 10), F(14, 10), 1), {}),
    (BenchmarkRow, "n value benchmark dominates", (2, F(5), 2, True), {}),
    (PowerFamily, "power alpha beta", (3, (F(1), F(2)), F(1, 2)), {}),
    (PowerNonlinearity, "c1 c2 delta family", (F(1), F(2), F(1, 2), _FAMILY), {}),
    (EnvelopePair, "lower upper", ((F(1), F(2)), (F(1), F(3))), {}),
    (MatrixParams, "a b d0", (_ONE, ((F(1, 2),),), ((F(2),),)), {}),
    (NsModel, "d iterations bytes_per_term", (3, 4, 8), {"bytes_per_term": 16}),
    (CostRow, "n terms projected_bytes", (1, 10, 160), {}),
    (CostProjection, "model rows budget first_over_budget", (_MODEL, (CostRow(1, 10, 160),), 100, 1), {}),
    (DiscrepancyRow, "n published published_exact recomputed matches", (3, "811802", True, 7300, False), {}),
    (Report, "command params results csv_header csv_rows table_lines discrepancies", ("eval", {}, {}, ["n"], [[0]], ["x"], [{}]), {"table_lines": (), "discrepancies": ()}),
]

#: the one record class that holds dicts, so it is frozen but has no hash
UNHASHABLE = {Report}


def _ids(records):
    return [cls.__name__ for cls, *_ in records]


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=_ids(RECORDS))
def test_record_fields_in_order(cls, fields, values, defaults):
    fields = fields.split()
    obj = cls(*values)
    assert [getattr(obj, f) for f in fields] == list(values)
    assert cls(**dict(zip(fields, values))) == obj
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values)), no_such_field=1)


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=_ids(RECORDS))
def test_record_defaults(cls, fields, values, defaults):
    given = {f: v for f, v in zip(fields.split(), values) if f not in defaults}
    obj = cls(**given)
    for name, default in defaults.items():
        assert getattr(obj, name) == default and type(getattr(obj, name)) is type(default), name
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=_ids(RECORDS))
def test_record_equality_and_hash(cls, fields, values, defaults):
    one, two = cls(*values), cls(*values)
    assert one == two and not one != two
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two)


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=_ids(RECORDS))
def test_record_assignment(cls, fields, values, defaults):
    obj = cls(*values)
    for name, value in zip(fields.split(), values):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    assert obj == cls(*values)


def test_record_methods_and_properties():
    assert Params(1, 1).is_integer() and not Params(F(1, 2), 2).is_integer()
    table = SequenceTable(Params(1, 1), (F(1), F(2), F(5)))
    assert (table.n_max, len(table), table[2]) == (2, 3, F(5))
    assert GrowthEnclosure(3, F(13, 10), F(14, 10), 1).width == F(1, 10)
    assert PowerFamily(2, (F(1), F(3)), F(1)).apply(1, F(2)) == 13
    assert MatrixParams(_ONE, _ONE, _ONE).dim == 1


def test_params_coerce_to_fractions():
    p = Params("1/2", 1)
    assert (p.a, p.b, p.d0) == (F(1, 2), F(1), F(1))
    assert all(type(x) is Fraction for x in (p.a, p.b, p.d0))
    assert Params(a=1, b="3", d0="0.5").d0 == F(1, 2)
    with pytest.raises(TypeError, match="inexact float"):
        Params(0.5, 1)


def test_power_family_coerces_and_validates():
    family = PowerFamily(2, [1, "1/2"], "3")
    assert family.alpha == (F(1), F(1, 2)) and type(family.alpha) is tuple
    assert family.beta == F(3) and type(family.beta) is Fraction
    assert PowerFamily(power=1, alpha=(1,), beta=[2]).beta == (F(2),)
    with pytest.raises(ValueError, match="power must be >= 1, got 0"):
        PowerFamily(0, 1, 1)


def test_power_nonlinearity_coerces_and_validates():
    pn = PowerNonlinearity("1", 2, "1/2", _FAMILY)
    assert (pn.c1, pn.c2, pn.delta) == (F(1), F(2), F(1, 2))
    assert all(type(x) is Fraction for x in (pn.c1, pn.c2, pn.delta))
    with pytest.raises(ValueError, match="need 0 < C1 <= C2, got C1=3, C2=2"):
        PowerNonlinearity(3, 2, 1, _FAMILY)
    with pytest.raises(ValueError, match="need 0 < C1 <= C2, got C1=0, C2=2"):
        PowerNonlinearity(0, 2, 1, _FAMILY)
    with pytest.raises(ValueError, match="delta must be positive, got -1/2"):
        PowerNonlinearity(1, 2, "-1/2", _FAMILY)


def test_matrix_params_coerce_and_validate():
    mp = MatrixParams([[1, 0], ["0", "1/2"]], [[1, 1], [0, 1]], [[2, 0], [0, 2]])
    assert mp.b == ((F(1), F(1)), (F(0), F(1))) and type(mp.b[0]) is tuple
    assert mp.a[1][1] == F(1, 2) and mp.dim == 2
    with pytest.raises(ValueError, match="matrix must be square and nonempty"):
        MatrixParams([[1, 0]], _ONE, _ONE)
    with pytest.raises(ValueError, match=r"inconsistent dimensions \[1, 2\]"):
        MatrixParams(_ONE, [[1, 0], [0, 1]], _ONE)
    with pytest.raises(ValueError, match="matrix b has a negative entry"):
        MatrixParams(_ONE, [["-1"]], _ONE)


def test_ns_model_validates():
    for kwargs, message in (
        ({"d": 0, "iterations": 1}, "dimension d must be >= 1, got 0"),
        ({"d": 1, "iterations": 0}, "iterations must be >= 1, got 0"),
        ({"d": 1, "iterations": 1, "bytes_per_term": 0}, "bytes_per_term must be >= 1, got 0"),
    ):
        with pytest.raises(ValueError, match=message):
            NsModel(**kwargs)


def test_validation_report_rejects_a_contradiction():
    # a report's ok flag restates its violations; a mismatch is a fault in the library, never bad input
    with pytest.raises(CertificateError):
        ValidationReport(ok=True, violations=(("b > 0", F(0)),))
    with pytest.raises(CertificateError):
        ValidationReport(False)


def test_validation_report_check_survives_optimize_flag():
    code = (
        "from recgrow.errors import CertificateError\n"
        "from recgrow.recurrence import ValidationReport\n"
        "try:\n    ValidationReport(True, (('b > 0', 0),))\n"
        "except CertificateError:\n    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
