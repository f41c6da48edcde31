"""The records qhpp passes between its layers: the immutable ones refuse
assignment, records with equal fields are equal (and hash equal where they
hash), constructors check their input with unchanged messages, and each
pipeline report owns its lists."""

from fractions import Fraction

import pytest

from qhpp import surface
from qhpp.checks import CheckResult
from qhpp.enumeration import OrderTupleFamily, PipelineReport
from qhpp.hjcf import parse_cf
from qhpp.obstruction import CurveClass, DiophProblem, Incidence, Regime
from qhpp.surface import GramConfig, SurfaceCandidate, candidate_invariants

F = Fraction


def _cand() -> SurfaceCandidate:
    return candidate_invariants(["[2]", "[3,2]"])


# each builds a new record with the same fields on every call
MAKERS = {
    "CyclicSing": lambda: surface._dp_record(parse_cf("[3,2]")),
    "SurfaceCandidate": _cand,
    "GramConfig": lambda: GramConfig((-1, -2), {(0, 1): 1}),
    "Incidence": lambda: Incidence(((1,), (0, 2))),
    "CurveClass": lambda: CurveClass(1, _cand(), Incidence(((1,), (0, 2)))),
    "DiophProblem": lambda: DiophProblem((F(1, 3), F(1, 5)), F(1)),
    "OrderTupleFamily": lambda: OrderTupleFamily((2, 3, 7), 43, None, 42),
    "CheckResult": lambda: CheckResult("mod3_criterion", True, "6495 chains"),
}
FROZEN = [name for name in MAKERS if name != "CheckResult"]


@pytest.mark.parametrize("name", FROZEN)
def test_immutable_records_refuse_assignment(name):
    rec = MAKERS[name]()
    for field in (*rec._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, field, 2)
    assert rec == MAKERS[name]()


@pytest.mark.parametrize("name", MAKERS)
def test_equal_fields_give_equal_records(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b and a == b and not a != b
    if name != "GramConfig":  # its edges are a dict
        assert hash(a) == hash(b)
    assert type(a).__name__ == name


def test_records_with_different_fields_differ():
    assert DiophProblem((F(1, 3),), F(1)) != DiophProblem((F(1, 3),), F(2))
    assert CurveClass(1, _cand(), Incidence(((1,), (0, 2)))) != CurveClass(
        1, _cand(), Incidence(((1,), (0, 2))), Regime.ANTI_K_AMPLE
    )


def test_dioph_problem_by_keyword_equals_it_by_position():
    coeffs, target = (F(1, 3), F(1, 5), F(1, 33)), F(56, 55)
    groups = (((0, 1), F(8, 15)),)
    quad, bound = (F(1, 3), F(3, 5), F(4, 33)), F(111, 110)
    # as perfbench/child.py builds a problem
    kw = DiophProblem(
        coeffs=coeffs, target=target, group_constraints=groups,
        quad_coeffs=quad, quad_bound=bound,
    )
    pos = DiophProblem(coeffs, target, groups, quad, bound)
    assert kw == pos and hash(kw) == hash(pos)
    assert (kw.coeffs, kw.target, kw.group_constraints, kw.quad_coeffs, kw.quad_bound) == (
        coeffs, target, groups, quad, bound,
    )
    plain = DiophProblem(coeffs=coeffs, target=target)
    assert (plain.group_constraints, plain.quad_coeffs, plain.quad_bound) == ((), None, None)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"coeffs": ()}, "at least one coefficient required"),
        ({"coeffs": (F(1), F(0))}, "all coefficients must be positive"),
        ({"quad_coeffs": (F(1),), "quad_bound": F(1)}, "quad_coeffs length mismatch"),
        ({"quad_coeffs": (F(1), F(-1)), "quad_bound": F(1)}, "quadratic coefficients must be positive"),
        ({"quad_coeffs": (F(1), F(1))}, "quad_coeffs given without quad_bound"),
        ({"quad_bound": F(1)}, "quad_bound given without quad_coeffs"),
    ],
)
def test_dioph_problem_checks_its_input(kwargs, message):
    spec = {"coeffs": (F(1), F(2)), "target": F(3), **kwargs}
    with pytest.raises(ValueError) as exc:
        DiophProblem(**spec)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        quad = spec.get("quad_coeffs"), spec.get("quad_bound")
        DiophProblem(spec["coeffs"], spec["target"], (), *quad)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        (((1,),), "incidence rows do not match the singularity list"),
        (((1,), (0,)), "incidence row (0,) does not match chain [3,2]"),
        (((1,), (0, -1)), "incidence numbers must be non-negative"),
    ],
)
def test_curve_class_checks_its_incidence(rows, message):
    with pytest.raises(ValueError) as exc:
        CurveClass(m=1, cand=_cand(), incidence=Incidence(rows))
    assert str(exc.value) == message


def test_reports_differing_only_in_mismatches_are_unequal():
    a, b = PipelineReport("q20"), PipelineReport("q20")
    for report in (a, b):
        report.stages.append(("cases", 126))
        report.survivors.append({"no": 1})
        report.details["rows"] = 6
    assert a == b
    b.mismatches.append("q20: a row differs")
    assert a != b and not a == b
    assert PipelineReport("q20") != PipelineReport("small-q")
    with pytest.raises(TypeError):
        hash(a)


def test_a_new_report_shares_no_container():
    a, b = PipelineReport("l11"), PipelineReport("l11")
    for name in ("stages", "survivors", "details", "mismatches"):
        assert getattr(a, name) is not getattr(b, name)
    a.stages.append(("cases", 1))
    a.survivors.append({})
    a.details["x"] = 1
    a.mismatches.append("m")
    assert (b.stages, b.survivors, b.details, b.mismatches) == ([], [], {}, [])
    assert PipelineReport("l11") == b
