"""The no-floating-point rule, checked on the source: no float literal, no
``float(...)`` call, no true division outside ``series.exact_div`` and no
JSON read that would turn a number into a float."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from wgk.oracle import GradedRing
from wgk.orbifold_rr import PeriodicTable, RRData
from wgk.polynomials import MPoly
from wgk.sections import AmbientModel, QuotientSingularity, rational, section_series
from wgk.series import HilbertSeries, LaurentPoly
from wgk.spinor import membership, parametrize, point_satisfies_equations
from wgk.wgrass25 import GrWeights, fit_pfaffian_weights, pfaffians_at
from wgk.wogr510 import OGrWeights

SRC = Path(__file__).resolve().parent.parent / "src" / "wgk"


def float_hazards(source, name="<source>"):
    """``name:line: what`` for each float literal, ``float(...)`` call, ``/``
    or ``/=`` (two ints divide to a float) outside ``exact_div`` in
    ``series.py``, and ``json.load``/``json.loads`` without ``parse_float`` or
    ``parse_constant`` (NaN, Infinity) in the source."""
    tree = ast.parse(source)
    exempt = {id(node) for fn in tree.body
              if name == "series.py" and isinstance(fn, ast.FunctionDef)
              and fn.name == "exact_div" for node in ast.walk(fn)}
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                and id(node) not in exempt):
            hits.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hits.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                hits.append((node.lineno, "float(...) call"))
            elif (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
                    and isinstance(func.value, ast.Name) and func.value.id == "json"
                    and not {"parse_float", "parse_constant"} <= {k.arg for k in node.keywords}):
                hits.append((node.lineno, f"json.{func.attr} without parse_float/constant"))
    return [f"{name}:{line}: {what}" for line, what in sorted(hits)]


def test_the_scan_sees_each_hazard():
    source = ("import json\nx = 0.5\ny = float('1')\nz = json.loads(t)\n"
              "ok = json.load(h, parse_float=Fraction, parse_constant=refuse)\nw = 1e3\n"
              "v = json.load(h, parse_float=Fraction)\nu = a / b\nu /= 2\nq = a // b\n"
              "def exact_div(a, b):\n    return a / b\n")
    assert float_hazards(source) == ["<source>:2: float literal 0.5",
                                     "<source>:3: float(...) call",
                                     "<source>:4: json.loads without parse_float/constant",
                                     "<source>:6: float literal 1000.0",
                                     "<source>:7: json.load without parse_float/constant",
                                     "<source>:8: true division",
                                     "<source>:9: true division",
                                     "<source>:12: true division"]
    # the one exemption: the helper itself, at the top level of series.py
    assert float_hazards(source, "series.py")[-2:] == ["series.py:8: true division",
                                                       "series.py:9: true division"]


def test_no_float_hazard_in_the_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    hits = [hit for path in paths for hit in float_hazards(path.read_text(), path.name)]
    assert hits == []


def test_exact_div_holds_the_one_division():
    # with no hazard reported, every division left is inside exact_div
    divisions = [node for path in SRC.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.Div)]
    assert len(divisions) == 1


def test_mpoly_refuses_a_float_coefficient():
    for terms in ({(): 0.1}, {(("x", 1),): 2.0}):
        with pytest.raises(TypeError, match="float"):
            MPoly(terms)
    with pytest.raises(TypeError, match="float"):
        MPoly.const(0.5)
    assert MPoly({(): Fraction(1, 10)}).coeffs == {(): Fraction(1, 10)}


W2 = (0, 0, 2, 2, 4)
NON_INTEGRAL_INTEGERS = {
    "laurent-exponent": lambda: LaurentPoly({1.5: 1}),
    "laurent-fraction-exponent": lambda: LaurentPoly({Fraction(2): 1}),
    "mpoly-exponent": lambda: MPoly({(("x", 2.7),): 1}),
    "series-denominator": lambda: HilbertSeries(LaurentPoly.one(), (1.5,)),
    "generator-degree": lambda: HilbertSeries(LaurentPoly.one(), (1,)).hilbert_numerator(
        (Fraction(3, 2), 1)),
    "section-degree": lambda: section_series(AmbientModel(GrWeights((1, 1, 1, 1, 3))),
                                             (2.5, 2, 2)),
    "cone-weight": lambda: AmbientModel(GrWeights((1, 1, 1, 1, 3)), (1.7,)),
    "quotient-order": lambda: QuotientSingularity(2.5, (1, 1)),
    "quotient-weight": lambda: QuotientSingularity(2, (Fraction(1), 1)),
    "gr-weight": lambda: GrWeights((1.5, 1, 1, 1, 3)),
    "ogr-u": lambda: OGrWeights(W2, 1.5),
    "gr-of-u2": lambda: GrWeights.of((1, 1, 1, 1, 3), 2.0),
    "ogr-of-u2": lambda: OGrWeights.of(W2, 2.0),
    "ring-weight": lambda: GradedRing([("x", 1.5)], []),
    "rr-k": lambda: RRData(0.5, 1, 0, 0),
    "periodic-order": lambda: PeriodicTable(2.0, (0, 1)),
}


@pytest.mark.parametrize("build", [pytest.param(build, id=name)
                                   for name, build in NON_INTEGRAL_INTEGERS.items()])
def test_a_float_or_fraction_where_an_int_belongs_is_refused(build):
    # int() would truncate 1.5 to 1 and read 2.0 as 2; each of these reads with
    # operator.index, which takes only a true integer
    with pytest.raises(TypeError):
        build()


FLOAT = TypeError, re.escape("float coefficient 0.1: use an int or a Fraction")
FLOAT_READERS = {
    "rr-acubed": (lambda: RRData(0, 0.1, 0, 0), FLOAT),
    "rr-chi": (lambda: RRData(0, 1, 0.1, 0), FLOAT),
    "rr-ac2": (lambda: RRData(0, 1, 0, 0.1), FLOAT),
    "rr-positive-a3": (lambda: RRData.cy3(0.1, 0), FLOAT),
    "periodic-value": (lambda: PeriodicTable(2, (0, 0.1)), FLOAT),
    "rational": (lambda: rational("x", 0.1), (ValueError, "x must be a number, not 0.1")),
    "mpoly-evaluate": (lambda: MPoly.var("x").evaluate({"x": 0.1}), FLOAT),
    "pfaffians-at": (lambda: pfaffians_at({(1, 2): 0.1, (3, 4): 1}), FLOAT),
    "parametrize-e": (lambda: parametrize(0.1, {}), FLOAT),
    "parametrize-matrix": (lambda: parametrize(1, {(1, 2): 0.1}), FLOAT),
    "membership-e": (lambda: membership(0.1, {}, [0] * 5), FLOAT),
    "membership-matrix": (lambda: membership(1, {(1, 2): 0.1}, [0] * 5), FLOAT),
    "membership-p": (lambda: membership(1, {}, [0, 0.1, 0, 0, 0]), FLOAT),
    "spinor-point": (lambda: point_satisfies_equations({"x": 0.1}), FLOAT),
    "fit-weights": (lambda: fit_pfaffian_weights([[0.1] * 5] * 5), FLOAT),
}


@pytest.mark.parametrize("build, refusal", [pytest.param(*case, id=name)
                                            for name, case in FLOAT_READERS.items()])
def test_a_float_where_a_rational_belongs_is_refused(build, refusal):
    # Fraction(0.1) is 3602879701896397/36028797018963968, the binary fraction the
    # float stores: each reader refuses it as series.coefficient does, and the
    # reader of outside input names its key
    error, message = refusal
    with pytest.raises(error, match=message):
        build()
