"""The no-floating-point rule, checked on the source: no float literal, no
``float(...)`` call and no JSON read that would turn a number into a float."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "wgk"


def float_hazards(source, name="<source>"):
    """``name:line: what`` for each float literal, ``float(...)`` call and
    ``json.load``/``json.loads`` without ``parse_float`` or ``parse_constant``
    (NaN, Infinity) in the source."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
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
              "v = json.load(h, parse_float=Fraction)\n")
    assert float_hazards(source) == ["<source>:2: float literal 0.5",
                                     "<source>:3: float(...) call",
                                     "<source>:4: json.loads without parse_float/constant",
                                     "<source>:6: float literal 1000.0",
                                     "<source>:7: json.load without parse_float/constant"]


def test_no_float_hazard_in_the_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    hits = [hit for path in paths for hit in float_hazards(path.read_text(), path.name)]
    assert hits == []
