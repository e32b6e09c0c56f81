"""Python-level contracts: integer MPoly coefficients, the weight-family
interface, the names the package exports, most of which load from their
module on first use, no function that only forwards its parameters, no
module that imports another's private name, one owner of a polynomial's
coefficients, no ``int()`` that could truncate an unchecked value, no
module that reads the environment, no assert statement and no raised
``AssertionError``, no import inside a function, one place that builds
a product with the generic skew matrix, one writer of a record's fields, and
no function or class that nothing names."""

import ast
import re
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import wgk
from wgk import matcher, sections, spinor, wgrass25, wogr510
from wgk.polynomials import MPoly
from wgk.series import HilbertSeries, LaurentPoly
from wgk.wgrass25 import WeightFamily

# the public names wgk.wogr510 defined before its paper-only part moved out
WOGR510_NAMES = (
    "EQUATION_NAMES", "FULL", "OGrWeights", "PAIRS", "SECOND_SYZYGY_COLUMNS",
    "SpinorGraph", "VERTEX_NAMES", "VERTICES", "canonical_vertex", "equations",
    "even_rep", "first_syzygies", "membership", "parametrize",
    "point_satisfies_equations", "second_syzygy_degree_check", "spinor_graph",
    "verify_ogr_syzygies", "verify_parametrization", "vertex_name", "wd5_compose",
    "wd5_element_order", "wd5_elements", "wd5_generators", "wd5_identity",
    "wd5_vertex_action", "wd5_weight_action",
)

# the paper-only names of WOGR510_NAMES, which only wgk.spinor defines
SPINOR_NAMES = (
    "SECOND_SYZYGY_COLUMNS", "SpinorGraph", "membership", "parametrize",
    "point_satisfies_equations", "second_syzygy_degree_check", "spinor_graph",
    "verify_parametrization", "wd5_compose", "wd5_element_order", "wd5_elements",
    "wd5_generators", "wd5_identity", "wd5_vertex_action", "wd5_weight_action",
)

PACKAGE_NAMES = (
    "AmbientModel", "Chart", "GrWeights", "HilbertSeries",
    "LaurentPoly", "MatchQuery", "OGrWeights", "PeriodicTable", "QuotientSingularity",
    "RRData", "ambient_series", "equations", "first_syzygies",
    "fit_pfaffian_weights", "hilbert_can3", "hilbert_cy3", "hilbert_series",
    "infer_generators", "local_term", "match_pipeline", "membership",
    "parametrize", "pfaffian_equations", "plurigenus", "quasilinear_embed", "rr_roundtrip", "search", "section_canonical",
    "section_series", "singularity_analysis", "singularity_filter",
    "spinor_graph", "verify_gr_identities", "verify_ogr_syzygies",
    "verify_parametrization", "wd5_elements",
)


def test_integral_mpoly_coefficients_are_ints():
    assert type(MPoly({(): Fraction(4, 2)}).coeffs[()]) is int
    assert MPoly({(): Fraction(4, 2)}).coeffs[()] == 2
    assert MPoly({(): Fraction(1, 2)}).coeffs[()] == Fraction(1, 2)
    x = MPoly.var("x")
    assert all(type(c) is int for c in ((x - 3) ** 3 * Fraction(2, 1)).coeffs.values())


def test_fraction_and_int_built_polynomials_are_equal_and_hash_equally():
    monomial = (("x", 1), ("y", 2))
    p, q = MPoly({monomial: Fraction(3, 1), (): 1}), MPoly({monomial: 3, (): 1})
    assert p == q and hash(p) == hash(q)
    half = MPoly({monomial: Fraction(1, 2)})
    assert half * 2 == MPoly({monomial: 1}) and hash(half * 2) == hash(MPoly({monomial: 1}))


def test_a_float_coefficient_is_refused_with_the_same_message():
    message = re.escape("float coefficient 0.5: use an int or a Fraction")
    with pytest.raises(TypeError, match=message):
        MPoly({(): 0.5})
    x = MPoly.var("x")
    for build in (lambda: MPoly.const(0.5), lambda: x + 0.5, lambda: x - 0.5,
                  lambda: 0.5 - x, lambda: x * 0.5, lambda: 0.5 * x, lambda: x.scale(0.5)):
        with pytest.raises(TypeError, match=message):
            build()
    t = LaurentPoly({1: 1})
    for build in (lambda: LaurentPoly({0: 0.5}), lambda: t * 0.5, lambda: 0.5 * t,
                  lambda: t.scale(0.5), lambda: t + 0.5, lambda: 0.5 + t, lambda: t - 0.5,
                  lambda: 0.5 - t, lambda: HilbertSeries({0: 0.5}, (1,))):
        with pytest.raises(TypeError, match=message):
            build()


# -- the weight-family contract ---------------------------------------------------

DERIVED = ("coordinate_weights", "resolution_degrees", "numerator_terms", "hilbert_series",
           "degree", "canonical_degree", "is_well_formed")


@dataclass(frozen=True)
class Hypersurface(WeightFamily):
    """X_e in P(a), stating only the primitives of a family."""
    a: tuple
    e: int
    family = "hypersurface"

    @property
    def dim(self):
        return len(self.a) - 2

    def coordinates(self):
        return [(f"y{k}", a) for k, a in enumerate(self.a)]

    def equations(self):
        return []       # a general form of degree e; nothing here reads it

    def lower_banks(self):
        return ()       # codimension 1: the equation is the top of the resolution

    def top_exponent(self):
        return self.e

    def charts(self):
        return []

    def canonical_form(self):
        return self


@pytest.mark.parametrize("a, e, canonical", [((1, 1, 2, 3), 6, -1), ((1, 1, 1, 1), 4, 0)])
def test_a_family_stating_only_its_primitives_gets_the_derived_members(a, e, canonical):
    x = Hypersurface(a, e)
    assert x.coordinate_weights() == tuple(sorted(a))
    assert x.resolution_degrees() == {"top": (e,)}
    assert x.numerator_terms() == {0: 1, e: -1}
    assert matcher._numerator_at2(x, e) == 1 - 2 ** e     # the top is its only bank
    series = x.hilbert_series()
    assert (series.numerator, series.denominator) == (LaurentPoly({0: 1, e: -1}), a)
    assert x.top_exponent() == e
    assert x.canonical_degree() == e - sum(a) == canonical
    assert x.degree() == Fraction(e, prod(a))
    assert x.is_well_formed() == (True, None)


def test_no_family_restates_a_derived_member():
    assert set(DERIVED) <= vars(WeightFamily).keys()
    for cls in sections.FAMILIES.values():
        assert issubclass(cls, WeightFamily)
        assert not set(DERIVED) & vars(cls).keys(), cls.__name__


def test_every_wogr510_name_still_resolves():
    # each name resolves in wgk.wogr510, or in wgk.spinor alone if it moved there
    for name in WOGR510_NAMES:
        moved = name in SPINOR_NAMES
        assert getattr(spinor if moved else wogr510, name) is not None, name
        assert hasattr(wogr510, name) != moved, name
    assert len(spinor.wd5_elements()) == 1920 and len(spinor.spinor_graph().edges) == 40
    with pytest.raises(AttributeError, match="spinor_graph"):
        wogr510.spinor_graph
    with pytest.raises(AttributeError, match="no_such_name"):
        wogr510.no_such_name


def test_every_package_name_still_resolves():
    assert wgk.__all__ == sorted(PACKAGE_NAMES)
    for name in PACKAGE_NAMES:
        assert getattr(wgk, name) is not None, name
    namespace = {}
    exec("from wgk import *", namespace)
    assert set(PACKAGE_NAMES) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        wgk.no_such_name


# -- no function only forwards its parameters -----------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "wgk"


def _forwards(fn):
    """Whether ``fn``'s body, past a docstring, is only ``return f(...)`` passing
    its own parameters on unchanged and in order; a method may pass its first
    parameter as the receiver, as in ``self.f(...)`` or ``self.base.f(...)``."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    params = [a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs]
    passed = [ast.unparse(a) for a in call.args] + [ast.unparse(k.value) for k in call.keywords]
    root = call.func
    while isinstance(root, ast.Attribute):
        root = root.value
    receiver = call.func is not root and isinstance(root, ast.Name)
    return passed == params or (receiver and params[:1] == [root.id] and passed == params[1:])


def forwarders(source, module):
    """``module.Class.name`` of each function or method in ``source`` that only forwards."""
    hits = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef) and _forwards(node):
                hits.append(prefix + node.name)
    visit(ast.parse(source).body, f"{module}.")
    return hits


def test_the_forwarding_scan_sees_each_shape():
    source = ("def f(x, y):\n    return g(x, y)\n"
              "def k(x, *, y):\n    return g(x, y=y)\n"
              "def swapped(x, y):\n    return g(y, x)\n"
              "def changed(x):\n    return g(x + 1)\n"
              "def two(x):\n    y = x\n    return g(y)\n"
              "class C:\n"
              "    def m(self):\n        \"doc\"\n        return self.n()\n"
              "    def e(self, a):\n        return self.base.e(a)\n"
              "    def s(self):\n        return str(self)\n"
              "    def d(self):\n        return sum(self.w)\n"
              "    def o(self):\n        return other.n()\n")
    assert forwarders(source, "m") == ["m.f", "m.k", "m.C.m", "m.C.e", "m.C.s"]


def test_no_function_only_forwards_its_parameters():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(forwarders(path.read_text(), path.stem))
    assert not found, sorted(found)


# -- no module imports another module's private name -----------------------------

PRIVATE_IMPORTS_KEPT = set()


def private_imports(source, module):
    """``module: owner.name`` of each underscore name that ``source`` imports from
    a module of the package, at module level or inside a function."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        path = node.module or ""
        if node.level == 0 and path.partition(".")[0] != "wgk":
            continue
        owner = path.rpartition(".")[2] or "wgk"
        hits += [f"{module}: {owner}.{alias.name}" for alias in node.names
                 if alias.name.startswith("_")]
    return hits


def test_the_private_import_scan_sees_each_shape():
    source = ("from .series import _coefficient, LaurentPoly\n"
              "from wgk.sections import _json_object\n"
              "from . import _hidden\n"
              "from __future__ import annotations\n"
              "from os import _exit\n"
              "def f():\n    from .matcher import _model_index\n")
    assert private_imports(source, "m") == [
        "m: series._coefficient", "m: sections._json_object", "m: wgk._hidden",
        "m: matcher._model_index"]


def test_no_module_imports_a_private_name():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(private_imports(path.read_text(), path.stem))
    assert found == PRIVATE_IMPORTS_KEPT


# -- only the sparse-polynomial base writes a polynomial's coefficients ---------

COEFFS_WRITERS = {"series.SparsePoly.__init__", "series.SparsePoly._raw"}


def coeffs_writers(source, module):
    """``module.Class.function`` of each statement in ``source`` that assigns,
    augments or deletes an attribute ``coeffs`` or an item of it, or sets it
    by ``setattr``."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, (ast.Assign, ast.Delete)):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            elif (isinstance(child, ast.Call) and len(child.args) >= 2
                  and "setattr" in ast.unparse(child.func)):
                targets = [child.args[1]]
            else:
                targets = []
            if any(isinstance(t, ast.Attribute) and t.attr == "coeffs"
                   or isinstance(t, ast.Constant) and t.value == "coeffs"
                   for target in targets for t in ast.walk(target)):
                hits.append(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return hits


def test_the_coeffs_writer_scan_sees_each_shape():
    source = ("p.coeffs = {}\n"
              "class C:\n"
              "    __slots__ = ('coeffs',)\n"
              "    def f(self):\n        self.coeffs, n = {}, 0\n"
              "    def g(self):\n        self.coeffs |= {}\n"
              "    def h(self):\n        del self.coeffs\n"
              "    def k(self):\n        object.__setattr__(self, 'coeffs', {})\n"
              "    def r(self):\n        return self.coeffs.get(0, 0)\n"
              "def w(p):\n    p.coeffs[0] = 1\n")
    assert coeffs_writers(source, "m") == ["m", "m.C.f", "m.C.g", "m.C.h", "m.C.k", "m.w"]


def test_only_the_sparse_polynomial_base_writes_coeffs():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(coeffs_writers(path.read_text(), path.stem))
    assert found == COEFFS_WRITERS


# -- every int() converts a value already known to be an integer -----------------

# int(1.5) is 1 and int(Fraction(7, 2)) is 3: a value read as an integer goes
# through operator.index, which refuses both, unless int() is given a string to
# parse or a number just checked integral
INT_CALLS_KEPT = {
    # parse a string: int("1.5") raises ValueError, refused as bad input
    "cli.parse_weights",
    "cli._parse_point",
    "cli._parse_cut",
    # convert a Fraction whose denominator was checked to be 1 just before
    "matcher.infer_generators",
    "matcher._target_at2",
    "sections.integral",
    "sections.singularity_analysis",
    "wgrass25.doubled",
    # coefficient * lcm of the coefficient denominators, integral by that scale
    "oracle.GradedRing.__init__",
}


def int_calls(source, module):
    """``module.Class.function`` of each ``int(...)`` call in ``source``, once per scope."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "int"):
                hits.append(".".join([module, *scope]))
            visit(child, inner)

    visit(ast.parse(source), [])
    return list(dict.fromkeys(hits))


def test_the_int_call_scan_sees_each_shape():
    source = ("n = int(x)\n"
              "class C:\n"
              "    def f(self):\n        return [int(v) for v in self.w]\n"
              "    def g(self):\n        return operator.index(self.r)\n"
              "def h(t):\n    def inner():\n        return int(t)\n    return inner, int(t)\n"
              "def k(t):\n    return self.int(t), builtins.int\n")
    assert int_calls(source, "m") == ["m", "m.C.f", "m.h.inner", "m.h"]


def test_every_int_call_converts_a_checked_value():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(int_calls(path.read_text(), path.stem))
    assert found == INT_CALLS_KEPT


# -- no module reads the environment -----------------------------------------------

# every setting is an argument or an option, so a command gives the same answer
# whatever the shell around it holds
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source, module):
    """``module.Class.function`` of each use of ``os.environ`` or ``os.getenv`` (or
    their bytes forms) in ``source``, as an attribute or imported by name, once per scope."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Attribute) and child.attr in ENVIRONMENT_NAMES
                  or isinstance(child, ast.ImportFrom) and child.module == "os"
                  and any(alias.name in ENVIRONMENT_NAMES for alias in child.names)):
                hits.append(".".join([module, *scope]))
            visit(child, inner)

    visit(ast.parse(source), [])
    return list(dict.fromkeys(hits))


def test_the_environment_scan_sees_each_shape():
    source = ("import os\n"
              "depth = os.environ.get('DEPTH', '40')\n"
              "class C:\n"
              "    def f(self):\n        return os.getenv('DEPTH')\n"
              "    def g(self):\n        return self.environment, os.path.sep\n"
              "def h():\n    from os import environ as env\n    return env\n"
              "def k():\n    def inner():\n        return os.environb[b'DEPTH']\n    return inner\n")
    assert environment_reads(source, "m") == ["m", "m.C.f", "m.h", "m.k.inner"]


def test_no_module_reads_the_environment():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(environment_reads(path.read_text(), path.stem))
    assert found == set()


# -- no assert statement -----------------------------------------------------------

def test_no_module_holds_an_assert_statement():
    # python -O drops assert statements; an internal check raises
    # series.InternalError, as matcher._bank_sums does, so it still exits 3 under -O
    found = [f"{path.stem}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def assertion_raises(source, module):
    """``module:line`` of each ``raise AssertionError`` in ``source``, called or not."""
    return [f"{module}:{node.lineno}" for node in sorted(
        (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
         and getattr(getattr(node.exc, "func", node.exc), "id", None) == "AssertionError"),
        key=lambda node: node.lineno)]


def test_the_assertion_raise_scan_sees_each_shape():
    source = ("def f(x):\n    if x:\n        raise AssertionError('x')\n"
              "    raise AssertionError\n"
              "def g():\n    try:\n        pass\n    except AssertionError:\n        raise\n"
              "    raise InternalError('y')\n")
    assert assertion_raises(source, "m") == ["m:3", "m:4"]


def test_no_module_raises_assertion_error():
    # exit 3 has one class, series.InternalError, and cli.main catches it alone
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in assertion_raises(path.read_text(), path.stem)]
    assert found == []


# -- no import inside a function ---------------------------------------------------

# wgk.lazy_module is the one way to defer a module, and a module first imported
# in a function body is missing from the sys.modules that perfbench's tracer
# reads after ``import wgk.cli``
def function_imports(source, module):
    """``module.Class.function:line`` of each import statement in a function body of
    ``source``, nested functions included."""
    hits = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name],
                      in_function or not isinstance(child, ast.ClassDef))
                continue
            if in_function and isinstance(child, (ast.Import, ast.ImportFrom)):
                hits.append(f"{'.'.join([module, *scope])}:{child.lineno}")
            visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return hits


def test_the_function_import_scan_sees_each_shape():
    source = ("import os\nfrom . import series\n"
              "if os.name:\n    import sys\n"
              "class C:\n    from math import gcd\n"
              "    def f(self):\n        import json\n"
              "def g():\n    if True:\n        from . import oracle as o\n"
              "    def inner():\n        import re\n    return inner\n"
              "async def h():\n    import asyncio\n")
    assert function_imports(source, "m") == ["m.C.f:8", "m.g:11", "m.g.inner:13", "m.h:16"]


def test_no_function_holds_an_import_statement():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in function_imports(path.read_text(), path.stem)]
    assert found == []


# -- the generic skew matrix is multiplied in one place ----------------------------

# wGr(2,5) rests on M*Pf(M) = 0 and wOGr(5,10) on M*v = 0: both read M*column
# from skew_times, and the Pfaffians are the only other use of an entry
SKEW_ENTRY_USERS = {"wgrass25.pfaffian_equations", "wgrass25.skew_times"}


def skew_entry_users(source, module):
    """``module.Class.function`` of each call of ``skew_entry`` (by name or as an
    attribute) and each import of it in ``source``, once per scope."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Call)
                  and getattr(child.func, "id", getattr(child.func, "attr", None)) == "skew_entry"
                  or isinstance(child, ast.ImportFrom)
                  and any(alias.name == "skew_entry" for alias in child.names)):
                hits.append(".".join([module, *scope]))
            visit(child, inner)

    visit(ast.parse(source), [])
    return list(dict.fromkeys(hits))


def test_the_skew_entry_scan_sees_each_shape():
    source = ("from .wgrass25 import PAIRS, skew_entry as entry\n"
              "m = skew_entry(1, 2)\n"
              "class C:\n"
              "    def f(self):\n        return [wgrass25.skew_entry(i, 1) for i in R]\n"
              "    def g(self):\n        return skew_times(self.v)\n"
              "def h():\n    from .wgrass25 import skew_entry\n    return 0\n"
              "def k():\n    def inner():\n        return skew_entry(2, 1)\n    return inner\n")
    assert skew_entry_users(source, "m") == ["m", "m.C.f", "m.h", "m.k.inner"]


def test_only_the_pfaffians_and_skew_times_use_skew_entry():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(skew_entry_users(path.read_text(), path.stem))
    assert found == SKEW_ENTRY_USERS


# -- only Record.__init__ writes a record's fields -----------------------------

# Record's equality and hash read __dict__ in the order of _fields, which holds
# as long as Record.__init__ is the only place that fills it
DICT_WRITERS = {"series.Record.__init__"}
DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__",
                 "__delitem__", "__ior__"}


def _instance_dict(node):
    """True for ``x.__dict__`` and ``vars(x)``."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars"
            and bool(node.args))


def dict_writers(source, module):
    """``module.Class.function`` of each statement in ``source`` that writes an
    instance dictionary: assigning, augmenting or deleting ``__dict__`` or an
    item of it or of ``vars(x)``, calling a mutating method on either, binding
    a name to either (a write through the alias follows), or calling
    ``__setattr__`` on a class, as in ``object.__setattr__``."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, (ast.Assign, ast.Delete)):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            else:
                targets = []
            writes = any(_instance_dict(t) for target in targets for t in ast.walk(target))
            if isinstance(child, ast.Assign):
                value = child.value
                values = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
                writes = writes or any(_instance_dict(v) for v in values)
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                writes = writes or (child.func.attr == "__setattr__" or child.func.attr
                                    in DICT_MUTATORS and _instance_dict(child.func.value))
            if writes:
                hits.append(".".join([module, *scope]))
            visit(child, scope)

    visit(ast.parse(source), [])
    return hits


def test_the_dict_writer_scan_sees_each_shape():
    source = ("class C:\n"
              "    def a(self):\n        self.__dict__['x'] = 1\n"
              "    def b(self):\n        self.__dict__.update(x=1)\n"
              "    def c(self):\n        vars(self)['x'] = 1\n"
              "    def d(self):\n        object.__setattr__(self, 'x', 1)\n"
              "    def e(self):\n        d = self.__dict__\n"
              "    def f(self):\n        w, d = 1, vars(self)\n"
              "    def g(self):\n        self.__dict__ = {}\n"
              "    def h(self):\n        self.__dict__ |= {'x': 1}\n"
              "    def k(self):\n        del self.__dict__['x']\n"
              "    def m(self):\n        vars(self).setdefault('x', 1)\n"
              "    def r(self):\n"
              "        return hash(tuple(self.__dict__.values())), {**vars(self)}, vars()\n"
              "    def s(self):\n        setattr(self, 'x', 1)\n"
              "def w(p):\n    p.__dict__.update(x=1)\n")
    assert dict_writers(source, "m") == ["m.C.a", "m.C.b", "m.C.c", "m.C.d", "m.C.e", "m.C.f",
                                         "m.C.g", "m.C.h", "m.C.k", "m.C.m", "m.w"]


def test_only_record_init_writes_a_records_fields():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(dict_writers(path.read_text(), path.stem))
    assert found == DICT_WRITERS


def test_a_record_that_does_not_validate_has_no_init_of_its_own():
    for cls in (wgrass25.Chart, sections.StratumRecord, sections.SingularityReport,
                matcher.MatchCandidate, matcher.MatchReport, spinor.SpinorGraph):
        assert "__init__" not in vars(cls), cls.__name__


# -- every function and class is named by a caller -------------------------------

PERFBENCH = SRC.parent.parent / "perfbench"

# the paper's spinor results that only the tests check; no command runs them,
# and they stay beside the rest of wgk.spinor
CALLERLESS_KEPT = {
    "spinor.SpinorGraph.neighbours": "the graph's adjacency, which the syzygy-support "
                                     "tests of tests/test_wogr510.py read",
    "spinor.wd5_vertex_action": "acceptance criterion 1: WD5 permutes the 16 vertices",
    "spinor.wd5_weight_action": "acceptance criterion 1: WD5 preserves the coordinate weights",
    "spinor.wd5_generators": "acceptance criterion 1: five involutions along the D5 diagram",
    "spinor.wd5_element_order": "acceptance criterion 1: the orders of the generators",
    "spinor.second_syzygy_degree_check": "acceptance criterion 1: the printed syzygy columns",
}


def _uses(tree, targets=False):
    """(node, name, receiver, called, owner) for each node of ``tree`` that names
    something.  A variable or an imported name has receiver None and, when it
    stands directly in a class body, that ClassDef as ``owner``.  An attribute
    ``x.name`` has receiver x when x is a plain name (else "") and ``called``
    when it is called.  With ``targets``, a string ``wgk.module:Qual.name``
    (perfbench's tracer target) is a called attribute of the class ``Qual``,
    or a variable when it has no class; no other string names anything."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                out.append((child, child.id, None, False, owner))
            elif isinstance(child, ast.alias):
                out.append((child, child.name.rpartition(".")[2], None, False, None))
            elif isinstance(child, ast.Attribute):
                receiver = child.value.id if isinstance(child.value, ast.Name) else ""
                called = isinstance(node, ast.Call) and node.func is child
                out.append((child, child.attr, receiver, called, None))
            elif targets and isinstance(child, ast.Constant) and isinstance(child.value, str):
                target = re.fullmatch(r"wgk\.\w+:([\w.]+)", child.value)
                if target:
                    qual, _, name = target[1].rpartition(".")
                    out.append((child, name, qual.rpartition(".")[2] or None, True, None))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, None)
            else:
                visit(child, child if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return out


def data_fields(trees):
    """The names that hold data in ``trees``: each ``_fields`` entry, each
    attribute set on ``self`` and each name a class body sets to a value other
    than an alias (a name or an attribute, as in ``_key = operator.index``)."""
    fields = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, (ast.Assign, ast.AnnAssign))
                        and not isinstance(stmt.value, (ast.Name, ast.Attribute))):
                    assigned = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    targets = {t.id for target in assigned
                               for t in ast.walk(target) if isinstance(t, ast.Name)}
                    fields |= targets
                    if "_fields" in targets:
                        fields.update(c.value for c in ast.walk(stmt.value)
                                      if isinstance(c, ast.Constant))
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            fields.add(node.attr)
    return fields


def callerless(sources, readers, exported):
    """``module.Class.name`` of each function and class, at any depth, in
    ``sources`` ({module: source}) that no code of ``sources`` or ``readers``
    names outside its own definition, unless it is a module-level name in
    ``exported``; a ``__dunder__`` name is called by the language.

    A function or class is named by a variable, an import or an attribute.  A
    method is named only by an attribute ``x.name`` or by a bare name in its
    own class body, as in ``alias = name``: a variable of the same name is
    another thing.  An attribute read that is not called does not name it when
    ``name`` is also a data field, unless the method is a property.  ``C.name``
    names no function, and only the method of the first class in C's method
    resolution order (depth first here) whose body defines ``name``.
    In ``readers`` ({name: source}, perfbench), a string names something only
    as a tracer target."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = [ast.parse(source) for source in readers.values()]
    every = [*trees.values(), *read]
    bases = {}      # class name -> the names of the classes it derives from, in order
    defines = {}    # class name -> the names its body defines
    for node in (node for tree in every for node in ast.walk(tree)):
        if isinstance(node, ast.ClassDef):
            bases.setdefault(node.name, []).extend(
                getattr(base, "id", getattr(base, "attr", None)) for base in node.bases)
            defined = defines.setdefault(node.name, set())
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add(stmt.name)
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    defined.update(t.id for target in targets
                                   for t in ast.walk(target) if isinstance(t, ast.Name))
    fields, uses = data_fields(every), {}
    for tree in every:
        for use in _uses(tree, targets=tree in read):
            uses.setdefault(use[1], []).append(use)

    def definer(cls, name):
        """The first class of cls's lineage, depth first, defining ``name``."""
        seen, todo = set(), [cls]
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                if name in defines.get(c, ()):
                    return c
                todo.extend(reversed(bases.get(c, ())))
        return None

    def names(use, defn, cls):
        _, _, receiver, called, owner = use
        if receiver in bases:
            return cls is not None and cls.name == definer(receiver, defn.name)
        if cls is None:
            return True
        if receiver is None:
            return owner is cls
        return (called or defn.name not in fields
                or any("property" in ast.unparse(d) for d in defn.decorator_list))

    hits = []

    def visit(node, prefix, top):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                # the class of a method; a class is named like a function
                cls = (node if isinstance(node, ast.ClassDef)
                       and not isinstance(child, ast.ClassDef) else None)
                inside = {id(n) for n in ast.walk(child)}
                if not (name.startswith("__") and name.endswith("__")
                        or top and name in exported
                        or any(id(use[0]) not in inside and names(use, child, cls)
                               for use in uses.get(name, ()))):
                    hits.append(prefix + name)
                visit(child, f"{prefix}{name}.", False)
            else:
                visit(child, prefix, top)

    for module, tree in trees.items():
        visit(tree, f"{module}.", True)
    return hits


def test_the_callerless_scan_sees_each_shape():
    sources = {
        "a": ("import b\n"
              "def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def traced():\n    return 0\n"
              "def exported():\n    return 0\n"
              "class C:\n"
              "    def __eq__(self, other):\n        return True\n"
              "    def method(self):\n        def inner():\n            return 0\n"
              "        return inner\n"
              "    def lone(self):\n        return self\n"
              "    alias = lone\n"
              "    def traced_method(self):\n        return 0\n"
              "    def accepted(self):\n        return 0\n"
              "if b:\n    def hidden():\n        return 0\n"),
        "b": ("from a import used as u\n"
              "def g(c):\n    return c.method(), b.C\n"),
        # a method shares a name with a field, a local variable, another class's
        # method or, in D.shared, a subclass's override
        "c": ("class R:\n"
              "    _fields = ('size', 'kept')\n"
              "    def total(self):\n        return self.size + self.kept\n"
              "class D:\n"
              "    def size(self):\n        return 0\n"
              "    @property\n    def kept(self):\n        return 0\n"
              "    def handed(self):\n        return 0\n"
              "    def local(self):\n        return 0\n"
              "    def grown(self):\n        return 0\n"
              "    def inherited(self):\n        return 0\n"
              "    def shared(self):\n        return 0\n"
              "class E(D):\n"
              "    def __init__(self):\n        self.grown = 1\n"
              "    def shared(self):\n        return 0\n"
              "class F:\n"
              "    def shared(self):\n        return 0\n"
              "def k(r, d):\n"
              "    local = r.total() + d.kept + d.grown if isinstance(r, (R, F)) else 0\n"
              "    return local, sorted(r, key=d.handed), E.shared(), E.inherited()\n"),
    }
    tracer = ('"""Times recursive."""\n'
              'TARGETS = ("wgk.a:traced", "wgk.a:C.traced_method")   # and hidden\n'
              'def f():\n    "exported"\n    return {"accepted": 0}\n')
    assert callerless(sources, {"tracer": tracer}, {"exported"}) == [
        "a.recursive", "a.C.accepted", "a.hidden", "b.g", "c.D.size", "c.D.local",
        "c.D.grown", "c.D.shared", "c.F.shared", "c.k"]


def test_every_function_and_class_is_named_by_a_caller():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {str(path): path.read_text() for path in sorted(PERFBENCH.rglob("*.py"))}
    assert set(callerless(sources, readers, wgk.__all__)) == set(CALLERLESS_KEPT)
