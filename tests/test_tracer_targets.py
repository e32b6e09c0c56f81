"""The benchmark's client code must still run against wgk.

The tracer names wgk functions by string, and the tracer and the match-batch
client read wgk objects by attribute; a rename in wgk then fails here, not
only in a benchmark run.  The benchmark files are loaded, never changed.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from wgk.oracle import count_monomials, graded_dimension
from wgk.sections import AmbientModel
from wgk.wgrass25 import GrWeights
from wgk.wogr510 import OGrWeights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"


def spinor_names():
    """The public names wgk.spinor defines at top level, not those it imports."""
    tree = ast.parse((SRC / "wgk" / "spinor.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load("tracer").TARGETS
    assert targets
    for _, target, _ in targets:
        modname, attr = target.split(":")
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{target}: no attribute {part!r}"
            obj = getattr(obj, part)
        assert callable(obj), target


def test_benchmark_clients_read_both_families(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # batch.py imports its siblings
    tracer, batch = load("tracer"), load("batch")
    for w in (GrWeights.of((1, 1, 1, 3, 3)), OGrWeights.of((0, -2, 2, -4, 0), 8)):
        args = (w.family, w, 3)
        dim = graded_dimension(*args)
        coords = [wt for _, wt in w.coordinates()]
        assert tracer._gd_info(args, dim) == [w.family, 3, count_monomials(coords, 3), dim]
        c = w.canonical_form() if isinstance(w, OGrWeights) else w
        assert batch._canonical(AmbientModel(w, (1,))) == (w.family, *vars(c).values(), (1,))


def fresh(code):
    """Run ``code`` in a new interpreter importing wgk from src/.  In this
    process other tests have imported every module already, so a check of
    what an import loads would pass without testing anything."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_tracer_installs_and_uninstalls_in_a_fresh_interpreter():
    """install() looks each target's owners up in sys.modules right after
    importing wgk.cli, so every module a target names must be there by then.
    ``wgk.lazy_module`` puts wgk.oracle, wgk.fixtures, wgk.matcher and
    wgk.polynomials there uncompiled, and install() compiles each as it reads it; a plain
    import inside a function would leave it out, and install() would crash."""
    proc = fresh(f"""
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(PERFBENCH / "tracer.py")!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
rec = tracer.Recorder()
rec.install()
rec.uninstall()
""")
    assert proc.returncode == 0, proc.stderr


def test_the_cli_loads_no_paper_only_code():
    """No module that ``import wgk.cli`` loads holds a name of wgk.spinor."""
    names = spinor_names()
    assert {"spinor_graph", "wd5_elements", "SECOND_SYZYGY_COLUMNS"} <= names
    proc = fresh(f"""
import sys, wgk.cli
names = {names!r}
print(*sorted(n for n, m in list(sys.modules.items())
              if n.split(".")[0] == "wgk" and names & vars(m).keys()))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
