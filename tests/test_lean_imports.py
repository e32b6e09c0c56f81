"""The import-cost rule, checked on the source and in a fresh interpreter: no
module of ``src/wgk`` imports ``dataclasses`` or ``inspect`` at import time.
Every CLI op is a new interpreter, and the two cost ~26 ms of each: ``inspect``
pulls in ``ast``, ``dis`` and ``tokenize``, and each ``@dataclass`` ``exec``s
its generated methods.  The records are plain classes on ``series.Record``.
Likewise a command compiles no module it never runs: ``wgk.lazy_module``
defers the oracle, the fixtures, the matcher and the polynomials to their
first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HEAVY = ("dataclasses", "inspect")
LAZY = ("fixtures.py", "matcher.py", "oracle.py", "polynomials.py")


def heavy_imports(source, name="<source>"):
    """``name:line: import`` for each import of a HEAVY module that runs when
    the module is imported: anywhere but inside a function body."""
    hits = []

    def scan(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            hits.extend((node.lineno, alias.name) for alias in node.names
                        if alias.name.split(".")[0] in HEAVY)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] in HEAVY:
                hits.append((node.lineno, node.module))
        for child in ast.iter_child_nodes(node):
            scan(child)

    scan(ast.parse(source))
    return [f"{name}:{line}: import {module}" for line, module in sorted(hits)]


def test_the_scan_sees_each_heavy_import():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "import inspect as i, re\nif True:\n    from inspect import signature\n"
              "class C:\n    import dataclasses\n"
              "def f():\n    import inspect\n"
              "from .inspect import x\nimport inspection\n")
    assert heavy_imports(source) == ["<source>:1: import dataclasses",
                                     "<source>:2: import dataclasses",
                                     "<source>:3: import inspect",
                                     "<source>:5: import inspect",
                                     "<source>:7: import dataclasses"]


def test_no_module_of_the_library_imports_dataclasses_or_inspect():
    paths = sorted((SRC / "wgk").glob("*.py"))
    assert paths
    hits = [hit for path in paths for hit in heavy_imports(path.read_text(), path.name)]
    assert hits == []


def run_in_fresh_interpreter(code):
    # this process has imported every module already, so only a new one can tell
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, cwd=ROOT)


def test_the_cli_loads_neither_in_a_fresh_interpreter():
    proc = run_in_fresh_interpreter(
        f"import sys, wgk.cli\nprint(*[m for m in {HEAVY!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


SECTION_MODEL = "tests/golden/section-cy3-roundtrip-cy3-json/cy3.json"


@pytest.mark.parametrize("argv, runs, exit_code", [
    (["match", "--rr", "perfbench/data/cy3.json", "--json"], ["matcher.py"], 0),
    (["match", "--rr", "no-such-file.json"], [], 2),
    (["rr", "can3", "--pg", "7", "--k3", "21", "--half", "2", "--json"], [], 0),
    (["info", "wogr", "--w", "0,0,1,1,2", "--u", "1", "--json"], [], 0),
    (["verify", "--full", "--json"], ["fixtures.py", "oracle.py", "polynomials.py"], 0),
    (["oracle", "wgr", "--w", "1/2,1/2,1/2,1/2,1/2", "--degree", "4"],
     ["oracle.py", "polynomials.py"], 0),
    (["section", "--model", SECTION_MODEL, "--cut", "2,2,3,4,4,4,5", "--basket"],
     ["oracle.py", "polynomials.py"], 0),
    (["rr", "cy3", "--a3", "0", "--ac2", "1"], [], 2),
    (["info", "wgr", "--w", "1,x,1,1,1"], [], 2),
    (["oracle", "wgr", "--w", "1/2,1/2,1/2,1/2,1/2", "--degree", "-1"], [], 2),
    (["section", "--model", SECTION_MODEL, "--cut", "2,x"], [], 2),
    (["section", "--model", "no-such-file.json"], [], 2),
    (None, [], 0),      # import wgk.cli and run no command
])
def test_a_command_runs_the_code_of_no_lazy_module_it_does_not_use(argv, runs, exit_code):
    # an "exec" audit event carries the code object of each module body run
    lazy = [str(SRC / "wgk" / name) for name in LAZY]
    proc = run_in_fresh_interpreter(f"""
import sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
from wgk import cli
code = 0 if {argv!r} is None else cli.main({argv!r})
print("ran", *sorted(f.rpartition("/")[2] for f in ran.intersection({lazy!r})))
sys.exit(code)
""")
    assert proc.returncode == exit_code, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["ran", *runs]


def test_a_lazy_module_is_bound_at_import_and_run_at_its_first_read():
    proc = run_in_fresh_interpreter("""
import sys, wgk.cli
module = sys.modules["wgk.oracle"]
assert wgk.oracle is wgk.cli.oracle is module
assert "graded_dimension" not in object.__getattribute__(module, "__dict__")
import wgk.oracle
from wgk.oracle import graded_dimension
assert wgk.oracle is sys.modules["wgk.oracle"] is module
assert graded_dimension is module.graded_dimension
""")
    assert proc.returncode == 0, proc.stderr
