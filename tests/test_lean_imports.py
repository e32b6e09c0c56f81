"""The import-cost rule, checked on the source and in a fresh interpreter: no
module of ``src/wgk`` imports ``dataclasses`` or ``inspect`` at import time.
Every CLI op is a new interpreter, and the two cost ~26 ms of each: ``inspect``
pulls in ``ast``, ``dis`` and ``tokenize``, and each ``@dataclass`` ``exec``s
its generated methods.  The records are plain classes on ``series.Record``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect")


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


def test_the_cli_loads_neither_in_a_fresh_interpreter():
    # this process has imported both already, so only a new interpreter can tell
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, wgk.cli\nprint(*[m for m in {HEAVY!r} "
                               "if m in sys.modules])"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
