"""The single output path of the CLI, checked on the source: ``json.dumps``
is called only in ``main``, ``"schema"`` and ``"--json"`` are written once,
and no ``cmd_*`` prints to stdout."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "wgk" / "cli.py"


def _writes_to_stderr(call):
    return any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in call.keywords)


def output_hazards(source):
    """``line: what`` for each ``json.dumps`` call outside ``main``, each
    ``print`` or ``sys.stdout`` use in a ``cmd_*`` function that is not a
    ``print(..., file=sys.stderr)``, and each ``"schema"`` or ``"--json"``
    literal beyond the first."""
    tree = ast.parse(source)
    owner = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
    hits, seen = [], set()
    for node in ast.walk(tree):
        where = owner.get(id(node), "")
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps":
            if where != "main":
                hits.append((node.lineno, f"json.dumps in {where or 'module'}"))
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "print"
                and where.startswith("cmd_") and not _writes_to_stderr(node)):
            hits.append((node.lineno, f"print to stdout in {where}"))
        elif (isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"
                and where.startswith("cmd_")):
            hits.append((node.lineno, f"sys.stdout in {where}"))
        elif isinstance(node, ast.Constant) and node.value in ("schema", "--json"):
            if node.value in seen:
                hits.append((node.lineno, f"second {node.value!r}"))
            seen.add(node.value)
    return [f"{line}: {what}" for line, what in sorted(hits)]


def test_the_scan_sees_each_hazard():
    source = ("import json, sys\n"
              "def cmd_a(args):\n"
              "    print('x')\n"
              "    print('warning', file=sys.stderr)\n"
              "    sys.stdout.write('y')\n"
              "    return 0, {'schema': 1}, []\n"
              "def cmd_b(args):\n"
              "    return 0, json.dumps({'schema': 2}), []\n"
              "def main(record):\n"
              "    p.add_argument('--json')\n"
              "    q.add_argument('--json')\n"
              "    print(json.dumps(record))\n")
    assert output_hazards(source) == ["3: print to stdout in cmd_a",
                                      "5: sys.stdout in cmd_a",
                                      "8: json.dumps in cmd_b",
                                      "8: second 'schema'",
                                      "11: second '--json'"]


def test_the_cli_has_one_output_path():
    source = CLI.read_text()
    assert output_hazards(source) == []
    tree = ast.parse(source)
    # the scan must see the subcommands, or it would pass on any source
    assert [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and fn.name.startswith("cmd_")]
    dumps = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "json.dumps"]
    assert len(dumps) == 1
    assert {"schema", "--json"} <= {node.value for node in ast.walk(tree)
                                    if isinstance(node, ast.Constant)}
