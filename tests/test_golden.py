"""The golden CLI corpus: every case under ``tests/golden`` must give back its
recorded exit code, stdout and stderr, byte for byte.

A case is a directory holding ``case.json`` (``{"argv": [...], "exit": code}``),
the files ``stdout`` and ``stderr``, and any input file it names.  Paths in
``argv`` are relative to the repository root.  The cases run in-process,
once in order and once in reverse: ``oracle._ring``, the matcher's model
index and ``pfaffian_equations`` live across calls, and the second pass shows
that what they hold does not change an answer.  ``tests/golden/regen.py``
rewrites the recorded results.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from wgk import cli

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"


def case_dirs():
    return sorted(p.parent for p in GOLDEN.glob("*/case.json"))


def run_case(argv):
    """``(exit code, stdout bytes, stderr bytes)`` of ``wgk argv`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def recorded(case):
    spec = json.loads((case / "case.json").read_text())
    return spec["argv"], (spec["exit"], (case / "stdout").read_bytes(),
                          (case / "stderr").read_bytes())


def _first_difference(want, got):
    for name, a, b in zip(("exit", "stdout", "stderr"), want, got):
        if a != b:
            if isinstance(a, bytes):
                lines = zip(a.decode().splitlines() + [""], b.decode().splitlines() + [""])
                a, b = next(((x, y) for x, y in lines if x != y), (a, b))
            return f"{name}: want {a!r}, got {b!r}"
    return None


def test_every_golden_case_is_reproduced_in_order_and_in_reverse(monkeypatch):
    monkeypatch.chdir(REPO)
    cases = case_dirs()
    assert len(cases) >= 40
    failures = []
    for order in ("forward", "reverse"):
        for case in (cases if order == "forward" else cases[::-1]):
            argv, want = recorded(case)
            diff = _first_difference(want, run_case(argv))
            if diff:
                failures.append(f"{case.name} ({order}): {diff}")
    assert not failures, "\n".join(failures)
