"""Record the exit code, stdout and stderr of golden CLI cases.

    PYTHONPATH=src python tests/golden/regen.py [CASE ...]

With no names every case under tests/golden is rerun; otherwise only the
named ones.  To add a case, make a directory holding case.json with its
argv (``{"argv": ["rr", "can3", ...]}``, paths relative to the repository
root) and any input file, then run this script on it.  A change that
rewrites a recorded result should say which case changed and why.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_golden import GOLDEN, REPO, case_dirs, run_case  # noqa: E402


def main(names):
    os.chdir(REPO)
    cases = [GOLDEN / name for name in names] if names else case_dirs()
    for case in cases:
        spec = json.loads((case / "case.json").read_text())
        code, out, err = run_case(spec["argv"])
        (case / "case.json").write_text(
            json.dumps({"argv": spec["argv"], "exit": code}) + "\n")
        (case / "stdout").write_bytes(out)
        (case / "stderr").write_bytes(err)
        print(f"{case.name}: exit {code}")


if __name__ == "__main__":
    main(sys.argv[1:])
