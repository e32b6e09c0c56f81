"""Record the section census.

    PYTHONPATH=src python tests/census/regen.py

Rewrites tests/census/census.json from the census defined in
tests/test_census.py.  A change that rewrites a record should say which
section changed and why.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from test_census import CENSUS, census, dump  # noqa: E402


def main():
    records = census()
    CENSUS.write_text(dump(records))
    clean = sum(1 for r in records if not r["report"]["diagnostics"])
    trips = sum(1 for r in records if "roundtrip" in r)
    print(f"{len(records)} sections, {clean} clean, {trips} round trips")


if __name__ == "__main__":
    main()
