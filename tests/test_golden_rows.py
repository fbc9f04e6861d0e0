"""Golden digests of every registered scenario's rows at ``--scale tiny``.

Each digest is a sha256 over the canonical JSON (sorted keys, compact
separators, ``default=str``) of ``SweepRunner(spec, scale="tiny", jobs=1)``
rows.  A one-line behavioural change anywhere in the protocol stack moves at
least one digest, so this test is what makes a refactor's "rows unchanged"
claim checkable.

An intentional change to a digest needs a CHANGES.md line naming the
scenario and the reason.  Re-record with::

    PYTHONPATH=src python tests/test_golden_rows.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.scenarios import all_scenarios, get_scenario
from repro.scenarios.runner import SweepRunner

GOLDEN = Path(__file__).parent / "golden" / "tiny_rows.json"


def rows_digest(name: str) -> str:
    """sha256 of the canonical JSON of one scenario's tiny-scale rows."""
    rows = SweepRunner(get_scenario(name), scale="tiny", jobs=1).run().rows
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_registered_scenario():
    assert sorted(_golden()) == sorted(all_scenarios())


@pytest.mark.parametrize("name", sorted(all_scenarios()))
def test_tiny_rows_match_the_golden_digest(name):
    assert rows_digest(name) == _golden()[name], (
        f"scenario {name!r} changed its tiny-scale rows; if intended, "
        "re-record tests/golden/tiny_rows.json and name the reason in CHANGES.md"
    )


if __name__ == "__main__":
    digests = {name: rows_digest(name) for name in all_scenarios()}
    if "--write" in sys.argv[1:]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    else:
        print(json.dumps(digests, indent=2, sort_keys=True))
