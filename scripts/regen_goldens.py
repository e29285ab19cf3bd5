#!/usr/bin/env python3
"""Regenerate the pinned CLI outputs under tests/golden/.

Each case in tests/golden/cases.json is a CLI invocation; the emitted JSON
document is stored with the manifest timestamp removed, in GOLDEN_DIR if one
is given (the cases are still read from tests/golden/), so a regeneration into
another directory can be compared with the pinned files.  tests/test_cli.py
replays the same cases and compares byte-for-byte, so regenerate only when an
output format change is intended.  Each document is validated against
``src/qchaos/schemas/output.schema.json`` before it is written, which needs
``jsonschema`` (the ``test`` extra).  Run with ``src`` on ``PYTHONPATH``:

    python scripts/regen_goldens.py [GOLDEN_DIR]
"""

import json
import sys
import tempfile
from pathlib import Path

import jsonschema

from qchaos.cli import main

ROOT = Path(__file__).parent.parent
SCHEMA_PATH = ROOT / "src/qchaos/schemas/output.schema.json"
CASES_PATH = ROOT / "tests/golden/cases.json"


def regenerate(golden_dir: Path) -> None:
    schema = json.loads(SCHEMA_PATH.read_text())
    cases = json.loads(CASES_PATH.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in cases.items():
            dest = Path(tmp) / f"{name}.json"
            code = main([*args, "--json", str(dest)])
            if code != 0:
                raise SystemExit(f"case {name} exited with {code}")
            doc = json.loads(dest.read_text())
            jsonschema.validate(doc, schema)
            doc["manifest"].pop("timestamp")
            (golden_dir / f"{name}.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(f"wrote {name}.json")


if __name__ == "__main__":
    regenerate(Path(sys.argv[1]) if len(sys.argv) > 1 else CASES_PATH.parent)
