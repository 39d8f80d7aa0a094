"""Byte-identical output: every invocation in the benchmark's CLI catalogue
must still print what the stored digests in perfbench/golden.json record."""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import make_golden  # noqa: E402


def test_cli_digests_match_golden():
    golden = json.loads((PERFBENCH / "golden.json").read_text())["cli"]
    digests = make_golden.cli_digests()
    assert digests.keys() == golden.keys()
    changed = [argv for argv, entry in digests.items() if entry != golden[argv]]
    assert not changed, f"{len(changed)} of {len(golden)} outputs changed, e.g. {changed[:3]}"
