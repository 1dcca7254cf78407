"""The recorded output fingerprints (tests/data/fingerprints.json), checked
for seed 1 of each benchmark workload and for every bundled sample; the
other seeds are checked by running scripts/fingerprints.py --check."""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprints", REPO / "scripts" / "fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_1_and_sample_fingerprints_are_unchanged():
    fingerprints = load_script()
    recorded = json.loads((REPO / "tests" / "data" / "fingerprints.json").read_text())
    keys = [k for k in recorded if k.endswith("/1") or k.startswith("samples/")]
    assert len(keys) == 3 + 2 * 24 + 1
    got = fingerprints.fingerprints(keys)
    assert fingerprints.compare({k: recorded[k] for k in keys}, got) == []
    # a changed output moves its fingerprint
    assert fingerprints.compare({"x": "0"}, {"x": "1", "y": "2"}) == ["moved: x", "new: y"]
