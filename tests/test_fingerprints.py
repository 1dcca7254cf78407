"""The recorded output fingerprints (tests/data/fingerprints.json), checked
for seed 1 of each benchmark workload and for every bundled sample; the
other seeds are checked by running scripts/fingerprints.py --check."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprints", REPO / "scripts" / "fingerprints.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seed_1_and_sample_keys(recorded: dict) -> list[str]:
    return [k for k in recorded if k.endswith("/1") or k.startswith("samples/")]


def test_seed_1_and_sample_fingerprints_are_unchanged():
    fingerprints = load_script()
    recorded = json.loads((REPO / "tests" / "data" / "fingerprints.json").read_text())
    keys = seed_1_and_sample_keys(recorded)
    assert len(keys) == 3 + 2 * 24 + 1
    got = fingerprints.fingerprints(keys)
    assert fingerprints.compare({k: recorded[k] for k in keys}, got) == []
    # a changed output moves its fingerprint
    assert fingerprints.compare({"x": "0"}, {"x": "1", "y": "2"}) == ["moved: x", "new: y"]


ELSEWHERE = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
from foltab.syntax import App, Literal, Var
# shared values made first, every other one held through the run: what the
# run makes lands at other addresses, around the holes, than in a fresh
# process, and shared values hash by address
held = []
for i in range(6000):
    t = App(f"held{i % 50}", (App(f"c{i}"), Var(f"V{i % 7}")))
    l = Literal(i % 3 == 0, f"held{i % 11}", (t, App(f"d{i}")))
    if i % 2:
        held.append(l)
spec = importlib.util.spec_from_file_location("fingerprints", sys.argv[2])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(module.fingerprints(json.loads(sys.argv[3]))))
"""


def test_fingerprints_do_not_depend_on_object_addresses():
    # a set or dict of shared values iterates in the order of their
    # addresses; no output may follow it
    recorded = json.loads((REPO / "tests" / "data" / "fingerprints.json").read_text())
    keys = seed_1_and_sample_keys(recorded)
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            ELSEWHERE,
            str(REPO / "src"),
            str(REPO / "scripts" / "fingerprints.py"),
            json.dumps(keys),
        ],
        capture_output=True,
        check=True,
        text=True,
    ).stdout
    got = json.loads(out)
    assert len(got) == len(keys) == 3 + 2 * 24 + 1
    assert load_script().compare({k: recorded[k] for k in keys}, got) == []
