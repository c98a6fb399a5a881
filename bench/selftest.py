"""Show that the benchmark's checks bite.

    python3 bench/selftest.py

For each workload, runs one round with one output corrupted (an ABL value
moved by 1e-6, or one count changed) and confirms that the run counts
exactly that operation as failed and reports ``correct: false``.  Exits 0
when every corruption is caught.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def once(kind, change):
    """A corrupt hook that applies ``change`` to the first output of
    ``kind`` for which it returns a value, and passes the rest through."""
    state = {"done": False}

    def corrupt(k, output):
        if state["done"] or k != kind:
            return output
        changed = change(output)
        if changed is None:
            return output
        state["done"] = True
        return changed
    return corrupt


def _abl_simulate(payload):
    if "branches" not in payload:
        return None
    payload["branches"][0]["abl"] += 1e-6
    return payload


def _count_simulate(payload):
    if payload["workers"] != 2:
        return None
    payload["branches"][0]["count"] += 1
    return payload


def _abl_scenario(output):
    output = dict(output)
    output["abl"] = output["abl"].copy()
    output["abl"][0] += 1e-6
    return output


def _ss_scenario(output):
    output = dict(output)
    output["mix"] = dataclasses.replace(output["mix"], ss_total=output["mix"].ss_total + 1e-6)
    return output


def _abl_cli(text):
    payload = json.loads(text)
    payload["abl"][0] += 1e-6
    return json.dumps(payload)


def _count_cli(text):
    payload = json.loads(text)
    payload["coarse_grainings"].pop()
    return json.dumps(payload)


CASES = (
    ("mc-simulate", "ABL moved by 1e-6", once("simulate", _abl_simulate)),
    ("mc-simulate", "two-worker count changed by one", once("simulate", _count_simulate)),
    ("random-sweep", "ABL moved by 1e-6", once("scenario", _abl_scenario)),
    ("random-sweep", "Sharp-Shanks total moved by 1e-6", once("scenario", _ss_scenario)),
    ("scenario-cli", "ABL moved by 1e-6", once("abl", _abl_cli)),
    ("scenario-cli", "one coarse-graining dropped", once("consistency", _count_cli)),
)


def main() -> int:
    bad = 0
    for name, what, corrupt in CASES:
        result = run.run(WORKLOADS[name], SEED, 0.01, False, corrupt=corrupt)
        caught = result["failed"] == 1 and result["correct"] is False
        bad += not caught
        print(f"{'ok  ' if caught else 'MISS'} {name}: {what}: "
              f"{result['failed']} of {result['attempted']} failed, correct={result['correct']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
