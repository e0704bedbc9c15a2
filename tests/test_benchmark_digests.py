"""The benchmark's seeded outputs, pinned.

A ``--trace 0`` run of ``perfbench/run.py`` hashes every result of its
seeded operations into ``determinism_digest``.  A change that keeps every
byte the program emits keeps these three digests; a change to a seeded
output must update them on purpose.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

DIGESTS = {
    "ledger-admit":
        "e51de80810214e3e5c7a2ee5d27094f78b781a16fb9396c5134d4b1d10a5e0fa",
    "swap-e2e":
        "6328972bf69d59f85f87e5d24296ea998bb052b4e8ce490aed98f021200a6351",
    "cli-verify":
        "d0d445b42da3fe84ebcc2942d7d6e27c71381a821717714855efd3901d6876c6",
}


@pytest.mark.parametrize("workload", DIGESTS)
def test_seed_7_digest(workload):
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[0])["report"]
    assert report["determinism_digest"] == DIGESTS[workload]
