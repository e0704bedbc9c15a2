"""Smoke test: every demo script, and the README's CLI block, runs to
completion on the prod backend."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def _readme_cli_block():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## CLI\n"):]
    start = section.index("```sh\n") + len("```sh\n")
    return section[start:section.index("```", start)]


def test_readme_cli_block_runs(tmp_path):
    # Run the block as written, with `ringadapt` standing for the module,
    # in an empty directory; any failing command stops it.
    script = ('set -e\nringadapt() { "$PYTHON" -m ringadapt.cli "$@"; }\n'
              + _readme_cli_block())
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHON=sys.executable)
    result = subprocess.run(["bash", "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    # preverify, verify and both link lines print 1.
    assert result.stdout.splitlines().count("1") == 4
