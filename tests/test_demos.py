"""Smoke test: every demo script, and the README's library and CLI
blocks, run to completion on the prod backend."""

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


def _readme_block(heading, language):
    """The first ``language`` code block under the README's ``heading``."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    fence = f"```{language}\n"
    start = section.index(fence) + len(fence)
    return section[start:section.index("```", start)]


def _readme_cli_block():
    return _readme_block("CLI", "sh")


def test_readme_library_block_runs():
    # The quick start as written: its asserts are the checks.
    exec(_readme_block("Library quick start", "python"), {})


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
