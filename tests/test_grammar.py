"""Every Python file parses under the oldest grammar the package allows."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)


def test_every_file_parses_as_the_oldest_python():
    # Tied to pyproject.toml, so raising requires-python moves this check.
    assert 'requires-python = ">=%d.%d"' % OLDEST in (
        ROOT / "pyproject.toml").read_text()
    files = sorted(path for top in ("src", "tests", "tools", "demos",
                                    "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_bytes(), filename=str(path),
                  feature_version=OLDEST)
