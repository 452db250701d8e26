"""Every script under demos/ runs to completion in a fresh interpreter, and
the README's library example runs as a doctest."""

import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr


def test_burnside_demo_prints_whole_move_lines():
    out = run_demo(ROOT / "demos" / "05_burnside.py").stdout.splitlines()
    found = [line for line in out if "result:" in line]
    assert found and all(line.startswith("pos=") for line in found)
    for label in ("left:", "right:"):
        (line,) = [line for line in out if line.startswith(label)]
        assert line[len(label):].lstrip().startswith("pos=")


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in five lines", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted and not failed
