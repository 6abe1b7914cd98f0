import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def run_python(path, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("QKCLAB_CACHE_DIR", None)
    return subprocess.run(
        [sys.executable, str(path)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    done = run_python(demo, tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_prints_what_its_comments_say(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)[1]
    script = tmp_path / "quick_start.py"
    script.write_text(block)
    done = run_python(script, tmp_path)
    assert done.returncode == 0, done.stderr
    # each print writes one line; a comment that opens with numbers names them
    said = [re.search(r"#\s*([\d ]*\d)\b", line) for line in block.splitlines()
            if line.startswith("print(")]
    printed = done.stdout.splitlines()
    assert len(printed) == len(said)
    expected = [(i, m[1]) for i, m in enumerate(said) if m]
    assert [value for _i, value in expected] == ["3", "7 87", "6"]
    assert [(i, printed[i]) for i, _value in expected] == expected
