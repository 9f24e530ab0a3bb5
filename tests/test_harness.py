"""The test configuration itself: pyproject.toml's warning filters."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(n):
    assert n < 5


def test_the_next_test():
    pass
'''


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # on a failure Hypothesis imports libcst, whose import raises a
    # DeprecationWarning that the suite's filters would turn into an
    # INTERNALERROR ending the whole run
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_a_property_that_fails(" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
