"""The suite's own pytest settings: every warning is an error, yet a
failing hypothesis test is reported as one failure and the run goes on."""

import os
import subprocess
import sys
import textwrap

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_failing_hypothesis_test_is_reported_and_the_run_goes_on(tmp_path):
    """hypothesis's failure report imports libcst, which warns on import;
    under ``filterwarnings = error`` alone that warning aborted the run
    with an INTERNALERROR before the next test ran."""
    (tmp_path / "test_two.py").write_text(textwrap.dedent(
        """
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            assert True
        """
    ))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
    assert done.returncode == 1
