"""Every walkthrough in demos/ runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import nctwist

DEMOS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py"))
)
PACKAGE_ROOT = os.path.dirname(os.path.dirname(nctwist.__file__))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    proc = subprocess.run(
        [sys.executable, path],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
    )
    assert proc.returncode == 0, proc.stderr
