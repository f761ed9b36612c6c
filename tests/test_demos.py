"""Each script in demos/ runs to completion as a separate process and
prints frozen bytes."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of stdout.  build_and_verify and simplicity_certificate were
# frozen from the records that stored `maximal`, `rank_E`, `t_stable`, h^0,
# h^1, `conclusion` and `reason` as fields, which they print; the records now
# read them from the evidence.  cohomology_tables and invariants_and_stability
# were frozen while they still read `kunneth_h` and `slope_L`, before those
# left the package.
STDOUT_SHA256 = {
    "build_and_verify.py": "65090c7cc4bf9ab5f53f20a6699a4ab17cb813ae8bb7c674afbc4fdd1eafa5e5",
    "cohomology_tables.py": "27aedbc582f4d54a4f0882dba4c3a37b1e60e5e845918840c95ac70804aad23c",
    "invariants_and_stability.py": "356e77b602b78933703fd8a9220f73d2a3ee5394a86c1cee0778fb1f7cd5d091",
    "simplicity_certificate.py": "8097153794ca76a94ce1ee8b9e4d052ef85237f0b03af58b7fbac89904cbe52a",
}


def test_demos_are_present():
    assert len(DEMOS) == 4
    assert set(STDOUT_SHA256) == {script.name for script in DEMOS}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
    assert digest == STDOUT_SHA256[script.name]
