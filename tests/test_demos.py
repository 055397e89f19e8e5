"""Each demo prints exactly the output recorded in demos/expected/."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name", ["grover_pipeline", "result_tables", "secret_sharing_session", "attack_gallery"]
)
def test_demo_output_is_unchanged(name, src_env):
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, env=src_env, check=True, timeout=120)
    assert proc.stdout == (DEMOS / "expected" / f"{name}.txt").read_bytes()
