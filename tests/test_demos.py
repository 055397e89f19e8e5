"""Each demo prints exactly the output recorded in demos/expected/, and the
README's library tour runs as written."""

import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name", ["grover_pipeline", "result_tables", "secret_sharing_session", "attack_gallery"]
)
def test_demo_output_is_unchanged(name, src_env):
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, env=src_env, check=True, timeout=120)
    assert proc.stdout == (DEMOS / "expected" / f"{name}.txt").read_bytes()


def test_readme_library_tour_runs_and_gives_121_over_128():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", tour.split("\n## ", 1)[0], re.S)
    scope = {}
    exec(code, scope)
    assert abs(scope["dist"][6] - 121 / 128) <= 16 * math.ulp(121 / 128)
