import os
from pathlib import Path

import pytest

import groverqss


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child Python that imports this tree's groverqss."""
    src = str(Path(groverqss.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
