import json
import os
from pathlib import Path

import pytest

import groverqss
from groverqss import _jsontext


@pytest.fixture(scope="session")
def src_env():
    """Environment for a child Python that imports this tree's groverqss."""
    src = str(Path(groverqss.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


@pytest.fixture
def checked_json_traffic(monkeypatch):
    """While the test runs, every document the package writes is also written
    by ``json.dumps(doc, indent=2, allow_nan=False)``, and the two texts must
    be equal.  The list counts the documents checked."""
    dumps = _jsontext.dumps
    checked = []

    def checked_dumps(doc):
        text = dumps(doc)
        assert text == json.dumps(doc, indent=2, allow_nan=False)
        checked.append(None)
        return text

    monkeypatch.setattr(_jsontext, "dumps", checked_dumps)
    return checked
