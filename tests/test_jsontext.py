"""The package's indented JSON writer against ``json.dumps(x, indent=2)``.

On its domain, ``str`` keys and scalars of exactly the built-in types, with
finite floats, the text is ``json.dumps``'s byte for byte; outside it, a
``TypeError`` names the type that the package never writes.  The manifest
tests check the same on every document the package writes.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverqss._jsontext import dumps

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7])
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ∑ 😀", "\ud800"])
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@given(documents)
@settings(max_examples=100, deadline=None)
def test_dumps_writes_the_text_of_json_dumps_indent_2(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {"": None, '"': -0.0, "\\": 5e-324, "\x00é\ud800": [-1.7976931348623157e308]},
    {"a": {"b": [1e300 * 10, 2**70, True]}},
    [[], {}, [[]], [{}], ()],
])
def test_dumps_converts_keys_and_empty_containers_like_json(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    np.int64(1),
    {"a": {1, 2}},
    [np.bool_(True)],
    [1j],
    {"a": np.float32(1.5)},
    [b"bytes"],
])
def test_dumps_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(Exception) as want:
        json.dumps(doc, indent=2)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        dumps(doc)


class Label(str):
    pass


@pytest.mark.parametrize("doc, name", [
    (np.float64(0.5), "float64"),
    ([Label("110")], "Label"),
    ({1: "int key"}, "int"),
    ({(1, 2): "tuple key"}, "tuple"),
])
def test_dumps_refuses_what_the_package_never_writes(doc, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        dumps(doc)
