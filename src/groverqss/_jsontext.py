"""Indented JSON text: ``json.dumps(obj, indent=2)``, byte for byte.

CPython's ``json`` uses its C encoder only when ``indent`` is None; with an
indent, every value passes through a chain of Python generators.  ``dumps``
writes the same text with one type dispatch per value, for the documents
the package writes: ``str`` dict keys, and scalars of exactly the built-in
types ``str``, ``int``, ``float``, ``bool`` and None.  Anything else, a
subclass such as ``np.float64`` included, raises a ``TypeError`` that names
its type.  Strings go through the encoder's own ASCII escaping, and the
rules for floats (NaN and the infinities too) and circular references are
those of ``json.dumps`` with its defaults.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape

_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


#: Text of a scalar, by exact type.  Containers test this first for each
#: value, to skip a call of _emit.
_SCALARS = {
    str: _escape,
    type(None): "null".format,
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    float: _float,
}


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``."""
    chunks: list[str] = []
    _emit(obj, chunks, "\n", set())
    return "".join(chunks)


def _emit(x, chunks: list[str], newline: str, open_ids: set[int]):
    """Append the text of ``x`` at the indent that ``newline`` ends with."""
    text = _SCALARS.get(x.__class__)
    if text is not None:
        chunks.append(text(x))
    elif isinstance(x, (list, tuple, dict)):
        _container(x, chunks, newline, open_ids)
    else:
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _container(x, chunks: list[str], newline: str, open_ids: set[int]):
    is_dict = isinstance(x, dict)
    if not x:
        chunks.append("{}" if is_dict else "[]")
        return
    if id(x) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(x))
    inner = newline + "  "
    sep = ("{" if is_dict else "[") + inner
    if is_dict:
        for key, value in x.items():
            if key.__class__ is not str:
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            sep += _escape(key) + ": "
            text = _SCALARS.get(value.__class__)
            if text is not None:
                chunks.append(sep + text(value))
            else:
                chunks.append(sep)
                _emit(value, chunks, inner, open_ids)
            sep = "," + inner
    else:
        for value in x:
            text = _SCALARS.get(value.__class__)
            if text is not None:
                chunks.append(sep + text(value))
            else:
                chunks.append(sep)
                _emit(value, chunks, inner, open_ids)
            sep = "," + inner
    chunks.append(newline + ("}" if is_dict else "]"))
    open_ids.discard(id(x))
