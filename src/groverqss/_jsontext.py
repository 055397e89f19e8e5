"""Indented JSON text: ``json.dumps(obj, indent=2)``, byte for byte.

CPython's ``json`` uses its C encoder only when ``indent`` is None; with an
indent, every value passes through a chain of Python generators.  ``dumps``
writes the same text with one type dispatch per value, for the documents
the package writes: trees of dicts, lists and tuples built fresh for each
call, so with no cycle, ``str`` dict keys and scalars of exactly the types
``str``, ``int``, finite ``float``, ``bool`` and None.  Anything else, a
subclass such as ``np.float64`` included, raises a ``TypeError`` that names
its type.  Strings go through the encoder's own ASCII escaping, and floats
through ``float.__repr__``, as ``json.dumps`` writes every finite float.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape

#: Text of a scalar, by exact type.  Containers test this first for each
#: value, to skip a call of _emit.
_SCALARS = {
    str: _escape,
    type(None): "null".format,
    bool: ("false", "true").__getitem__,
    int: int.__repr__,
    float: float.__repr__,
}


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``."""
    chunks: list[str] = []
    _emit(obj, chunks, "\n")
    return "".join(chunks)


def _emit(x, chunks: list[str], newline: str):
    """Append the text of ``x`` at the indent that ``newline`` ends with."""
    text = _SCALARS.get(x.__class__)
    if text is not None:
        chunks.append(text(x))
    elif isinstance(x, (list, tuple, dict)):
        _container(x, chunks, newline)
    else:
        raise TypeError(f"Object of type {x.__class__.__name__} is not JSON serializable")


def _container(x, chunks: list[str], newline: str):
    is_dict = isinstance(x, dict)
    if not x:
        chunks.append("{}" if is_dict else "[]")
        return
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
                _emit(value, chunks, inner)
            sep = "," + inner
    else:
        for value in x:
            text = _SCALARS.get(value.__class__)
            if text is not None:
                chunks.append(sep + text(value))
            else:
                chunks.append(sep)
                _emit(value, chunks, inner)
            sep = "," + inner
    chunks.append(newline + ("}" if is_dict else "]"))
