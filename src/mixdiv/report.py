"""Indent-2 JSON reports, encoded by the C encoder.

``json.dumps`` with ``indent=2`` runs the pure-Python encoder, because
CPython uses its C encoder only when ``indent`` is None. A report's bulk is
long lists of floats (a document echo carries 2n+1 per-atom arrays), so
:func:`dumps_report` walks only the containers in Python: each container is
one call of an encoder with no ``indent`` whose item separator is the
newline and indentation of its depth, with its container children passed as
null and written in their place. The pieces are joined once at the end, so
no level of the tree copies the text below it.
"""

from __future__ import annotations

import json
from functools import cache

_CONTAINERS = (dict, list, tuple)


@cache
def _encoder(depth: int):
    """``encode`` that separates a container's children at ``depth`` as indent-2
    JSON does; keys, scalars and empty containers come out as there."""
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _encode(obj, depth: int, out: list) -> None:
    """Append the pieces of the indent-2 text of ``obj`` at ``depth`` to ``out``."""
    encode = _encoder(depth)
    if not isinstance(obj, _CONTAINERS) or not obj:
        out.append(encode(obj))
        return
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    brackets = "{}" if is_dict else "[]"
    sep = ",\n" + "  " * (depth + 1)
    out.append(brackets[0] + sep[1:])
    if any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        # one encode call writes the keys and scalars, with null for each
        # container, which is then written in its place; encoded scalars hold
        # no newline, so splitting at ``sep`` is exact
        shell = ({k: None if isinstance(v, _CONTAINERS) else v for k, v in obj.items()}
                 if is_dict else [None if isinstance(v, _CONTAINERS) else v for v in obj])
        for piece, value in zip(encode(shell)[1:-1].split(sep), values):
            if isinstance(value, _CONTAINERS):
                out.append(piece[:-len("null")])
                _encode(value, depth + 1, out)
            else:
                out.append(piece)
            out.append(sep)
        out.pop()
    else:
        out.append(encode(obj)[1:-1])
    out.append("\n" + "  " * depth + brackets[1])


def dumps_report(obj) -> str:
    """The text of ``json.dumps`` with ``indent=2``, byte for byte, with the
    scalars encoded in C."""
    out: list[str] = []
    _encode(obj, 0, out)
    return "".join(out)
