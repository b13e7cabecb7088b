"""Canonical JSON, the one form every JSON artifact is written in.

The form is `json.dumps(payload, sort_keys=True, indent=2,
default=json_default) + "\\n"`: sorted keys, two-space indentation, ASCII
escapes, floats as their round-trip repr (NaN, Infinity and -Infinity as
json spells them), enums as their values and numpy values as Python ones.
`dump` writes that text to an open file as it walks the payload, so it never
holds the document text, a list of its chunks or a whole array's `.tolist()`:
a list of floats, and each row of a numpy array, is written as one joined
string of reprs. `write_json` writes a file through `dump` and replaces the
target only once the whole document is on disk.
"""

from __future__ import annotations

import enum
import io
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

_INF = float("inf")


def json_default(obj):
    """json's hook for what it cannot write itself: enums and numpy values.

    np.float64 subclasses float, so json writes it with float's repr and never
    asks here; tuples are written as lists.
    """
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(obj) -> str | None:
    """The JSON text of a string, number, bool or None; None for anything else.

    The checks run in json's order, so an int or str subclass (IntEnum, say)
    is written as json writes it.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    return None


def _key_text(key) -> str:
    """A dict key as json writes it: a string, or a number, bool or None quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return '"' + text + '"'


def _joined_floats(items, separator: str) -> str | None:
    """All items as float reprs joined by separator; None unless every item is a float.

    float.__repr__ refuses ints and bools with TypeError. No finite repr
    holds an "n", so only text with one needs nan and inf respelled.
    """
    try:
        text = separator.join(map(float.__repr__, items))
    except TypeError:
        return None
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _write_items(write, items, indent: str) -> None:
    """A list, tuple or numpy array of rank 2 or more, one row at a time."""
    if not len(items):
        write("[]")
        return
    inner = indent + "  "
    floats = _joined_floats(items, "," + inner)
    if floats is not None:
        write("[" + inner + floats + indent + "]")
        return
    separator = "[" + inner
    for item in items:
        text = _scalar_text(item)
        if text is None:
            write(separator)
            _write_value(write, item, inner)
        else:
            write(separator + text)
        separator = "," + inner
    write(indent + "]")


def _write_dict(write, obj: dict, indent: str) -> None:
    if not obj:
        write("{}")
        return
    inner = indent + "  "
    separator = "{" + inner
    for key, value in sorted(obj.items()):
        head = separator + _key_text(key) + ": "
        text = _scalar_text(value)
        if text is None:
            write(head)
            _write_value(write, value, inner)
        else:
            write(head + text)
        separator = "," + inner
    write(indent + "}")


def _write_value(write, obj, indent: str) -> None:
    """Write obj whose first line is indented by indent ("\\n" plus two spaces a level)."""
    text = _scalar_text(obj)
    if text is not None:
        write(text)
    elif isinstance(obj, (list, tuple)):
        _write_items(write, obj, indent)
    elif isinstance(obj, dict):
        _write_dict(write, obj, indent)
    elif isinstance(obj, np.ndarray) and obj.ndim > 1:
        _write_items(write, obj, indent)
    else:
        _write_value(write, json_default(obj), indent)


def dump(payload, fh) -> None:
    """Write payload's canonical JSON and a final newline to the text file fh."""
    _write_value(fh.write, payload, "\n")
    fh.write("\n")


def canonical_json(payload: dict) -> str:
    buffer = io.StringIO()
    dump(payload, buffer)
    return buffer.getvalue()


def write_json(path: str | Path, payload) -> Path:
    """Write payload's canonical JSON to path through path + ".tmp".

    The temporary file replaces path only after the whole document is
    written; on any error it is removed and path is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
