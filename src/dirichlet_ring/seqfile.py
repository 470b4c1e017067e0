"""Sequence file format shared by the library and the CLI.

JSON layout: {"name": str, "mode": "exact"|"float", "n": int,
"values": [...]} where an exact value is a two-element array of decimal
strings [numerator, denominator] (arbitrary precision) and a float value
is a plain JSON number.  The values array holds indices 1..n in order.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .ring import ArithFunc, EXACT, FLOAT

# int() would also take whitespace, underscores and non-ASCII digits
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _string_pairs(f: ArithFunc) -> list[list[str]]:
    """Each exact value as [numerator, denominator] decimal strings, in
    lowest terms, read from the stored form."""
    d = f._den
    if d is None:
        return [[str(v.numerator), str(v.denominator)] for v in f._values]
    if d == 1:
        return [[str(x), "1"] for x in f._values]
    return [[str(x // g), str(d // g)] for x in f._values for g in (math.gcd(x, d),)]


def _texts(f: ArithFunc):
    """Each value as ``str`` writes it, an exact one as its ``Fraction``."""
    return map(str, f._values if f._den in (None, 1) else f.values)


def to_json_obj(f: ArithFunc, name: str = "sequence") -> dict:
    values = _string_pairs(f) if f.mode == EXACT else list(f._values)
    return {"name": name, "mode": f.mode, "n": len(f), "values": values}


def to_json(f: ArithFunc, name: str = "sequence") -> str:
    return json.dumps(to_json_obj(f, name), indent=2) + "\n"


def from_json_obj(obj: dict) -> tuple[str, ArithFunc]:
    try:
        name, mode, n, raw = obj["name"], obj["mode"], obj["n"], obj["values"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"sequence object is missing field {exc}") from None
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError("n must be a positive integer")
    if not isinstance(raw, list):
        raise ValueError("values must be a list")
    if len(raw) != n:
        raise ValueError(f"declared n = {n} but {len(raw)} values present")
    if mode == FLOAT:  # the constructor rejects values that are not finite doubles
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
            raise ValueError("each float value must be a JSON number")
        return name, ArithFunc(raw, FLOAT)
    if not all(isinstance(v, list) and len(v) == 2
               and all(isinstance(x, str) and _DECIMAL.fullmatch(x) for x in v) for v in raw):
        raise ValueError("each exact value must be a [numerator, denominator] pair of decimal strings")
    try:  # integers stay ints, so a file of them is stored with no Fraction
        values = [int(num) if den == "1" else Fraction(int(num), int(den)) for num, den in raw]
    except ZeroDivisionError:
        raise ValueError("an exact value has denominator 0") from None
    return name, ArithFunc(values, EXACT)


def load(path: str | Path) -> tuple[str, ArithFunc]:
    with open(path, "r", encoding="utf-8") as handle:
        return from_json_obj(json.load(handle))


def save(f: ArithFunc, path: str | Path, name: str = "sequence") -> None:
    Path(path).write_text(to_json(f, name), encoding="utf-8")


def to_csv(f: ArithFunc) -> str:
    """One comma-separated row of scalars in index order."""
    return ",".join(_texts(f)) + "\n"


def to_table(f: ArithFunc, name: str = "sequence") -> str:
    width = len(str(len(f)))
    lines = [f"# {name} (mode={f.mode}, n={len(f)})"]
    for i, v in enumerate(_texts(f), start=1):
        lines.append(f"{i:>{width}}  {v}")
    return "\n".join(lines) + "\n"


def render(f: ArithFunc, fmt: str, name: str = "sequence") -> str:
    if fmt == "json":
        return to_json(f, name)
    if fmt == "csv":
        return to_csv(f)
    if fmt == "table":
        return to_table(f, name)
    raise ValueError(f"unknown format {fmt!r}")
