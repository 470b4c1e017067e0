"""Sequence file format shared by the library and the CLI.

JSON layout: {"name": str, "mode": "exact"|"float", "n": int,
"values": [...]} where an exact value is a two-element array of decimal
strings [numerator, denominator] (arbitrary precision; library callers
keep Python's limit on int/str conversions, 4300 digits by default,
which the CLI lifts to ``cli.MAX_DIGITS``) and a float value is a plain
JSON number.  The values array holds indices 1..n in order.

Every JSON text here comes from one writer, :func:`dumps`, which writes
the bytes ``json.dumps(obj, indent=2)`` writes.  It builds a sequence's
values array straight from the stored form, exact or float, as one
``%``-format call over a row template repeated once per value: an exact
row is filled by the value's numerator and denominator (past Python's
digit limit ``%d`` raises the ``ValueError`` that ``str`` raises), and a
float row is ``%r`` filled from the stored tuple, the ``repr`` that
``json`` writes (a float function holds finite doubles only, so none is
``Infinity`` or ``NaN``), so no list of per-value strings is built.  The
name goes through ``json.dumps``, so its escaping is ``json``'s.  The
pieces are joined once, at the end.  ``json.dumps`` with an indent runs CPython's
pure-Python encoder, several times slower than this at tens of
thousands of values.

The reader takes a decimal string only as an optional sign and ASCII
digits (:func:`is_decimal`): it checks the numerators as one string
when each is an optional "-" and ASCII digits, and each distinct
denominator once, and reads an exact file as its numerators
over the lcm of its denominators, or, when ``ring.shared_denominator``,
the ring's one rule for the stored form, gives that lcm up, as its
pairs in lowest terms with positive denominators; neither builds a
``Fraction``.  :func:`load` takes the values list out of the object it
parsed, and the per-value ``[num, den]`` lists are released once their
strings are read, before anything converts, as are the strings before
the stored form is built, so the reader never holds the parse tree and
the function together.  :func:`from_json_obj` reads a copy of its
argument's fields and leaves the argument as it was.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from operator import mul

from .ring import ArithFunc, EXACT, FLOAT, lowest_terms, shared_denominator

FORMATS = ("json", "csv", "table")  # the output formats of :func:`render`


def is_decimal(text: str) -> bool:
    """Whether ``text`` is an optional sign followed by ASCII digits: the
    one form of integer read from outside the program.  ``int`` would
    also take whitespace, underscores and non-ASCII digits."""
    return text.isascii() and (text.isdigit() or text[:1] in "+-" and text[1:].isdigit())


def _string_pairs(f: ArithFunc):
    """Each exact value as a (numerator, denominator) pair of decimal
    strings, in lowest terms."""
    nums, dens = lowest_terms(f)
    return zip(map(str, nums), repeat("1") if dens is None else map(str, dens))


def _texts(f: ArithFunc):
    """Each value as ``str`` writes it, an exact one as its ``Fraction``."""
    if f.mode == FLOAT:
        return map(str, f.values)
    return (a if b == "1" else f"{a}/{b}" for a, b in _string_pairs(f))


def to_json_obj(f: ArithFunc, name: str = "sequence") -> dict:
    """The sequence object as plain JSON values, the form ``from_json_obj`` reads."""
    values = list(map(list, _string_pairs(f))) if f.mode == EXACT else list(f.values)
    return {"name": name, "mode": f.mode, "n": len(f), "values": values}


def _values_json(f: ArithFunc, pad: str, out: list) -> None:
    """Append the values array of ``f`` at indent ``pad`` to ``out``."""
    p = pad + "  "
    if f.mode == FLOAT:  # the stored tuple, each value as its repr
        row, args = "%r", f.values
    else:
        nums, dens = lowest_terms(f)
        row = f'[\n{p}  "%d",\n{p}  "{"1" if dens is None else "%d"}"\n{p}]'
        args = tuple(nums) if dens is None else tuple(chain.from_iterable(zip(nums, dens)))
    # one row per value, all filled in by one %-format call
    body = f",\n{p}".join([row] * len(f)) % args
    out += f"[\n{p}", body, f"\n{pad}]"


def _json(obj, pad: str, out: list) -> None:
    """Append ``obj`` as :func:`dumps` writes it, at indent ``pad``, to
    ``out``, so the text is joined once, at the end."""
    if isinstance(obj, tuple):  # a (function, name) pair
        f, name = obj
        obj = {"name": name, "mode": f.mode, "n": len(f), "values": f}
    if isinstance(obj, ArithFunc):
        _values_json(obj, pad, out)
    elif not obj or not isinstance(obj, (dict, list)):
        out.append(json.dumps(obj))
    else:
        p = pad + "  "
        is_dict = isinstance(obj, dict)
        out.append("{" if is_dict else "[")
        for i, item in enumerate(obj.items() if is_dict else obj):
            out.append(f",\n{p}" if i else f"\n{p}")
            if is_dict:
                out.append(f"{json.dumps(item[0])}: ")
                item = item[1]
            _json(item, p, out)
        out.append(f"\n{pad}}}" if is_dict else f"\n{pad}]")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` for a JSON value whose dict
    keys are strings, where a (function, name) pair stands for its
    sequence object: byte for byte what ``json`` writes for
    ``to_json_obj(function, name)`` in its place."""
    out = []
    _json(obj, "", out)
    out.append("\n")
    return "".join(out)


def _all_decimal(nums: list) -> bool:
    """Whether every one of the strings ``nums`` is a decimal string, read
    as one string when each is an optional "-" and ASCII digits; a function
    of its own, so that list and string are gone before the loader converts."""
    bare = list(map(str.removeprefix, nums, repeat("-")))
    digits = "".join(bare)
    return all(bare) and digits.isascii() and digits.isdigit() or all(map(is_decimal, nums))


_NOT_PAIRS = "each exact value must be a [numerator, denominator] pair of decimal strings"


def from_json_obj(obj: dict) -> tuple[str, ArithFunc]:
    """The (name, function) a sequence object holds; ``obj`` is left as it is."""
    return _take(dict(obj) if isinstance(obj, dict) else obj)


def _take(obj: dict) -> tuple[str, ArithFunc]:
    """:func:`from_json_obj` on a dict that is the caller's to spend: the
    values list is taken out of it, so the per-value lists die here, before
    anything converts, even where the caller still holds the dict."""
    if not isinstance(obj, dict):
        raise ValueError("a sequence must be a JSON object")
    try:
        name, mode, n, raw = obj["name"], obj["mode"], obj["n"], obj.pop("values")
    except KeyError as exc:
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
        if not all(map(isinstance, raw, repeat((int, float)))) or any(map(isinstance, raw, repeat(bool))):
            raise ValueError("each float value must be a JSON number")
        return name, ArithFunc(raw, FLOAT)
    # the shape, then the strings: is_decimal reads each distinct denominator,
    # and each numerator only if they are not all an optional "-" and ASCII digits
    if not all(map(isinstance, raw, repeat(list))) or set(map(len, raw)) != {2}:
        raise ValueError(_NOT_PAIRS)
    nums, texts = [v[0] for v in raw], [v[1] for v in raw]
    del raw  # the [num, den] lists go before anything converts
    try:  # str.removeprefix and set raise TypeError on a list, a number or None
        decimal, distinct = _all_decimal(nums), set(texts)
    except TypeError:
        raise ValueError(_NOT_PAIRS) from None
    if not (decimal and all(map(isinstance, distinct, repeat(str))) and all(map(is_decimal, distinct))):
        raise ValueError(_NOT_PAIRS)
    # the numerators over the lcm of the distinct denominators, the stored
    # form ArithFunc._of reduces, unless ring's rule gives the lcm up: then
    # each pair in lowest terms, its sign on the numerator
    dens = {text: int(text) for text in distinct}
    if 0 in dens.values():
        raise ValueError("an exact value has denominator 0")
    common = shared_denominator(dens.values())
    if common is None:
        pairs = [(int(num), dens[den]) for num, den in zip(nums, texts)]
        gs = [math.gcd(x, d) if d > 0 else -math.gcd(x, d) for x, d in pairs]
        nums = [x // g for (x, _), g in zip(pairs, gs)]
        return name, ArithFunc._of(nums, [d // g for (_, d), g in zip(pairs, gs)])
    scale = {text: common // d for text, d in dens.items()}
    if set(scale.values()) == {1}:  # every denominator is the lcm
        entries = tuple(map(int, nums))
    else:
        entries = tuple(map(mul, map(int, nums), map(scale.__getitem__, texts)))
    del nums, texts  # the strings go before the stored form is built
    return name, ArithFunc._of(entries, common)


def _fields(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated name: ``json`` alone keeps the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        name = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"field {name!r} appears more than once")
    return obj


def load(path: str) -> tuple[str, ArithFunc]:
    """The (name, function) a sequence file holds; every error of its
    text, Python's limit on the digits of an int included, names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return _take(json.load(handle, object_pairs_hook=_fields))
        except UnicodeDecodeError as exc:  # json reads the whole file in one decode
            raise ValueError(f"{path}: not UTF-8 text at byte {exc.start} ({exc.reason})") from None
        except RecursionError:  # json's parser recurses once per nested array or object
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # json's syntax errors and every field error
            raise ValueError(f"{path}: {exc}") from None


def write(text: str, path: str) -> None:
    data = text.encode("utf-8")  # a text that cannot be encoded leaves no file
    with open(path, "wb") as handle:
        handle.write(data)


def to_csv(f: ArithFunc) -> str:
    """One comma-separated row of scalars in index order."""
    return ",".join(_texts(f)) + "\n"


def to_table(f: ArithFunc, name: str = "sequence") -> str:
    width = len(str(len(f)))
    lines = [f"# {name} (mode={f.mode}, n={len(f)})"]
    for i, v in enumerate(_texts(f), start=1):
        lines.append(f"{i:>{width}}  {v}")
    return "\n".join(lines) + "\n"


def render(result, fmt: str) -> str:
    """Text for a command's result: finished text as it is; a (function,
    name) pair or a dict in ``fmt``, one of ``FORMATS``, whose JSON is
    :func:`dumps`'s."""
    if isinstance(result, str):
        return result
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "json":
        return dumps(result)
    if isinstance(result, tuple):  # a (function, name) pair
        return to_csv(result[0]) if fmt == "csv" else to_table(*result)
    if fmt == "csv":
        return ",".join(f"{k}={v}" for k, v in result.items()) + "\n"
    width = max(len(str(k)) for k in result)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in result.items()) + "\n"
