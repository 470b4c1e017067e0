"""Sequence file format: JSON round-trips, CSV rows, and validation."""

import copy
import gc
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ring import EXACT, FLOAT, ArithFunc
from dirichlet_ring.ring import SHARED_BITS
from dirichlet_ring.seqfile import (
    dumps,
    from_json_obj,
    is_decimal,
    load,
    render,
    to_csv,
    to_json,
    to_json_obj,
    to_table,
    write,
)
from dirichlet_ring.zoo import euler_phi, log_function, mangoldt, mobius

from conftest import coprime_pair, save


def test_exact_round_trip(tmp_path):
    f = ArithFunc([Fraction(1, 3), -2, 0, Fraction(7, 2)])
    path = tmp_path / "f.json"
    save(f, path, name="sample")
    name, back = load(path)
    assert name == "sample"
    assert back == f


def test_float_round_trip(tmp_path):
    f = mangoldt(16)
    path = tmp_path / "lam.json"
    save(f, path, name="mangoldt")
    _, back = load(path)
    assert back == f  # repr round-trip of doubles is exact


def test_write_encodes_the_text_before_it_opens_the_file(tmp_path):
    # the writer of ``--out`` and of the tests' ``save``: the file holds the
    # text's UTF-8 bytes, and a text that cannot be encoded leaves no file
    path, bad = tmp_path / "f.json", tmp_path / "bad.json"
    text = to_table(ArithFunc([Fraction(1, 3), 2]), "caf\xe9")
    write(text, path)
    assert path.read_bytes() == text.encode("utf-8") and b"caf\xc3\xa9" in path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write(text.replace("caf\xe9", "\ud800"), bad)
    assert not bad.exists()


def test_exact_values_serialized_as_string_pairs():
    obj = to_json_obj(ArithFunc([Fraction(-5, 3)]), "x")
    assert obj["values"] == [["-5", "3"]]
    assert obj["mode"] == EXACT and obj["n"] == 1


def test_large_numerators_survive():
    big = 10**40 + 7
    f = ArithFunc([Fraction(big, 3)])
    assert from_json_obj(to_json_obj(f))[1] == f


# stored as integers over 6, and as numerator and denominator columns (two
# denominators each past SHARED_BITS bits)
NARROW_SIXTHS = ArithFunc([Fraction(1, 6), Fraction(-1, 2), Fraction(2, 3), 0, -1, Fraction(5, 6)])
WIDE_DENS = (2 ** (SHARED_BITS + 20) + 1, 2 ** (SHARED_BITS + 21) + 3)
WIDE = ArithFunc([Fraction(1, WIDE_DENS[0]), Fraction(-3, WIDE_DENS[1]), 7, 0])


def test_csv_is_one_comma_separated_row():
    assert to_csv(mobius(6)) == "1,-1,-1,0,-1,1\n"
    assert to_csv(ArithFunc([Fraction(1, 3), 2])) == "1/3,2\n"
    assert NARROW_SIXTHS._den == 6 and isinstance(WIDE._den, tuple)
    assert to_csv(NARROW_SIXTHS) == "1/6,-1/2,2/3,0,-1,5/6\n"
    assert to_csv(WIDE) == f"1/{WIDE_DENS[0]},-3/{WIDE_DENS[1]},7,0\n"


def test_table_lists_index_value_pairs():
    text = to_table(ArithFunc([5, 6]), name="pair")
    lines = text.splitlines()
    assert lines[0].startswith("# pair")
    assert lines[1].split() == ["1", "5"]
    assert lines[2].split() == ["2", "6"]
    assert to_table(NARROW_SIXTHS, "t") == (
        "# t (mode=exact, n=6)\n1  1/6\n2  -1/2\n3  2/3\n4  0\n5  -1\n6  5/6\n"
    )
    assert to_table(WIDE, "t") == f"# t (mode=exact, n=4)\n1  1/{WIDE_DENS[0]}\n2  -3/{WIDE_DENS[1]}\n3  7\n4  0\n"


def test_render_dispatch():
    f = ArithFunc([1])
    assert render((f, "f"), "json") == to_json(f, "f")
    assert render((f, "f"), "csv") == to_csv(f)
    assert render((f, "f"), "table") == to_table(f, "f")
    result = {"divisible": False, "index": 3}
    assert render(result, "json") == dumps(result)
    assert render(result, "csv") == "divisible=False,index=3\n"
    assert render(result, "table") == "divisible  False\nindex      3\n"
    assert render("finished text\n", "json") == "finished text\n"
    for result in ((f, "f"), {"index": 3}):
        with pytest.raises(ValueError, match="unknown format 'yaml'"):
            render(result, "yaml")


def test_loader_validation():
    good = to_json_obj(ArithFunc([1, 2]), "g")
    for corrupt in (
        {**good, "mode": "decimal"},
        {**good, "n": 3},
        {**good, "n": 0, "values": []},
        {**good, "n": True, "values": [["1", "1"]]},
        {**good, "values": [1, 2]},
        {**good, "values": ["12", "34"]},
        {**good, "values": 2},
        {**good, "mode": "float", "values": [1.0, float("nan")]},
        {**good, "mode": "float", "values": [float("-inf"), 1.0]},
        {**good, "values": [[1.7, 2], ["2", "1"]]},
        {**good, "values": [[True, "2"], ["2", "1"]]},
        {**good, "values": [["1", 2], ["2", "1"]]},
        {**good, "values": [["1", None], ["2", "1"]]},
        {**good, "values": [[" 1_0 ", "3"], ["2", "1"]]},
        {**good, "values": [["1_0", "3"], ["2", "1"]]},
        {**good, "values": [["10 ", "3"], ["2", "1"]]},
        {**good, "values": [["10\n", "3"], ["2", "1"]]},
        {**good, "values": [["١٢", "1"], ["2", "1"]]},
        {**good, "values": [["1", "+-3"], ["2", "1"]]},
        {**good, "values": [["1", "1"], ["+-5", "1"]]},
        {**good, "values": [["1", "1"], ["2", " 5"]]},
        {**good, "values": [["1", "1"], ["5_0", "1"]]},
        {**good, "values": [["1", "1"], ["2", ""]]},
        {**good, "values": [["1", "1"], ["2", "\u0663"]]},
        {**good, "values": [["", "1"], ["2", "1"]]},
        {**good, "values": [["0x10", "1"], ["2", "1"]]},
        {**good, "mode": "float", "values": ["1.5", 2.0]},
        {**good, "mode": "float", "values": [True, 2.0]},
        {**good, "mode": "float", "values": [None, 2.0]},
        {**good, "mode": "float", "values": [10**400, 2.0]},
        {k: v for k, v in good.items() if k != "name"},
        {**good, "name": {"a": 1}},
        {**good, "name": None},
    ):
        with pytest.raises(ValueError):
            from_json_obj(corrupt)


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    data = to_json(ArithFunc([1, 2]), "cafe").encode().replace(b"cafe", b"caf\xe9")  # a latin-1 name
    path.write_bytes(data)
    message = f"{path}: not UTF-8 text at byte {data.index(bytes([0xE9]))} (invalid continuation byte)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load(path)


# the last two pass Python's default limit of 4300 digits, in a numerator
# string and in a float file's number
@pytest.mark.parametrize("text", ['{"name": "f", "mode": "exact", "n": 1, "values": [["1", ',
                                  '{"name": "f", "mode": "exact", "n": 0, "values": []}',
                                  '{"name": "f", "mode": "exact", "n": 1, "values": [["1", "1_0"]]}',
                                  '{"name": "f", "mode": "exact", "n": 1, "values": [["' + "7" * 5000 + '", "1"]]}',
                                  '{"name": "f", "mode": "float", "n": 1, "values": [' + "7" * 5000 + ']}'],
                         ids=["truncated", "zero_n", "not_decimal", "long_numerator", "long_float_number"])
def test_load_names_the_file_in_every_error_of_its_text(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as reason:  # what json or from_json_obj says alone
        from_json_obj(json.loads(text))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {reason.value}')}$"):
        load(path)


@pytest.mark.parametrize("field", ["name", "mode", "n", "values"])
def test_load_refuses_a_field_given_twice(tmp_path, field):
    # even with the same value twice: json alone would keep the last one
    obj = to_json_obj(ArithFunc([1, 2]), "g")
    path = tmp_path / "twice.json"
    text = json.dumps(obj)[:-1] + f", {json.dumps(field)}: {json.dumps(obj[field])}}}"
    path.write_text(text, encoding="utf-8")
    message = f"{path}: field {field!r} appears more than once"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load(path)


@pytest.mark.parametrize("obj", [[1, 2], "x", 3, None])
def test_loader_rejects_a_top_level_value_that_is_not_an_object(obj):
    with pytest.raises(ValueError, match=r"^a sequence must be a JSON object$"):
        from_json_obj(obj)


def test_loader_rejects_zero_denominator():
    obj = {"name": "bad", "mode": "exact", "n": 1, "values": [["1", "0"]]}
    with pytest.raises(ValueError):
        from_json_obj(obj)


@pytest.mark.parametrize("den", ["-0", "00", "+0"])
def test_loader_rejects_every_spelling_of_a_zero_denominator(den):
    obj = {"name": "bad", "mode": "exact", "n": 2, "values": [["1", "3"], ["1", den]]}
    with pytest.raises(ValueError, match="^an exact value has denominator 0$"):
        from_json_obj(obj)


@pytest.mark.parametrize("text", ["+-5", "-+5", "_5", " 5", "5 ", "5_0", "", "+", "-", "\u00b2",
                                  "\u0663", "\u0661\u0662", "\u06f5", "0x10", "1e3"])
def test_malformed_decimal_strings_are_rejected(text):
    assert not is_decimal(text)
    good = ["1", "1"]
    for pair in ([text, "1"], ["1", text]):
        obj = {"name": "bad", "mode": "exact", "n": 2, "values": [good, pair]}
        with pytest.raises(ValueError, match="pair of decimal strings"):
            from_json_obj(obj)


@pytest.mark.parametrize("text", ["0", "7", "+5", "-5", "007", "-0", "123456789012345678901234567890"])
def test_decimal_strings_are_accepted(text):
    assert is_decimal(text)


P64, Q64 = 4294967291, 4294967279  # primes whose product has 64 bits
P, Q = coprime_pair(SHARED_BITS)  # p*q has SHARED_BITS bits
P184, Q184 = 2**92 - 83, 2**92 - 149  # primes whose product has 184 bits

STORED_FORM_FILES = {
    "unreduced_pairs": [["2", "4"], ["3", "6"], ["-4", "8"], ["6", "3"], ["0", "9"]],
    "negative_denominator": [["1", "-3"], ["2", "1"], ["-5", "-6"], ["4", "-2"]],
    "all_ones": [["1", "1"], ["-7", "1"], ["0", "1"], ["+3", "1"]],
    "all_zero": [["0", "5"], ["0", "-7"]],
    "lcm_at_64_bits": [["5", str(P64 * Q64)], ["1", str(P64)], ["-2", str(Q64)], ["3", "1"]],
    "lcm_past_64_bits": [["5", str(P64 * Q64)], ["1", str(P64)], ["-2", str(Q64)], ["1", "2"]],
    "unreduced_past_64_bits": [["2", str(2 * P64 * Q64)], ["1", str(P64)]],
    "lcm_at_184_bits": [["5", str(P184 * Q184)], ["1", str(P184)], ["-2", str(Q184)], ["3", "1"]],
    "lcm_past_184_bits": [["5", str(P184 * Q184)], ["1", str(P184)], ["-2", str(Q184)], ["1", "2"]],
    "unreduced_past_184_bits": [["2", str(2 * P184 * Q184)], ["1", str(P184)]],
    # at and past SHARED_BITS, checked to be narrow and wide below; at a
    # bound of 64 or 184 bits these replace the cases above of that name
    f"lcm_at_{SHARED_BITS}_bits": [["5", str(P * Q)], ["1", str(P)], ["-2", str(Q)], ["3", "1"]],
    f"lcm_past_{SHARED_BITS}_bits": [["5", str(P * Q)], ["1", str(P)], ["-2", str(Q)], ["1", "2"]],
    f"unreduced_past_{SHARED_BITS}_bits": [["2", str(2 * P * Q)], ["1", str(P)]],
}


@pytest.mark.parametrize("key", STORED_FORM_FILES)
def test_loader_stores_what_the_constructor_stores(key, fractions_built):
    pairs = STORED_FORM_FILES[key]
    ref = ArithFunc([Fraction(int(a), int(b)) for a, b in pairs], EXACT)
    obj = {"name": "x", "mode": EXACT, "n": len(pairs), "values": pairs}
    made = fractions_built.made
    _, f = from_json_obj(obj)
    assert fractions_built.made == made
    assert (f.mode, f._den, f._values) == (ref.mode, ref._den, ref._values)
    assert f == ref and hash(f) == hash(ref)
    if key.endswith(f"_{SHARED_BITS}_bits"):  # the unreduced pair reduces to one at the bound
        assert isinstance(f._den, tuple) if key.startswith("lcm_past") else f._den == P * Q


def test_loader_normalizes_fractions():
    obj = {"name": "x", "mode": "exact", "n": 1, "values": [["2", "-4"]]}
    _, f = from_json_obj(obj)
    assert f(1) == Fraction(-1, 2)
    assert f(1).denominator == 2  # lowest terms, positive denominator


def test_json_text_is_valid_json(tmp_path):
    f = mobius(4)
    text = to_json(f, "mu")
    parsed = json.loads(text)
    assert parsed["n"] == 4


exact_funcs = st.lists(st.fractions(), min_size=1, max_size=12).map(
    lambda vs: ArithFunc(vs, EXACT)
)
# a denominator one bit past SHARED_BITS makes the function wide (stored as
# numerator and denominator columns)
wide_funcs = st.lists(st.fractions(), max_size=11).map(
    lambda vs: ArithFunc([Fraction(-1, 2**SHARED_BITS + 1), *vs], EXACT)
)
float_funcs = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12
).map(lambda vs: ArithFunc(vs, FLOAT))
funcs = st.one_of(exact_funcs, float_funcs)
not_scalars = st.one_of(st.none(), st.booleans(), st.lists(st.integers(), max_size=2))
non_pairs = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.dictionaries(st.text(), st.integers(), max_size=2),
    st.lists(st.text(), max_size=4).filter(lambda v: len(v) != 2),
)


@st.composite
def malformed_objects(draw):
    kind = draw(st.sampled_from(
        ["zero_denominator", "bool_n", "non_pair", "non_finite", "wrong_length", "wrong_type"]
    ))
    sources = {"zero_denominator": exact_funcs, "non_pair": exact_funcs,
               "non_finite": float_funcs}
    f = draw(sources.get(kind, funcs))
    obj = to_json_obj(f, "x")
    values = obj["values"]
    i = draw(st.integers(0, len(values) - 1))
    if kind == "zero_denominator":
        values[i] = [values[i][0], draw(st.sampled_from(["0", "-0", "+0", "000"]))]
    elif kind == "bool_n":
        obj["n"] = draw(st.booleans())
    elif kind == "non_pair":
        values[i] = draw(non_pairs)
    elif kind == "non_finite":
        values[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "wrong_type":
        # an exact pair element that is not a string, or a float value that is not a number
        if obj["mode"] == EXACT:
            values[i][draw(st.integers(0, 1))] = draw(st.one_of(not_scalars, st.integers(), st.floats()))
        else:
            values[i] = draw(st.one_of(not_scalars, st.text()))
    else:
        obj["n"] = draw(st.integers(1, 20).filter(lambda m: m != len(values)))
    return obj


@settings(max_examples=100, deadline=None)
@given(funcs, st.text())
def test_json_object_round_trip_property(f, name):
    obj = to_json_obj(f, name)
    assert from_json_obj(obj) == (name, f)
    assert from_json_obj(json.loads(json.dumps(obj))) == (name, f)


@settings(max_examples=200, deadline=None)
@given(malformed_objects())
def test_malformed_objects_raise_only_value_error(obj):
    with pytest.raises(ValueError):
        from_json_obj(obj)


def json_reference(obj):
    """``obj`` with each (function, name) pair replaced by ``to_json_obj``."""
    if isinstance(obj, tuple):
        return to_json_obj(*obj)
    if isinstance(obj, dict):
        return {k: json_reference(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [json_reference(v) for v in obj]
    return obj


any_funcs = st.one_of(exact_funcs, wide_funcs, float_funcs)
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(),
                         st.floats(allow_nan=False, allow_infinity=False))
json_trees = st.recursive(
    st.one_of(json_scalars, st.tuples(any_funcs, st.text())),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(any_funcs, st.text())
def test_json_writer_matches_json_module(f, name):
    assert to_json(f, name) == json.dumps(to_json_obj(f, name), indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), json_trees, max_size=4))
def test_embedded_sequences_match_json_module(obj):
    # the shape of the probe and decompose reports: sequence objects in lists in a dict
    assert dumps(obj) == json.dumps(json_reference(obj), indent=2) + "\n"


@pytest.mark.parametrize("f", [
    euler_phi(40),
    NARROW_SIXTHS,
    ArithFunc([-3, Fraction(-1, 2), 0, -7]),
    WIDE,
    log_function(30),
    ArithFunc([Fraction(-2, 3)]),
], ids=["integer", "narrow_over_6", "negative", "wide", "float", "window_1"])
def test_json_writer_matches_json_module_on_each_stored_form(f):
    name = 'f%d "%s"'  # the name is not part of the row template
    assert to_json(f, name) == json.dumps(to_json_obj(f, name), indent=2) + "\n"


def test_json_writer_matches_json_module_at_scale():
    for f, name in ((euler_phi(65536), "euler_phi"), (log_function(65536), "log")):
        assert to_json(f, name) == json.dumps(to_json_obj(f, name), indent=2) + "\n"


DECIMAL_STRING = re.compile(r"[+-]?[0-9]+")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.text("+-09 _,\n\u0663x", max_size=4), st.text("+-019 _,", max_size=3)),
                min_size=1, max_size=4))
def test_loader_accepts_exactly_the_decimal_strings(pairs):
    """A pair set loads iff every string is [+-]?[0-9]+ and no denominator is 0."""
    obj = {"name": "x", "mode": EXACT, "n": len(pairs), "values": [list(p) for p in pairs]}
    if not all(DECIMAL_STRING.fullmatch(s) for p in pairs for s in p):
        with pytest.raises(ValueError, match="pair of decimal strings"):
            from_json_obj(obj)
    elif not all(int(d) for _, d in pairs):
        with pytest.raises(ValueError, match="denominator 0"):
            from_json_obj(obj)
    else:
        _, f = from_json_obj(obj)
        assert f.values == tuple(Fraction(int(a), int(b)) for a, b in pairs)


def _traced_peak(call):
    """The peak bytes ``call()`` allocates above what was live before it,
    under tracemalloc, and its result."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        if not tracing:
            tracemalloc.stop()


def test_loader_peaks_near_the_json_parse_of_its_file(tmp_path):
    # the [num, den] lists are released before the strings convert, so the
    # loader holds the parse tree, not the tree and the function together
    rng = random.Random(5)
    values = [[str(rng.randrange(-20, 21)), "1"] for _ in range(65536)]
    path = tmp_path / "ints.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"name": "ints", "mode": EXACT, "n": 65536, "values": values}, handle)
    del values

    def parse():
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    parsed, _ = _traced_peak(parse)
    loaded, (_, f) = _traced_peak(lambda: load(str(path)))
    assert len(f) == 65536
    assert loaded <= 1.15 * parsed, (loaded, parsed)


def test_float_writer_peaks_near_its_text():
    # one %-format call over the stored tuple, with no list of repr strings
    f = log_function(65536)
    peak, text = _traced_peak(lambda: to_json(f))
    assert peak <= 2.5 * len(text), (peak, len(text))


@pytest.mark.parametrize("obj", [
    to_json_obj(euler_phi(64), "exact"),
    to_json_obj(WIDE, "wide"),
    to_json_obj(log_function(64), "float"),
], ids=["exact", "wide", "float"])
def test_from_json_obj_leaves_its_argument_as_it_was(obj):
    before = copy.deepcopy(obj)
    from_json_obj(obj)
    assert obj == before
