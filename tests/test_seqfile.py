"""Sequence file format: JSON round-trips, CSV rows, and validation."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ring import EXACT, FLOAT, ArithFunc
from dirichlet_ring.seqfile import (
    from_json_obj,
    load,
    render,
    save,
    to_csv,
    to_json,
    to_json_obj,
    to_table,
)
from dirichlet_ring.zoo import mangoldt, mobius


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


def test_exact_values_serialized_as_string_pairs():
    obj = to_json_obj(ArithFunc([Fraction(-5, 3)]), "x")
    assert obj["values"] == [["-5", "3"]]
    assert obj["mode"] == EXACT and obj["n"] == 1


def test_large_numerators_survive():
    big = 10**40 + 7
    f = ArithFunc([Fraction(big, 3)])
    assert from_json_obj(to_json_obj(f))[1] == f


def test_csv_is_one_comma_separated_row():
    assert to_csv(mobius(6)) == "1,-1,-1,0,-1,1\n"
    assert to_csv(ArithFunc([Fraction(1, 3), 2])) == "1/3,2\n"


def test_table_lists_index_value_pairs():
    text = to_table(ArithFunc([5, 6]), name="pair")
    lines = text.splitlines()
    assert lines[0].startswith("# pair")
    assert lines[1].split() == ["1", "5"]
    assert lines[2].split() == ["2", "6"]


def test_render_dispatch():
    f = ArithFunc([1])
    assert render(f, "json") == to_json(f)
    assert render(f, "csv") == to_csv(f)
    assert render(f, "table") == to_table(f)
    with pytest.raises(ValueError):
        render(f, "yaml")


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


def test_loader_rejects_zero_denominator():
    obj = {"name": "bad", "mode": "exact", "n": 1, "values": [["1", "0"]]}
    with pytest.raises(ValueError):
        from_json_obj(obj)


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
