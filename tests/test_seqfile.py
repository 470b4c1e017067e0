"""Sequence file format: JSON round-trips, CSV rows, and validation."""

import json
from fractions import Fraction

import pytest

from dirichlet_ring import EXACT, make
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
    f = make([Fraction(1, 3), -2, 0, Fraction(7, 2)])
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
    obj = to_json_obj(make([Fraction(-5, 3)]), "x")
    assert obj["values"] == [["-5", "3"]]
    assert obj["mode"] == EXACT and obj["n"] == 1


def test_large_numerators_survive():
    big = 10**40 + 7
    f = make([Fraction(big, 3)])
    assert from_json_obj(to_json_obj(f))[1] == f


def test_csv_is_one_comma_separated_row():
    assert to_csv(mobius(6)) == "1,-1,-1,0,-1,1\n"
    assert to_csv(make([Fraction(1, 3), 2])) == "1/3,2\n"


def test_table_lists_index_value_pairs():
    text = to_table(make([5, 6]), name="pair")
    lines = text.splitlines()
    assert lines[0].startswith("# pair")
    assert lines[1].split() == ["1", "5"]
    assert lines[2].split() == ["2", "6"]


def test_render_dispatch():
    f = make([1])
    assert render(f, "json") == to_json(f)
    assert render(f, "csv") == to_csv(f)
    assert render(f, "table") == to_table(f)
    with pytest.raises(ValueError):
        render(f, "yaml")


def test_loader_validation():
    good = to_json_obj(make([1, 2]), "g")
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
        {k: v for k, v in good.items() if k != "name"},
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
