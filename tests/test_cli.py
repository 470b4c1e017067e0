"""CLI behavior: subcommands, formats, files, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import dirichlet_ring
from dirichlet_ring import ArithFunc, delta, generate, identity
from dirichlet_ring.cli import DEFAULT_N, MAX_DIGITS, build_parser, main, parse_ideal_spec
from dirichlet_ring.ideals import IdealSpec
from dirichlet_ring.seqfile import FORMATS, load

from conftest import save

PINNED_CLI_DIGEST = "6af19da9de40ee99e012db0ecd35456f0681c3ac9b03e37853e141d567e8cb72"

SRC_DIR = str(Path(dirichlet_ring.__file__).resolve().parent.parent)


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_cli_subprocess(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "dirichlet_ring", *argv],
        capture_output=True,
        env=env,
    )


# spec string parsing ---------------------------------------------------------


def test_parse_ideal_specs():
    assert parse_ideal_spec("I:5") == IdealSpec.norm_floor(5)
    assert parse_ideal_spec("P:6") == IdealSpec.coprime_vanishing(6)
    assert parse_ideal_spec("P:6,1") == IdealSpec.gcd_count(6, 1)
    assert parse_ideal_spec("K:3") == IdealSpec.prime_tail(3)
    assert parse_ideal_spec("J:2,3") == IdealSpec.prime_products((2, 3))
    assert parse_ideal_spec("J:~2,3") == IdealSpec.prime_products((2, 3), complement=True)
    assert parse_ideal_spec("maximal") == IdealSpec.maximal()
    with pytest.raises(ValueError):
        parse_ideal_spec("Q:4")


# every command, by the words that name it
COMMAND_WORDS = [["gen"], ["conv"], ["inv"], ["norm"], ["divide"], ["classify"], ["ideal"],
                 ["ideal", "member"], ["ideal", "quotient"], ["ideal", "decompose"], ["ideal", "chain"],
                 ["ideal", "probe"], ["chain"], ["verify-paper"]]


@pytest.mark.parametrize("argv", [[], ["--help"], ["nope"], ["ideal", "nope"]]
                         + [words + extra for words in COMMAND_WORDS for extra in (["--help"], ["--bogus"])],
                         ids=" ".join)
def test_help_and_usage_equal_the_full_parsers(capsys, argv):
    """The parser built for argv, which gives arguments to the command argv
    names only, prints what the parser of every command prints."""
    printed = []
    for parser in (build_parser(), build_parser(argv)):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        printed.append((exc.value.code, *capsys.readouterr()))
    assert printed[0] == printed[1]
    assert printed[0][1] if "--help" in argv else printed[0][2].startswith("usage: dirichlet")


# generation --------------------------------------------------------------------


def test_gen_mobius_csv_row():
    code, out = run_cli("gen", "mobius", "--n", "6", "--format", "csv")
    assert code == 0
    assert out == "1,-1,-1,0,-1,1\n"


def test_gen_json_round_trips_to_equal_function(tmp_path):
    path = tmp_path / "phi.json"
    code, _ = run_cli("gen", "euler_phi", "--n", "24", "--out", str(path))
    assert code == 0
    name, f = load(path)
    assert name == "euler_phi"
    assert f == generate("euler_phi", 24)


def test_gen_with_param(tmp_path):
    code, out = run_cli("gen", "delta", "--param", "4", "--n", "6", "--format", "csv")
    assert code == 0
    assert out == "0,0,0,1,0,0\n"


def test_gen_keeps_an_empty_name(tmp_path):
    path = tmp_path / "mu.json"
    code, _ = run_cli("gen", "mobius", "--n", "2", "--name", "", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text(encoding="utf-8"))["name"] == ""
    assert load(path) == ("", generate("mobius", 2))


def test_gen_float_conversion_and_refusal():
    code, out = run_cli("gen", "mobius", "--n", "3", "--mode", "float", "--format", "csv")
    assert code == 0
    assert out == "1.0,-1.0,-1.0\n"
    code, _ = run_cli("gen", "mangoldt", "--n", "3", "--mode", "exact")
    assert code == 1


# arithmetic commands --------------------------------------------------------------


def test_conv_with_identity_returns_other_operand(tmp_path):
    e_path, f_path = tmp_path / "e.json", tmp_path / "f.json"
    save(identity(8), e_path, "e")
    f = generate("liouville", 8)
    save(f, f_path, "lambda")
    code, out = run_cli("conv", str(e_path), str(f_path), "--format", "csv")
    assert code == 0
    assert out == "1,-1,-1,1,-1,1,-1,-1\n"


def test_inv_command(tmp_path):
    u_path = tmp_path / "u.json"
    save(generate("unit_u", 12), u_path, "u")
    out_path = tmp_path / "mu.json"
    code, _ = run_cli("inv", str(u_path), "--out", str(out_path))
    assert code == 0
    _, f = load(out_path)
    assert f == generate("mobius", 12)


def test_norm_command(tmp_path):
    path = tmp_path / "d.json"
    save(ArithFunc([0, 0, 0, 0, 0, 1]), path, "d6")
    code, out = run_cli("norm", str(path), "--format", "table")
    assert code == 0 and out == "6\n"
    code, out = run_cli("norm", str(path))
    assert json.loads(out) == {"norm": 6}
    save(ArithFunc([0, 0]), path, "z")
    code, out = run_cli("norm", str(path), "--format", "table")
    assert code == 0 and out == "zero-function\n"


def test_norm_json_is_written_as_every_dict_result_is(tmp_path):
    path = tmp_path / "f.json"
    for f, value in ((ArithFunc([0, 0, 0, 0, 0, 1]), 6), (ArithFunc([0, 0]), None)):
        save(f, path, "f")
        assert run_cli("norm", str(path)) == (0, json.dumps({"norm": value}, indent=2) + "\n")


def test_divide_command_success_and_witness(tmp_path):
    d6, d2, d3 = tmp_path / "d6.json", tmp_path / "d2.json", tmp_path / "d3.json"
    save(ArithFunc([0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]), d6, "d6")
    save(ArithFunc([0, 1] + [0] * 10), d2, "d2")
    save(ArithFunc([0, 0, 1] + [0] * 9), d3, "d3")
    code, out = run_cli("divide", str(d6), str(d2), "--format", "csv")
    assert code == 0 and out == "0,0,1,0,0,0\n"
    code, out = run_cli("divide", str(d3), str(d2))
    assert code == 0
    assert json.loads(out)["divisible"] is False
    assert json.loads(out)["index"] == 3


def test_classify_command(tmp_path):
    path = tmp_path / "d7.json"
    save(ArithFunc([0] * 6 + [1] + [0] * 5), path, "d7")
    code, out = run_cli("classify", str(path))
    report = json.loads(out)
    assert report["is_unit"] is False
    assert report["norm"] == 7
    assert report["atom_certificate"] == "prime_norm"


# ideal commands ---------------------------------------------------------------------


def test_ideal_member_command(tmp_path):
    path = tmp_path / "d5.json"
    save(ArithFunc([0, 0, 0, 0, 1, 0]), path, "d5")
    code, out = run_cli("ideal", "member", "P:6", str(path))
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "non_member" and obj["index"] == 5
    # a prime modulus past the window: every index up to 64 is coprime to it
    path = tmp_path / "d7.json"
    save(delta(7, 64), path, "d7")
    code, out = run_cli("ideal", "member", "P:1000000000000000003", str(path))
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "non_member" and obj["index"] == 7


def test_ideal_quotient_command(tmp_path):
    path = tmp_path / "d6.json"
    save(ArithFunc([0, 0, 0, 0, 0, 1] + [0] * 6), path, "d6")
    code, out = run_cli("ideal", "quotient", "2", str(path), "--format", "csv")
    assert code == 0 and out == "0,0,1,0,0,0\n"
    code, _ = run_cli("ideal", "quotient", "5", str(path))
    assert code == 1  # d6 is not in P_5


def test_ideal_decompose_command(tmp_path):
    path = tmp_path / "f.json"
    save(ArithFunc([0, 1, 1, 0, 0, 1] + [0] * 6), path, "f")
    code, out = run_cli("ideal", "decompose", "6", str(path))
    obj = json.loads(out)
    assert code == 0
    assert obj["generator_points"] == [2, 3]
    assert obj["reconstruction_matches"] is True
    assert out == json.dumps(obj, indent=2) + "\n"  # the bytes json writes


def test_ideal_chain_command_table_and_dot():
    code, out = run_cli("ideal", "chain", "P_ascending", "--length", "3", "--n", "64",
                        "--format", "table")
    assert code == 0
    assert "P_2 < P_6  (separator delta_3)" in out
    code, out = run_cli("chain", "K_ascending", "--length", "3", "--n", "64", "--dot")
    assert code == 0
    assert out.startswith("digraph chain {")
    assert '"K_1" -> "K_2" [label="delta_2"];' in out


def test_chain_dot_output():
    code, out = run_cli("chain", "P_ascending", "--length", "3", "--n", "64", "--dot")
    assert code == 0
    assert out == ('digraph chain {\n  rankdir=LR;\n  "P_2";\n  "P_6";\n  "P_30";\n'
                   '  "P_2" -> "P_6" [label="delta_3"];\n  "P_6" -> "P_30" [label="delta_5"];\n}\n')


def test_chain_cost_does_not_grow_with_the_window():
    # the links are decided from I_1..I_8's index sets, which hold at most 7 indices
    code, out = run_cli("chain", "I_descending", "--length", "8", "--n", str(10**12))
    assert code == 0
    assert [link["separator"] for link in json.loads(out)["links"]] == [
        f"delta_{k}" for k in range(1, 8)]


def test_ideal_probe_command():
    code, out = run_cli("ideal", "probe", "K:3", "--trials", "0", "--n", "32")
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "non_member"
    assert len(obj["witness_pair"]) == 2
    assert out == json.dumps(obj, indent=2) + "\n"  # the bytes json writes
    code, out = run_cli("ideal", "probe", "P:6", "--trials", "25", "--seed", "5",
                        "--n", "32")
    assert json.loads(out)["verdict"] == "undecided_at_truncation"
    code, out = run_cli("ideal", "probe", "I:1", "--trials", "3", "--n", "4")
    assert (code, json.loads(out)["note"]) == (0, "no counterexample among 0 sampled pairs")


# exit codes and determinism ------------------------------------------------------------


def test_usage_error_exits_two():
    result = run_cli_subprocess("gen", "no_such_function")
    assert result.returncode == 2


def test_computation_error_exits_one(tmp_path):
    missing = tmp_path / "nope.json"
    code, _ = run_cli("norm", str(missing))
    assert code == 1


BAD_SEQUENCES = {
    "zero_denominator": {"name": "x", "mode": "exact", "n": 1, "values": [["1", "0"]]},
    "bare_int_value": {"name": "x", "mode": "exact", "n": 1, "values": [1]},
    "bool_n": {"name": "x", "mode": "exact", "n": True, "values": [["1", "1"]]},
    "nan_float": {"name": "x", "mode": "float", "n": 1, "values": [float("nan")]},
    "non_string_name": {"name": {"a": 1}, "mode": "exact", "n": 1, "values": [["1", "1"]]},
}


def _assert_one_line_error(capsys, code):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_overflowing_float_json_is_a_one_line_error(tmp_path, capsys):
    # 1e308 * 1e308 overflows, and a float function holds finite doubles
    # only, so every format gives the same error and writes no file
    path, out = tmp_path / "big.json", tmp_path / "out.json"
    save(ArithFunc([1e308] * 4), path, "big")
    for fmt in FORMATS:
        for extra in ([], ["--out", str(out)]):
            code = main(["conv", str(path), str(path), "--format", fmt, *extra])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (1, "", "error: float values must be finite\n")
            assert not out.exists()


@pytest.mark.parametrize("payload", BAD_SEQUENCES.values(), ids=BAD_SEQUENCES.keys())
def test_malformed_sequence_file_is_a_one_line_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_one_line_error(capsys, main(["norm", str(path)]))


def test_deeply_nested_file_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    err = _assert_one_line_error(capsys, main(["norm", str(path)]))
    assert "nested too deeply" in err


@pytest.mark.parametrize("data, reason", [
    (b"\xff{}", "not UTF-8 text at byte 0 (invalid start byte)"),
    (b'{"name": "f", "mode": "exact", "n": 1, "values": [["1", "1"]], "values": [["2", "1"]]}',
     "field 'values' appears more than once"),
    (b'{"name": "f", ', "Expecting property name enclosed in double quotes: line 1 column 15 (char 14)"),
    (b'{"name": "f", "mode": "exact", "n": 0, "values": []}', "n must be a positive integer"),
], ids=["not_utf8", "repeated_values", "truncated", "zero_n"])
def test_undecodable_or_ambiguous_file_is_a_one_line_error_naming_it(tmp_path, capsys, data, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert _assert_one_line_error(capsys, main(["norm", str(path)])) == f"error: {path}: {reason}\n"


def test_the_error_names_which_of_two_files_is_bad(tmp_path, capsys):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    save(ArithFunc([1, 2]), good, "a")
    text = good.read_text(encoding="utf-8")[:14]
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    for argv in (["conv", str(good), str(bad)], ["divide", str(bad), str(good)]):
        assert _assert_one_line_error(capsys, main(argv)) == f"error: {bad}: {exc.value}\n"


def test_exact_values_past_python_digit_limit_round_trip(tmp_path):
    # f(1) = 1/(2**64 + 13): its 10th self-convolution, f^1024, has
    # 19,729-digit denominators, past Python's 4300-digit default; each
    # result is written and read back by the next command
    p = 2**64 + 13
    paths = [tmp_path / f"f{k}.json" for k in range(11)]
    save(ArithFunc([Fraction(1, p), Fraction(1, 3)] + [0] * 6), paths[0], "f")
    limit = sys.get_int_max_str_digits()
    for a, b in zip(paths, paths[1:]):
        assert main(["conv", str(a), str(a), "--out", str(b)]) == 0
    assert sys.get_int_max_str_digits() == limit
    top = json.loads(paths[10].read_text(encoding="utf-8"))["values"]
    assert top[0][0] == "1" and len(top[0][1]) == 19729
    # f^1024 / f^512 is f^512, read from f^1024's file and written again
    quotient = tmp_path / "q.json"
    assert main(["divide", str(paths[10]), str(paths[9]), "--out", str(quotient)]) == 0
    assert json.loads(quotient.read_text(encoding="utf-8"))["values"] == \
        json.loads(paths[9].read_text(encoding="utf-8"))["values"]


def test_integer_past_max_digits_is_a_one_line_error(tmp_path, capsys):
    message = f"error: an integer has more than {MAX_DIGITS} decimal digits, the most read or written\n"
    path, out = tmp_path / "big.json", tmp_path / "out.json"
    limit = sys.get_int_max_str_digits()
    # read: a numerator one digit past the bound, an error of the file's text
    big = {"name": "big", "mode": "exact", "n": 2, "values": [["1" * (MAX_DIGITS + 1), "1"], ["0", "1"]]}
    path.write_text(json.dumps(big), encoding="utf-8")
    assert _assert_one_line_error(capsys, main(["norm", str(path)])) == message.replace(": ", f": {path}: ", 1)
    # written: 10**(MAX_DIGITS // 2) is read, but its square has MAX_DIGITS + 1 digits
    big["values"][0][0] = "1" + "0" * (MAX_DIGITS // 2)
    path.write_text(json.dumps(big), encoding="utf-8")
    assert _assert_one_line_error(capsys, main(["conv", str(path), str(path), "--out", str(out)])) == message
    assert not out.exists()
    assert sys.get_int_max_str_digits() == limit


# a name that is a lone surrogate cannot be encoded as UTF-8: from a
# sequence file, the JSON escape of U+D800; from the command line, the
# bytes ED A0 80, which Python reads as three escaped surrogates
@pytest.mark.parametrize("argv", [
    ["inv", "{path}", "--format", "table"],
    ["gen", "mobius", "--n", "3", "--name", "\udced\udca0\udc80", "--format", "table"],
])
def test_unencodable_text_writes_no_out_file(tmp_path, capsys, argv):
    path, out = tmp_path / "f.json", tmp_path / "o.txt"
    path.write_text('{"name": "\\ud800", "mode": "exact", "n": 2, "values": [["1", "1"], ["1", "1"]]}',
                    encoding="utf-8")
    argv = [arg.format(path=path) for arg in argv] + ["--out", str(out)]
    _assert_one_line_error(capsys, main(argv))
    assert not out.exists()


# a window past sys.maxsize is refused by name; 2**61 and 2**62 pass that
# check, and the first list of that length is refused before anything is
# allocated, since its bytes would pass sys.maxsize
@pytest.mark.parametrize("argv", [
    ["gen", "mobius"],
    ["gen", "delta", "--param", "3"],
    ["chain", "P_ascending"],
    ["ideal", "probe", "K:3", "--trials", "0"],
])
def test_window_past_an_index_is_a_one_line_error(capsys, argv):
    for n in (2**61, 2**62, 10**20):
        err = _assert_one_line_error(capsys, main(argv + ["--n", str(n)]))
        if n > sys.maxsize:
            assert err == f"error: --n must be at most {sys.maxsize}, not {n}\n"
        else:
            assert err == "error: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["gen", "unit_u", "--n", "0"],
    ["verify-paper", "--n", "0"],
    ["ideal", "probe", "K:3", "--trials", "0", "--n", "0"],
    ["chain", "K_ascending", "--n", "0"],
])
def test_zero_window_is_a_one_line_error(capsys, argv):
    _assert_one_line_error(capsys, main(argv))


def test_negative_trial_count_is_a_one_line_error(capsys):
    _assert_one_line_error(capsys, main(["ideal", "probe", "P:6", "--trials", "-1", "--n", "16"]))


@pytest.mark.parametrize("raw", ["5"])  # a window the package once read from DIRICHLET_N
def test_environment_does_not_change_stdout(monkeypatch, raw):
    monkeypatch.setenv("DIRICHLET_N", raw)
    assert run_cli("gen", "unit_u", "--format", "csv") == (0, ",".join(["1"] * DEFAULT_N) + "\n")


@pytest.mark.parametrize("argv", [["ideal", "member", "BADSPEC", "no-such-dir/missing.json"],
                                  ["ideal", "probe", "BADSPEC", "--n", str(10**20)]],
                         ids=["file", "window"])
def test_spec_error_comes_before_file_and_window_errors(capsys, argv):
    err = _assert_one_line_error(capsys, main(argv))
    assert err == "error: cannot parse ideal spec 'BADSPEC'\n"


@pytest.mark.parametrize("argv", [
    ["gen", "mobius", "--n", "1_0"],
    ["gen", "mobius", "--n", "\u0663"],
    ["gen", "mobius", "--n", " 3"],
    ["gen", "delta", "--param", "2_0", "--n", "32"],
    ["chain", "P_ascending", "--length", "\u0664"],
    ["ideal", "probe", "P:6", "--trials", "1_0"],
    ["ideal", "probe", "P:6", "--seed", "+-1"],
    ["verify-paper", "--n", "6_4"],
    ["verify-paper", "--seed", "\u0661"],
    ["ideal", "quotient", "2_0", "f.json"],
    ["ideal", "decompose", "\u0666", "f.json"],
])
def test_malformed_integer_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid integer value" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["P:1_0", "P:\u0666", "J:2,,3", "J:~2,\u0663", "I:5,6", "K:", "P:6,_1"])
def test_malformed_spec_number_is_a_one_line_error(tmp_path, capsys, spec):
    path = tmp_path / "f.json"
    save(generate("unit_u", 8), path)
    for argv in (["ideal", "probe", spec, "--n", "8"], ["ideal", "member", spec, str(path)]):
        err = _assert_one_line_error(capsys, main(argv))
        assert err == f"error: cannot parse ideal spec {spec!r}\n"


def test_spec_numbers_may_carry_a_sign_and_spaces():
    assert parse_ideal_spec("P: +6 , 1") == IdealSpec.gcd_count(6, 1)
    assert parse_ideal_spec("J:~ 2, 3") == IdealSpec.prime_products((2, 3), complement=True)


def test_unknown_chain_family_is_argparses_usage_error():
    result = run_cli_subprocess("chain", "bogus")
    assert result.returncode == 2
    assert result.stderr.decode().splitlines()[-1] == (
        "dirichlet chain: error: argument family: invalid choice: 'bogus' (choose from "
        "'P_ascending', 'J_descending', 'I_descending', 'K_ascending')")


def test_three_part_coprime_spec_is_a_one_line_error(capsys):
    err = _assert_one_line_error(capsys, main(["ideal", "probe", "P:1,2,3", "--n", "8"]))
    assert err == "error: P takes one parameter (P:m) or two (P:m,k)\n"


def test_large_composite_in_a_prime_spec_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "f.json"
    save(generate("unit_u", 8), path)
    # 2 * (10**18 + 3): the primality test stops at the divisor 2
    err = _assert_one_line_error(capsys, main(["ideal", "member", "J:2000000000000000006", str(path)]))
    assert err == "error: 2000000000000000006 is not prime\n"


def test_verify_paper_small_window_rejected():
    code, _ = run_cli("verify-paper", "--n", "8")
    assert code == 1


def _pinned_cases(d: Path) -> list[list[str]]:
    """Every command in every format, plus the option and error paths."""
    save(generate("unit_u", 12), d / "u.json", "u")
    save(generate("mobius", 12), d / "mu.json", "mu")
    save(generate("log", 6), d / "log.json", "log")
    save(ArithFunc([0] * 5 + [1] + [0] * 6), d / "d6.json", "d6")
    save(ArithFunc([0, 1] + [0] * 10), d / "d2.json", "d2")
    save(ArithFunc([0, 0, 1] + [0] * 9), d / "d3.json", "d3")
    save(ArithFunc([0] * 4 + [1] + [0] * 7), d / "d5.json", "d5")
    save(ArithFunc([0, 1, 1, 0, 0, 1] + [0] * 6), d / "f.json", "f")
    save(ArithFunc([0, 0, 0, 0]), d / "zero.json", "z")
    p = {name: str(d / f"{name}.json") for name in
         ("u", "mu", "log", "d6", "d2", "d3", "d5", "f", "zero")}
    formatted = [
        ["gen", "mobius", "--n", "12"],
        ["gen", "euler_phi", "--n", "6", "--mode", "float"],
        ["gen", "delta", "--param", "4", "--n", "6", "--name", "d4"],
        ["gen", "p_adic_valuation", "--param", "2", "--n", "10"],
        ["gen", "mangoldt", "--n", "4"],
        ["conv", p["u"], p["mu"]],
        ["conv", p["log"], p["log"]],
        ["inv", p["u"]],
        ["norm", p["d6"]],
        ["norm", p["zero"]],
        ["divide", p["d6"], p["d2"]],
        ["divide", p["d3"], p["d2"]],
        ["classify", p["d5"]],
        ["classify", p["u"]],
        ["ideal", "member", "P:6", p["d5"]],
        ["ideal", "member", "J:~2,3", p["d6"]],
        ["ideal", "quotient", "2", p["d6"]],
        ["ideal", "decompose", "6", p["f"]],
        ["ideal", "chain", "P_ascending", "--length", "3", "--n", "64"],
        ["chain", "K_ascending", "--length", "3", "--n", "64"],
        ["chain", "I_descending", "--length", "3", "--n", "64", "--dot"],
        ["ideal", "probe", "K:3", "--trials", "0", "--n", "32"],
        ["ideal", "probe", "P:6", "--trials", "25", "--seed", "5", "--n", "32"],
        # error paths
        ["gen", "mangoldt", "--n", "3", "--mode", "exact"],
        ["ideal", "quotient", "5", p["d6"]],
        ["norm", str(d / "missing.json")],
    ]
    cases = [argv + ["--format", fmt] for argv in formatted for fmt in FORMATS]
    return cases + [["verify-paper", "--n", "64"]]


def test_cli_outputs_are_pinned(tmp_path):
    """One digest over (argv, exit code, stdout, stderr, --out file) for each
    case, run once to stdout and once with --out; temp paths normalised."""
    inputs = tmp_path / "in"
    inputs.mkdir()
    out_path = tmp_path / "out.txt"
    digest = hashlib.sha256()

    def norm(text):
        return None if text is None else text.replace(str(tmp_path), "<tmp>")

    for argv in _pinned_cases(inputs):
        for extra in ([], ["--out", str(out_path)]):
            out_path.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + extra)
            written = out_path.read_text(encoding="utf-8") if out_path.exists() else None
            case = [norm(" ".join(argv + extra)), code,
                    norm(out.getvalue()), norm(err.getvalue()), norm(written)]
            digest.update(json.dumps(case).encode("utf-8"))
    assert digest.hexdigest() == PINNED_CLI_DIGEST


def test_verify_paper_deterministic_and_green():
    first = run_cli_subprocess("verify-paper", "--n", "64", "--seed", "11")
    second = run_cli_subprocess("verify-paper", "--n", "64", "--seed", "11")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert b"26/26 checks passed" in first.stdout
