"""CLI behavior: subcommands, formats, files, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import dirichlet_ring
from dirichlet_ring import ArithFunc, generate, identity
from dirichlet_ring.cli import FORMATS, main, parse_ideal_spec
from dirichlet_ring.ideals import IdealSpec
from dirichlet_ring.seqfile import load, save

PINNED_CLI_DIGEST = "6c666dc6ef32e21c3b64d1038047806b6f93ef4722a5fb82e3e93f11a8886ca6"

SRC_DIR = str(Path(dirichlet_ring.__file__).resolve().parent.parent)


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_cli_subprocess(*argv, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
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


def test_gen_float_conversion_and_refusal():
    code, out = run_cli("gen", "mobius", "--n", "3", "--mode", "float", "--format", "csv")
    assert code == 0
    assert out == "1.0,-1.0,-1.0\n"
    code, _ = run_cli("gen", "mangoldt", "--n", "3", "--mode", "exact")
    assert code == 1


def test_gen_env_window_override():
    result = run_cli_subprocess(
        "gen", "unit_u", "--format", "csv", env_extra={"DIRICHLET_N": "5"}
    )
    assert result.returncode == 0
    assert result.stdout == b"1,1,1,1,1\n"


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


def test_ideal_chain_command_table_and_dot():
    code, out = run_cli("ideal", "chain", "P_ascending", "--length", "3", "--n", "64",
                        "--format", "table")
    assert code == 0
    assert "P_2 < P_6  (separator delta_3)" in out
    code, out = run_cli("chain", "K_ascending", "--length", "3", "--n", "64", "--dot")
    assert code == 0
    assert out.startswith("digraph chain {")
    assert '"K_1" -> "K_2" [label="delta_2"];' in out


def test_ideal_probe_command():
    code, out = run_cli("ideal", "probe", "K:3", "--trials", "0", "--n", "32")
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "non_member"
    assert len(obj["witness_pair"]) == 2
    code, out = run_cli("ideal", "probe", "P:6", "--trials", "25", "--seed", "5",
                        "--n", "32")
    assert json.loads(out)["verdict"] == "undecided_at_truncation"


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


@pytest.mark.parametrize("payload", BAD_SEQUENCES.values(), ids=BAD_SEQUENCES.keys())
def test_malformed_sequence_file_is_a_one_line_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    _assert_one_line_error(capsys, main(["norm", str(path)]))


@pytest.mark.parametrize("argv", [
    ["gen", "unit_u", "--n", "0"],
    ["verify-paper", "--n", "0"],
    ["ideal", "probe", "K:3", "--trials", "0", "--n", "0"],
])
def test_zero_window_is_a_one_line_error(capsys, argv):
    _assert_one_line_error(capsys, main(argv))


def test_negative_trial_count_is_a_one_line_error(capsys):
    _assert_one_line_error(capsys, main(["ideal", "probe", "P:6", "--trials", "-1", "--n", "16"]))


@pytest.mark.parametrize("raw", ["0", "abc"])
def test_bad_env_window_is_a_one_line_error(capsys, monkeypatch, raw):
    monkeypatch.setenv("DIRICHLET_N", raw)
    _assert_one_line_error(capsys, main(["gen", "unit_u"]))


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
