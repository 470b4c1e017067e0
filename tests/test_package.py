"""The package surface: the lazy export table, the modules a command
loads, and the contract of the named-tuple records."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys

import pytest

import dirichlet_ring
from dirichlet_ring import (ChainLink, ChainReport, Decomposition, ElementReport, Factorization,
                            IdealSpec, NotDivisibleWitness, Witness, chain, classify,
                            decompose_coprime_vanishing, delta, generate, probe_prime, try_divide)
from dirichlet_ring.verify import CheckResult
from dirichlet_ring import MEMBER, NON_MEMBER

from conftest import SRC_DIR

PINNED_EXPORTS = [
    "ArithFunc", "ChainLink", "ChainReport", "Decomposition", "EXACT", "ElementReport", "FLOAT",
    "FUNCTION_TAGS", "Factorization", "IdealSpec", "MEMBER", "ModeMismatchError", "NON_MEMBER",
    "NonUnitError", "NotDivisibleWitness", "NotInIdealError", "UNDECIDED", "WindowError", "Witness",
    "ZeroFunctionError", "chain", "check_nonprime_norm_product", "classify",
    "decompose_coprime_vanishing", "delta", "divisibility_depth", "essential_witness", "factorize",
    "generate", "identity", "indicator_shift", "is_additive", "is_completely_additive", "is_prime",
    "member", "nth_prime", "principal_quotient", "probe_prime", "try_divide", "units_group_probe",
    "window_prime", "zeros",
]


# the export table -------------------------------------------------------------


def test_exports_are_pinned():
    assert dirichlet_ring.__all__ == PINNED_EXPORTS
    assert len(set(PINNED_EXPORTS)) == 42


@pytest.mark.parametrize("name", PINNED_EXPORTS)
def test_export_is_the_defining_modules_object(name):
    value = getattr(dirichlet_ring, name)
    module = importlib.import_module(f"dirichlet_ring.{dirichlet_ring._EXPORTS[name]}")
    assert value is getattr(module, name)
    assert not dataclasses.is_dataclass(value)


def test_star_import_binds_every_export():
    scope = {}
    exec("from dirichlet_ring import *", scope)
    assert set(PINNED_EXPORTS) <= set(scope)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dirichlet_ring.no_such_name


def test_export_follows_a_patch_of_its_module(monkeypatch):
    from dirichlet_ring import primes

    monkeypatch.setattr(primes, "nth_prime", len)
    assert dirichlet_ring.nth_prime is len


def _modules_loaded_by(argv) -> set:
    """The modules a child process holds after ``cli.main(argv)``; with -S
    no site hooks run, so the list is the package's own doing."""
    script = (f"import json, sys\nfrom dirichlet_ring import cli\ncli.main({argv!r})\n"
              "print(json.dumps(sorted(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.decode().splitlines()[-1]))


def test_gen_loads_neither_verify_nor_structure():
    loaded = _modules_loaded_by(["gen", "mobius", "--n", "4"])
    assert "dirichlet_ring.zoo" in loaded
    assert not {"dirichlet_ring.verify", "dirichlet_ring.structure", "dataclasses"} & loaded


@pytest.mark.parametrize("command", ["gen", "norm", "classify", "ideal member"])
def test_gen_and_norm_load_no_ideal_code(tmp_path, command):
    path = tmp_path / "f.json"
    path.write_text('{"name": "f", "mode": "exact", "n": 2, "values": [["1", "1"], ["1", "2"]]}')
    argv = {"gen": ["gen", "mobius", "--n", "4"],
            "ideal member": ["ideal", "member", "P:6", str(path)]}.get(command, [command, str(path)])
    loaded = _modules_loaded_by(argv)
    assert "dirichlet_ring.seqfile" in loaded
    assert ("dirichlet_ring.ideals" in loaded) == (command == "ideal member")
    if command != "classify":  # structure samples units; ideals and the ring draw nothing
        assert "dirichlet_ring.sampling" not in loaded
    if command in ("norm", "ideal member"):  # the function tags are read by gen alone
        assert "dirichlet_ring.zoo" not in loaded
    if command == "norm":
        assert "dirichlet_ring.primes" not in loaded


# the records ----------------------------------------------------------------------


# how to build each record type; each test builds it twice from the same inputs
RECORDS = {
    Witness: lambda: probe_prime(IdealSpec.prime_tail(3), 64),
    NotDivisibleWitness: lambda: try_divide(delta(2, 8), delta(3, 8)),
    IdealSpec: lambda: IdealSpec.gcd_count(6, 1),
    Decomposition: lambda: decompose_coprime_vanishing(6, delta(6, 64)),
    ChainLink: lambda: chain("P_ascending", 3, 64).links[0],
    ChainReport: lambda: chain("J_descending", 3, 64),
    Factorization: lambda: Factorization(12, ((2, 2), (3, 1))),
    ElementReport: lambda: classify(delta(6, 64)),
    CheckResult: lambda: CheckResult("check", True, "detail"),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_record_is_a_value(kind):
    a, b = RECORDS[kind](), RECORDS[kind]()
    assert type(a) is kind and a is not b
    assert a == b and hash(a) == hash(b)
    assert a == tuple(getattr(a, field) for field in kind._fields)  # a plain tuple of its fields
    with pytest.raises(AttributeError):
        setattr(a, kind._fields[0], None)


def test_witness_equality_counts_its_elements():
    w = probe_prime(IdealSpec.prime_tail(3), 64)
    assert w.verdict == NON_MEMBER and w.elements
    assert w != w._replace(elements=())


def test_to_dict_output_is_unchanged():
    assert classify(generate("mobius", 32)).to_dict() == {
        "is_unit": True, "in_maximal": False, "norm": 1, "atom_certificate": "none",
        "additive_class": "not_additive",
    }
    assert Witness(NON_MEMBER, 5, (2, 3), "note", (delta(1, 4),)).to_dict() == {
        "verdict": NON_MEMBER, "index": 5, "pair": [2, 3], "note": "note",
    }
    assert Witness(MEMBER).to_dict() == {"verdict": MEMBER}


def test_constrained_indices_is_cached_per_spec_and_window():
    spec = IdealSpec.gcd_count(30, 1)
    spec.constrained_indices(97)
    hits = IdealSpec.constrained_indices.cache_info().hits
    assert IdealSpec.gcd_count(30, 1).constrained_indices(97) == spec.constrained_indices(97)
    assert IdealSpec.constrained_indices.cache_info().hits == hits + 2
