"""The three benchmark workloads: their inputs, their ops and the output checks.

Every input is made here from the workload seed, and every check uses the
evaluators in ``oracles``, never the kernels of the package under test.
An op is either a CLI command (``argv``, run as ``python -m dirichlet_ring``)
or a library call (``call``); ``check`` raises ``CheckError`` on a wrong
output.  CLI checks get the bytes written to stdout and to the ``--out``
file; library checks get the returned object.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracles import (
    CheckError,
    big_omega_at,
    check_convolution,
    check_inverse,
    check_tau,
    check_values,
    dirichlet_at,
    exact_value,
    factor_spf,
    mangoldt_at,
    mobius_at,
    phi_at,
    power_at,
    primes_from_spf,
    require,
    sample_indices,
    spf_sieve,
)


@dataclass
class Op:
    name: str
    check: Callable
    argv: list[str] | None = None
    out: Path | None = None
    call: Callable | None = None


@dataclass
class Workload:
    kind: str  # "cli" or "library"
    passes: list[list[Op]]  # the op mix, once per pass
    warmup: list[Op]
    # the ops whose recorded output the checker self-test may corrupt, and how
    flip_ops: tuple
    flip: Callable
    sizes: dict = field(default_factory=dict)


def _narrow(rng: random.Random) -> Fraction:
    """A narrow coefficient: numerator -3..3 over denominator 1..3."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _nonzero_narrow(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _convolve(f: list, g: list) -> list:
    """Truncated Dirichlet product, used only to build dividends."""
    n = min(len(f), len(g))
    out = [0 * f[0]] * n
    for i in range(1, n + 1):
        fi = f[i - 1]
        if fi:
            for j in range(1, n // i + 1):
                if g[j - 1]:
                    out[i * j - 1] += fi * g[j - 1]
    return out


def _pairs(values) -> list[list[str]]:
    return [[str(v.numerator), str(v.denominator)] for v in values]


def _write_seq(path: Path, name: str, values) -> None:
    obj = {"name": name, "mode": "exact", "n": len(values), "values": _pairs(values)}
    path.write_text(json.dumps(obj), encoding="utf-8")


def _exact_values(obj: dict, what: str) -> list[Fraction]:
    require(obj.get("mode") == "exact", f"{what}: mode is {obj.get('mode')!r}")
    try:
        return [Fraction(int(num), int(den)) for num, den in obj["values"]]
    except (TypeError, ValueError) as exc:
        raise CheckError(f"{what}: malformed exact values ({exc})") from None


def _json(data: bytes, what: str):
    try:
        return json.loads(data)
    except (ValueError, TypeError) as exc:
        raise CheckError(f"{what}: output is not JSON ({exc})") from None


# verify ---------------------------------------------------------------------

VERIFY_WINDOWS = (256, 256, 256, 1024)
VERIFY_CHECKS = 26


def _check_verify(n: int, seed: int):
    def check(stdout: bytes, out: bytes | None) -> None:
        lines = stdout.decode("utf-8", "replace").splitlines()
        require(bool(lines), "verify-paper printed nothing")
        header = f"property verification at window {n}, seed {seed}"
        require(lines[0] == header, f"verify-paper header is {lines[0]!r}")
        passed = sum(line.startswith("PASS  ") for line in lines)
        require(passed == VERIFY_CHECKS, f"{passed} PASS lines, expected {VERIFY_CHECKS}")
        final = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
        require(lines[-1] == final, f"verify-paper ended with {lines[-1]!r}")

    return check


def setup_verify(seed: int, work: Path, passes: int) -> Workload:
    # every pass repeats the same commands, so a pass after the first also
    # checks that verify-paper's report is byte-identical for the same seed
    rng = random.Random(f"verify/{seed}")
    ops = [Op(f"verify-paper n={n} seed={s}", _check_verify(n, s),
              argv=["verify-paper", "--n", str(n), "--seed", str(s)])
           for n, s in ((n, rng.randrange(1_000_000)) for n in VERIFY_WINDOWS)]
    warmup = [Op("verify-paper n=64", lambda stdout, out: None, argv=["verify-paper", "--n", "64"])]
    flip = lambda raw: raw._replace(  # noqa: E731
        stdout=raw.stdout.replace(b"26/26 checks passed", b"25/26 checks passed"))
    return Workload("cli", [ops] * passes, warmup, tuple(op.name for op in ops), flip,
                    {"n": list(VERIFY_WINDOWS)})


# kernels --------------------------------------------------------------------

KERNEL_N = 4096
POWER_R = 8


def _kernel_ops(seed: int, n: int) -> list[Op]:
    from dirichlet_ring import ring
    from dirichlet_ring.ring import ArithFunc, NotDivisibleWitness

    # look try_divide up at call time, so a traced run sees the wrapped one
    def try_divide(h, f):
        return ring.try_divide(h, f)

    rng = random.Random(f"kernels/{seed}/{n}")
    spf = spf_sieve(n)
    fac = [[]] + [factor_spf(k, spf) for k in range(1, n + 1)]
    mu = [Fraction(mobius_at(fac[k])) for k in range(1, n + 1)]
    phi = [Fraction(phi_at(k, fac[k])) for k in range(1, n + 1)]
    nat = [Fraction(k) for k in range(1, n + 1)]
    one = [Fraction(1)] * n
    lam = [mangoldt_at(fac[k]) if k > 1 else 0.0 for k in range(1, n + 1)]
    log = [math.log(k) for k in range(1, n + 1)]

    # narrow random operands: f, g units; f2 has norm 2, so f2 * g + delta_k
    # at an odd k is divisible by f2 on every even index and nowhere else
    f = [_nonzero_narrow(rng)] + [_narrow(rng) for _ in range(n - 1)]
    g = [_nonzero_narrow(rng)] + [_narrow(rng) for _ in range(n - 1)]
    f2 = [Fraction(0), _nonzero_narrow(rng)] + [_narrow(rng) for _ in range(n - 2)]
    h = _convolve(f, g)
    k_narrow = rng.randrange(n // 2, n) | 1
    hw = _convolve(f2, g)
    hw[k_narrow - 1] += 1

    # wide operands: ~64-bit numerators over distinct ~32-bit denominators
    dens = rng.sample(range(1 << 31, 1 << 32), 3 * n)

    def wide(lo: int, hi: int, lead_zero: bool = False) -> list[Fraction]:
        vals = [Fraction(rng.getrandbits(64) - (1 << 63) or 1, d) for d in dens[lo:hi]]
        if lead_zero:
            vals[0] = Fraction(0)
        return vals

    a, b, a2 = wide(0, n), wide(n, 2 * n), wide(2 * n, 3 * n, lead_zero=True)
    c = _convolve(a, b)
    k_wide = rng.randrange(n // 2, n) | 1
    cw = _convolve(a2, b)
    cw[k_wide - 1] += 1

    F = {name: ArithFunc(vals) for name, vals in (
        ("mu", mu), ("N", nat), ("u", one), ("phi", phi), ("f", f), ("g", g),
        ("h", h), ("f2", f2), ("hw", hw), ("a", a), ("b", b), ("c", c),
        ("a2", a2), ("cw", cw), ("lam", lam), ("log", log))}
    F["u_float"] = ArithFunc([1.0] * n)
    idx = sample_indices(rng, n)

    def equals(expected, what):
        def check(r):
            require(isinstance(r, ArithFunc) and r.mode == "exact", f"{what}: not an exact function")
            require(list(r.values) == expected, f"{what}: differs from the expected values")
        return check

    def conv(x, y, what):
        return lambda r: check_convolution(r.values, x, y, idx, what)

    def inverse(x, what):
        return lambda r: check_inverse(r.values, x, idx, what)

    def witness(k, what):
        def check(r):
            require(isinstance(r, NotDivisibleWitness), f"{what}: expected a witness, got {type(r).__name__}")
            require(r.index == k, f"{what}: witness index {r.index}, expected {k}")
        return check

    def powered(x, r_, what):
        return lambda r: check_values(r.values, lambda k: power_at(x, r_, k), what, idx)

    def floats(expected, what):
        def check(r):
            require(r.mode == "float" and len(r.values) == n, f"{what}: not a float function on 1..{n}")
            check_values(r.values, expected, what, idx)
        return check

    mobius_float = [float(v) for v in mu]
    return [
        Op("narrow convolve mu*N", equals(phi, "mu*N = phi"), call=lambda: F["mu"].convolve(F["N"])),
        Op("narrow invert u", equals(mu, "u^-1 = mu"), call=lambda: F["u"].invert()),
        Op("narrow try_divide phi/mu", equals(nat, "phi/mu = N"), call=lambda: try_divide(F["phi"], F["mu"])),
        Op("narrow power N^4", powered(nat, 4, "N^4"), call=lambda: F["N"].power(4)),
        Op("narrow convolve f*g", conv(f, g, "f*g"), call=lambda: F["f"].convolve(F["g"])),
        Op("narrow invert f", inverse(f, "f^-1"), call=lambda: F["f"].invert()),
        Op("narrow try_divide quotient", equals(f, "(f*g)/g = f"), call=lambda: try_divide(F["h"], F["g"])),
        Op("narrow try_divide witness", witness(k_narrow, "narrow witness"), call=lambda: try_divide(F["hw"], F["f2"])),
        Op(f"narrow power f^{POWER_R}", powered(f, POWER_R, f"f^{POWER_R}"), call=lambda: F["f"].power(POWER_R)),
        Op("wide convolve a*b", conv(a, b, "wide a*b"), call=lambda: F["a"].convolve(F["b"])),
        Op("wide invert a", inverse(a, "wide a^-1"), call=lambda: F["a"].invert()),
        Op("wide try_divide quotient", equals(a, "(a*b)/b = a"), call=lambda: try_divide(F["c"], F["b"])),
        Op("wide try_divide witness", witness(k_wide, "wide witness"), call=lambda: try_divide(F["cw"], F["a2"])),
        Op("float convolve mangoldt*log", floats(lambda k: dirichlet_at(lam, log, k), "mangoldt*log"),
           call=lambda: F["lam"].convolve(F["log"])),
        Op("float invert u", floats(mobius_float, "float u^-1 = mu"), call=lambda: F["u_float"].invert()),
    ]


def setup_kernels(seed: int, work: Path, passes: int) -> Workload:
    ops = _kernel_ops(seed, KERNEL_N)
    # the warm-up runs the same op mix at a quarter of the window
    warmup = _kernel_ops(seed, KERNEL_N // 4)

    def flip(raw):
        vals = list(raw.output.values)
        vals[-1] += 1
        return raw._replace(output=type(raw.output)(vals))

    return Workload("library", [ops] * passes, warmup, (ops[0].name,), flip, {"n": KERNEL_N, "power_r": POWER_R})


# catalog ----------------------------------------------------------------------

GEN_N = 65536
TAU_N = 2048
SMALL_N = 16384
CHAIN_N = 4096
EXACT_TAGS = ("big_omega", "dedekind_psi", "distinct_prime_count", "euler_phi",
              "identity_e", "liouville", "mobius", "natural_N", "unit_u")
FLOAT_TAGS = ("log", "mangoldt")
MEMBER_SPECS = ("I:100", "maximal", "P:30", "P:30,1", "J:2,3", "J:~2,3", "K:300")
CHAIN_LENGTHS = {"P_ascending": 8, "J_descending": 8, "I_descending": 8, "K_ascending": 32}
PROBE_SPECS = ("K:3", "P:30,1")


def _constrained(spec: str, k: int, primes: set, tail_start: int) -> bool:
    """Whether members of the ideal ``spec`` must vanish at k."""
    if spec == "I:100":
        return k < 100
    if spec == "maximal":
        return k == 1
    if spec == "P:30":
        return not primes & {2, 3, 5}
    if spec == "P:30,1":
        return len(primes & {2, 3, 5}) <= 1
    if spec == "J:2,3":
        return primes <= {2, 3}
    if spec == "J:~2,3":
        return not primes & {2, 3}
    if spec == "K:300":
        return k == 1 or (primes == {k} and k >= tail_start)
    raise ValueError(spec)


def _chain_expected(family: str, length: int, plist: list[int]) -> dict:
    p = lambda i: plist[i - 1]  # noqa: E731  (the i-th prime)
    if family == "P_ascending":
        ms, m = [], 1
        for i in range(1, length + 1):
            m *= p(i)
            ms.append(m)
        specs = [f"P_{m}" for m in ms]
        links = [(specs[i], specs[i + 1], p(i + 2)) for i in range(length - 1)]
    elif family == "J_descending":
        specs = ["J_{" + ",".join(str(p(j)) for j in range(1, i + 1)) + "}" for i in range(1, length + 1)]
        links = [(specs[i + 1], specs[i], p(i + 2)) for i in range(length - 1)]
    elif family == "I_descending":
        specs = [f"I_{i}" for i in range(1, length + 1)]
        links = [(specs[i + 1], specs[i], i + 1) for i in range(length - 1)]
    else:
        specs = [f"K_{i}" for i in range(1, length + 1)]
        links = [(specs[i], specs[i + 1], p(i + 1)) for i in range(length - 1)]
    return {
        "family": family,
        "specs": specs,
        "links": [{"smaller": s, "larger": l, "separator": f"delta_{q}"} for s, l, q in links],
    }


def setup_catalog(seed: int, work: Path, passes: int) -> Workload:
    rng = random.Random(f"catalog/{seed}")
    files = work / "catalog"
    files.mkdir(parents=True, exist_ok=True)
    spf = spf_sieve(GEN_N)
    plist = primes_from_spf(spf)
    facs = [[]] + [factor_spf(k, spf) for k in range(1, GEN_N + 1)]
    ops: list[Op] = []

    def exact_list(tag: str, n: int) -> list[Fraction]:
        return [exact_value(tag, k, None, facs[k]) for k in range(1, n + 1)]

    # gen: every tag at 65536 to a file, tau at 2048 to stdout
    def gen_check(tag, param, path):
        name = tag if param is None else f"{tag}({param})"
        mode = "float" if tag in FLOAT_TAGS else "exact"

        def check(stdout, out):
            require(stdout == b"", f"gen {tag}: unexpected stdout")
            obj = _json(out, f"gen {tag}")
            require(obj.get("name") == name and obj.get("mode") == mode and obj.get("n") == GEN_N,
                    f"gen {tag}: header {obj.get('name')!r}, {obj.get('mode')!r}, {obj.get('n')!r}")
            values = obj.get("values")
            require(isinstance(values, list) and len(values) == GEN_N, f"gen {tag}: wrong value count")
            got = values if mode == "float" else _exact_values(obj, f"gen {tag}")
            check_values(got, lambda k: exact_value(tag, k, param, facs[k]), f"gen {tag}", range(1, GEN_N + 1))

        return check

    params = {"delta": rng.randint(1, GEN_N), "p_adic_valuation": rng.choice((2, 3, 5, 7, 11, 13))}
    for tag in EXACT_TAGS + FLOAT_TAGS + tuple(params):
        param = params.get(tag)
        out = files / f"gen_{tag}.json"
        argv = ["gen", tag, "--n", str(GEN_N), "--out", str(out)]
        if param is not None:
            argv[2:2] = ["--param", str(param)]
        ops.append(Op(f"gen {tag} n={GEN_N}", gen_check(tag, param, out), argv=argv, out=out))

    tau_rng = random.Random(rng.random())

    def tau_check(stdout, out):
        obj = _json(stdout, "gen ramanujan_tau")
        vals = _exact_values(obj, "gen ramanujan_tau")
        require(len(vals) == TAU_N and all(v.denominator == 1 for v in vals), "tau: not integral on the window")
        check_tau([int(v) for v in vals], random.Random(tau_rng.random()), spf)

    ops.append(Op(f"gen ramanujan_tau n={TAU_N}", tau_check, argv=["gen", "ramanujan_tau", "--n", str(TAU_N)]))

    # gen in csv and table format at 16384
    csv_tag, table_tag = rng.sample(("mobius", "euler_phi", "liouville", "dedekind_psi", "big_omega"), 2)
    csv_text = ",".join(str(v) for v in exact_list(csv_tag, SMALL_N)) + "\n"
    width = len(str(SMALL_N))
    table_text = "\n".join(
        [f"# {table_tag} (mode=exact, n={SMALL_N})"]
        + [f"{i:>{width}}  {v}" for i, v in enumerate(exact_list(table_tag, SMALL_N), start=1)]
    ) + "\n"

    def text_check(expected: str, what: str):
        def check(stdout, out):
            require(stdout.decode("utf-8", "replace") == expected, f"{what}: output differs")
        return check

    ops.append(Op(f"gen {csv_tag} csv n={SMALL_N}", text_check(csv_text, "csv"),
                  argv=["gen", csv_tag, "--n", str(SMALL_N), "--format", "csv"]))
    ops.append(Op(f"gen {table_tag} table n={SMALL_N}", text_check(table_text, "table"),
                  argv=["gen", table_tag, "--n", str(SMALL_N), "--format", "table"]))

    # norm of a function whose first nonzero value sits at a seeded index
    k0 = rng.randint(1, SMALL_N)
    norm_vals = [Fraction(0)] * (k0 - 1) + [_nonzero_narrow(rng)] + [_narrow(rng) for _ in range(SMALL_N - k0)]
    norm_file = files / "norm.json"
    _write_seq(norm_file, "norm_input", norm_vals)

    def json_check(expected, what: str):
        def check(stdout, out):
            got = _json(stdout, what)
            require(got == expected, f"{what}: got {got}, expected {expected}")
        return check

    norm_op = Op(f"norm n={SMALL_N}", json_check({"norm": k0}, "norm"), argv=["norm", str(norm_file)])
    ops.append(norm_op)

    # classify a random additive function and big_omega
    assigned: dict = {}
    additive = [
        sum((assigned.setdefault(pa, _narrow(rng)) for pa in facs[k]), start=Fraction(0))
        for k in range(1, SMALL_N + 1)
    ]
    additive_file = files / "additive.json"
    _write_seq(additive_file, "additive", additive)
    c = next(k for k, v in enumerate(additive, start=1) if v)
    if facs[c] == [(c, 1)]:
        cert = "prime_norm"
    elif c < SMALL_N and additive[c]:
        cert = "composite_norm_next_nonzero"
    else:
        cert = "none"
    complete = all(v == facs[k][0][1] * additive[facs[k][0][0] - 1]
                   for k, v in enumerate(additive, start=1) if len(facs[k]) == 1)
    expected_additive = {"is_unit": False, "in_maximal": True, "norm": c, "atom_certificate": cert,
                         "additive_class": "completely_additive" if complete else "additive"}
    ops.append(Op(f"classify additive n={SMALL_N}", json_check(expected_additive, "classify additive"),
                  argv=["classify", str(additive_file)]))
    omega_file = files / "big_omega.json"
    _write_seq(omega_file, "big_omega", [Fraction(big_omega_at(facs[k])) for k in range(1, GEN_N + 1)])
    expected_omega = {"is_unit": False, "in_maximal": True, "norm": 2, "atom_certificate": "prime_norm",
                      "additive_class": "completely_additive"}
    ops.append(Op(f"classify big_omega n={GEN_N}", json_check(expected_omega, "classify big_omega"),
                  argv=["classify", str(omega_file)]))

    # membership: one member per family, plus a P_30 non-member whose only
    # violation is the last constrained index, so every scan covers the window
    tail_start = plist[299]
    primes_of = [set()] + [{p for p, _ in facs[k]} for k in range(1, SMALL_N + 1)]

    def member_values(spec):
        vals = [_narrow(rng) for _ in range(SMALL_N)]
        cons = [k for k in range(1, SMALL_N + 1) if _constrained(spec, k, primes_of[k], tail_start)]
        for k in cons:
            vals[k - 1] = Fraction(0)
        return vals, cons

    members = {}
    for spec in MEMBER_SPECS:
        vals, cons = member_values(spec)
        path = files / f"member_{len(members)}.json"
        members[spec] = vals, path
        _write_seq(path, f"member_{spec}", vals)
        ops.append(Op(f"ideal member {spec} n={SMALL_N}", _member_check(spec, None),
                      argv=["ideal", "member", spec, str(path)]))
        if spec == "P:30":
            bad = list(vals)
            bad[cons[-1] - 1] = _nonzero_narrow(rng)
            path = files / "non_member.json"
            _write_seq(path, "non_member_P30", bad)
            ops.append(Op(f"ideal member {spec} non-member n={SMALL_N}", _member_check(spec, cons[-1]),
                          argv=["ideal", "member", spec, str(path)]))

    # quotient by delta_3 and decomposition over the primes of 30
    p3 = [_narrow(rng) if k % 3 == 0 else Fraction(0) for k in range(1, SMALL_N + 1)]
    p3_file = files / "member_P3.json"
    _write_seq(p3_file, "member_P3", p3)
    expected_quotient = {"name": "member_P3/delta_3", "mode": "exact", "n": SMALL_N // 3,
                         "values": _pairs(p3[3 * k - 1] for k in range(1, SMALL_N // 3 + 1))}

    def quotient_check(stdout, out):
        got = _json(stdout, "ideal quotient")
        require(got == expected_quotient, "ideal quotient: quotient differs from f(3k)")

    ops.append(Op(f"ideal quotient 3 n={SMALL_N}", quotient_check, argv=["ideal", "quotient", "3", str(p3_file)]))
    p30, p30_file = members["P:30"]

    def decompose_check(stdout, out):
        got = _json(stdout, "ideal decompose")
        require(got.get("m") == 30 and got.get("generator_points") == [2, 3, 5], "decompose: wrong generators")
        require(got.get("reconstruction_matches") is True, "decompose: reconstruction flag is not true")
        cofactors = [_exact_values(obj, "decompose cofactor") for obj in got.get("cofactors", [])]
        require(len(cofactors) == 3, "decompose: expected three cofactors")
        for k in range(1, SMALL_N + 1):
            total = sum((g[k // q - 1] for q, g in zip((2, 3, 5), cofactors)
                         if k % q == 0 and k // q <= len(g)), start=Fraction(0))
            require(total == p30[k - 1], f"decompose: sum of delta_q * g_q differs at {k}")

    ops.append(Op(f"ideal decompose 30 n={SMALL_N}", decompose_check, argv=["ideal", "decompose", "30", str(p30_file)]))

    # chains at 4096
    for family, length in CHAIN_LENGTHS.items():
        ops.append(Op(f"chain {family} length={length}",
                      json_check(_chain_expected(family, length, plist), f"chain {family}"),
                      argv=["chain", family, "--length", str(length), "--n", str(CHAIN_N)]))

    # primality probes with no random trials: the hand-built witness pairs
    zero, one = ["0", "1"], ["1", "1"]
    witnesses = {
        "K:3": ([zero] + [one] * (SMALL_N - 1),) * 2,
        "P:30,1": tuple([one if k == q else zero for k in range(1, SMALL_N + 1)] for q in (2, 3)),
    }
    for spec in PROBE_SPECS:
        ops.append(Op(f"ideal probe {spec} n={SMALL_N}", _probe_check(spec, witnesses[spec]),
                      argv=["ideal", "probe", spec, "--trials", "0", "--n", str(SMALL_N)]))

    warmup = [Op("norm warm-up", lambda stdout, out: None, argv=["norm", str(norm_file)])]

    def flip(raw):
        return raw._replace(stdout=json.dumps({"norm": k0 + 1}).encode())

    return Workload("cli", [ops] * passes, warmup, (norm_op.name,), flip,
                    {"gen_n": GEN_N, "tau_n": TAU_N, "small_n": SMALL_N, "chain_n": CHAIN_N})


def _member_check(spec: str, index: int | None):
    def check(stdout, out):
        got = _json(stdout, f"member {spec}")
        if index is None:
            require(got.get("verdict") == "member", f"member {spec}: verdict {got.get('verdict')!r}")
        else:
            require(got.get("verdict") == "non_member" and got.get("index") == index,
                    f"member {spec}: got {got.get('verdict')!r} at {got.get('index')!r}, expected non_member at {index}")

    return check


def _probe_check(spec: str, pair):
    def check(stdout, out):
        got = _json(stdout, f"probe {spec}")
        require(got.get("verdict") == "non_member", f"probe {spec}: verdict {got.get('verdict')!r}")
        elements = got.get("witness_pair") or []
        require([e.get("values") for e in elements] == list(pair), f"probe {spec}: unexpected witness pair")

    return check


SETUPS = {"verify": setup_verify, "kernels": setup_kernels, "catalog": setup_catalog}

# Seconds one pass took when the benchmark was defined, on the reference
# machine (2-vCPU Intel Xeon, Python 3.11).  A run makes
# round(seconds / PASS_SECONDS) passes, at least one, so two commits compared
# at the same --seconds do the same work.
PASS_SECONDS = {"verify": 10.5, "kernels": 4.0, "catalog": 31.0}
