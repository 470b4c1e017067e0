"""The property-verification suite behind the ``verify-paper`` command.

Each check exercises one mathematical statement about the convolution
ring at a finite window and is a deterministic function of (window,
seed), so two runs with the same arguments print byte-identical reports.
A failed check names the statement it was validating.

The checks sample narrow functions only, whose values share a
denominator of at most ``ring.SHARED_BITS`` bits.  The wide path of the
ring kernels, on numerator and denominator columns, is checked by the
test suite instead: by its comparisons with the independent evaluators
and by the pinned wide-kernel digests.  A wide sample here would slow
every run for a path the tests already cover.  Ideals are decided over the
whole window, not sampled: primality by ``ideals.window_prime``; equality,
inclusion and the chains' strict inclusions by ``ideals.first_difference``,
which compares the index sets on 1..n where members must vanish.

A detail line or failure message prints only values its check ran with:
a count is its loop's bound, an ideal its spec's label, an indicator
delta_k the k it was built from; so a changed parameter shows in the report.
"""

from __future__ import annotations

import random
from math import prod
from typing import NamedTuple

from . import ideals, sampling, structure, zoo
from .ideals import IdealSpec, chain, divisibility_depth, member, probe_prime, window_prime
from .ring import MEMBER, NON_MEMBER, NonUnitError, delta, dirichlet_product, identity, indicator_shift
from .structure import (
    CERT_COMPOSITE_NEXT,
    CERT_PRIME_NORM,
    certified_atom_factor_search,
    classify,
)

MIN_WINDOW = 64  # also the window of every check whose inputs do not scale with n


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class _Ctx:
    def __init__(self, n: int, seed: int, name: str):
        self.n = n
        self.seed = seed
        self.rng = random.Random(f"{seed}/{name}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# ring structure ----------------------------------------------------------


def _check_invertibility(ctx: _Ctx) -> str:
    e = identity(ctx.n)
    hits = {True: 0, False: 0}
    for _ in range(30):
        f = sampling.random_nonzero(ctx.rng, ctx.n)
        if f(1):
            _require(f.convolve(f.invert()) == e, "inverse round-trip broke")
            hits[True] += 1
        else:
            try:
                f.invert()
            except NonUnitError:
                hits[False] += 1
            else:
                raise AssertionError("inverted an element with f(1) = 0")
    return f"{hits[True]} units inverted exactly, {hits[False]} non-units rejected"


def _check_units_group(ctx: _Ctx) -> str:
    verdict = structure.units_group_probe(12, ctx.seed, MIN_WINDOW)
    _require(verdict.verdict == MEMBER, verdict.note)
    return verdict.note


def _check_additive_nonunits(ctx: _Ctx) -> str:
    for _ in range(pairs := 8):
        f = sampling.random_additive(ctx.rng, ctx.n)
        g = sampling.random_additive(ctx.rng, ctx.n)
        _require(zoo.is_additive(f).is_member, "additive sample failed its own check")
        _require(zoo.is_additive(f + g).is_member, "sum of additives not additive")
        _require(zoo.is_additive(-f).is_member, "negation of additive not additive")
        if not f.is_zero():
            _require(classify(f).in_maximal, "an additive function came out a unit")
    return f"{pairs} sampled additive pairs: closed under +, -, all non-units"


def _check_local_dichotomy(ctx: _Ctx) -> str:
    for _ in range(samples := 20):
        f = sampling.random_nonzero(ctx.rng, ctx.n)
        report = classify(f)
        _require(report.is_unit == bool(f(1)), "classify's unit verdict differs from f(1) != 0")
        g = sampling.random_non_unit(ctx.rng, 2)  # g(1) = 0 and g(2) != 0
        h = sampling.random_unit(ctx.rng, 2)
        if not f(1):
            _require((f + g)(1) == 0, "maximal ideal not closed under +")
        _require((g * h)(1) == 0, "maximal ideal absorbed nothing")
        _require((g * h)(2) == g(2) * h(1) != 0, "a unit multiple collapsed a maximal-ideal element")
    return f"{samples} samples: dichotomy and maximal-ideal closure hold"


def _check_essential(ctx: _Ctx) -> str:
    for _ in range(samples := 10):
        f = sampling.random_nonzero(ctx.rng, ctx.n)
        w = structure.essential_witness(f)
        _require(not w.is_zero(), "witness vanished")
        _require(w(1) == 0, "witness escaped the maximal ideal")
    return f"{samples} nonzero samples each meet the maximal ideal inside their ideal"


def _check_norm_homomorphism(ctx: _Ctx) -> str:
    _require(identity(ctx.n).norm() == 1, "norm(e) != 1")
    for _ in range(pairs := 25):
        i = ctx.rng.randint(1, 12)
        j = ctx.rng.randint(1, max(1, ctx.n // i // 2))
        f = sampling.random_with_norm(ctx.rng, i * j, i)
        g = sampling.random_with_norm(ctx.rng, i * j, j)
        _require((f * g).norm() == i * j, f"norm broke at {i} * {j}")
    return f"norm(e) = 1 and {pairs} random pairs multiply norms exactly"


def _check_integral_domain(ctx: _Ctx) -> str:
    for _ in range(pairs := 20):
        i = ctx.rng.randint(1, 8)
        j = ctx.rng.randint(1, max(1, ctx.n // i // 2))
        f = sampling.random_with_norm(ctx.rng, i * j, i)
        g = sampling.random_with_norm(ctx.rng, i * j, j)
        _require(not (f * g).is_zero(), "zero divisor appeared in the window")
    return f"{pairs} nonzero pairs with visible norm product: products all nonzero"


def _idempotents(window: int) -> list[tuple[int, ...]]:
    """Every f with entries in {-1, 0, 1} and f * f = f on 1..window.

    Entry k of f * f reads f only at divisors of k, so the prefix of an
    idempotent on 1..k is itself idempotent at window k.  Growing the
    idempotent prefixes one index at a time therefore meets every
    idempotent among all 3**window candidates, while testing only three
    extensions of each prefix.
    """
    found = [()]
    for k in range(1, window + 1):
        longer = []
        for prefix in found:
            for v in (-1, 0, 1):
                t = prefix + (v,)
                if dirichlet_product(t, t, k, 0)[-1] == v:
                    longer.append(t)
        found = longer
    return found


def _check_no_idempotents(ctx: _Ctx) -> str:
    window = 8
    found = _idempotents(window)
    zero = (0,) * window
    e = (1,) + (0,) * (window - 1)
    _require(sorted(found) == sorted([zero, e]), f"unexpected idempotents: {found}")
    return f"exhaustive window-{window} search over {3 ** window} candidates: only 0 and e"


def _check_atoms_every_norm(ctx: _Ctx) -> str:
    window = 13
    for c in (norms := range(2, window)):  # the window holds c + 1 for every norm c
        f = delta(c, window) + delta(c + 1, window)
        report = classify(f)
        expected = CERT_PRIME_NORM if report.norm in (2, 3, 5, 7, 11) else CERT_COMPOSITE_NEXT
        _require(report.norm == c, f"constructed function has norm {report.norm}")
        _require(
            report.atom_certificate == expected,
            f"norm {c}: certificate {report.atom_certificate}, wanted {expected}",
        )
    counterexample = certified_atom_factor_search(window=10)
    _require(counterexample is None, f"certified atom factored: {counterexample}")
    return (f"certificates fire for every norm {norms[0]}..{norms[-1]}; "
            "bounded search finds no factorization")


def _check_nonprime_norm_products(ctx: _Ctx) -> str:
    for _ in range(products := 15):
        f = sampling.random_non_unit(ctx.rng, ctx.n)
        g = sampling.random_non_unit(ctx.rng, ctx.n)
        verdict = structure.check_nonprime_norm_product(f, g)
        _require(verdict.verdict == MEMBER, verdict.note)
    return f"{products} non-unit products vanish at every prime index in the window"


# chains -------------------------------------------------------------------


def _check_descending_norm_chain(ctx: _Ctx) -> str:
    report = chain("I_descending", 8, ctx.n)
    return f"{_ends(report)} strictly descend; separators {_sep_labels(report)}"


def _check_ascending_prime_tail_chain(ctx: _Ctx) -> str:
    report = chain("K_ascending", 8, ctx.n)
    return f"{_ends(report)} strictly ascend; separators {_sep_labels(report)}"


def _ends(report) -> str:
    return f"{report.specs[0]} through {report.specs[-1]}"


def _sep_labels(report) -> str:
    return ", ".join(link.separator_label for link in report.links)


def _check_krull_chains(ctx: _Ctx) -> str:
    up = chain("P_ascending", 5, ctx.n)
    down = chain("J_descending", 5, ctx.n)
    for spec in up.specs + down.specs:  # a chain of primes, not just of ideals
        verdict = window_prime(spec, ctx.n)
        _require(verdict.is_member, f"chain member {spec} is not prime on the window: {verdict.note}")
    return f"{_ends(up)} ascend strictly; {_ends(down)} descend strictly"


# prime and semi-prime ideals ----------------------------------------------


def _check_prime_tail_not_prime(ctx: _Ctx) -> str:
    specs = [IdealSpec.prime_tail(t) for t in (1, 2, 3)]
    for spec in specs:
        verdict = probe_prime(spec, trials=0, seed=ctx.seed, window=ctx.n)
        _require(verdict.verdict == NON_MEMBER, f"no witness for the tail ideal {spec}")
        f, g = verdict.elements
        _require(f(1) == 0 and f(2) == 1, "unexpected witness shape")
    return f"the all-ones-from-2 witness refutes primality of {', '.join(map(str, specs))}"


def _check_coprime_ideal_prime(ctx: _Ctx) -> str:
    spec = IdealSpec.coprime_vanishing(6)
    verdict = window_prime(spec, ctx.n)
    _require(verdict.is_member, f"{spec} is not prime on the window: {verdict.note}")
    for _ in range(10):
        f, g = sampling.random_func(ctx.rng, ctx.n), sampling.random_func(ctx.rng, ctx.n)
        k1, k2 = member(spec, f).index, member(spec, g).index  # None for a member
        if k1 and k2 and (k := k1 * k2) <= ctx.n:  # (f * g)(k), summed over the divisors of k
            fg = sum(f(d) * g(k // d) for d in range(1, k + 1) if k % d == 0)
            _require(fg == f(k1) * g(k2), "product witness identity failed")
    return f"{spec}: {verdict.note}; product-witness identity holds"


def _check_principal_prime(ctx: _Ctx) -> str:
    specs = [IdealSpec.coprime_vanishing(p) for p in (2, 3, 5)]
    for spec in specs:
        for _ in range(draws := 6):
            f = sampling.random_in_ideal(ctx.rng, spec, ctx.n)
            q = ideals.principal_quotient(spec.m, f)
            back = indicator_shift(spec.m, q, ctx.n)
            _require(back == f, f"round-trip through the quotient failed at p = {spec.m}")
    return (f"{len(specs) * draws} members of {', '.join(map(str, specs))} "
            "reconvolve exactly from their quotients")


def _check_generator_count(ctx: _Ctx) -> str:
    specs = [IdealSpec.coprime_vanishing(m) for m in (6, 12)]
    for spec in specs:
        for _ in range(draws := 6):
            f = sampling.random_in_ideal(ctx.rng, spec, ctx.n)
            dec = ideals.decompose_coprime_vanishing(spec.m, f)
            _require(dec.reconstruction() == f, f"reconstruction failed for m = {spec.m}")
            qs = dec.generator_points
            basis = [[g(q) for q in qs] for g in dec.generators]
            expected = [[int(i == j) for j in range(len(qs))] for i in range(len(qs))]
            _require(basis == expected, "indicator evaluations are not the standard basis")
    return (f"{len(specs) * draws} members of {' and '.join(map(str, specs))} reconstruct exactly; "
            "evaluations give the standard basis")


def _check_not_bezout(ctx: _Ctx) -> str:
    d2, d3 = delta(2, MIN_WINDOW), delta(3, MIN_WINDOW)
    spec = IdealSpec.coprime_vanishing(6)
    _require(member(spec, d2).is_member and member(spec, d3).is_member, f"indicators not in {spec}")
    _require(not member(spec, delta(k := 5, MIN_WINDOW)).is_member, f"{spec} swallowed delta_{k}")
    gens = ideals.minimal_generators(spec, ctx.n)  # a basis of P_6 modulo the maximal ideal times P_6
    _require(gens == (2, 3), f"{spec} has minimal generators {gens} on 1..{ctx.n}")
    return f"delta_{gens[0]}, delta_{gens[1]} span {spec} / m{spec} on 1..{ctx.n}; delta_{k} is outside"


def _check_prime_products_ideal(ctx: _Ctx) -> str:
    allow = IdealSpec.prime_products((2, 3))
    verdict = window_prime(allow, ctx.n)
    _require(verdict.is_member, f"{allow} is not prime on the window: {verdict.note}")
    co = IdealSpec.prime_products(allow.primes, complement=True)
    same = IdealSpec.coprime_vanishing(prod(allow.primes))
    idx = ideals.first_difference(co, same, ctx.n)
    _require(idx is None, f"complement-mode J and {same} disagree on delta_{idx}")
    return f"{allow}: {verdict.note}; finite-complement J agrees with {same} on 1..{ctx.n}"


def _check_inclusion_chain(ctx: _Ctx) -> str:
    specs = [
        IdealSpec.coprime_vanishing(2),
        IdealSpec.coprime_vanishing(6),
        IdealSpec.prime_products((5, 7)),
        IdealSpec.prime_products((5,)),
    ]
    for small, large in zip(specs, specs[1:]):
        idx = ideals.first_difference(small, large, ctx.n, subset=True)
        _require(idx is None, f"{small} escaped {large} at delta_{idx}")
    return f"inclusions {' in '.join(map(str, specs))} hold on 1..{ctx.n}"


def _check_same_ideal_criterion(ctx: _Ctx) -> str:
    p6, p12, p10 = (IdealSpec.coprime_vanishing(m) for m in (6, 12, 10))
    idx = ideals.first_difference(p6, p12, ctx.n)
    _require(idx is None, f"{p6} and {p12} disagree on delta_{idx}")
    d = delta(k := 5, MIN_WINDOW)
    _require(member(p10, d).is_member and not member(p6, d).is_member,
             f"delta_{k} fails to separate {p10} from {p6}")
    return f"{p6} = {p12} on 1..{ctx.n}; delta_{k} separates {p10} from {p6}"


def _check_divisibility_depth(ctx: _Ctx) -> str:
    for top, bottom, r in ((8, 2, 3), (6, 2, 1)):
        _require(divisibility_depth(delta(top, ctx.n), delta(bottom, ctx.n)) == r,
                 f"depth of {top} over {bottom}")
    for _ in range(depths := 10):
        a = ctx.rng.randint(2, 4)
        b = ctx.rng.randint(2, ctx.n // 2)
        f = sampling.random_with_norm(ctx.rng, ctx.n, a)
        h = sampling.random_with_norm(ctx.rng, ctx.n, b)
        depth = divisibility_depth(h, f)
        _require(a**depth <= b, f"depth {depth} beats the norm bound for {a}, {b}")
    return f"indicator depths exact; {depths} random depths obey the norm-logarithm bound"


def _check_semiprime(ctx: _Ctx) -> str:
    spec = IdealSpec.gcd_count(6, 1)
    refuted = window_prime(spec, ctx.n)
    _require(refuted.pair == (2, 3), f"no delta_2, delta_3 witness that {spec} is not prime")
    f, g = refuted.elements
    _require(member(spec, f.convolve(g)).is_member, f"delta_2 * delta_3 lies outside {spec}")
    verdict = window_prime(spec, ctx.n, squares=True)
    _require(verdict.is_member, f"{spec} is not semi-prime on the window: {verdict.note}")
    for a in spec.constrained_indices(ctx.n):  # each delta_a outside with a^2 in the window
        if a * a > ctx.n:
            break
        d = delta(a, ctx.n)
        _require(member(spec, d.convolve(d)).index == a * a, f"delta_{a}^2 misses index {a * a}")
    return f"delta_2 * delta_3 lies in {spec}; {verdict.note}"


def _check_semiprime_boundaries(ctx: _Ctx) -> str:
    base = IdealSpec.coprime_vanishing(6)
    k0 = IdealSpec.gcd_count(base.m, 0)
    k_big = IdealSpec.gcd_count(base.m, 2)
    zero = IdealSpec.norm_floor(ctx.n + 1)  # constrains every index of 1..n
    idx = ideals.first_difference(k0, base, ctx.n)
    _require(idx is None, f"{k0} and {base} disagree on delta_{idx}")
    idx = ideals.first_difference(k_big, zero, ctx.n)
    _require(idx is None, f"{k_big} admitted delta_{idx}")
    return f"{k0} = {base} and {k_big} = 0 on 1..{ctx.n}"


# the function zoo ----------------------------------------------------------


def _check_zoo_invertibility(ctx: _Ctx) -> str:
    n, p = MIN_WINDOW, 2
    non_units = {tag: zoo.generate(tag, n)
                 for tag in ("big_omega", "distinct_prime_count", "mangoldt", "log")}
    non_units[f"nu_{p}"] = zoo.p_adic_valuation(p, n)
    units = {tag: zoo.generate(tag, n)
             for tag in ("mobius", "euler_phi", "liouville", "ramanujan_tau", "dedekind_psi")}
    for name, f in non_units.items():
        _require(not f(1), f"{name} should vanish at 1")
    for name, f in units.items():
        _require(bool(f(1)), f"{name} should not vanish at 1")
    return f"value at 1 separates the {len(non_units)} non-units from the {len(units)} units"


def _check_mobius_inversion(ctx: _Ctx) -> str:
    n = ctx.n
    _require(zoo.mobius(n) == zoo.unit(n).invert(), "mu is not the inverse of u")
    _require(zoo.mobius(n).convolve(zoo.natural(n)) == zoo.euler_phi(n), "mu * N differs from phi")
    return f"mu = u^-1 and mu * N = phi, exact on 1..{n}"


CHECKS = (
    ("f is invertible exactly when f(1) is nonzero", _check_invertibility),
    ("the units form an abelian group under convolution", _check_units_group),
    ("additive functions are non-units, closed under pointwise + and -", _check_additive_nonunits),
    ("the ring is local: nonzero elements split unit xor maximal", _check_local_dichotomy),
    ("the maximal ideal meets every nonzero principal ideal", _check_essential),
    ("the norm is a multiplicative monoid homomorphism", _check_norm_homomorphism),
    ("no zero divisors appear inside the window", _check_integral_domain),
    ("only 0 and e are idempotent (exhaustive small search)", _check_no_idempotents),
    ("atoms exist with every norm 2..12, by both certificates", _check_atoms_every_norm),
    ("a product of two non-units never has prime norm", _check_nonprime_norm_products),
    ("norm-threshold ideals I_n descend strictly without end", _check_descending_norm_chain),
    ("prime-tail ideals K_n ascend strictly without end", _check_ascending_prime_tail_chain),
    ("K_n is not prime: explicit witness pair", _check_prime_tail_not_prime),
    ("P_m is prime: every pair in the window checked", _check_coprime_ideal_prime),
    ("P_p at a prime is principal with indicator generator", _check_principal_prime),
    ("P_m decomposes over its k prime indicators", _check_generator_count),
    ("P_6 needs two generators: its minimal generators", _check_not_bezout),
    ("J_Q is prime and collapses to P_m for finite complements", _check_prime_products_ideal),
    ("inclusions P_p in P_m in J_Q in J_q", _check_inclusion_chain),
    ("P_m1 = P_m2 exactly when prime divisors coincide", _check_same_ideal_criterion),
    ("divisibility depth is bounded by the norm logarithm", _check_divisibility_depth),
    ("strict prime chains run arbitrarily far up and down", _check_krull_chains),
    ("P_{m,k} is semi-prime yet not prime for middle k", _check_semiprime),
    ("P_{m,0} = P_m and P_{m,k} vanishes once k covers m", _check_semiprime_boundaries),
    ("named functions split into units and non-units at 1", _check_zoo_invertibility),
    ("Moebius inversion: mu = u^-1 and phi = mu * N", _check_mobius_inversion),
)


def run_all(n: int, seed: int) -> list[CheckResult]:
    if n < MIN_WINDOW:
        raise ValueError(f"the verification suite needs a window of at least {MIN_WINDOW}")
    results = []
    for name, func in CHECKS:
        ctx = _Ctx(n, seed, name)
        try:
            detail = func(ctx)
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # one crashing check must not sink the report
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def render_report(results: list[CheckResult], n: int, seed: int) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"property verification at window {n}, seed {seed}", ""]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append("")
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
