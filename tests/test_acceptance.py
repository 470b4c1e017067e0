"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
All equalities are exact unless a float tolerance is called out.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from dirichlet_ring import (MEMBER, NON_MEMBER, ArithFunc, EXACT, IdealSpec, NonUnitError,
                            NotDivisibleWitness, chain, check_nonprime_norm_product, classify,
                            decompose_coprime_vanishing, delta, identity, indicator_shift, member,
                            principal_quotient, try_divide)
from dirichlet_ring.sampling import (random_func, random_in_ideal, random_non_unit, random_nonzero,
                                     random_scalar, random_with_norm)
from dirichlet_ring.structure import (CERT_COMPOSITE_NEXT, CERT_PRIME_NORM,
                                      certified_atom_factor_search, nonunit_product_profiles)
from dirichlet_ring.zoo import euler_phi, generate, mobius, natural, p_adic_valuation, ramanujan_tau, unit

from conftest import run_cli_subprocess
from oracles import ZOO_SCANS, nu_p_scan, rank_over_q, tau_eta_product


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_01_ring_axioms():
    with criterion(1, "ring axioms on 200 random exact triples at window 64"):
        start = time.monotonic()
        rng = random.Random(101)
        n = 64
        e = identity(n)
        for _ in range(200):
            f, g, h = (random_func(rng, n) for _ in range(3))
            fg = f * g
            assert fg == g * f
            assert (fg) * h == f * (g * h)
            assert f * (g + h) == fg + f * h
            assert e * f == f
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_02_invertibility_criterion():
    with criterion(2, "invert succeeds exactly when f(1) != 0, window 128"):
        rng = random.Random(202)
        n = 128
        e = identity(n)
        units = non_units = 0
        for _ in range(100):
            f = random_nonzero(rng, n)
            if f(1):
                assert f * f.invert() == e
                units += 1
            else:
                try:
                    f.invert()
                except NonUnitError:
                    non_units += 1
                else:
                    raise AssertionError("inverted a non-unit")
        assert units + non_units == 100 and units > 0 and non_units > 0


def test_criterion_03_norm_homomorphism():
    with criterion(3, "norm multiplies over 200 random pairs at window 256"):
        rng = random.Random(303)
        n = 256
        assert identity(n).norm() == 1
        for _ in range(200):
            i = rng.randint(1, 16)
            j = rng.randint(1, n // i)
            f = random_with_norm(rng, n, i)
            g = random_with_norm(rng, n, j)
            assert (f * g).norm() == i * j


def test_criterion_04_chains_with_separators():
    with criterion(4, "I, K, P, J chains of the stated lengths at window 64"):
        n = 64
        for family, length in (
            ("I_descending", 8),
            ("K_ascending", 8),
            ("P_ascending", 5),
            ("J_descending", 5),
        ):
            report = chain(family, length, n)
            assert len(report.specs) == length
            assert len(report.links) == length - 1
            for link in report.links:
                separator = delta(int(link.separator_label.removeprefix("delta_")), n)
                assert member(link.larger, separator).verdict == MEMBER
                assert member(link.smaller, separator).verdict == NON_MEMBER


def test_criterion_05_principal_quotient_round_trip():
    with criterion(5, "quotient/reconvolve round-trip in P_2, P_3, P_5 at window 210"):
        rng = random.Random(505)
        n = 210
        for p in (2, 3, 5):
            spec = IdealSpec.coprime_vanishing(p)
            for _ in range(50):
                f = random_in_ideal(rng, spec, n)
                g = principal_quotient(p, f)
                assert indicator_shift(p, g, n) == f


def test_criterion_06_decomposition():
    with criterion(6, "decomposition over prime indicators for m = 6, 12, 30"):
        rng = random.Random(606)
        for m in (6, 12, 30):
            n = 2 * m * m
            spec = IdealSpec.coprime_vanishing(m)
            for _ in range(50):
                f = random_in_ideal(rng, spec, n)
                dec = decompose_coprime_vanishing(m, f)
                assert dec.reconstruction() == f
            qs = dec.generator_points
            rows = [[gen(q) for q in qs] for gen in dec.generators]
            assert rank_over_q(rows) == len(qs)


def test_criterion_07_not_bezout():
    with criterion(7, "no single sampled element generates both delta_2 and delta_3"):
        rng = random.Random(707)
        n = 64
        d2, d3 = delta(2, n), delta(3, n)
        p6 = IdealSpec.coprime_vanishing(6)
        assert member(p6, d2).verdict == MEMBER
        assert member(p6, d3).verdict == MEMBER
        # P_6 is proper: delta_5 lies outside it
        assert member(p6, delta(5, n)).verdict == NON_MEMBER
        candidates = [random_nonzero(rng, n) for _ in range(500)]
        candidates += [delta(i, n) for i in range(1, n + 1)]
        units_rejected = 0
        for g in candidates:
            if g(1):
                units_rejected += 1
                continue
            first = try_divide(d2, g)
            second = try_divide(d3, g)
            assert isinstance(first, NotDivisibleWitness) or isinstance(
                second, NotDivisibleWitness
            )
        assert units_rejected > 0


def test_criterion_08_prime_tail_not_prime():
    with criterion(8, "the all-ones-from-2 pair refutes primality of K_1, K_2, K_3"):
        n = 64
        f = ArithFunc([0] + [1] * (n - 1))
        product = f * f
        for t in (1, 2, 3):
            spec = IdealSpec.prime_tail(t)
            assert member(spec, f).verdict == NON_MEMBER
            assert member(spec, product).verdict == MEMBER


def test_criterion_09_semiprime_family():
    with criterion(9, "P_{6,1}: indicator witness, boundary cases, and 20 power chains "
                      "each in P_{6,1} and P_{30,2}"):
        n = 64
        spec = IdealSpec.gcd_count(6, 1)
        d2, d3 = delta(2, n), delta(3, n)
        assert d2 * d3 == delta(6, n)
        assert member(spec, d2 * d3).verdict == MEMBER
        assert member(spec, d2).verdict == NON_MEMBER
        assert member(spec, d3).verdict == NON_MEMBER
        # powers of non-members stay outside, failing first at n0^r
        rng = random.Random(909)
        window = 512
        starts = [1, 2, 3, 4, 5, 7, 8]
        for semiprime in (spec, IdealSpec.gcd_count(30, 2)):
            for trial in range(20):
                n0 = starts[trial % len(starts)]
                vals = [Fraction(0)] * (n0 - 1)
                vals.append(Fraction(rng.choice((1, 2, 3))))
                vals.extend(random_scalar(rng) for _ in range(window - n0))
                f = ArithFunc(vals, EXACT)
                for r in range(1, 4):
                    w = member(semiprime, f.power(r))
                    assert w.verdict == NON_MEMBER and w.index == n0**r
        # boundary agreement on indicators
        base, k0, k2 = (
            IdealSpec.coprime_vanishing(6),
            IdealSpec.gcd_count(6, 0),
            IdealSpec.gcd_count(6, 2),
        )
        for idx in range(1, n + 1):
            d = delta(idx, n)
            assert member(k0, d).verdict == member(base, d).verdict
            assert member(k2, d).verdict == NON_MEMBER


def test_criterion_10_nonprime_norm_products():
    with criterion(10, "100 non-unit products vanish at every prime up to 128"):
        rng = random.Random(1010)
        n = 128
        for _ in range(100):
            f = random_non_unit(rng, n)
            g = random_non_unit(rng, n)
            assert check_nonprime_norm_product(f, g).verdict == MEMBER


def test_criterion_11_zoo_golden_values():
    with criterion(11, "generators match brute force to 1000; tau to 50; inversions"):
        ks = range(1, 1001)
        for tag, scan in ZOO_SCANS.items():
            assert [int(v) for v in generate(tag, 1000).values] == [scan(k) for k in ks], tag
        assert [int(v) for v in p_adic_valuation(2, 1000).values] == [nu_p_scan(2, k) for k in ks]
        assert [int(v) for v in ramanujan_tau(50).values] == tau_eta_product(50)
        assert mobius(256) == unit(256).invert()
        assert mobius(256) * natural(256) == euler_phi(256)


def test_criterion_12_atom_certificates():
    with criterion(12, "atoms of every norm 2..12 and exhaustive factor search"):
        start = time.monotonic()
        window = 13
        profiles = nonunit_product_profiles(window)
        for c in range(2, 13):
            if c in (2, 3, 5, 7, 11):
                f = delta(c, window)
                expected = CERT_PRIME_NORM
            else:
                f = delta(c, window) + delta(c + 1, window)
                expected = CERT_COMPOSITE_NEXT
            report = classify(f)
            assert report.norm == c
            assert report.atom_certificate == expected
            profile = tuple(int(v) for v in f.values)
            assert profile not in profiles
        # full enumeration at the configured bounds: support 12, norms <= 6
        assert certified_atom_factor_search() is None
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_13_cli_determinism():
    with criterion(13, "verify-paper --n 128 --seed 7 is byte-identical and green"):
        runs = [run_cli_subprocess("verify-paper", "--n", "128", "--seed", "7") for _ in range(2)]
        assert runs[0].returncode == 0 and runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # a real report came out
