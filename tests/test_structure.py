"""Element classification, atom certificates with their exhaustive
soundness search, norm facts about non-unit products, and the units
group."""

import itertools
import random
from fractions import Fraction
from operator import add

import pytest

from dirichlet_ring import (MEMBER, NON_MEMBER, EXACT, ArithFunc, ZeroFunctionError,
                            check_nonprime_norm_product, classify, delta, essential_witness,
                            identity, indicator_shift, units_group_probe, zeros, zoo)
from dirichlet_ring.primes import prime_power_fold
from dirichlet_ring.sampling import random_additive, random_non_unit, random_nonzero
from dirichlet_ring.structure import (ADDITIVE, CERT_COMPOSITE_NEXT, CERT_NONE, CERT_PRIME_NORM,
                                      COMPLETELY_ADDITIVE, NOT_ADDITIVE,
                                      certified_atom_factor_search, nonunit_product_profiles)
from dirichlet_ring.zoo import (FUNCTION_TAGS, big_omega, distinct_prime_count, generate,
                                is_additive, is_completely_additive, liouville, mangoldt, mobius)

from oracles import convolve_lists, is_prime_scan


def test_classify_mobius_is_a_unit():
    report = classify(mobius(32))
    assert report.is_unit and not report.in_maximal
    assert report.norm == 1
    assert report.atom_certificate == CERT_NONE


def test_classify_prime_indicator_is_an_atom():
    report = classify(delta(7, 16))
    assert not report.is_unit and report.in_maximal
    assert report.atom_certificate == CERT_PRIME_NORM


def test_classify_composite_norm_with_next_nonzero():
    f = ArithFunc([0, 0, 0, 1, 1, 0])
    report = classify(f)
    assert report.norm == 4
    assert report.atom_certificate == CERT_COMPOSITE_NEXT


def test_classify_composite_norm_without_next_is_undecided():
    assert classify(delta(4, 16)).atom_certificate == CERT_NONE


def test_classify_additive_classes():
    assert classify(big_omega(32)).additive_class == COMPLETELY_ADDITIVE
    assert classify(mangoldt(32)).additive_class == NOT_ADDITIVE
    # additive but not completely: the distinct-prime counter
    assert classify(distinct_prime_count(32)).additive_class == ADDITIVE


def _additive_class(f):
    """The class the two scans give, each run on its own."""
    if is_completely_additive(f).is_member:
        return COMPLETELY_ADDITIVE
    return ADDITIVE if is_additive(f).is_member else NOT_ADDITIVE


def _additive_samples(rng, n):
    """Additive, completely additive and perturbed functions on 1..n."""
    c = {p: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for p in range(2, n + 1)}
    complete = ArithFunc(prime_power_fold(n, lambda p, a: a * c[p], add, 0), EXACT)
    for f in (random_additive(rng, n), complete):
        yield f
        k = rng.randint(1, n)
        yield f + delta(k, n)


def test_classify_agrees_with_both_scans():
    rng = random.Random(12)
    cases = [generate(tag, 64, param) for tag in FUNCTION_TAGS
             for param in ((2, 3, 7) if tag in ("delta", "p_adic_valuation") else (None,))]
    cases += [f for _ in range(20) for f in _additive_samples(rng, rng.randint(1, 80))]
    for f in cases:
        if not f.is_zero():
            assert classify(f).additive_class == _additive_class(f), f


def test_completely_additive_input_costs_one_scan(monkeypatch):
    calls = []
    scan = zoo._scan_pairs
    monkeypatch.setattr(zoo, "_scan_pairs", lambda f, coprime_only: calls.append(coprime_only)
                        or scan(f, coprime_only))
    assert classify(big_omega(256)).additive_class == COMPLETELY_ADDITIVE
    assert calls == [False]


def test_classify_rejects_zero():
    with pytest.raises(ZeroFunctionError):
        classify(zeros(8))


def test_additive_implies_in_maximal():
    rng = random.Random(3)
    for _ in range(8):
        f = random_additive(rng, 48)
        if f.is_zero():
            continue
        report = classify(f)
        if report.additive_class in (ADDITIVE, COMPLETELY_ADDITIVE):
            assert report.in_maximal


def test_local_dichotomy_on_samples():
    rng = random.Random(8)
    for _ in range(30):
        f = random_nonzero(rng, 32)
        report = classify(f)
        assert report.is_unit != report.in_maximal
        assert report.is_unit == bool(f(1))


# non-prime norm products ----------------------------------------------------


def test_nonunit_product_norm_four():
    w = check_nonprime_norm_product(delta(2, 32), delta(2, 32))
    assert w.verdict == MEMBER
    assert (delta(2, 32) * delta(2, 32)).norm() == 4


def test_nonunit_products_vanish_at_primes():
    rng = random.Random(12)
    for _ in range(20):
        f = random_non_unit(rng, 128)
        g = random_non_unit(rng, 128)
        assert check_nonprime_norm_product(f, g).verdict == MEMBER


@pytest.mark.parametrize("shift", [None, 4, 5, 11])
@pytest.mark.parametrize("n", [1, 2, 3, 12, 64])
def test_nonprime_norm_product_agrees_with_a_prime_scan(monkeypatch, n, shift):
    # a shift adds 1 at that index of every product, so that the verdict
    # on a product nonzero at a prime, and its index, are compared too
    if shift is not None:
        monkeypatch.setattr(ArithFunc, "convolve", lambda a, b: CONVOLVE(a, b) + delta(shift, len(a)))
    rng = random.Random(n)
    for _ in range(25):
        f, g = random_non_unit(rng, n), random_non_unit(rng, n)
        if n == 1:  # the one non-unit on 1..1 is zero
            with pytest.raises(ZeroFunctionError):
                check_nonprime_norm_product(f, g)
            continue
        h = convolve_lists(list(f.values), list(g.values))
        if shift is not None and shift <= n:
            h[shift - 1] += 1
        p = next((p for p in range(1, n + 1) if is_prime_scan(p) and h[p - 1]), None)
        w = check_nonprime_norm_product(f, g)
        assert (w.verdict, w.index) == ((MEMBER, None) if p is None else (NON_MEMBER, p))


def test_nonprime_norm_product_rejects_units():
    with pytest.raises(ValueError):
        check_nonprime_norm_product(identity(8), delta(2, 8))
    with pytest.raises(ZeroFunctionError):
        check_nonprime_norm_product(zeros(8), delta(2, 8))


# units group -------------------------------------------------------------------


def test_units_group_probe_passes():
    assert units_group_probe(10, seed=4, window=32).verdict == MEMBER


CONVOLVE, INVERT = ArithFunc.convolve, ArithFunc.invert


def _product_vanishing_at_1(self, other):
    return zeros(len(self))


def _product_plus_delta_2_times_left(self, other):  # not symmetric in its operands
    return CONVOLVE(self, other) + indicator_shift(2, self, len(self))


def _invert_exact_only_once():
    calls = []

    def invert(self):  # the first inverse is exact, every later one is off at index 2
        calls.append(self)
        return INVERT(self) + (delta(2, len(self)) if len(calls) > 1 else zeros(len(self)))

    return invert


@pytest.mark.parametrize("method, fault, note", [
    ("convolve", lambda: _product_vanishing_at_1, "closure failed at index 1"),
    ("convolve", lambda: _product_plus_delta_2_times_left, "commutativity failed"),
    ("invert", _invert_exact_only_once, "inverse of a product failed"),
])
def test_units_group_probe_names_the_broken_law(monkeypatch, method, fault, note):
    monkeypatch.setattr(ArithFunc, method, fault())
    verdict = units_group_probe(10, seed=4, window=32)
    assert verdict.verdict == NON_MEMBER and verdict.note == note


@pytest.mark.parametrize("samples", [0, -4])
def test_units_group_probe_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        units_group_probe(samples, 0, 16)


def test_mobius_liouville_products_and_inverses():
    mu, lam = mobius(64), liouville(64)
    prod = mu * lam
    assert prod(1) != 0
    assert prod.invert() == lam.invert() * mu.invert()


def test_unit_value_products():
    f = ArithFunc([2, 0, 0])
    g = ArithFunc([Fraction(1, 3), 0, 0])
    assert (f * g)(1) == Fraction(2, 3)


# essential ideal ---------------------------------------------------------------


def test_essential_witness_meets_maximal_ideal():
    rng = random.Random(6)
    for _ in range(10):
        f = random_nonzero(rng, 24)
        w = essential_witness(f)
        assert not w.is_zero()
        assert w(1) == 0
        assert w.norm() == 2 * f.norm()
    with pytest.raises(ZeroFunctionError):
        essential_witness(zeros(8))


# exhaustive atom soundness -------------------------------------------------------


def test_product_profiles_match_direct_convolution():
    # the profile enumeration agrees with literal convolution of padded factors
    profiles = nonunit_product_profiles(8)
    rng = random.Random(44)
    for _ in range(50):
        g = [0, 0] + [rng.choice((-1, 0, 1)) for _ in range(3)] + [0, 0, 0]
        h = [0, 0] + [rng.choice((-1, 0, 1)) for _ in range(3)] + [0, 0, 0]
        g[1] = rng.choice((-1, 0, 1))
        h[1] = rng.choice((-1, 0, 1))
        if not any(g) or not any(h):
            continue
        assert tuple(convolve_lists(g, h)) in profiles


@pytest.mark.parametrize("window", range(1, 10))
def test_product_profiles_are_every_product_of_two_bounded_non_units(window):
    # the enumeration multiplies only factors with a positive first entry
    # and adds the negations; this is every unordered pair, multiplied
    top = window // 2
    factors = [(0,) + vals + (0,) * (window - top)
               for vals in itertools.product((-1, 0, 1), repeat=max(top - 1, 0)) if any(vals)]
    expected = {tuple(convolve_lists(list(g), list(h)))
                for g, h in itertools.combinations_with_replacement(factors, 2)}
    assert nonunit_product_profiles(window) == expected


def test_no_certified_atom_factors_at_reduced_bounds():
    assert certified_atom_factor_search(window=9) is None


def test_certified_atoms_really_resist_the_search():
    # spot-check: a certified atom profile is never a non-unit product
    profiles = nonunit_product_profiles(12)
    atom = tuple([0, 0, 0, 1, 1] + [0] * 7)  # norm 4, next index nonzero
    assert atom not in profiles
    prime_atom = tuple([0, 0, 1] + [0] * 9)  # norm 3
    assert prime_atom not in profiles
