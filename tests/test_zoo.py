"""Function generators against independent brute-force evaluators, plus
the additivity oracles."""

import math
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ring import (MEMBER, NON_MEMBER, ArithFunc, FLOAT, IdealSpec, classify, delta,
                            generate, identity, is_additive, is_completely_additive, member, ring,
                            zoo)
from dirichlet_ring.primes import (factorize, is_prime, nth_prime, prime_power_fold, primes_upto,
                                   smallest_prime_factors)
from dirichlet_ring.sampling import random_additive
from dirichlet_ring.zoo import (big_omega, dedekind_psi, distinct_prime_count, euler_phi, liouville,
                                log_function, mangoldt, mobius, natural, p_adic_valuation,
                                ramanujan_tau, unit)

from conftest import traced_peak
from oracles import (ZOO_SCANS, additivity_pair_scan, is_prime_scan, least_prime_factor_scan,
                     nu_p_scan, prime_factors_scan, sigma_scan, sigma_sieve, tau_eta_product,
                     tau_sigma_recursion)

# factorization -------------------------------------------------------------


def test_factorize_invariants_small_range():
    # 1 factors as (), 12 as ((2, 2), (3, 1)) and the prime 97 as ((97, 1),)
    for n in range(1, 400):
        fac = factorize(n)
        assert fac.factors == tuple(prime_factors_scan(n))
        assert fac.distinct_primes == tuple(p for p, _ in prime_factors_scan(n))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime_matches_scan():
    for n in range(1, 200):
        assert is_prime(n) == is_prime_scan(n)
    assert not is_prime(2 * (10**18 + 3))
    for limit in (0, 1, 2, 3, 500):
        assert primes_upto(limit) == [k for k in range(limit + 1) if is_prime_scan(k)]
        spf = smallest_prime_factors(limit)
        assert len(spf) == limit + 1
        assert spf[2:] == [prime_factors_scan(k)[0][0] for k in range(2, limit + 1)]


def test_sieve_matches_the_least_divisor_scan():
    """Every window from 0 to 3000, and 65536: the sieve's slices, written
    from the largest prime down, leave each index its least prime."""
    least = [0, 1] + [least_prime_factor_scan(k) for k in range(2, 65537)]
    for n in [*range(3001), 65536]:
        assert smallest_prime_factors(n) == least[: n + 1], n
        assert primes_upto(n) == [k for k in range(2, n + 1) if least[k] == k], n


def test_sieve_makes_no_int_per_composite():
    """The sieve starts from zeros, so its peak is about its list and the
    largest slice: ``range(n + 1)`` made an int for every index above 256,
    about 2 MiB more at 65536."""
    n = 65536
    peak, spf = traced_peak(lambda: smallest_prime_factors(n))
    assert spf[-1] == 2 and spf[65521] == 65521
    assert peak < 3 * 8 * (n + 1)  # three times the list's pointer array


def test_nth_prime_sequence():
    assert [nth_prime(k) for k in range(1, 9)] == [2, 3, 5, 7, 11, 13, 17, 19]
    scanned = [k for k in range(2, 1300) if is_prime_scan(k)]
    assert [nth_prime(k) for k in range(1, 201)] == scanned[:200]
    with pytest.raises(ValueError):
        nth_prime(0)


# golden generator values ----------------------------------------------------


def test_identity_shape():
    assert [int(v) for v in identity(4).values] == [1, 0, 0, 0]


def test_tau_starts_at_one_minus_twentyfour():
    assert [int(v) for v in ramanujan_tau(2).values] == [1, -24]


def test_tau_against_schoolbook_expansion():
    # and against the divisor-sum recursion, the other independent evaluator
    for n in (1, 2, 3, 50, 300, 2048):
        tau = ramanujan_tau(n)
        assert tau._den == 1
        assert list(tau._values) == tau_eta_product(n) == tau_sigma_recursion(n)


def test_generators_match_scans_to_200():
    for n in (1, 2, 3, 6, 200, 1000):
        ks = range(1, n + 1)
        for tag, scan in ZOO_SCANS.items():
            assert [int(v) for v in generate(tag, n).values] == [scan(k) for k in ks], tag
        for p in (2, 3):
            assert [int(v) for v in p_adic_valuation(p, n).values] == [nu_p_scan(p, k) for k in ks]
        assert sigma_sieve(n) == [sigma_scan(k) for k in ks]


def test_mangoldt_values_and_norm():
    f = mangoldt(16)
    assert f.mode == FLOAT
    assert f(1) == 0.0
    assert f(2) == pytest.approx(math.log(2))
    assert f(6) == 0.0
    assert f(8) == pytest.approx(math.log(2))
    assert f(9) == pytest.approx(math.log(3))
    assert f.norm() == 2


def test_log_function_values():
    f = log_function(5)
    assert f(1) == 0.0
    assert f(4) == pytest.approx(math.log(4))


def test_delta_generalizes_to_any_support():
    f = generate("delta", 10, param=6)
    assert f == delta(6, 10)
    assert generate("delta", 4, param=6).is_zero()  # support beyond the window


def test_generate_registry_errors():
    with pytest.raises(ValueError):
        generate("no_such_tag", 8)
    with pytest.raises(ValueError):
        generate("p_adic_valuation", 8, param=6)  # 6 is not prime
    with pytest.raises(ValueError):
        generate("delta", 8, param=0)
    with pytest.raises(ValueError):
        generate("mobius", 8, param=3)  # no parameter expected
    with pytest.raises(ValueError):
        generate("delta", 8)  # parameter required


# invertibility split ---------------------------------------------------------


def test_invertibility_classification_of_the_zoo():
    n = 32
    for f in (big_omega(n), distinct_prime_count(n), mangoldt(n),
              p_adic_valuation(3, n), log_function(n)):
        assert not f(1)
    for f in (mobius(n), euler_phi(n), liouville(n), ramanujan_tau(n),
              dedekind_psi(n)):
        assert f(1)


# additivity -------------------------------------------------------------------


def test_big_omega_is_completely_additive():
    f = big_omega(64)
    assert is_additive(f).verdict == MEMBER
    assert is_completely_additive(f).verdict == MEMBER


def test_mangoldt_is_not_additive():
    w = is_additive(mangoldt(64))
    assert w.verdict == NON_MEMBER
    assert w.pair == (2, 3)  # log 6 = 0 but log 2 + log 3 is not


def test_identity_e_not_additive_at_one_one():
    w = is_additive(identity(8))
    assert w.verdict == NON_MEMBER
    assert w.pair == (1, 1)
    assert w.to_dict() == {"verdict": NON_MEMBER, "pair": [1, 1], "note": w.note}


def test_nonzero_f1_fails_at_one_one_without_lifting(monkeypatch):
    def no_lift(*args):
        raise AssertionError("f(1) != 0 decides the scan without the lift")

    monkeypatch.setattr(zoo, "_lift", no_lift)
    for check in (is_additive, is_completely_additive):
        w = check(natural(64))
        assert (w.verdict, w.pair) == (NON_MEMBER, (1, 1))


def test_distinct_prime_count_additive_but_not_completely():
    f = distinct_prime_count(64)
    assert is_additive(f).verdict == MEMBER
    w = is_completely_additive(f)
    assert w.verdict == NON_MEMBER
    assert w.pair == (2, 2)


def test_p_adic_valuation_completely_additive():
    assert is_completely_additive(p_adic_valuation(2, 64)).verdict == MEMBER


def test_zero_function_completely_additive():
    assert is_completely_additive(ArithFunc([0, 0, 0, 0])).verdict == MEMBER


def test_log_is_completely_additive_within_tolerance():
    assert is_completely_additive(log_function(256)).verdict == MEMBER


def test_sampled_additive_functions_form_a_group():
    rng = random.Random(42)
    for _ in range(6):
        f = random_additive(rng, 64)
        g = random_additive(rng, 64)
        assert is_additive(f).verdict == MEMBER
        assert is_additive(f + g).verdict == MEMBER
        assert is_additive(-f).verdict == MEMBER


# the 15 values of Fraction(-3..3, 1..3), simplest first, one draw each
scalars = st.sampled_from(sorted({Fraction(p, q) for p in range(-3, 4) for q in (1, 2, 3)},
                                 key=lambda x: (x.denominator, abs(x), x < 0)))
# three or more distinct denominators of half SHARED_BITS put the common
# denominator past it, where the scan compares the stored numerator/denominator
# columns
wide_scalars = st.builds(Fraction, st.integers(-3, 3),
                         st.integers(2 ** (ring.SHARED_BITS // 2 - 1), 2 ** (ring.SHARED_BITS // 2)))
FACTORS = [prime_factors_scan(k) for k in range(1, 301)]  # FACTORS[k - 1] factors k


@st.composite
def additive_cases(draw):
    """An additive function on 1..n built from one value per prime power
    (completely additive: per prime, a * c_p at p^a), the values narrow or
    with denominators of half SHARED_BITS, maybe changed at one index."""
    n = draw(st.integers(1, 300))
    complete = draw(st.booleans())
    free = [k for k in range(2, n + 1)
            if len(FACTORS[k - 1]) == 1 and (FACTORS[k - 1][0][1] == 1 or not complete)]
    values = wide_scalars if draw(st.booleans()) else scalars
    c = dict(zip(free, draw(st.lists(values, min_size=len(free), max_size=len(free)))))
    vals = [
        sum((a * c[p] if complete else c[p**a] for p, a in FACTORS[k - 1]), Fraction(0))
        for k in range(1, n + 1)
    ]
    if draw(st.booleans()):
        vals[draw(st.integers(1, n)) - 1] += draw(scalars.filter(bool))
    return vals


@settings(max_examples=100, deadline=None)
@given(additive_cases())
def test_additivity_scan_matches_oracle_scan(vals):
    f = ArithFunc(vals)
    for check, coprime_only in ((is_additive, True), (is_completely_additive, False)):
        w = check(f)
        assert (w.verdict, w.pair, w.note) == additivity_pair_scan(vals, coprime_only)


def _perturbed_additive(form: str, at):
    """Omega weighted per prime on 1..300, narrow, wide (over a denominator
    past SHARED_BITS) or float, with its value at ``at`` moved by one half."""
    den = 2 ** (ring.SHARED_BITS + 8) + 1 if form == "wide" else 3
    vals = [sum((a * Fraction(p % 5 - 2, den) for p, a in prime_factors_scan(k)), Fraction(0))
            for k in range(1, 301)]
    if at is not None:
        vals[at - 1] += Fraction(1, 2)
    return ArithFunc(vals, FLOAT if form == "float" else None)


@pytest.mark.parametrize("at", [None, 1, 2, 36, 97, 210, 300])
@pytest.mark.parametrize("form", ["narrow", "wide", "float"])
def test_additivity_scan_returns_the_first_failing_pair(form, at):
    f = _perturbed_additive(form, at)
    assert isinstance(f._den, tuple) == (form == "wide")
    slack = zoo.FLOAT_SLACK if form == "float" else 0.0
    for check, coprime_only in ((is_additive, True), (is_completely_additive, False)):
        w = check(f)
        assert (w.verdict, w.pair, w.note) == additivity_pair_scan(list(f.values), coprime_only, slack)
        assert (w.verdict == "member") == (at is None)


@pytest.mark.parametrize("build", [log_function, mangoldt])
def test_float_additivity_is_the_tolerance_pair_scan(build):
    f = build(120)
    for check, coprime_only in ((is_additive, True), (is_completely_additive, False)):
        w = check(f)
        expected = additivity_pair_scan(list(f.values), coprime_only, slack=8 * 2.0**-53)
        assert (w.verdict, w.pair, w.note) == expected


@pytest.mark.parametrize("vals, additive_class", [
    ([0, 1e308, 1e308, 5], "additive"),
    ([0, 1e308, -1e308, 1e308, 0, 1], "additive"),
    ([0, 1e308, 1e308, 0, 0, 5], "not_additive"),
])
def test_float_additivity_fails_a_pair_whose_sum_overflows(vals, additive_class):
    # f(2) + f(2) overflows; compared on a quarter of each value, f(4) is
    # far from it, where inf > slack * inf would have passed the pair and
    # classify said completely_additive.  Only the last window has a
    # coprime pair, (2, 3), that fails
    f = ArithFunc(list(map(float, vals)))
    for check, coprime_only in ((is_additive, True), (is_completely_additive, False)):
        w = check(f)
        assert (w.verdict, w.pair, w.note) == additivity_pair_scan(vals, coprime_only, zoo.FLOAT_SLACK)
    assert is_completely_additive(f).pair == (2, 2)
    assert classify(f).additive_class == additive_class


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1024), st.floats(-6, 12))
def test_scaled_logs_are_completely_additive(n, exponent):
    # s*log(k) is completely additive for every s; roundoff in the stored
    # doubles must not refute it at any scale
    s = 10.0**exponent
    f = ArithFunc([s * math.log(k) for k in range(1, n + 1)])
    assert is_completely_additive(f).verdict == MEMBER
    assert is_additive(f).verdict == MEMBER


@pytest.mark.parametrize("scale, n", [(1000.0, 4096), (1e4, 4096), (1000.0, 256)])
def test_large_scaled_logs_stay_completely_additive(scale, n):
    # an absolute tolerance of 1e-12 refuted these at (2, 1491), (2, 3)
    # and (7, 14), and classify then said "additive"
    f = ArithFunc([scale * math.log(k) for k in range(1, n + 1)])
    assert is_completely_additive(f).verdict == MEMBER
    assert classify(f).additive_class == "completely_additive"


def test_float_zero_tests_read_the_stored_doubles():
    # mangoldt * u = log exactly, but the float convolution leaves roundoff
    # residues; norm and member look at the stored doubles, with no tolerance
    z = mangoldt(256) * unit(256).to_float() - log_function(256)
    assert z.mode == FLOAT and max(map(abs, z.values)) < 1e-15
    assert z.norm() == 10
    w = member(IdealSpec.coprime_vanishing(2), z)
    assert (w.verdict, w.index) == (NON_MEMBER, 33)


def test_prime_power_fold_calls_at_once_per_prime_power_in_ascending_order():
    calls = []
    n = 1000
    vals = prime_power_fold(n, lambda p, a: calls.append((p, a)) or p + a, add, 0)
    assert calls == [fs[0] for fs in map(prime_factors_scan, range(2, n + 1)) if len(fs) == 1]
    assert vals == [sum(p + a for p, a in prime_factors_scan(k)) for k in range(1, n + 1)]


# the classical inversion identities -------------------------------------------


def test_mobius_pair_at_256():
    assert mobius(256) == unit(256).invert()


def test_totient_identity_at_256():
    assert mobius(256).convolve(natural(256)) == euler_phi(256)


def test_tau_coefficients_are_integers():
    assert all(v.denominator == 1 for v in ramanujan_tau(64).values)
    assert ramanujan_tau(1)(1) == 1
