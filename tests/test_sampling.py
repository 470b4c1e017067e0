"""The narrow-scalar samplers against draws built from ``choices`` and
``choice`` over the (numerator, denominator) pairs in ``oracles``."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from dirichlet_ring import primes, sampling
from dirichlet_ring.ideals import IdealSpec
from dirichlet_ring.sampling import (_draws, random_additive, random_func, random_in_ideal,
                                     random_non_unit, random_nonzero, random_scalar, random_unit,
                                     random_with_norm)

from oracles import NARROW_PAIRS, choice_scalar, choices_scalars


def test_narrow_values_are_the_21_pairs():
    assert Counter(Fraction(v, 6) for v in sampling._NARROW) == Counter(
        Fraction(a, b) for a, b in NARROW_PAIRS)


def test_random_scalar_matches_one_choice():
    ours, ref = random.Random(20240), random.Random(20240)
    assert [random_scalar(ours) for _ in range(200_000)] == [
        choice_scalar(ref) for _ in range(200_000)
    ]
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000])
def test_draws_match_one_choices_call(n):
    for seed in range(50):
        ours, ref = random.Random(seed), random.Random(seed)
        assert [Fraction(k, 6) for k in _draws(ours, n)] == choices_scalars(ref, n)
        assert ours.getstate() == ref.getstate()


def _nonzero_ref(rng, n):
    vals = choices_scalars(rng, n)
    if not any(vals):
        vals[rng.randrange(n)] = choice_scalar(rng, nonzero=True)
    return vals


def _unit_ref(rng, n):
    vals = choices_scalars(rng, n)
    vals[0] = vals[0] or choice_scalar(rng, nonzero=True)
    return vals


def _non_unit_ref(rng, n):
    vals = [0] + choices_scalars(rng, n)[1:]
    if n > 1 and not any(vals):
        vals[1 + rng.randrange(n - 1)] = choice_scalar(rng, nonzero=True)
    return vals


def _with_norm_ref(rng, n):
    norm = 1 + n // 2
    return [0] * (norm - 1) + [choice_scalar(rng, nonzero=True)] + choices_scalars(rng, n - norm)


def _in_p6_ref(rng, n):
    return [0 if gcd(k, 6) == 1 else v for k, v in enumerate(choices_scalars(rng, n), 1)]


@pytest.mark.parametrize("sampler, reference", [
    (random_func, choices_scalars),
    (random_nonzero, _nonzero_ref),
    (random_unit, _unit_ref),
    (random_non_unit, _non_unit_ref),
    (lambda rng, n: random_with_norm(rng, n, 1 + n // 2), _with_norm_ref),
    (lambda rng, n: random_in_ideal(rng, IdealSpec.coprime_vanishing(6), n), _in_p6_ref),
], ids=["func", "nonzero", "unit", "non_unit", "with_norm", "in_ideal"])
def test_samplers_match_the_choices_oracle(sampler, reference):
    # every sampler's values and the generator's final state, at windows
    # small enough that the all-zero patches are met
    for n in (1, 2, 3, 64):
        for seed in range(60):
            ours, ref = random.Random(seed), random.Random(seed)
            assert list(sampler(ours, n).values) == reference(ref, n), (n, seed)
            assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("sampler, n, seed, first", [(random_nonzero, 1, 9, 0), (random_non_unit, 2, 3, 1)])
def test_an_all_zero_draw_is_patched_nonzero(sampler, n, seed, first):
    # the seed draws zeros at every index from ``first`` on, the ones the
    # sampler may fill (a non-unit keeps f(1) = 0)
    assert not any(_draws(random.Random(seed), n)[first:])
    f = sampler(random.Random(seed), n)
    assert not f.is_zero() and not any(f.values[:first])


def _prime_power_parts(k):
    """The prime powers p^a exactly dividing k, by trial division."""
    parts, p = [], 2
    while k > 1:
        q = 1
        while k % p == 0:
            k, q = k // p, q * p
        if q > 1:
            parts.append(q)
        p += 1
    return parts


@pytest.mark.parametrize("n", [1, 2, 10, 64, 300, 1024])
def test_additive_sample_draws_one_choice_per_prime_power(n):
    # one draw per prime power p^a <= n, in ascending order of p^a, then
    # f(k) is the sum over the p^a exactly dividing k: the values and the
    # generator's final state of drawing one entry as the fold reaches p^a
    parts = [_prime_power_parts(k) for k in range(1, n + 1)]
    powers = [k for k, ps in enumerate(parts, 1) if ps == [k]]
    for seed in range(30):
        ours, ref = random.Random(seed), random.Random(seed)
        at = {q: choice_scalar(ref) for q in powers}
        expected = [sum((at[q] for q in ps), Fraction(0)) for ps in parts]
        assert list(random_additive(ours, n).values) == expected
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [2, 64, 300])
def test_additive_sample_sieves_the_window_once(n, monkeypatch):
    # the sampler folds through primes, whose sieve recurses on isqrt(n),
    # so count only the window's
    windows = []
    sieve = primes.smallest_prime_factors

    def counted(m):
        windows.append(m)
        return sieve(m)

    monkeypatch.setattr(primes, "smallest_prime_factors", counted)
    random_additive(random.Random(0), n)
    assert windows.count(n) == 1
