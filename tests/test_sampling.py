"""The narrow-scalar sampler against the two-``randint`` draw it replaces."""

import random
from fractions import Fraction

import pytest

from dirichlet_ring import primes
from dirichlet_ring.sampling import _draws, random_additive, random_non_unit, random_nonzero, random_scalar

from oracles import randint_scalar


def test_random_scalar_matches_two_randint_draws():
    # the sampler repeats randint's rejection on getrandbits, so both the
    # values and the generator's final state must agree with randint's
    ours, ref = random.Random(20240), random.Random(20240)
    assert [random_scalar(ours) for _ in range(200_000)] == [
        randint_scalar(ref) for _ in range(200_000)
    ]
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000])
def test_draws_match_n_pairs_of_randint_draws(n):
    for seed in range(50):
        ours, ref = random.Random(seed), random.Random(seed)
        assert [Fraction(k, 6) for k in _draws(ours, n)] == [randint_scalar(ref) for _ in range(n)]
        assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("sampler, n, seed, first", [(random_nonzero, 1, 9, 0), (random_non_unit, 2, 7, 1)])
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
def test_additive_sample_draws_one_randint_pair_per_prime_power(n):
    # one pair per prime power p^a <= n, in ascending order of p^a, then
    # f(k) is the sum over the p^a exactly dividing k: the values and the
    # generator's final state of drawing one entry as the fold reaches p^a
    parts = [_prime_power_parts(k) for k in range(1, n + 1)]
    powers = [k for k, ps in enumerate(parts, 1) if ps == [k]]
    for seed in range(30):
        ours, ref = random.Random(seed), random.Random(seed)
        at = {q: randint_scalar(ref) for q in powers}
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
