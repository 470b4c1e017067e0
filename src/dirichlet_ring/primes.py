"""Prime utilities: a memoized trial-division factorizer for single
integers, and one smallest-prime-factor sieve, written by one slice
assignment per prime up to the square root of the window, that lists
the primes and builds multiplicative and additive functions on a whole
window from their prime-power values."""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt
from operator import not_
from typing import NamedTuple


class Factorization(NamedTuple):
    """Prime factorization of a positive integer, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent) pairs

    @property
    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(a == 1 for _, a in self.factors)


@lru_cache(maxsize=1024)  # callers factor single moduli and norms, never a whole window
def factorize(n: int) -> Factorization:
    """Canonical factorization by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError("only positive integers factorize")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def is_prime(n: int) -> bool:
    """Trial division by 2, then by odd p up to sqrt(n); a composite is
    answered at its least prime factor, never factored in full."""
    return n == 2 or n > 2 and n % 2 != 0 and all(n % p for p in range(3, isqrt(n) + 1, 2))


def nth_prime(k: int) -> int:
    """The k-th prime, counting from 2 as the first, read off a sieve
    whose bound doubles until it holds k primes."""
    if k < 1:
        raise ValueError("prime index starts at 1")
    limit = 16
    while len(ps := primes_upto(limit)) < k:
        limit *= 2
    return ps[k - 1]


def smallest_prime_factors(n: int) -> list[int]:
    """The list spf with spf[k] the least prime dividing k, for 2 <= k <= n.

    spf[0] = 0 and spf[1] = 1, so k is prime exactly when spf[k] == k >= 2.
    Each prime p <= sqrt(n), read off the sieve of sqrt(n), is written
    over its multiples from p*p by one slice assignment, in descending
    order of p, so the least prime of each k is written last.
    """
    spf = [0] * (n + 1)  # no int per index; first, so a window too large to hold fails here
    small = smallest_prime_factors(isqrt(n)) if n >= 4 else []
    for p in range(len(small) - 1, 1, -1):
        if small[p] == p:
            spf[p * p :: p] = [p] * ((n - p * p) // p + 1)
    for k in compress(range(n + 1), map(not_, spf)):  # 0, 1 and the primes
        spf[k] = k
    return spf


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, read off the sieve."""
    spf = smallest_prime_factors(limit)
    return [k for k in range(2, limit + 1) if spf[k] == k]


def prime_power_fold(n: int, at, combine, start) -> list:
    """Values at 1..n of the function that is ``start`` at 1 and
    ``combine(value at q, at(p, a))`` at k = p^a * q, p the least prime of k.

    ``mul`` from 1 gives a multiplicative function, ``add`` from 0 an
    additive one.  ``at(p, a)`` is called once per prime power, at
    k = p^a, so in ascending order of p^a; every other k reads the value
    at p^a, ``combine(start, at(p, a))``, which is ``at(p, a)`` itself
    when ``start`` is ``combine``'s identity.
    """
    spf = smallest_prime_factors(n)
    vals = [start] * n
    for k in range(2, n + 1):
        p = spf[k]
        q, a = k // p, 1
        while q % p == 0:
            q, a = q // p, a + 1
        vals[k - 1] = combine(vals[q - 1], at(p, a) if q == 1 else vals[k // q - 1])
    return vals
