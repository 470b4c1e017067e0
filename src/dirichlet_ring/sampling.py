"""Seeded random generation of exact truncated functions.

Entries are small rationals (numerator -3..3 over denominator 1..3) so
that convolutions stay cheap and every failure reproduces from the seed.
Each entry is one uniform draw from the 21 (numerator, denominator)
pairs: ``_draws(rng, n)`` draws n of them with one ``rng.choices`` call,
and ``random_additive`` draws one with ``rng.choice`` per prime power, as
``primes.prime_power_fold`` reaches it.  Every such value is an integer
number of sixths, so the samplers build narrow functions from integers
over 6 and no entry becomes a Fraction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add

from .primes import prime_power_fold
from .ring import ArithFunc

# a narrow scalar times 6, one per pair: 6 * a / b for a in -3..3, b in 1..3
_NARROW = tuple(a * 6 // b for a in range(-3, 4) for b in (1, 2, 3))
_NONZERO = tuple(v for v in _NARROW if v)


def _draws(rng: random.Random, n: int) -> list[int]:
    """n narrow scalars times 6."""
    return rng.choices(_NARROW, k=n)


def _nonzero(rng: random.Random) -> int:
    """One nonzero narrow scalar times 6, uniform over the 18 nonzero pairs."""
    return rng.choice(_NONZERO)


def random_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_NARROW), 6)


def random_func(rng: random.Random, n: int) -> ArithFunc:
    return ArithFunc._of(_draws(rng, n), 6)


def random_nonzero(rng: random.Random, n: int) -> ArithFunc:
    vals = _draws(rng, n)
    if not any(vals):
        vals[rng.randrange(n)] = _nonzero(rng)
    return ArithFunc._of(vals, 6)


def random_unit(rng: random.Random, n: int) -> ArithFunc:
    """Random function with a nonzero value at 1."""
    vals = _draws(rng, n)
    vals[0] = vals[0] or _nonzero(rng)
    return ArithFunc._of(vals, 6)


def random_non_unit(rng: random.Random, n: int) -> ArithFunc:
    """Random function vanishing at 1, and nonzero when n > 1."""
    vals = _draws(rng, n)
    vals[0] = 0
    if n > 1 and not any(vals):
        vals[1 + rng.randrange(n - 1)] = _nonzero(rng)
    return ArithFunc._of(vals, 6)


def random_with_norm(rng: random.Random, n: int, norm: int) -> ArithFunc:
    """Random function whose first nonzero value sits exactly at ``norm``."""
    if not 1 <= norm <= n:
        raise ValueError(f"norm {norm} must lie in the window 1..{n}")
    vals = [0] * (norm - 1)
    vals.append(_nonzero(rng))
    vals.extend(_draws(rng, n - norm))
    return ArithFunc._of(vals, 6)


def random_in_ideal(rng: random.Random, spec, n: int) -> ArithFunc:
    """Random member: sample freely, then zero out the constrained indices,
    the tuple ``spec.constrained_indices(n)`` caches per (spec, window)."""
    vals = _draws(rng, n)
    for idx in spec.constrained_indices(n):
        vals[idx - 1] = 0
    return ArithFunc._of(vals, 6)


def random_additive(rng: random.Random, n: int) -> ArithFunc:
    """Random additive function: one entry per prime power, drawn through
    ``prime_power_fold`` as it reaches p^a, so in ascending order of p^a,
    and f(k) is the sum of the entries at the prime powers exactly dividing k."""
    return ArithFunc._of(prime_power_fold(n, lambda p, a: rng.choice(_NARROW), add, 0), 6)
