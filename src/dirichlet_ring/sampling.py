"""Seeded random generation of exact truncated functions.

Entries are small rationals (numerator -3..3 over denominator 1..3) so
that convolutions stay cheap and every failure reproduces from the seed.
Entries come from one loop, ``_draws(rng, n)``, which binds
``rng.getrandbits`` once and draws each entry as two rejection samples:
3 bits until the value is below 7 for the numerator, then 2 bits until
it is below 3 for the denominator.  That is how CPython's
``randint(-3, 3)`` and ``randint(1, 3)`` draw, so the values and the
generator's final state are those of n pairs of ``randint`` calls, and a
single entry is ``_draws(rng, 1)[0]`` at the same point of the stream:
``random_additive`` draws one that way per prime power, as
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

# a narrow scalar times 6, by its two draws: (i - 3) * 6 / (j + 1)
_NARROW = tuple(tuple((i - 3) * 6 // (j + 1) for j in range(3)) for i in range(7))


def _draws(rng: random.Random, n: int) -> list[int]:
    """n narrow scalars times 6, each as ``randint(-3, 3)`` over ``randint(1, 3)``."""
    bits = rng.getrandbits
    out = []
    append = out.append
    for _ in range(n):
        i = bits(3)
        while i == 7:
            i = bits(3)
        j = bits(2)
        while j == 3:
            j = bits(2)
        append(_NARROW[i][j])
    return out


def _nonzero(rng: random.Random) -> int:
    """One nonzero narrow scalar times 6: ``_draws(rng, 1)`` until nonzero."""
    v = _draws(rng, 1)[0]
    while not v:
        v = _draws(rng, 1)[0]
    return v


def random_scalar(rng: random.Random) -> Fraction:
    return Fraction(_draws(rng, 1)[0], 6)


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
    """Random nonzero function vanishing at 1."""
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
    return ArithFunc._of(prime_power_fold(n, lambda p, a: _draws(rng, 1)[0], add, 0), 6)
