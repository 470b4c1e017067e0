"""Seeded random generation of exact truncated functions.

Entries are small rationals (numerator -3..3 over denominator 1..3) so
that convolutions stay cheap and every failure reproduces from the seed.
``random_scalar`` draws one entry as two rejection samples on
``rng.getrandbits``: 3 bits until the value is below 7 for the numerator,
then 2 bits until it is below 3 for the denominator.  That is how
CPython's ``randint(-3, 3)`` and ``randint(1, 3)`` draw, so the values and
the generator's final state are those of the two ``randint`` calls.
Every value drawn here is already a Fraction, so the samplers build their
functions with ``ArithFunc._raw`` and skip the per-entry coercion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from operator import add

from .primes import prime_power_fold
from .ring import ArithFunc, EXACT

# every narrow scalar, indexed by its two draws: _NARROW[i][j] = (i - 3) / (j + 1)
_NARROW = tuple(tuple(Fraction(i - 3, j + 1) for j in range(3)) for i in range(7))


def random_scalar(rng: random.Random) -> Fraction:
    bits = rng.getrandbits
    i = bits(3)
    while i == 7:
        i = bits(3)
    j = bits(2)
    while j == 3:
        j = bits(2)
    return _NARROW[i][j]


def random_func(rng: random.Random, n: int) -> ArithFunc:
    return ArithFunc._raw(tuple(random_scalar(rng) for _ in range(n)), EXACT)


def random_nonzero(rng: random.Random, n: int) -> ArithFunc:
    vals = [random_scalar(rng) for _ in range(n)]
    if not any(vals):
        vals[rng.randrange(n)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return ArithFunc._raw(tuple(vals), EXACT)


def random_unit(rng: random.Random, n: int) -> ArithFunc:
    """Random function with a nonzero value at 1."""
    vals = [random_scalar(rng) for _ in range(n)]
    while not vals[0]:
        vals[0] = random_scalar(rng)
    return ArithFunc._raw(tuple(vals), EXACT)


def random_non_unit(rng: random.Random, n: int) -> ArithFunc:
    """Random nonzero function vanishing at 1."""
    vals = [random_scalar(rng) for _ in range(n)]
    vals[0] = Fraction(0)
    if n > 1 and not any(vals):
        vals[1 + rng.randrange(n - 1)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return ArithFunc._raw(tuple(vals), EXACT)


def random_with_norm(rng: random.Random, n: int, norm: int) -> ArithFunc:
    """Random function whose first nonzero value sits exactly at ``norm``."""
    if not 1 <= norm <= n:
        raise ValueError(f"norm {norm} must lie in the window 1..{n}")
    vals = [Fraction(0)] * (norm - 1)
    vals.append(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    vals.extend(random_scalar(rng) for _ in range(n - norm))
    return ArithFunc._raw(tuple(vals), EXACT)


@lru_cache(maxsize=32)
def _constrained(spec, window: int) -> tuple[int, ...]:
    """``spec.constrained_indices(window)``, once per (spec, window).

    ``ideals.member``, the probes and ``random_in_ideal`` ask again and
    again for the same few families on the same window; the cache lives
    here because ``ideals`` imports this module.
    """
    return tuple(spec.constrained_indices(window))


def random_in_ideal(rng: random.Random, spec, n: int) -> ArithFunc:
    """Random member: sample freely, then zero out the constrained indices."""
    vals = [random_scalar(rng) for _ in range(n)]
    for idx in _constrained(spec, n):
        vals[idx - 1] = Fraction(0)
    return ArithFunc._raw(tuple(vals), EXACT)


def random_additive(rng: random.Random, n: int) -> ArithFunc:
    """Random additive function: one value per prime power, drawn the
    first time the fold reaches that prime power."""
    assigned: dict[tuple[int, int], Fraction] = {}

    def value_at(p: int, a: int) -> Fraction:
        if (p, a) not in assigned:
            assigned[(p, a)] = random_scalar(rng)
        return assigned[(p, a)]

    return ArithFunc._raw(tuple(prime_power_fold(n, value_at, add, Fraction(0))), EXACT)
