"""Seeded random generation of exact truncated functions.

Entries are small rationals (numerator -3..3 over denominator 1..3) so
that convolutions stay cheap and every failure reproduces from the seed.
Every value drawn here is already a Fraction, so the samplers build their
functions with ``ArithFunc._raw`` and skip the per-entry coercion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import add

from .primes import prime_power_fold
from .ring import ArithFunc, EXACT

NUMERATOR_RANGE = (-3, 3)
DENOMINATOR_RANGE = (1, 3)

# every narrow scalar, keyed by its (numerator, denominator) draw
_NARROW = {
    (p, q): Fraction(p, q)
    for p in range(NUMERATOR_RANGE[0], NUMERATOR_RANGE[1] + 1)
    for q in range(DENOMINATOR_RANGE[0], DENOMINATOR_RANGE[1] + 1)
}


def random_scalar(rng: random.Random) -> Fraction:
    return _NARROW[rng.randint(*NUMERATOR_RANGE), rng.randint(*DENOMINATOR_RANGE)]


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


def random_in_ideal(rng: random.Random, spec, n: int) -> ArithFunc:
    """Random member: sample freely, then zero out the constrained indices."""
    vals = [random_scalar(rng) for _ in range(n)]
    for idx in spec.constrained_indices(n):
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
