"""Truncation commutes with the ring: a window-m result is the exact prefix
of the window-n one, bit for bit, for every stored form.

Operands are narrow (small denominators, stored as integers over one
denominator), wide (two ~40-bit denominators, stored as Fractions) or
float, on windows 1 <= m <= n <= 48.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ring import EXACT, FLOAT, ArithFunc, NotDivisibleWitness, ZeroFunctionError, try_divide
from dirichlet_ring.zoo import FUNCTION_TAGS, generate

MAX_N = 48
PARAMS = {"delta": (1, 2, 7, 48, 60), "p_adic_valuation": (2, 3, 5, 7)}

windows = st.tuples(st.integers(1, MAX_N), st.integers(1, MAX_N)).map(sorted)
seeds = st.integers(0, 2**32)
kinds = st.sampled_from([("narrow", "narrow"), ("narrow", "wide"), ("wide", "wide"),
                         ("float", "float")])
exact_kinds = st.sampled_from([("narrow", "narrow"), ("narrow", "wide"), ("wide", "narrow"),
                               ("wide", "wide")])


def operand(rng, n, kind, norm=1):
    """A function on 1..n that vanishes below ``norm`` and not at it.  A wide
    one has its two ~40-bit denominators at its first two nonzero entries,
    so it is wide on every window that holds both."""
    if kind == "float":
        vals = [rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(n)]
        zero, lead = 0.0, rng.uniform(0.5, 3) * rng.choice([-1, 1])
    else:
        d = rng.randrange(1 << 39, 1 << 40)
        dens = ((1,), (2, 3)) if kind == "narrow" else ((d,), (d + 1,))
        vals = [Fraction(rng.randint(-3, 3), rng.choice(dens[k % 2])) for k in range(n)]
        zero, lead = 0, Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice(dens[0]))
        if norm < n:
            vals[norm] = Fraction(rng.choice([-1, 1]), rng.choice(dens[1]))
    vals[:norm] = [zero] * (norm - 1) + [lead]
    return ArithFunc(vals[:n], FLOAT if kind == "float" else EXACT)


def bits(f):
    """The stored form, floats by their bit patterns (so -0.0 != 0.0)."""
    if f.mode == FLOAT:
        return FLOAT, tuple(v.hex() for v in f.values)
    return EXACT, f._den, f._values


def assert_prefix(small, large):
    assert bits(small) == bits(large.truncate(len(small)))


@settings(max_examples=120, deadline=None)
@given(windows, kinds, seeds)
def test_ring_operations_commute_with_truncation(mn, kind, seed):
    m, n = mn
    rng = random.Random(seed)
    f, g = operand(rng, n, kind[0]), operand(rng, n, kind[1], norm=rng.randint(1, 3))
    if kind[0] == "wide" and n > 1:
        assert f._den is None
    fm, gm = f.truncate(m), g.truncate(m)
    assert_prefix(fm + gm, f + g)
    assert_prefix(fm * gm, f * g)
    assert_prefix(gm * fm, g * f)
    assert_prefix(fm.invert(), f.invert())
    for r in range(6):
        assert_prefix(fm.power(r), f.power(r))


@settings(max_examples=30, deadline=None)
@given(windows)
def test_generators_commute_with_truncation(mn):
    m, n = mn
    for tag in FUNCTION_TAGS:
        for param in PARAMS.get(tag, (None,)):
            assert_prefix(generate(tag, m, param), generate(tag, n, param))


@settings(max_examples=150, deadline=None)
@given(windows, exact_kinds, seeds, st.integers(1, 4), st.integers(0, MAX_N))
def test_try_divide_keeps_prefixes(mn, kind, seed, a, k):
    """The quotient at m is a prefix of the one at n; a witness at n that
    lies in 1..m is the witness at m, and one past m leaves a quotient at m.
    The dividend is a multiple of f, moved off it at index k (0: not moved)."""
    m, n = mn
    rng = random.Random(seed)
    f = operand(rng, n, kind[0], norm=min(a, n))
    h = f * operand(rng, n, kind[1], norm=rng.randint(1, 2))
    if 1 <= k <= n:
        h = h + ArithFunc([Fraction(int(i == k), 3) for i in range(1, n + 1)])
    fm, hm = f.truncate(m), h.truncate(m)
    if fm.is_zero():
        with pytest.raises(ZeroFunctionError):
            try_divide(hm, fm)
        return
    at_n, at_m = try_divide(h, f), try_divide(hm, fm)
    if isinstance(at_n, NotDivisibleWitness) and at_n.index <= m:
        assert at_m == at_n
        return
    assert isinstance(at_m, ArithFunc) and len(at_m) == m // fm.norm()
    # f vanishes below its norm, so g on 1..m // a fixes f * g on 1..m
    assert fm * ArithFunc(list(at_m.values) + [0] * (m - len(at_m))) == hm
    if isinstance(at_n, ArithFunc):
        assert_prefix(at_m, at_n)
