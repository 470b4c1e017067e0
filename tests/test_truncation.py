"""Truncation commutes with the ring: a window-m result is the exact prefix
of the window-n one, bit for bit, for every stored form.  The verdicts
agree too: a membership violation or an atom certificate seen at m is
seen at n, and a primality probe never certifies.

Operands are narrow (small denominators, stored as integers over one
denominator), wide (two denominators of 20 bits past ``SHARED_BITS``,
stored as numerator and denominator columns) or
float, on windows 1 <= m <= n <= 48.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_ring import (EXACT, FLOAT, ArithFunc, IdealSpec, NotDivisibleWitness, WindowError,
                            ZeroFunctionError, classify, member, probe_prime, try_divide)
from dirichlet_ring.ideals import TAG_NORM_FLOOR
from dirichlet_ring.ring import SHARED_BITS
from dirichlet_ring.structure import CERT_NONE
from dirichlet_ring import NON_MEMBER, UNDECIDED
from dirichlet_ring.zoo import FUNCTION_TAGS, generate

MAX_N = 48
PARAMS = {"delta": (1, 2, 7, 48, 60), "p_adic_valuation": (2, 3, 5, 7)}

windows = st.tuples(st.integers(1, MAX_N), st.integers(1, MAX_N)).map(sorted)
seeds = st.integers(0, 2**32)
kinds = st.sampled_from([("narrow", "narrow"), ("narrow", "wide"), ("wide", "wide"),
                         ("float", "float")])
exact_kinds = st.sampled_from([("narrow", "narrow"), ("narrow", "wide"), ("wide", "narrow"),
                               ("wide", "wide")])
single_kinds = st.sampled_from(["narrow", "wide", "float"])
specs = st.sampled_from([
    IdealSpec.norm_floor(4), IdealSpec.maximal(), IdealSpec.coprime_vanishing(6),
    IdealSpec.coprime_vanishing(5), IdealSpec.gcd_count(30, 1), IdealSpec.prime_products((2, 3)),
    IdealSpec.prime_products((2, 3), complement=True), IdealSpec.prime_tail(3),
])


def operand(rng, n, kind, norm=1):
    """A function on 1..n that vanishes below ``norm`` and not at it.  A wide
    one has its two wide denominators at its first two nonzero entries, so
    it is wide on every window that holds both."""
    if kind == "float":
        vals = [rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(n)]
        zero, lead = 0.0, rng.uniform(0.5, 3) * rng.choice([-1, 1])
    else:
        d = rng.randrange(1 << (SHARED_BITS + 19), 1 << (SHARED_BITS + 20))
        dens = ((1,), (2, 3)) if kind == "narrow" else ((d,), (d + 1,))
        vals = [Fraction(rng.randint(-3, 3), rng.choice(dens[k % 2])) for k in range(n)]
        zero, lead = 0, Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice(dens[0]))
        if norm < n:
            vals[norm] = Fraction(rng.choice([-1, 1]), rng.choice(dens[1]))
    vals[:norm] = [zero] * (norm - 1) + [lead]
    return ArithFunc(vals[:n], FLOAT if kind == "float" else EXACT)


def sparse(rng, n, kind, density, norm=0):
    """``operand`` with each entry past ``norm`` kept with probability
    ``density``; with a norm, f still vanishes below it and not at it."""
    f = operand(rng, n, kind, norm=max(norm, 1))
    zero = 0.0 if kind == "float" else 0
    return ArithFunc([v if k <= norm or rng.random() < density else zero
                      for k, v in enumerate(f.values, start=1)], f.mode)


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
        assert isinstance(f._den, tuple)
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


@settings(max_examples=150, deadline=None)
@given(windows, specs, single_kinds, seeds, st.sampled_from([0.05, 0.2, 0.6]))
def test_member_first_violation_commutes_with_truncation(mn, spec, kind, seed, density):
    """The first violation at n, when it lies in 1..m, is the one at m, and
    with none in 1..m the window-m verdict is member.  Both windows read
    the one index-set cache, so a cache keyed without the window fails."""
    m, n = mn
    f = sparse(random.Random(seed), n, kind, density)
    fm = f.truncate(m)
    if spec.tag == TAG_NORM_FLOOR and spec.n > m + 1:
        with pytest.raises(WindowError):
            member(spec, fm)
        return
    at_m, at_n = member(spec, fm), member(spec, f)
    if not at_n.is_member and at_n.index <= m:
        assert at_m == at_n
    else:
        assert at_m.is_member


@settings(max_examples=100, deadline=None)
@given(st.integers(1, MAX_N), single_kinds, seeds, st.integers(1, 13), st.sampled_from([0.2, 0.6, 1.0]))
def test_classify_certificate_survives_a_longer_window(n, kind, seed, norm, density):
    """A certificate that fires at any m <= n fires, the same, at n.  Past
    its norm f keeps each entry with probability ``density``, so f can
    vanish just past its norm, where the composite-norm certificate looks."""
    f = sparse(random.Random(seed), n, kind, density, norm=min(norm, n))
    at_n = classify(f).atom_certificate
    for m in range(1, n + 1):
        fm = f.truncate(m)
        if fm.is_zero():
            with pytest.raises(ZeroFunctionError):
                classify(fm)
            continue
        certificate = classify(fm).atom_certificate
        assert certificate in (CERT_NONE, at_n), m


@settings(max_examples=60, deadline=None)
@given(specs, st.integers(1, MAX_N))
def test_probe_prime_never_returns_member(spec, window):
    """A probe refutes primality or leaves it undecided; it never certifies."""
    if spec.tag == TAG_NORM_FLOOR and spec.n > window + 1:
        with pytest.raises(WindowError):
            probe_prime(spec, window)
        return
    assert probe_prime(spec, window).verdict in (NON_MEMBER, UNDECIDED)
