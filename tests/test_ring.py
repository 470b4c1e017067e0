"""Core ring operations: construction, convolution, inversion, norm,
powers, and exact trial division."""

import hashlib
import json
import math
import operator
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirichlet_ring import (ArithFunc, EXACT, FLOAT, ModeMismatchError, NonUnitError,
                            NotDivisibleWitness, WindowError, ZeroFunctionError, delta, identity,
                            indicator_shift, try_divide, zeros)
from dirichlet_ring import ring, seqfile
from dirichlet_ring.ideals import decompose_coprime_vanishing, principal_quotient
from dirichlet_ring.ring import dirichlet_product
from dirichlet_ring.sampling import random_func, random_nonzero, random_unit, random_with_norm
from dirichlet_ring.zoo import big_omega, generate, log_function, mangoldt, mobius, unit

from conftest import coprime_pair, save, traced_peak
from oracles import (ZOO_SCANS, Refused, choices_scalars, construct_reference, convolve_lists,
                     divide_lists, invert_floats, mobius_scan, randint_nonzero, randint_scalar)

# the 25 fractions in [-3, 3] with denominator at most 3, simplest first so
# that a failing example shrinks towards 0; one draw each picks an index,
# where st.fractions builds a numerator and a denominator
small_fractions = st.sampled_from(sorted(
    {Fraction(p, q) for q in (1, 2, 3) for p in range(-3 * q, 3 * q + 1)},
    key=lambda x: (x.denominator, abs(x), x < 0)))


def exact_funcs(n: int):
    return st.lists(small_fractions, min_size=n, max_size=n).map(
        lambda vs: ArithFunc(vs, EXACT)
    )


# construction ------------------------------------------------------------


def test_constructor_single_value_is_identity_prefix():
    assert ArithFunc([1]) == identity(1)


def test_constructor_the_all_ones_from_two_function():
    f = ArithFunc([0, 1, 1, 1])
    assert f(1) == 0 and f(2) == f(3) == f(4) == 1
    assert f.mode == EXACT


def test_constructor_rejects_empty():
    with pytest.raises(ValueError):
        ArithFunc([])
    with pytest.raises(ValueError, match="window length"):
        delta(1, 0)


def test_explicit_float_mode_coerces_ints():
    f = ArithFunc([1, 0, -1], mode=FLOAT)
    assert f.mode == FLOAT and f.values == (1.0, 0.0, -1.0)
    assert f.to_float() is f


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, Fraction(-(10**400), 3)])
def test_constructor_rejects_values_that_are_not_finite_doubles(value):
    with pytest.raises(ValueError, match="float values must be finite"):
        ArithFunc([1.0, value], mode=FLOAT)
    if isinstance(value, float):
        with pytest.raises(ValueError, match="float values must be finite"):
            ArithFunc([value, 2.0])
    else:  # converting an exact function refuses it the same way
        with pytest.raises(ValueError, match="float values must be finite"):
            ArithFunc([1, value]).to_float()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_of_refuses_non_finite_floats(value):
    # the trusted constructor keeps the float rule too, so no kernel
    # result, and no writer, ever holds an inf or a nan
    with pytest.raises(ValueError, match="^float values must be finite$"):
        ArithFunc._of([0.5, -2.0, value, 1.0])


class _Int(int):
    """An int subclass: both modes take it as an int."""


# the values of st.fractions(max_denominator=12) and st.fractions(), built
# from two integer draws: st.fractions draws each through a flatmap
_exact_entries = st.one_of(st.integers(), st.integers().map(_Int),
                           st.builds(Fraction, st.integers(), st.sampled_from(range(1, 13))),
                           st.builds(Fraction, st.integers(), st.integers(min_value=1)))
_float_entries = st.one_of(st.floats(), st.sampled_from([10**400, -(10**400), Fraction(10**400, 3)]))
_any_entries = st.one_of(_exact_entries, _float_entries, st.booleans(), st.text(max_size=2), st.none())


@settings(max_examples=400, deadline=None)
@example([1, 0.0, -1], None)  # mixed exact and float entries
@example([1.5], EXACT)  # a float in exact mode
@given(st.one_of(st.lists(_exact_entries, max_size=8), st.lists(_float_entries, max_size=8),
                 st.lists(_any_entries, max_size=8)),
       st.sampled_from([None, EXACT, FLOAT, "decimal"]))
def test_constructor_matches_the_reference_rules(values, mode):
    """The one-pass constructor raises what the entry-by-entry reference
    raises, or builds the values it builds, in the same types."""
    try:
        expected = construct_reference(values, mode)
    except Refused as refused:
        with pytest.raises(Exception) as info:
            ArithFunc(values, mode)
        assert (type(info.value).__name__, str(info.value)) == (refused.kind, refused.message)
        return
    f = ArithFunc(values, mode)
    assert (f.mode, tuple(map(repr, f.values))) == (expected[0], tuple(map(repr, expected[1])))


@pytest.mark.parametrize("build", [lambda: zeros(3, "decimal"), lambda: delta(2, 3, "decimal"),
                                   lambda: identity(3, "x")], ids=["zeros", "delta", "identity"])
def test_constructors_reject_unknown_modes_as_the_class_does(build):
    with pytest.raises(ValueError, match="unknown scalar mode"):
        build()


def test_call_is_one_based_and_bounded():
    f = ArithFunc([5, 7])
    assert f(1) == 5 and f(2) == 7
    with pytest.raises(IndexError):
        f(0)
    with pytest.raises(IndexError):
        f(3)
    assert repr(ArithFunc([1, 2, 3])) == "ArithFunc([1, 2, 3], mode=exact, n=3)"
    assert repr(ArithFunc(list(range(1, 11)))) == "ArithFunc([1, 2, 3, 4, 5, 6, 7, 8, ...], mode=exact, n=10)"


# addition ----------------------------------------------------------------


def test_add_identity_and_inverse():
    e = identity(8)
    assert e + zeros(8) == e
    f = ArithFunc([2, -1, 3, 0])
    assert (f + (-f)).is_zero()


def test_add_disjoint_indicators():
    s = delta(2, 6) + delta(3, 6)
    assert [s(k) for k in range(1, 7)] == [0, 1, 1, 0, 0, 0]


def test_add_truncates_to_shorter_window():
    assert len(ArithFunc([1, 2, 3]) + ArithFunc([1, 1])) == 2


def test_add_rejects_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        identity(4) + identity(4, FLOAT)
    # a non-ArithFunc operand is NotImplemented: == falls back to identity, the rest raise
    assert not ArithFunc([1]) == 1
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(ArithFunc([1]), 1)


# convolution -------------------------------------------------------------


def test_identity_convolves_trivially():
    rng = random.Random(3)
    for _ in range(5):
        f = random_func(rng, 32)
        assert identity(32).convolve(f) == f


def test_indicator_convolution_multiplies_support():
    assert delta(2, 20) * delta(5, 20) == delta(10, 20)
    assert delta(3, 8) * delta(5, 8) == zeros(8)  # 15 falls outside


def test_mobius_inverts_ones_brute_force():
    # independent check that sum of mu(d) over d | n matches e
    mu_vals = [mobius_scan(k) for k in range(1, 65)]
    ones = [1] * 64
    assert convolve_lists(mu_vals, ones) == [1] + [0] * 63
    # and the library agrees
    assert mobius(64).convolve(unit(64)) == identity(64)


def test_convolution_matches_divisor_scan_oracle():
    rng = random.Random(11)
    for _ in range(10):
        f = random_func(rng, 48)
        g = random_func(rng, 48)
        expected = convolve_lists(list(f.values), list(g.values))
        assert list(f.convolve(g).values) == expected
        # the kernel itself, on plain integer sequences
        a = [rng.randint(-3, 3) for _ in range(48)]
        b = [rng.randint(-3, 3) for _ in range(48)]
        assert dirichlet_product(a, b, 48, 0) == convolve_lists(a, b)


def test_scalar_window_convolution():
    assert ArithFunc([3]) * ArithFunc([5]) == ArithFunc([15])


@settings(max_examples=60, deadline=None)
@given(exact_funcs(16), exact_funcs(16), exact_funcs(16))
def test_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert identity(16) * f == f


# inversion ---------------------------------------------------------------


def test_identity_is_self_inverse():
    assert identity(16).invert() == identity(16)


def test_ones_inverts_to_mobius():
    assert unit(64).invert() == mobius(64)


def test_nonunit_inversion_rejected():
    with pytest.raises(NonUnitError):
        big_omega(16).invert()  # value 0 at 1


@settings(max_examples=40, deadline=None)
@given(exact_funcs(16))
def test_inverse_round_trip(f):
    if not f(1):
        with pytest.raises(NonUnitError):
            f.invert()
    else:
        assert f * f.invert() == identity(16)


def test_float_inversion_round_trip_within_tolerance():
    rng = random.Random(5)
    f = random_unit(rng, 32).to_float()
    r, e = f.convolve(f.invert()), identity(32, FLOAT)
    assert r.mode == FLOAT and len(r) == len(e)
    assert max(abs(x - y) for x, y in zip(r.values, e.values)) <= 1e-9


def test_float_inversion_matches_divisor_order_recursion_bit_for_bit():
    rng = random.Random(6)
    cases = [random_unit(rng, 96).to_float() for _ in range(5)]
    cases.append(-unit(96).to_float())  # negative lead
    cases.append(ArithFunc([-2.0] + [0.0 if k % 3 else 1.5 for k in range(2, 97)]))
    cases.append(ArithFunc([1.0] + [math.log(k) for k in range(2, 97)]))
    for f in cases:
        got = [v.hex() for v in f.invert().values]
        assert got == [v.hex() for v in invert_floats(list(f.values))]


# norm ---------------------------------------------------------------------


def test_norm_examples():
    assert identity(4).norm() == 1
    assert delta(6, 8).norm() == 6
    assert zeros(5).norm() is None


def test_norm_definition_invariants():
    rng = random.Random(9)
    for _ in range(20):
        f = random_nonzero(rng, 40)
        w = f.norm()
        assert w is not None and f(w) != 0
        assert all(f(k) == 0 for k in range(1, w))


@settings(max_examples=60, deadline=None)
@given(exact_funcs(24), exact_funcs(24))
def test_norm_is_multiplicative_inside_window(f, g):
    wf, wg = f.norm(), g.norm()
    if wf is None or wg is None or wf * wg > 24:
        return
    assert (f * g).norm() == wf * wg


def test_no_visible_zero_divisors():
    rng = random.Random(13)
    for _ in range(20):
        i, j = rng.randint(1, 8), rng.randint(1, 8)
        f = random_with_norm(rng, 64, i)
        g = random_with_norm(rng, 64, j)
        assert not f.convolve(g).is_zero()


# powers ---------------------------------------------------------------------


def test_zeroth_power_is_identity():
    rng = random.Random(2)
    f = random_func(rng, 12)
    assert f.power(0) == identity(12)


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="invert first"):
        delta(2, 8).power(-1)


def test_indicator_powers_dilate():
    assert delta(2, 16) ** 3 == delta(8, 16)


def test_power_norms_match_brute_force():
    rng = random.Random(17)
    for w in (1, 2, 3):
        f = random_with_norm(rng, 128, w)
        acc = [1] + [0] * 127  # oracle accumulator, convolved step by step
        for r in range(1, 9):
            acc = convolve_lists(acc, list(f.values))
            if w**r <= 128:
                assert f.power(r).norm() == w**r
                assert list(f.power(r).values) == acc


def test_float_power_matches_sequential_convolutions():
    # square-and-multiply groups the products differently, so compare
    # against r sequential convolutions relative to the magnitude sum
    rng = random.Random(19)
    for r in (2, 3, 5, 8):
        f = random_unit(rng, 96).to_float()
        magnitudes = ArithFunc([abs(v) for v in f.values])
        seq, bound = identity(96, FLOAT), identity(96, FLOAT)
        for _ in range(r):
            seq, bound = seq.convolve(f), bound.convolve(magnitudes)
        for x, y, m in zip(f.power(r).values, seq.values, bound.values):
            assert abs(x - y) <= 1e-12 * m


def _square_cases(n):
    """Narrow, wide (64-bit numerators over distinct 32-bit denominators),
    mixed, sparse (vanishing at 1) and zero values on 1..n."""
    rng = random.Random(n)
    narrow = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    wide = [Fraction(rng.getrandbits(64) - (1 << 63) or 1, d)
            for d in rng.sample(range(1 << 31, 1 << 32), n)]
    mixed = [w if rng.random() < 0.3 else v for v, w in zip(narrow, wide)]
    sparse = [Fraction(0)] + [v if rng.random() < 0.15 else Fraction(0) for v in narrow[1:]]
    return {"narrow": narrow, "wide": wide, "mixed": mixed, "sparse": sparse, "zero": [0] * n}


# n = s^2 - 1, s^2, s^2 + s - 1 and s^2 + s put the last diagonal and the
# last off-diagonal slice of a square on each side of the window's end
SQUARE_WINDOWS = sorted({n for s in range(1, 13) for n in (s * s - 1, s * s, s * s + s - 1, s * s + s)
                         if n} | {1024})


@pytest.mark.parametrize("n", SQUARE_WINDOWS)
def test_squares_and_powers_equal_the_general_product(n):
    # f * f and the squarings in f.power take the symmetric pass; f times a
    # distinct equal copy takes the general one
    for name, values in _square_cases(n).items():
        f = ArithFunc(values)
        copy = ArithFunc(f.values)
        assert copy is not f and copy == f
        if name == "wide" and n >= 3:
            assert isinstance(f._den, tuple)
        square = f.convolve(f)
        assert square == f.convolve(copy), name
        assert_stored_form(square, square.values)
        seq = f
        for r in range(2, 10):
            seq = seq.convolve(copy)
            assert f.power(r) == seq, (name, r)
        if n <= 42:
            expected = convolve_lists(values, values)
            assert list(square.values) == expected, name
            assert list(f.power(4).values) == convolve_lists(expected, expected), name


@pytest.mark.parametrize("n", SQUARE_WINDOWS)
def test_float_squares_equal_the_general_product_bit_for_bit(n):
    rng = random.Random(n)
    for pool in (_POOL, _SMALL_POOL):
        values = _doubles(rng, n, pool)
        f = ArithFunc(values)
        copy = ArithFunc(f.values)
        for square in (lambda: f.convolve(f), lambda: f.power(2)):
            if _same_bits_or_refused(square, convolve_lists(values, values), n):
                assert [v.hex() for v in square().values] == [v.hex() for v in (f * copy).values]


def test_a_square_takes_each_unordered_pair_once(monkeypatch):
    # the slices of f * f hold one term per i < j with ij <= n, the general
    # product's one per ordered pair: about half, since a(i)^2 is written
    # at i^2 outside the slices
    n, terms = 1024, []

    def counting(acc, at, col, cut, row, k):
        terms.append(len(col[0][cut]))
        step(acc, at, col, cut, row, k)

    step = ring._step
    monkeypatch.setattr(ring, "_step", counting)
    for f in (ArithFunc(range(1, n + 1)), ArithFunc(_square_cases(n)["wide"])):
        terms.clear()
        f.convolve(f)
        assert sum(terms) == sum(n // i - i for i in range(1, math.isqrt(n) + 1))
        terms.clear()
        f.convolve(ArithFunc(f.values))
        assert sum(terms) == sum(n // i for i in range(1, n + 1))


def test_only_trivial_idempotents_small_window():
    # exhaustive over entries {-1, 0, 1} at window 8
    import itertools

    solutions = []
    for vals in itertools.product((-1, 0, 1), repeat=8):
        f = ArithFunc(vals, EXACT)
        if f * f == f:
            solutions.append(vals)
    assert sorted(solutions) == sorted([(0,) * 8, (1,) + (0,) * 7])


# division -------------------------------------------------------------------


def test_self_division_gives_identity():
    assert try_divide(delta(5, 50), delta(5, 50)) == identity(10)


def test_division_in_principal_ideal_shifts_indices():
    rng = random.Random(21)
    p = 3
    raw = random_func(rng, 60).values
    vals = [raw[i] if (i + 1) % p == 0 else Fraction(0) for i in range(60)]
    f = ArithFunc(vals, EXACT)
    g = try_divide(f, delta(p, 60))
    assert isinstance(g, ArithFunc)
    assert all(g(k) == f(k * p) for k in range(1, 21))


def test_division_witness_when_impossible():
    # (delta_2 * g)(3) sums f(i)g(j) over ij = 3, and delta_2 vanishes at 1
    # and 3, so no g can reach the value 1 there; exhaustively confirmed
    import itertools

    for vals in itertools.product((-1, 0, 1), repeat=3):
        assert (delta(2, 3) * ArithFunc(vals, EXACT))(3) == 0
    result = try_divide(delta(3, 12), delta(2, 12))
    assert isinstance(result, NotDivisibleWitness)
    assert result.index == 3


def test_division_of_zero_gives_zero():
    q = try_divide(zeros(12), delta(2, 12))
    assert isinstance(q, ArithFunc) and q.is_zero()


def test_division_by_zero_rejected():
    with pytest.raises(ZeroFunctionError):
        try_divide(delta(2, 8), zeros(8))


def test_division_rejects_float_mode():
    with pytest.raises(ModeMismatchError):
        try_divide(identity(4, FLOAT), identity(4, FLOAT))


@settings(max_examples=40, deadline=None)
@given(exact_funcs(20), exact_funcs(20))
def test_division_soundness(f, g):
    if f.is_zero():
        return
    h = f * g
    q = try_divide(h, f)
    assert isinstance(q, ArithFunc)
    # the quotient is unique on its window, so it must be g's prefix
    assert q == g.truncate(len(q))


def assert_divides_as_the_oracle(h, f):
    """try_divide(h, f) gives divide_lists' quotient, or a witness at its index."""
    expected, result = divide_lists(list(h.values), list(f.values)), try_divide(h, f)
    if isinstance(expected, int):
        assert result == NotDivisibleWitness(expected, result.note)
    else:
        assert list(result.values) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    small_fractions.filter(bool),
    exact_funcs(24),
    exact_funcs(24),
    st.integers(1, 24),
)
def test_division_matches_divisor_scan_oracle(a, lead, tail, g, k):
    f = ArithFunc([0] * (a - 1) + [lead] + list(tail.values[a:]), EXACT)
    h = f * g
    assert list(try_divide(h, f).values) == divide_lists(list(h.values), list(f.values))
    assert_divides_as_the_oracle(h + delta(k, 24), f)  # delta_k may or may not break divisibility


def test_division_soundness_reconvolution():
    rng = random.Random(33)
    for _ in range(15):
        f = random_with_norm(rng, 48, rng.randint(1, 4))
        g = random_func(rng, 48)
        h = f * g
        q = try_divide(h, f)
        assert isinstance(q, ArithFunc)
        # zero-extend the quotient and compare on the whole window
        padded = ArithFunc(list(q.values) + [Fraction(0)] * (48 - len(q)), EXACT)
        assert padded * f == h


# scaled-integer path -------------------------------------------------------

leads = st.builds(
    Fraction, st.sampled_from([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]), st.sampled_from([1, 2, 3])
)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.integers(1, 6), leads, st.integers(0, 2**32), st.integers(1, 300))
def test_exact_kernels_match_divisor_scan_oracles(n, a, lead, seed, k):
    # norms up to 6 and leads with several prime factors make the quotient
    # recursion divide by f(a) many times in a row: a bound on that count
    # that is too small leaves a remainder and raises
    rng = random.Random(seed)
    a, k = min(a, n), min(k, n)

    def narrow(length):
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(length)]

    fv = [Fraction(0)] * (a - 1) + [lead] + narrow(n - a)
    f, g = ArithFunc(fv, EXACT), ArithFunc(narrow(n), EXACT)
    h = f * g
    assert list(h.values) == convolve_lists(fv, list(g.values))
    assert list(try_divide(h, f).values) == divide_lists(list(h.values), fv)
    assert_divides_as_the_oracle(h + delta(k, n), f)
    if a == 1:
        assert list(f.invert().values) == divide_lists([1] + [0] * (n - 1), fv)


def test_the_integer_division_step_refuses_a_remainder():
    # rests 9 and 7 over the lead 3: 7 would round, so the block is refused
    with pytest.raises(ArithmeticError, match=r"^scaled recursion left remainder 1 on division by 3$"):
        ring._divide([[9, 7]], [[0, 0]], slice(0, 2), [[3]], 1)


def test_common_denominator_switch_at_shared_bits(tmp_path, monkeypatch, fractions_built):
    # p*q has SHARED_BITS bits, so f scales; one more entry over 2 makes
    # the common denominator one bit wider, and f2 keeps the pair path
    p, q = coprime_pair(ring.SHARED_BITS)
    n = 64
    rng = random.Random(43)
    base = [Fraction(rng.randint(-3, 3), rng.choice((1, p, q))) for _ in range(n)]
    base[0] = Fraction(5, p * q)
    f = ArithFunc(base, EXACT)
    f2 = ArithFunc(base[:-1] + [Fraction(1, 2)], EXACT)
    assert f._den == p * q
    assert isinstance(f2._den, tuple)
    # kernel results on both sides: a product over p*q, and over 2*p*q
    over_p = [Fraction(rng.randint(-3, 3), p) for _ in range(n)]
    over_q = ArithFunc([Fraction(1, q)] + [Fraction(rng.randint(-3, 3), q) for _ in range(n - 1)])
    for lead, den in ((Fraction(1, p), p * q), (Fraction(1, 2 * p), None)):
        xv = [lead] + over_p[1:]
        product = ArithFunc(xv) * over_q
        assert product._den == den if den else isinstance(product._den, tuple)
        assert list(product.values) == convolve_lists(xv, list(over_q.values))
        assert try_divide(product, over_q) == ArithFunc(xv)
    # the loader, with no Fraction built for either file
    save(f, tmp_path / "f.json")
    save(f2, tmp_path / "f2.json")
    made = fractions_built.made
    f2_loaded = seqfile.load(tmp_path / "f2.json")[1]
    f_loaded = seqfile.load(tmp_path / "f.json")[1]
    assert fractions_built.made == made
    assert (f_loaded._den, f_loaded._values) == (f._den, f._values)
    assert (f2_loaded._den, f2_loaded._values) == (f2._den, f2._values)
    monkeypatch.undo()
    g = random_unit(rng, n)
    for x in (f, f2):
        xv = list(x.values)
        product = x * g
        assert product.values == tuple(dirichlet_product(x.values, g.values, n, Fraction(0)))
        assert list(product.values) == convolve_lists(xv, list(g.values))
        assert list(x.invert().values) == divide_lists([1] + [0] * (n - 1), xv)
        assert list(try_divide(product, x).values) == divide_lists(list(product.values), xv)
        for r in (product, x.invert(), try_divide(product, x)):
            assert all(type(v) is Fraction for v in r.values)


# slice passes -------------------------------------------------------------------


_POOL = (0.0, -0.0, 1e300, -1e300, 0.5, -1.25, 3.0, -7.0)
_SMALL_POOL = tuple(x for x in _POOL if abs(x) < 1e300)


def _doubles(rng, n, pool=_POOL):
    """Doubles with signed zeros and negatives, and, from the default
    pool, +-1e300, whose products overflow."""
    return [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(-9, 9) for _ in range(n)]


def _same_bits_or_refused(compute, expected: list, n: int) -> bool:
    """compute() gives the bits of the oracle's ``expected``, or, where
    ``expected`` holds an inf or a nan, raises the float rule's
    ValueError; whether ``expected`` was finite."""
    if not all(map(math.isfinite, expected)):
        with pytest.raises(ValueError, match="^float values must be finite$"):
            compute()
        return False
    assert [v.hex() for v in compute().values] == [v.hex() for v in expected], n
    return True


def test_float_product_sums_in_divisor_order_bit_for_bit():
    # n = s^2 - 1, s^2 and s^2 + s put the hyperbola split on each side
    # of an edge; every entry must still sum its terms in ascending i.
    # Most windows with +-1e300 overflow, so the same windows run again
    # on the pool without them, where every product is finite
    for pool in (_POOL, _SMALL_POOL):
        rng = random.Random(19)
        for s in range(2, 34):
            for n in (s * s - 1, s * s, s * s + s):
                a, b = _doubles(rng, n, pool), _doubles(rng, n, pool)
                finite = _same_bits_or_refused(lambda: ArithFunc(a) * ArithFunc(b), convolve_lists(a, b), n)
                assert finite or pool is _POOL


def _chain_length(m, a):
    """Steps of m -> a*m // (a+1) down to 0: how many divisions by f(a)
    can stack up in the recursion's values g(1..m)."""
    k = 0
    while m:
        m = a * m // (a + 1)
        k += 1
    return k


def test_blocks_cover_the_window_and_read_only_earlier_blocks():
    for a in range(1, 25):
        for top in range(300):
            blocks = list(ring._blocks(top, a))
            assert [m for lo, hi in blocks for m in range(lo, hi)] == list(range(1, top + 1))
            # g(m) reads g below a*m//(a+1) + 1: below lo for every m in the
            # block, and not for the first m past it
            assert all(a * (hi - 1) // (a + 1) < lo for lo, hi in blocks)
            assert all(a * hi // (a + 1) >= lo for lo, hi in blocks[:-1])
            assert len(blocks) == _chain_length(top, a)


@pytest.mark.parametrize("a", range(1, 7))
def test_recursion_matches_the_divisor_scan_on_block_edges(a):
    # windows whose n // a is the last m of a block or the first of the
    # next; small blocks push one slice per m, large ones one per i
    rng = random.Random(a)
    edges = sorted({a * lo + r for lo, _ in ring._blocks(150 // a, a) for r in (-1, 0)} - {a - 1})
    for n in edges:
        f, g = random_with_norm(rng, n, a), random_func(rng, n)
        fv, h = list(f.values), f * g
        assert list(try_divide(h, f).values) == divide_lists(list(h.values), fv), n
        assert_divides_as_the_oracle(h + delta(rng.randint(1, n), n), f)
        if a == 1:
            assert list(f.invert().values) == divide_lists([1] + [0] * (n - 1), fv), n


def test_float_invert_sums_in_divisor_order_on_block_edges():
    # from n = 768 on, the block [256, 512) sends terms from i = 3 and
    # i = 2 to one entry, so the order of its per-i slices shows; as for
    # the product, the windows run on both pools
    for pool in (_POOL, _SMALL_POOL):
        rng = random.Random(29)
        for n in (2, 3, 7, 8, 63, 64, 255, 256, 1023, 1024):
            x = _doubles(rng, n, pool)
            x[0] = x[0] or -3.0
            assert _same_bits_or_refused(ArithFunc(x).invert, invert_floats(x), n) or pool is _POOL


_big_doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([1e300, -1e300, 1e308, -1e308]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_big_doubles, min_size=1, max_size=24), st.lists(_big_doubles, min_size=1, max_size=24))
def test_float_results_are_finite_or_refused(a, b):
    # the float rule: every float function holds finite doubles, so each
    # operation gives one or raises ValueError, exactly where the oracle's
    # result holds an inf or a nan
    f, g = ArithFunc(a), ArithFunc(b)
    cases = [(lambda: f * g, convolve_lists(a, b)), (lambda: f.power(2), convolve_lists(a, a)),
             (lambda: f + g, [x + y for x, y in zip(a, b)]), (lambda: f - g, [x - y for x, y in zip(a, b)])]
    if a[0]:
        cases.append((f.invert, invert_floats(a)))
    for compute, expected in cases:
        _same_bits_or_refused(compute, expected, len(expected))


def test_wide_columns_with_zero_entries_match_the_oracles():
    # ~40% zero entries over denominators 16 bits past SHARED_BITS, so the
    # columns carry zero terms; a narrow partner is lifted to columns with them
    rng = random.Random(23)
    b = ring.SHARED_BITS + 16
    for n in (30, 64, 97):
        dens = [rng.randrange(1 << (b - 1), 1 << b) for _ in range(n)]
        wv = [Fraction(rng.randint(-9, 9) if rng.random() < 0.6 else 0, d) for d in dens]
        wv[:3] = wv[0] or Fraction(1, dens[0]), Fraction(0), wv[2] or Fraction(-1, dens[2])
        nv = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        nv[0] = nv[0] or Fraction(1)
        w, v = ArithFunc(wv), ArithFunc(nv)
        w2 = ArithFunc([Fraction(0)] + wv[1:])  # norm 3
        assert isinstance(w._den, tuple) and isinstance(w2._den, tuple) and isinstance(v._den, int)
        for x, y in ((w, w), (w, v), (v, w), (v, w2), (w, w2)):
            xv, yv = list(x.values), list(y.values)
            p = x * y
            assert list(p.values) == convolve_lists(xv, yv)
            assert list(try_divide(p, y).values) == divide_lists(list(p.values), yv)
            assert_divides_as_the_oracle(p + delta(n - 1, n), y)
        assert list(w.invert().values) == divide_lists([1] + [0] * (n - 1), wv)


@pytest.mark.parametrize("den", [3, 2**70 + 1])
def test_a_zero_pair_term_leaves_its_accumulator_as_it_is(den):
    # both sides of the gcd branch: a term over den * 5 has at most or
    # more than 64 bits
    acc = [[1, 2], [7, 7]]
    ring._step(acc, slice(0, 2), [[0, 4], [5, 5]], slice(0, 2), [[3], [den]], 0)
    assert acc[0][0] == 1 and acc[1][0] == 7
    assert Fraction(acc[0][1], acc[1][1]) == Fraction(2, 7) + Fraction(12, 5 * den)


# pair path ---------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(8, 200),
    st.integers(1, 6),
    st.sampled_from(["f", "g", "both"]),
    st.integers(0, 2**32),
    st.integers(1, 200),
)
def test_pair_path_matches_divisor_scan_oracles(n, a, wide, seed, k):
    # denominators 16 bits past SHARED_BITS on at least three nonzero
    # entries make the wide operands (f, g or both) run on unreduced pairs;
    # a narrow one scales on its own but is lifted to pairs with its partner
    rng = random.Random(seed)
    k = min(k, n)
    b = ring.SHARED_BITS + 16

    def entries(length, is_wide):
        if is_wide:
            return [Fraction(rng.getrandbits(40) - (1 << 39) or 1, rng.randrange(1 << (b - 1), 1 << b))
                    for _ in range(length)]
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(length)]

    f_wide, g_wide = wide in ("f", "both"), wide in ("g", "both")
    lead = entries(1, f_wide)[0] or Fraction(1)
    fv = [Fraction(0)] * (a - 1) + [lead] + entries(n - a, f_wide)
    gv = entries(n, g_wide)
    f, g = ArithFunc(fv, EXACT), ArithFunc(gv, EXACT)
    for x, is_wide in ((f, f_wide), (g, g_wide)):
        assert isinstance(x._den, tuple) == is_wide
    h = f * g
    assert list(h.values) == convolve_lists(fv, gv)
    assert list(try_divide(h, f).values) == divide_lists(list(h.values), fv)
    assert_divides_as_the_oracle(h + delta(k, n), f)
    if a == 1:
        inverse = f.invert()
        assert list(inverse.values) == divide_lists([1] + [0] * (n - 1), fv)
        assert all(type(v) is Fraction for v in inverse.values)
    for x, xv in ((f, fv), (g, gv)):
        cube = x.power(3)
        assert cube == x * x * x
        assert list(cube.values) == convolve_lists(convolve_lists(xv, xv), xv)
        assert all(type(v) is Fraction for v in cube.values)
    for r in (h, try_divide(h, f)):
        assert all(type(v) is Fraction for v in r.values)


# stored forms -------------------------------------------------------------------


def assert_stored_form(x, values):
    """x equals and hashes like ArithFunc of these values and like
    ArithFunc(x.values), hands them out as Fractions, and stores the form
    their common denominator d chooses: the integers d*v over d up to
    SHARED_BITS bits, past that the numerator and denominator columns,
    each pair coprime with a positive denominator."""
    fractions = tuple(Fraction(v) for v in values)
    ref, again = ArithFunc(fractions, EXACT), ArithFunc(x.values)
    assert x == ref == again and hash(x) == hash(ref) == hash(again)
    assert x.values == fractions and all(type(v) is Fraction for v in x.values)
    d = math.lcm(*(v.denominator for v in fractions))
    if d.bit_length() <= ring.SHARED_BITS:
        assert (x._values, x._den) == (tuple(int(v * d) for v in fractions), d)
        assert all(type(v) is int for v in x._values)
    else:
        nums, dens = x._values, x._den
        assert type(nums) is type(dens) is tuple and len(nums) == len(dens) == len(fractions)
        assert all(type(v) is int for v in nums + dens)
        assert all(math.gcd(p, q) == 1 and q > 0 for p, q in zip(nums, dens))
        assert [Fraction(p, q) for p, q in zip(nums, dens)] == list(fractions)


def _entries(rng, n, width):
    if width == "narrow":
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    # two denominators of 8 bits past half of SHARED_BITS pass it together;
    # only one of them may appear, and then the values are narrow again
    b = ring.SHARED_BITS // 2 + 8
    dens = (rng.randrange(1 << (b - 1), 1 << b), rng.randrange(1 << (b - 1), 1 << b))
    return [Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.sampled_from(["narrow", "wide"]), st.integers(0, 2**32),
       st.sampled_from(sorted(ZOO_SCANS)))
def test_every_path_builds_the_stored_form_of_its_values(n, width, seed, tag):
    rng = random.Random(seed)
    fv, gv = _entries(rng, n, width), _entries(rng, n, "narrow")
    gv[0] = gv[0] or Fraction(1)
    # the constructor, from ints where a value is whole
    f = ArithFunc([v.numerator if v.denominator == 1 else v for v in fv])
    g = ArithFunc(gv)
    assert_stored_form(f, fv)
    assert_stored_form(f + g, [x + y for x, y in zip(fv, gv)])
    assert_stored_form((f + g) - f, gv)
    assert_stored_form(-f, [-x for x in fv])
    assert_stored_form(f * g, convolve_lists(fv, gv))
    assert_stored_form(f * f, convolve_lists(fv, fv))
    assert_stored_form(g.invert(), divide_lists([1] + [0] * (n - 1), gv))
    if fv[0]:
        assert_stored_form(f.invert(), divide_lists([1] + [0] * (n - 1), fv))
    assert_stored_form(try_divide(f * g, g), fv)
    assert_stored_form(f.power(3), convolve_lists(convolve_lists(fv, fv), fv))
    assert_stored_form(f.truncate(max(n // 2, 1)), fv[: max(n // 2, 1)])
    assert_stored_form(indicator_shift(2, f, n), [fv[k // 2 - 1] if k % 2 == 0 else 0
                                                  for k in range(1, n + 1)])
    assert_stored_form(generate(tag, n), [ZOO_SCANS[tag](k) for k in range(1, n + 1)])
    ours, draws = random.Random(seed), random.Random(seed)
    assert_stored_form(random_func(ours, n), choices_scalars(draws, n))
    assert ours.getstate() == draws.getstate()
    # a file's pairs, unreduced and with negative denominators
    scales = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    obj = {"name": "f", "mode": EXACT, "n": n,
           "values": [[str(v.numerator * c), str(v.denominator * c)] for v, c in zip(fv, scales)]}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert_stored_form(seqfile.load(path)[1], fv)
    # the ideals' readers: f(2k) off a member of the principal ideal at 2,
    # and the cofactors of a member of P_6 at 2 and 3
    if n >= 2:
        assert_stored_form(principal_quotient(2, indicator_shift(2, f, n)), fv[: n // 2])
    tv = [v if math.gcd(k, 6) > 1 else 0 for k, v in enumerate(fv, 1)]
    split = decompose_coprime_vanishing(6, ArithFunc(tv))
    for q, cofactor in zip((2, 3), split.cofactors):
        assert_stored_form(cofactor, [tv[q * j - 1] if q == 3 or j % 3 else 0
                                      for j in range(1, n // q + 1)] or [0])
    assert_stored_form(split.reconstruction(), tv)


def test_halves_sum_to_the_integer_form():
    half = ArithFunc([Fraction(1, 2), Fraction(-1, 2)])
    assert_stored_form(half, [Fraction(1, 2), Fraction(-1, 2)])
    assert (half._values, half._den) == ((1, -1), 2)
    assert_stored_form(half + half, [1, -1])
    assert ((half + half)._values, (half + half)._den) == ((1, -1), 1)


def test_u_times_mu_is_the_identity_over_one():
    e = unit(64) * mobius(64)
    assert e == identity(64) and hash(e) == hash(identity(64))
    assert (e._values, e._den) == ((1,) + (0,) * 63, 1)


def test_exact_of_reads_the_gcd_without_copying_the_window():
    # a tuple over 1 is kept as it is, and no argument tuple of the whole
    # window is built to find that it is in lowest terms
    entries = tuple(range(65536))
    peak, f = traced_peak(lambda: ArithFunc._of(entries, 1))
    assert f._values is entries and f._den == 1
    assert peak < 65536  # an eighth of the window's 512 KiB pointer array


def test_loaded_file_is_stored_as_integers(tmp_path):
    path = tmp_path / "mu.json"
    save(mobius(200), path, "mu")
    _, f = seqfile.load(path)
    assert f == mobius(200) and hash(f) == hash(mobius(200))
    assert f._den == 1 and all(type(v) is int for v in f._values)
    thirds = ArithFunc([Fraction(k, 3) for k in range(-4, 5)])
    save(thirds, path)
    assert_stored_form(seqfile.load(path)[1], [Fraction(k, 3) for k in range(-4, 5)])


def test_wide_quotient_that_cancels_comes_back_narrow():
    rng = random.Random(71)
    a = _wide(rng, 64)
    assert isinstance(a._den, tuple)
    h = a * mobius(64)
    assert isinstance(h._den, tuple)  # the product is wide too
    q = try_divide(h, a)
    assert q == mobius(64) and q._den == 1
    assert all(type(v) is int for v in q._values)
    assert ((a + mobius(64)) - a)._den == 1


def test_wide_kernels_and_sequence_files_build_no_fraction(tmp_path, fractions_built):
    # a wide result is its stored columns: the kernels reduce their output
    # pairs by gcd, and the loader and writer read and write those pairs
    rng = random.Random(61)
    a, b = _wide(rng, 256), _wide(rng, 256)
    a2 = ArithFunc((Fraction(0),) + _wide(rng, 255).values, EXACT)
    c, cw = a * b, a2 * b + delta(101, 256)
    made = fractions_built.made
    results = [a * b, a.invert(), try_divide(c, b), try_divide(cw, a2), a.power(3)]
    save(a, tmp_path / "a.json")
    loaded = seqfile.load(tmp_path / "a.json")[1]
    assert fractions_built.made == made
    assert results[0] == c and results[2] == a and loaded == a
    assert results[3] == NotDivisibleWitness(101, results[3].note)
    assert results[4] == a * a * a
    assert list(results[1].values) == divide_lists([1] + [0] * 255, list(a.values))
    assert all(isinstance(r._den, tuple) for r in (c, results[1], results[4]))


# pinned outputs ---------------------------------------------------------------


def _wide(rng, n):
    # ~64-bit numerators over distinct ~32-bit denominators
    dens = rng.sample(range(1 << 31, 1 << 32), n)
    return ArithFunc([Fraction(rng.getrandbits(64) - (1 << 63) or 1, d) for d in dens], EXACT)


def _randint_with_norm(rng, n, norm):
    # the narrow operands' recipe when the kernel digest was recorded: a
    # nonzero value at ``norm``, then two ``randint`` calls per entry
    return ArithFunc([0] * (norm - 1) + [randint_nonzero(rng)]
                     + [randint_scalar(rng) for _ in range(n - norm)])


def _randint_unit(rng, n):
    vals = [randint_scalar(rng) for _ in range(n)]
    vals[0] = vals[0] or randint_nonzero(rng)
    return ArithFunc(vals)


def test_kernel_outputs_are_pinned():
    # digest recorded before the scaled-integer path existed: every exact
    # value, witness index and float bit of these kernel calls is fixed
    rng = random.Random(41)
    f, g = _randint_unit(rng, 1024), _randint_unit(rng, 1024)
    f2 = _randint_with_norm(rng, 1024, 2)
    h2 = f2 * g
    a, b = _wide(rng, 256), _wide(rng, 256)
    u = _randint_unit(rng, 1024).to_float()
    results = [
        f * g,
        f.invert(),
        f.power(8),
        try_divide(f * g, g),
        try_divide(h2, f2),
        try_divide(h2 + delta(701, 1024), f2),
        a * b,
        a.invert(),
        mangoldt(1024).convolve(log_function(1024)),
        u.invert(),
    ]
    assert results[5] == NotDivisibleWitness(701, results[5].note)
    text = ";".join(
        str(r.index) if isinstance(r, NotDivisibleWitness)
        else ",".join(v.hex() if r.mode == FLOAT else str(v) for v in r.values)
        for r in results
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "110c2517960860fe43fa8547df1a6bd365d1b65ab25265265136c733efdbbe9a"


def test_wide_kernel_outputs_are_pinned():
    # digest recorded while wide operands still ran on Fractions: the
    # quotient, the witness index and a power of operands too wide to scale
    rng = random.Random(53)
    a, b = _wide(rng, 128), _wide(rng, 128)
    a2 = ArithFunc((Fraction(0),) + _wide(rng, 127).values, EXACT)
    c, cw = a * b, a2 * b + delta(101, 128)
    results = [try_divide(c, b), try_divide(cw, a2), a.power(3), b.power(4)]
    assert results[0] == a.truncate(128)
    assert results[1] == NotDivisibleWitness(101, results[1].note)
    text = ";".join(
        str(r.index) if isinstance(r, NotDivisibleWitness) else ",".join(str(v) for v in r.values)
        for r in results
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "3190e219afd129759ae036ee94f7925c8173851035e9062c39ed25be6d8cb092"


# window helpers ---------------------------------------------------------------


def test_truncate_and_bounds():
    f = ArithFunc([1, 2, 3, 4])
    assert f.truncate(2) == ArithFunc([1, 2])
    with pytest.raises(WindowError):
        f.truncate(5)


def test_indicator_shift_places_values():
    g = ArithFunc([7, 11, 13])
    shifted = indicator_shift(2, g, 7)
    assert [shifted(k) for k in range(1, 8)] == [0, 7, 0, 11, 0, 13, 0]


def test_indicator_shift_window_guard():
    with pytest.raises(WindowError):
        indicator_shift(2, ArithFunc([1, 2]), 6)  # index 6 needs g(3)
    with pytest.raises(ValueError, match="shift factor"):
        indicator_shift(0, ArithFunc([1, 2]), 4)
    with pytest.raises(ValueError, match="window length"):
        indicator_shift(2, ArithFunc([1, 2]), 0)
