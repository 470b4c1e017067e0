"""Ideal families: membership, quotients, decompositions, chains, and
the primality/semi-primality probes."""

import random
from fractions import Fraction
from math import gcd

import pytest

from dirichlet_ring import (
    ArithFunc,
    EXACT,
    FLOAT,
    IdealSpec,
    NotInIdealError,
    WindowError,
    ZeroFunctionError,
    chain,
    decompose_coprime_vanishing,
    delta,
    divisibility_depth,
    ideals,
    identity,
    indicator_shift,
    member,
    principal_quotient,
    probe_prime,
    probe_semiprime,
    zeros,
)
from dirichlet_ring.primes import nth_prime
from dirichlet_ring.sampling import (
    random_func,
    random_in_ideal,
    random_scalar,
    random_with_norm,
)
from dirichlet_ring.witness import MEMBER, NON_MEMBER, UNDECIDED

from oracles import is_prime_scan, prime_factors_scan, rank_over_q

ALL_FAMILY_SPECS = [
    IdealSpec.norm_floor(4),
    IdealSpec.maximal(),
    IdealSpec.coprime_vanishing(6),
    IdealSpec.prime_products((2, 3)),
    IdealSpec.prime_products((2, 3), complement=True),
    IdealSpec.prime_tail(3),
    IdealSpec.gcd_count(6, 1),
]


# spec construction -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        IdealSpec.norm_floor(0)
    with pytest.raises(ValueError):
        IdealSpec.coprime_vanishing(0)
    with pytest.raises(ValueError):
        IdealSpec.prime_products(())
    with pytest.raises(ValueError):
        IdealSpec.prime_products((4,))
    with pytest.raises(ValueError):
        IdealSpec.gcd_count(12, 1)  # 12 is not squarefree
    with pytest.raises(ValueError):
        IdealSpec.gcd_count(6, -1)


def test_spec_labels():
    assert IdealSpec.norm_floor(5).label() == "I_5"
    assert IdealSpec.gcd_count(6, 1).label() == "P_{6,1}"
    assert IdealSpec.prime_products((3, 2)).label() == "J_{2,3}"
    assert IdealSpec.prime_products((5,), complement=True).label() == "J_~{5}"


# membership -----------------------------------------------------------------


def test_member_examples_for_coprime_family():
    w = member(IdealSpec.coprime_vanishing(6), delta(5, 64))
    assert w.verdict == NON_MEMBER and w.index == 5
    assert member(IdealSpec.coprime_vanishing(5), delta(5, 64)).verdict == MEMBER


def test_member_examples_for_gcd_count_family():
    spec = IdealSpec.gcd_count(6, 1)
    assert member(spec, delta(6, 64)).verdict == MEMBER
    w = member(spec, delta(2, 64))
    assert w.verdict == NON_MEMBER and w.index == 2


def test_member_norm_floor_uses_norm():
    f = random_with_norm(random.Random(1), 32, 7)
    assert member(IdealSpec.norm_floor(5), f).verdict == MEMBER
    assert member(IdealSpec.norm_floor(8), f).verdict == NON_MEMBER


def test_member_norm_floor_window_guard():
    with pytest.raises(WindowError):
        member(IdealSpec.norm_floor(10), identity(8))
    # threshold window + 1 is still decidable (it inspects indices <= window)
    assert member(IdealSpec.norm_floor(9), zeros(8)).verdict == MEMBER


def test_member_maximal_checks_index_one():
    assert member(IdealSpec.maximal(), delta(3, 4)).verdict == MEMBER
    assert member(IdealSpec.maximal(), identity(4)).verdict == NON_MEMBER


def test_member_prime_tail(monkeypatch):
    calls = []
    monkeypatch.setattr(ideals, "nth_prime", lambda k: calls.append(k) or nth_prime(k))
    spec = IdealSpec.prime_tail(3)  # constrained: 1 and primes from 5 on
    assert member(spec, delta(2, 32)).verdict == MEMBER
    assert member(spec, delta(3, 32)).verdict == MEMBER
    assert member(spec, delta(5, 32)).verdict == NON_MEMBER
    assert member(spec, delta(4, 32)).verdict == MEMBER  # 4 is not prime
    assert member(spec, identity(32)).verdict == NON_MEMBER
    tail = IdealSpec.prime_tail(300)  # the 299th prime is 1979, the 300th 1987
    assert member(tail, delta(1979, 4096)).verdict == MEMBER
    assert member(tail, delta(1987, 4096)).index == 1987
    assert member(IdealSpec.prime_tail(700), delta(1987, 4096)).verdict == MEMBER
    assert calls == []  # the primes are read off the window's sieve


def _constrained_by_scan(spec, window):
    """The constrained indices from the family definitions, by divisor scans."""
    scanned_primes = [k for k in range(2, window + 1) if is_prime_scan(k)]

    def constrains(idx):
        ps = {p for p, _ in prime_factors_scan(idx)}
        if spec.tag == ideals.TAG_NORM_FLOOR:
            return idx < spec.n
        if spec.tag == ideals.TAG_MAXIMAL:
            return idx == 1
        if spec.tag == ideals.TAG_COPRIME:
            return all(spec.m % p for p in ps)
        if spec.tag == ideals.TAG_GCD_COUNT:
            return sum(spec.m % p == 0 for p in ps) <= spec.k
        if spec.tag == ideals.TAG_PRIME_TAIL:
            return idx == 1 or idx in scanned_primes[spec.n - 1 :]
        if spec.complement:
            return not ps & set(spec.primes)
        return ps <= set(spec.primes)

    return [idx for idx in range(1, window + 1) if constrains(idx)]


SCAN_SPECS = [
    IdealSpec.norm_floor(1),
    IdealSpec.norm_floor(4),
    IdealSpec.norm_floor(500),
    IdealSpec.maximal(),
    IdealSpec.coprime_vanishing(1),
    IdealSpec.coprime_vanishing(6),
    IdealSpec.coprime_vanishing(12),
    IdealSpec.coprime_vanishing(30),
    IdealSpec.prime_products((2, 3)),
    IdealSpec.prime_products((2, 3), complement=True),
    IdealSpec.prime_products((5, 7, 61)),
    IdealSpec.prime_products((7,), complement=True),
    IdealSpec.prime_tail(1),
    IdealSpec.prime_tail(3),
    IdealSpec.prime_tail(62),  # pi(300) = 62
    IdealSpec.prime_tail(100),  # more than the primes of every window here
    IdealSpec.gcd_count(1, 0),
    *(IdealSpec.gcd_count(6, k) for k in range(3)),
    *(IdealSpec.gcd_count(30, k) for k in range(4)),
]


@pytest.mark.parametrize("window", [1, 2, 3, 64, 300])
def test_constrained_indices_match_definition_scan(window):
    for spec in SCAN_SPECS:
        assert spec.constrained_indices(window) == _constrained_by_scan(spec, window), spec


def test_member_prime_products_allow_mode():
    spec = IdealSpec.prime_products((2, 3))
    assert member(spec, delta(12, 32)).verdict == NON_MEMBER  # 12 = 2^2*3
    assert member(spec, delta(10, 32)).verdict == MEMBER  # 10 has the factor 5
    assert member(spec, identity(32)).verdict == NON_MEMBER  # 1 is the empty product


def test_ideal_closure_under_add_and_absorb():
    rng = random.Random(77)
    for spec in ALL_FAMILY_SPECS:
        for _ in range(5):
            f = random_in_ideal(rng, spec, 64)
            g = random_in_ideal(rng, spec, 64)
            h = random_func(rng, 64)
            assert member(spec, f).verdict == MEMBER
            assert member(spec, f + g).verdict == MEMBER
            assert member(spec, h * f).verdict == MEMBER


def test_prime_product_witness_identity():
    # for f', g' outside P_m with least uncancelled indices k1, k2,
    # the product at k1*k2 is exactly f'(k1) * g'(k2)
    rng = random.Random(5)
    spec = IdealSpec.coprime_vanishing(6)
    checked = 0
    while checked < 10:
        f = random_func(rng, 64)
        g = random_func(rng, 64)
        wf, wg = member(spec, f), member(spec, g)
        if wf.verdict == MEMBER or wg.verdict == MEMBER:
            continue
        k1, k2 = wf.index, wg.index
        if k1 * k2 > 64:
            continue
        assert (f * g)(k1 * k2) == f(k1) * g(k2) != 0
        checked += 1


# principal quotients ----------------------------------------------------------


def test_quotient_of_the_generator_is_identity():
    assert principal_quotient(5, delta(5, 50)) == identity(10)


def test_quotient_of_shifted_indicator():
    assert principal_quotient(2, delta(6, 64)) == delta(3, 32)
    # confirmed by reconvolution
    assert delta(2, 64) * delta(3, 64) == delta(6, 64)


def test_quotient_rejects_non_members_with_witness():
    with pytest.raises(NotInIdealError) as info:
        principal_quotient(3, delta(2, 16))
    assert info.value.witness.index == 2


def test_quotient_round_trip_random_members():
    rng = random.Random(13)
    for p in (2, 3, 5):
        spec = IdealSpec.coprime_vanishing(p)
        for _ in range(5):
            f = random_in_ideal(rng, spec, 60)
            g = principal_quotient(p, f)
            assert indicator_shift(p, g, 60) == f


def test_quotient_window_guard():
    with pytest.raises(WindowError):
        principal_quotient(5, zeros(3))


# decompositions ----------------------------------------------------------------


def test_decompose_sum_of_generators():
    dec = decompose_coprime_vanishing(6, delta(2, 36) + delta(3, 36))
    assert dec.generator_points == (2, 3)
    assert dec.cofactors[0] == identity(18)
    assert dec.cofactors[1] == identity(12)
    assert dec.reconstruction() == dec.target


def test_decompose_random_members_reconstruct_exactly():
    rng = random.Random(29)
    for m, window in ((6, 72), (12, 144), (30, 90)):
        spec = IdealSpec.coprime_vanishing(m)
        for _ in range(5):
            f = random_in_ideal(rng, spec, window)
            dec = decompose_coprime_vanishing(m, f)
            assert dec.reconstruction() == f


def test_decompose_prime_power_reduces_to_quotient():
    rng = random.Random(31)
    for m, q in ((5, 5), (9, 3)):  # a prime and a prime power
        f = random_in_ideal(rng, IdealSpec.coprime_vanishing(m), 54)
        dec = decompose_coprime_vanishing(m, f)
        assert dec.generator_points == (q,)
        assert dec.cofactors[0] == principal_quotient(q, f)


def test_decompose_rejects_non_members():
    with pytest.raises(NotInIdealError):
        decompose_coprime_vanishing(6, delta(5, 32))


def _member_of_coprime_family(m, window, mode):
    """k/(k+1) (exact) or (-1)^k/k (float) off the indices coprime to m, 0 on them."""
    vals = []
    for k in range(1, window + 1):
        if gcd(k, m) == 1:
            vals.append(Fraction(0) if mode == EXACT else 0.0)
        else:
            vals.append(Fraction(k, k + 1) if mode == EXACT else (-1.0) ** k / k)
    return ArithFunc(vals, mode)


def test_decompose_cofactors_are_pinned():
    # each f(k) sits in the cofactor of the largest prime of m dividing k;
    # a prime beyond the window gets the single zero [0]
    cases = [
        (30, _member_of_coprime_family(30, 20, EXACT), [
            ["2/3", "4/5", "0", "8/9", "0", "0", "14/15", "16/17", "0", "0"],
            ["3/4", "6/7", "9/10", "12/13", "0", "18/19"],
            ["5/6", "10/11", "15/16", "20/21"],
        ]),
        (30, _member_of_coprime_family(30, 4, EXACT), [["2/3", "4/5"], ["3/4"], ["0"]]),
        (35, _member_of_coprime_family(35, 6, EXACT), [["5/6"], ["0"]]),
        (12, _member_of_coprime_family(12, 13, FLOAT), [
            ["0.5", "0.25", "0.0", "0.125", "0.1", "0.0"],
            ["-0.3333333333333333", "0.16666666666666666", "-0.1111111111111111",
             "0.08333333333333333"],
        ]),
        (30, _member_of_coprime_family(30, 4, FLOAT), [["0.5", "0.25"], ["-0.3333333333333333"], ["0.0"]]),
    ]
    signed = list(_member_of_coprime_family(30, 12, FLOAT).values)
    signed[5] = signed[9] = -0.0  # the sign of a zero is read through
    cases.append((30, ArithFunc(signed, FLOAT), [
        ["0.5", "0.25", "0.0", "0.125", "0.0", "0.0"],
        ["-0.3333333333333333", "-0.0", "-0.1111111111111111", "0.08333333333333333"],
        ["-0.2", "-0.0"],
    ]))
    for m, f, expected in cases:
        dec = decompose_coprime_vanishing(m, f)
        assert [[str(v) for v in c.values] for c in dec.cofactors] == expected
        assert all(c.mode == f.mode for c in dec.cofactors)
        assert dec.reconstruction() == f


def test_generator_evaluations_are_standard_basis():
    for m in (6, 30):
        dec = decompose_coprime_vanishing(m, zeros(64))
        qs = dec.generator_points
        rows = [[gen(q) for q in qs] for gen in dec.generators]
        assert rank_over_q(rows) == len(qs)
        assert rows == [
            [Fraction(int(i == j)) for j in range(len(qs))] for i in range(len(qs))
        ]


# chains --------------------------------------------------------------------------


def test_ascending_coprime_chain():
    report = chain("P_ascending", 3, 64)
    assert [s.label() for s in report.specs] == ["P_2", "P_6", "P_30"]
    assert [l.separator_label for l in report.links] == ["delta_3", "delta_5"]
    for link in report.links:
        assert link.in_larger.verdict == MEMBER
        assert link.not_in_smaller.verdict == NON_MEMBER


def test_descending_norm_chain():
    report = chain("I_descending", 4, 16)
    assert [s.label() for s in report.specs] == ["I_1", "I_2", "I_3", "I_4"]
    assert [l.separator_label for l in report.links] == ["delta_1", "delta_2", "delta_3"]


def test_ascending_prime_tail_chain():
    report = chain("K_ascending", 3, 64)
    assert [l.separator_label for l in report.links] == ["delta_2", "delta_3"]
    # the separator delta_{pi_k} lies in K_{k+1} and not in K_k
    for link in report.links:
        assert link.in_larger.verdict == MEMBER
        assert link.not_in_smaller.verdict == NON_MEMBER


def test_descending_prime_products_chain():
    report = chain("J_descending", 4, 64)
    assert [s.label() for s in report.specs] == [
        "J_{2}",
        "J_{2,3}",
        "J_{2,3,5}",
        "J_{2,3,5,7}",
    ]
    for link in report.links:
        assert link.in_larger.verdict == MEMBER
        assert link.not_in_smaller.verdict == NON_MEMBER


def test_chain_window_guard():
    with pytest.raises(WindowError):
        chain("P_ascending", 4, 5)  # needs delta_7 visible
    with pytest.raises(ValueError):
        chain("P_ascending", 1, 64)
    with pytest.raises(ValueError):
        chain("sideways", 3, 64)


def test_chain_dot_output():
    dot = chain("P_ascending", 3, 64).to_dot()
    assert dot.startswith("digraph chain {")
    assert '"P_2" -> "P_6" [label="delta_3"];' in dot


# probes -----------------------------------------------------------------------


def test_probe_prime_tail_uses_the_known_witness():
    w = probe_prime(IdealSpec.prime_tail(3), trials=0, seed=1, window=64)
    assert w.verdict == NON_MEMBER
    f, g = w.elements
    assert f == g == ArithFunc([0] + [1] * 63)


def test_probe_gcd_count_uses_indicator_pair():
    w = probe_prime(IdealSpec.gcd_count(6, 1), trials=0, seed=1, window=64)
    assert w.verdict == NON_MEMBER
    a, b = w.elements
    assert a == delta(2, 64) and b == delta(3, 64)
    assert member(IdealSpec.gcd_count(6, 1), a * b).verdict == MEMBER


def test_probe_prime_coprime_family_stays_undecided():
    w = probe_prime(IdealSpec.coprime_vanishing(6), trials=500, seed=3, window=128)
    assert w.verdict == UNDECIDED


@pytest.mark.parametrize("seed", [63, 93, 182, 354, 395])
def test_probe_prime_skips_pairs_whose_violation_leaves_the_window(seed):
    # each seed samples a pair with first violations k1 * k2 at 65 or 77
    w = probe_prime(IdealSpec.coprime_vanishing(6), trials=40, seed=seed, window=64)
    assert w.verdict == UNDECIDED


def test_probe_prime_maximal_stays_undecided():
    w = probe_prime(IdealSpec.maximal(), trials=30, seed=3, window=32)
    assert w.verdict == UNDECIDED


def test_probe_norm_floor_refuted():
    w = probe_prime(IdealSpec.norm_floor(4), trials=0, seed=1, window=32)
    assert w.verdict == NON_MEMBER


def test_probe_semiprime_indicator_powers():
    w = probe_semiprime(6, 1, delta(2, 8), rmax=3, window=8)
    assert w.verdict == NON_MEMBER and w.index == 2


def test_probe_semiprime_vacuous_for_members():
    f = delta(6, 64)  # inside P_{6,1}
    w = probe_semiprime(6, 1, f, rmax=3, window=64)
    assert w.verdict == MEMBER


def test_probe_semiprime_least_indices_track_powers():
    rng = random.Random(7)
    for _ in range(5):
        vals = [random_scalar(rng) for _ in range(16)]
        vals[0] = Fraction(0)
        vals[1] = Fraction(rng.choice((1, 2, 3)))
        f = ArithFunc(vals, EXACT)
        w = probe_semiprime(30, 2, f, rmax=2, window=16)
        assert w.verdict == NON_MEMBER and w.index == 2


def test_probe_semiprime_window_guard():
    with pytest.raises(WindowError):
        probe_semiprime(6, 1, delta(2, 8), rmax=4, window=8)  # 2^4 = 16 > 8


@pytest.mark.parametrize("rmax", [0, -1])
def test_probe_semiprime_needs_a_power_to_check(rmax):
    with pytest.raises(ValueError, match="rmax"):
        probe_semiprime(6, 1, delta(2, 64), rmax=rmax)


# divisibility depth ---------------------------------------------------------------


def test_depth_indicator_cases():
    assert divisibility_depth(delta(8, 64), delta(2, 64)) == 3
    assert divisibility_depth(delta(6, 64), delta(2, 64)) == 1


def test_depth_bounded_by_norm_logarithm():
    rng = random.Random(19)
    for _ in range(15):
        a = rng.randint(2, 4)
        b = rng.randint(2, 64)
        f = random_with_norm(rng, 128, a)
        h = random_with_norm(rng, 128, b)
        depth = divisibility_depth(h, f)
        assert a**depth <= b


def test_depth_rejects_units_and_zero():
    with pytest.raises(ValueError):
        divisibility_depth(delta(4, 16), identity(16))
    with pytest.raises(ZeroFunctionError):
        divisibility_depth(zeros(16), delta(2, 16))


# family identities -----------------------------------------------------------------


def test_finite_complement_products_equal_coprime_family():
    co = IdealSpec.prime_products((2, 3), complement=True)
    pm = IdealSpec.coprime_vanishing(6)
    for idx in range(1, 65):
        d = delta(idx, 64)
        assert member(co, d).verdict == member(pm, d).verdict
    rng = random.Random(23)
    for _ in range(10):
        f = random_func(rng, 64)
        assert member(co, f).verdict == member(pm, f).verdict


def test_inclusion_chain_between_families():
    p2 = IdealSpec.coprime_vanishing(2)
    p6 = IdealSpec.coprime_vanishing(6)
    jq = IdealSpec.prime_products((5, 7))
    j5 = IdealSpec.prime_products((5,))
    rng = random.Random(37)
    candidates = [delta(i, 64) for i in range(1, 65)]
    candidates += [random_func(rng, 64) for _ in range(10)]
    candidates += [random_in_ideal(rng, p2, 64) for _ in range(5)]
    for f in candidates:
        if member(p2, f).verdict == MEMBER:
            assert member(p6, f).verdict == MEMBER
        if member(p6, f).verdict == MEMBER:
            assert member(jq, f).verdict == MEMBER
        if member(jq, f).verdict == MEMBER:
            assert member(j5, f).verdict == MEMBER


def test_same_coprime_ideal_iff_same_prime_divisors():
    p6, p12, p10 = (IdealSpec.coprime_vanishing(m) for m in (6, 12, 10))
    for idx in range(1, 65):
        d = delta(idx, 64)
        assert member(p6, d).verdict == member(p12, d).verdict
    d5 = delta(5, 64)
    assert member(p10, d5).verdict == MEMBER
    assert member(p6, d5).verdict == NON_MEMBER


def test_gcd_count_boundaries():
    base = IdealSpec.coprime_vanishing(6)
    k0 = IdealSpec.gcd_count(6, 0)
    k2 = IdealSpec.gcd_count(6, 2)
    for idx in range(1, 65):
        d = delta(idx, 64)
        assert member(k0, d).verdict == member(base, d).verdict
        assert member(k2, d).verdict == NON_MEMBER
    assert member(k2, zeros(64)).verdict == MEMBER
