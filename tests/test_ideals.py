"""Ideal families: membership, quotients, decompositions, chains, the
window decisions of primality and semi-primality, and the primality
probe."""

import random
import re
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, prod

import pytest

from dirichlet_ring import (
    ArithFunc,
    ChainLink,
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
    window_prime,
    zeros,
)
from dirichlet_ring import ring
from dirichlet_ring.primes import nth_prime
from dirichlet_ring.sampling import (
    random_func,
    random_in_ideal,
    random_scalar,
    random_with_norm,
)
from dirichlet_ring import MEMBER, NON_MEMBER, UNDECIDED, Witness

from oracles import (constrained_scan, convolve_lists, depth_power_chain, distinct_count_scan,
                     is_prime_scan, minimal_generators_scan, prime_factors_scan, rank_over_q)

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
    with pytest.raises(ValueError, match="modulus"):
        IdealSpec.gcd_count(0, 1)
    with pytest.raises(ValueError, match="tail start"):
        IdealSpec.prime_tail(0)


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
    with pytest.raises(ValueError, match="norm 5 must lie in the window 1..4"):
        random_with_norm(random.Random(1), 4, 5)


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


@pytest.mark.parametrize("window", [1, 2, 3, 64, 300, 1000])
def test_constrained_indices_match_definition_scan(window):
    for spec in SCAN_SPECS:
        assert spec.constrained_indices(window) == tuple(constrained_scan(spec, window)), spec


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
    with pytest.raises(ValueError, match="^4 is not prime$"):
        principal_quotient(4, delta(4, 16))


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


def _assert_separates(link, window):
    """delta_k, with k read from the link's label, lies in the larger spec only."""
    sep = delta(int(link.separator_label.removeprefix("delta_")), window)
    assert member(link.larger, sep).verdict == MEMBER
    assert member(link.smaller, sep).verdict == NON_MEMBER


def test_ascending_coprime_chain():
    report = chain("P_ascending", 3, 64)
    assert [s.label() for s in report.specs] == ["P_2", "P_6", "P_30"]
    assert [l.separator_label for l in report.links] == ["delta_3", "delta_5"]
    assert ChainLink._fields == ("smaller", "larger", "separator_label")
    for link in report.links:
        _assert_separates(link, 64)


def test_descending_norm_chain():
    report = chain("I_descending", 4, 16)
    assert [s.label() for s in report.specs] == ["I_1", "I_2", "I_3", "I_4"]
    assert [l.separator_label for l in report.links] == ["delta_1", "delta_2", "delta_3"]


def test_ascending_prime_tail_chain():
    report = chain("K_ascending", 3, 64)
    assert [l.separator_label for l in report.links] == ["delta_2", "delta_3"]
    # the separator delta_{pi_k} lies in K_{k+1} and not in K_k
    for link in report.links:
        _assert_separates(link, 64)


def test_descending_prime_products_chain():
    report = chain("J_descending", 4, 64)
    assert [s.label() for s in report.specs] == [
        "J_{2}",
        "J_{2,3}",
        "J_{2,3,5}",
        "J_{2,3,5,7}",
    ]
    for link in report.links:
        _assert_separates(link, 64)


def test_chain_window_guard(monkeypatch):
    with pytest.raises(WindowError):
        chain("P_ascending", 4, 5)  # needs delta_7 visible
    with pytest.raises(ValueError):
        chain("P_ascending", 1, 64)
    with pytest.raises(ValueError):
        chain("sideways", 3, 64)
    # K_1 and K_2 differ at index 2 alone, so a K_2 that constrains it has no separator
    constrained = IdealSpec.constrained_indices
    monkeypatch.setattr(IdealSpec, "constrained_indices", lambda self, window: tuple(
        sorted({*constrained(self, window), 2})) if self == IdealSpec.prime_tail(2) else
        constrained(self, window))
    with pytest.raises(AssertionError, match=r"^K_1 is not strictly inside K_2 on 1\.\.64$"):
        chain("K_ascending", 3, 64)


def test_chain_builds_no_indicator_and_asks_no_member(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("chain built an indicator or asked member")

    monkeypatch.setattr(ideals, "delta", refuse)
    monkeypatch.setattr(ideals, "member", refuse)
    for family in ideals.CHAIN_FAMILIES:
        assert len(chain(family, 5, 64).links) == 4


def _fitting_chains(family, window):
    """The family's chains at every length from 2 that fits the window."""
    reports = []
    while True:
        try:
            reports.append(chain(family, len(reports) + 2, window))
        except WindowError:
            return reports


@pytest.mark.parametrize("window", [*range(1, 65), 300])
def test_chain_links_match_the_definition_scan(monkeypatch, window):
    scan = cache(lambda spec: set(constrained_scan(spec, window)))
    constrained = IdealSpec.constrained_indices
    for family in ideals.CHAIN_FAMILIES:
        reports = _fitting_chains(family, window)
        for report in reports:
            for link in report.links:
                small, large = scan(link.smaller), scan(link.larger)
                assert large <= small, link  # I_S lies in I_T exactly when T lies in S
                assert link.separator_label == f"delta_{min(small - large)}", link
        if not reports:
            continue
        # a larger spec that also constrains an index the smaller leaves free
        # breaks the inclusion, though a separator remains
        smaller, larger, _ = reports[-1].links[0]
        free = min(set(range(1, window + 1)) - scan(smaller), default=None)
        if free is None:
            continue
        message = f"{smaller} is not strictly inside {larger} on 1..{window}"
        with monkeypatch.context() as m:
            m.setattr(IdealSpec, "constrained_indices", lambda self, n: tuple(
                sorted({*constrained(self, n), free})) if self == larger else constrained(self, n))
            with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
                chain(family, len(reports[-1].specs), window)


# the longest chain each family fits in a window of 64, and the separator
# point the next longer one misses: primes run out at p_18 = 61 < 64 < 67
CHAIN_FIT_AT_64 = {"P_ascending": (18, 67), "J_descending": (18, 67),
                   "I_descending": (65, 65), "K_ascending": (19, 67)}


@pytest.mark.parametrize("family", CHAIN_FIT_AT_64)
def test_chain_window_boundary(family):
    longest, missed = CHAIN_FIT_AT_64[family]
    assert len(chain(family, longest, 64).specs) == longest
    for length in (longest + 1, 10**5):  # the check comes before any spec is built
        with pytest.raises(WindowError, match=rf"^window 64 too small to hold separator delta_{missed}$"):
            chain(family, length, 64)


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


def _hand_draws(monkeypatch, *draws):
    """Make the probe's search draw the given functions, in order."""
    queue = iter(draws)
    monkeypatch.setattr(ideals, "random_func", lambda rng, n: next(queue))


@pytest.mark.parametrize("seed", [63, 93, 182, 354, 395])
def test_probe_prime_skips_pairs_whose_violation_leaves_the_window(seed):
    # each seed samples a pair with first violations k1 * k2 at 65 or 77
    w = probe_prime(IdealSpec.coprime_vanishing(6), trials=40, seed=seed, window=64)
    assert w.verdict == UNDECIDED


def test_probe_prime_skips_a_drawn_pair_whose_violation_leaves_the_window(monkeypatch):
    # the violations at 5 and 13 multiply to 65, so delta_5 * delta_13 is
    # 0 on the window only because the window cuts it off
    spec = IdealSpec.coprime_vanishing(6)
    _hand_draws(monkeypatch, delta(2, 64) + delta(5, 64), delta(13, 64))
    w = probe_prime(spec, trials=1, seed=0, window=64)
    assert w == Witness(UNDECIDED, note="no counterexample among 1 sampled pairs")


def test_probe_prime_maximal_stays_undecided():
    w = probe_prime(IdealSpec.maximal(), trials=30, seed=3, window=32)
    assert w.verdict == UNDECIDED


def test_probe_prime_counts_the_pairs_it_draws():
    # I_1, the whole ring, constrains no index: it has no non-member to draw
    for spec, drawn in ((IdealSpec.norm_floor(1), 0), (IdealSpec.maximal(), 3)):
        w = probe_prime(spec, trials=3, seed=1, window=4)
        assert w == Witness(UNDECIDED, note=f"no counterexample among {drawn} sampled pairs")


@pytest.mark.parametrize("skipped", [1, 2])
def test_probe_prime_random_search_refutes(monkeypatch, skipped):
    # with a scan that passes, there is no first pair: the search skips each
    # pair holding a member, then delta_2 twice refutes I_4: delta_4 lies in it
    monkeypatch.setattr(ideals, "window_prime", lambda spec, window: Witness(MEMBER))
    spec, d2, zero = IdealSpec.norm_floor(4), delta(2, 64), zeros(64)
    pairs = [(zero, d2), (d2, zero)][:skipped] + [(d2, d2)]
    _hand_draws(monkeypatch, *(f for pair in pairs for f in pair))
    w = probe_prime(spec, trials=skipped + 1, seed=0, window=64)
    assert w == Witness(NON_MEMBER, note="product of two non-members lies in the ideal",
                        elements=(d2, d2))


def test_probe_norm_floor_refuted():
    w = probe_prime(IdealSpec.norm_floor(4), trials=0, seed=1, window=32)
    assert w.verdict == NON_MEMBER


PROBE_SPECS = ALL_FAMILY_SPECS + [  # each family near the windows where its scan starts to fail
    *(IdealSpec.norm_floor(n) for n in (1, 2, 3, 5, 6)),
    *(IdealSpec.coprime_vanishing(m) for m in (1, 2, 30, 210)),
    *(IdealSpec.gcd_count(m, k) for m, k in ((30, 1), (30, 2), (210, 1), (210, 2), (210, 3))),
    IdealSpec.prime_products((2,)),
    IdealSpec.prime_products((5, 7)),
    *(IdealSpec.prime_products(q, complement=True) for q in ((7,), (2, 3, 5))),
    *(IdealSpec.prime_tail(n) for n in (1, 2, 4, 5, 40)),
]


def test_probe_refutes_exactly_when_the_scan_does():
    # the first pair is the scan's failing pair (the all-ones pair for K_n),
    # and a drawn pair refutes only on a scan failure, so 25 sampled pairs
    # decide what 0 pairs do
    for spec in PROBE_SPECS:
        for window in range(1, 49):
            if spec.tag == "I" and spec.n > window + 1:
                continue  # the window cannot hold the threshold
            scan = window_prime(spec, window)  # pair None when it passes, and for the whole ring
            ones = ArithFunc([0] + [1] * (window - 1))
            pair = (ones, ones) if spec.tag == "K" else scan.elements
            for seed in range(3):
                for trials in (0, 25):
                    w = probe_prime(spec, trials, seed, window)
                    assert (w.verdict == NON_MEMBER) == (scan.pair is not None), (spec, window)
                    assert w.elements == (pair if scan.pair else ()), (spec, window)


@pytest.mark.parametrize("spec, pair", [(IdealSpec.norm_floor(5), (2, 3)),
                                        (IdealSpec.gcd_count(30, 2), (2, 15))])
def test_probe_prime_shows_the_scans_least_pair(spec, pair):
    w = probe_prime(spec, trials=0, seed=0, window=64)
    assert w == Witness(NON_MEMBER, note="product of two non-members lies in the ideal",
                        elements=tuple(delta(k, 64) for k in pair))


def test_probe_prime_does_not_refute_past_the_window():
    # K_3's least failing pair is (5, 5), and 25 lies past the window, so the
    # scan finds every pair outside and the probe has no first pair
    assert window_prime(IdealSpec.prime_tail(3), 10).is_member
    w = probe_prime(IdealSpec.prime_tail(3), 0, 0, 10)
    assert w == Witness(UNDECIDED, note="no counterexample among 0 sampled pairs")


# window decisions of primality ---------------------------------------------------


@pytest.mark.parametrize("window", [0, -1])
def test_window_prime_needs_a_window(window):
    with pytest.raises(ValueError, match="window length"):
        window_prime(IdealSpec.maximal(), window)


def test_window_prime_scans_a_first_row_other_than_1(monkeypatch):
    # the row a = 1 is counted, not scanned, only when T holds 1, so a faulty
    # index set without 1 is still scanned from its first index
    monkeypatch.setattr(IdealSpec, "constrained_indices", lambda spec, window: (2, 3))
    assert window_prime(IdealSpec.maximal(), 6).pair == (2, 2)


def test_probe_semiprime_least_indices_track_powers():
    # f(1) = 0 and f(2) != 0 put f outside P_{30,2} at 2 and its square at 4,
    # as the squares scan of the semi-prime P_{30,2} says they must
    spec = IdealSpec.gcd_count(30, 2)
    assert window_prime(spec, 16, squares=True).is_member
    rng = random.Random(7)
    for _ in range(5):
        vals = [random_scalar(rng) for _ in range(16)]
        vals[0] = Fraction(0)
        vals[1] = Fraction(rng.choice((1, 2, 3)))
        f = ArithFunc(vals, EXACT)
        for r in (1, 2):
            w = member(spec, f.power(r))
            assert w.verdict == NON_MEMBER and w.index == 2**r


PRIME_SPECS = [
    *(IdealSpec.norm_floor(n) for n in (1, 2, 4, 9, 20)),
    IdealSpec.maximal(),
    *(IdealSpec.coprime_vanishing(m) for m in (1, 2, 6, 30)),
    *(IdealSpec.gcd_count(m, k) for m, k in ((6, 0), (6, 1), (6, 2), (30, 1), (30, 2))),
    IdealSpec.prime_products((2, 3)),
    IdealSpec.prime_products((5,)),
    IdealSpec.prime_products((2, 3), complement=True),
    IdealSpec.prime_products((7,), complement=True),
    *(IdealSpec.prime_tail(n) for n in (1, 3)),
]


def _brute_prime(spec, window, squares, indicators, products):
    """The first pair (a, b), a <= b, of indicators outside whose product
    lies inside, and the number of pairs before it, by the product of
    every two indicators on the window and the definition scan; ab > window
    leaves the product zero on the window, so such a pair decides nothing."""
    constrained = constrained_scan(spec, window)
    outside = [a for a, d in indicators.items() if any(d[k - 1] for k in constrained)]
    count = 0
    for i, a in enumerate(outside):
        for b in outside[i : i + 1] if squares else outside[i:]:
            if a * b <= window:
                if not any(products[a, b][k - 1] for k in constrained):
                    return (a, b), count
                count += 1
    return None, count


@pytest.mark.parametrize("squares", [False, True], ids=["prime", "semiprime"])
def test_window_prime_matches_brute_force(squares):
    for window in range(1, 25):
        indicators = {a: [int(k == a) for k in range(1, window + 1)] for a in range(1, window + 1)}
        products = {(a, b): convolve_lists(indicators[a], indicators[b])
                    for a in indicators for b in indicators}
        for spec in PRIME_SPECS:
            if spec.tag == ideals.TAG_NORM_FLOOR and spec.n > window + 1:  # as member refuses it
                with pytest.raises(WindowError, match=f"^norm threshold {spec.n} inspects indices "
                                                      f"beyond the window {window}$"):
                    window_prime(spec, window, squares)
                continue
            w = window_prime(spec, window, squares)
            pair, count = _brute_prime(spec, window, squares, indicators, products)
            if not constrained_scan(spec, window):  # the whole ring never passes vacuously
                kind = "semi-prime" if squares else "prime"
                assert w == Witness(NON_MEMBER, note=f"not {kind} (the whole ring)"), (spec, window)
            elif pair is None:
                kind = "squares" if squares else "pairs"
                note = f"every one of {count} {kind} with product <= {window} stays outside"
                assert w == Witness(MEMBER, note=note), (spec, window)
            else:
                a, b = pair
                note = f"delta_{a} * delta_{b} = delta_{a * b} lies in {spec.label()}"
                elements = (delta(a, window), delta(b, window))
                assert w == Witness(NON_MEMBER, pair=pair, note=note, elements=elements), (spec, window)


def _outside(rng, spec, window):
    """A seeded non-member with entries in -3..3, zero below a random
    index, and the least index where it violates the ideal."""
    for _ in range(1000):
        zero = rng.randrange(window)
        vals = [0] * zero + [rng.randint(-3, 3) for _ in range(window - zero)]
        verdict = member(spec, ArithFunc(vals))
        if not verdict.is_member:
            return vals, verdict.index
    raise AssertionError(f"no non-member of {spec} drawn on 1..{window}")


@pytest.mark.parametrize("squares", [False, True], ids=["prime", "semiprime"])
def test_non_members_never_contradict_a_window_decision(squares):
    rng = random.Random(31)
    checked = 0
    for window in range(1, 25):
        for spec in PRIME_SPECS:
            if spec.tag == ideals.TAG_NORM_FLOOR and spec.n > window + 1:
                continue
            if not window_prime(spec, window, squares).is_member:
                continue
            for _ in range(10):
                f, a = _outside(rng, spec, window)
                g, b = (f, a) if squares else _outside(rng, spec, window)
                if a * b <= window:
                    product = member(spec, ArithFunc(convolve_lists(f, g)))
                    assert product.index == a * b, (spec, window, f, g)
                    checked += 1
    assert checked > 1000


# minimal generators and the family classification ---------------------------------


def test_minimal_generators_match_the_divisor_scan():
    # every family's T on 1..w is its T on 1..300 cut at w, and a generator's
    # divisors are at most itself, so the scan's generators at window w are
    # those at 300 up to w; I_1 is the whole ring, with none in 2..w
    for spec in SCAN_SPECS:
        scanned = minimal_generators_scan(spec, 300)
        for window in range(1, 301):
            expected = tuple(s for s in scanned if s <= window)
            assert ideals.minimal_generators(spec, window) == expected, (spec, window)


def test_p_m_needs_one_generator_per_prime_of_m():
    # Nakayama: P_m needs |G(P_m)| = omega(m) generators, the delta_p with p | m
    for m in (1, 2, 6, 12, 30, 210, 2310, 30030):
        primes = tuple(p for p, _ in prime_factors_scan(m))
        assert ideals.minimal_generators(IdealSpec.coprime_vanishing(m), 1024) == primes, m


def test_family_classification_grid_at_1024():
    n = 1024
    # P_{m,k}, m squarefree: prime exactly when k = 0, k >= omega(m) (the
    # zero ideal), or the product of m's k + 1 least primes, the least
    # product of two indices in T that leaves T, is past n; always semi-prime
    for m in range(1, 2311):
        factors = prime_factors_scan(m)
        if any(a > 1 for _, a in factors):
            continue
        ps = [p for p, _ in factors]
        for k in range(len(ps) + 1):
            spec = IdealSpec.gcd_count(m, k)
            prime = k == 0 or k >= len(ps) or prod(ps[: k + 1]) > n
            assert window_prime(spec, n).is_member == prime, spec
            assert window_prime(spec, n, squares=True).is_member, spec
    # J_Q and J_~Q over the primes <= 13 are prime
    small = [p for p in range(2, 14) if is_prime_scan(p)]
    for r in range(1, len(small) + 1):
        for q in combinations(small, r):
            for complement in (False, True):
                spec = IdealSpec.prime_products(q, complement)
                assert window_prime(spec, n).is_member, spec
    # K_j fails at (p_j, p_j), so it is refuted, and not semi-prime, exactly
    # when p_j^2 <= n: K_11 (31^2 = 961) is, K_12 (37^2 = 1369) is not
    for j, p in enumerate([p for p in range(2, 60) if is_prime_scan(p)], 1):
        for squares in (False, True):
            assert window_prime(IdealSpec.prime_tail(j), n, squares).is_member == (p * p > n), j
    # I_t is neither prime nor semi-prime
    for t in (3, 4, 5, 33):
        for squares in (False, True):
            assert not window_prime(IdealSpec.norm_floor(t), n, squares).is_member, t


# divisibility depth ---------------------------------------------------------------


def test_depth_indicator_cases():
    assert divisibility_depth(delta(8, 64), delta(2, 64)) == 3
    assert divisibility_depth(delta(6, 64), delta(2, 64)) == 1
    # delta_2^5 = delta_32 is zero on 1..16, so the depth stops at 4
    assert divisibility_depth(delta(16, 16), delta(2, 16)) == 4


def test_depth_bounded_by_norm_logarithm():
    rng = random.Random(19)
    for _ in range(15):
        a = rng.randint(2, 4)
        b = rng.randint(2, 64)
        f = random_with_norm(rng, 128, a)
        h = random_with_norm(rng, 128, b)
        depth = divisibility_depth(h, f)
        assert a**depth <= b


def test_depth_matches_the_power_chain_oracle():
    # h = g * f^r on one window, sometimes moved off it by an indicator
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(8, 128)
        f = random_with_norm(rng, n, rng.randint(2, 5))
        h = random_with_norm(rng, n, rng.randint(1, 3))
        for _ in range(rng.randint(0, 3)):
            h = h * f
        if rng.random() < 0.3:
            h = h + delta(rng.randint(1, n), n)
        if not h.is_zero():
            assert divisibility_depth(h, f) == depth_power_chain(list(h.values), list(f.values))


def test_depth_on_unequal_windows_builds_no_product(monkeypatch):
    rng = random.Random(43)
    f = random_with_norm(rng, 4096, 2)
    h = f * f * f * random_with_norm(rng, 4096, 1)

    def refuse(*args):
        raise AssertionError("divisibility_depth built a product")

    monkeypatch.setattr(ArithFunc, "convolve", refuse)
    monkeypatch.setattr(ring, "_product", refuse)
    assert divisibility_depth(h, f) == 3
    # delta_4 on 1..6 over delta_2 leaves delta_2 on 1..3, then delta_1 on
    # 1..1, a window too short for norm 2
    assert divisibility_depth(delta(4, 6), delta(2, 16)) == 2
    # norm 5 lies past the window 1..4, so not even f^1 divides
    assert divisibility_depth(delta(4, 4), delta(5, 8)) == 0


def test_depth_rejects_units_and_zero():
    with pytest.raises(ValueError):
        divisibility_depth(delta(4, 16), identity(16))
    with pytest.raises(ZeroFunctionError):
        divisibility_depth(zeros(16), delta(2, 16))


# the prime-divisor families read only the window's primes ---------------------------


def _refuse_factorize(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorized {n}")

    IdealSpec.constrained_indices.cache_clear()
    monkeypatch.setattr(ideals, "factorize", refuse)


@pytest.mark.parametrize("m", [1, 12, 30, 1001, 2**61 - 1, 1000000000000000003])
def test_coprime_family_never_factors_its_modulus(monkeypatch, m):
    _refuse_factorize(monkeypatch)
    spec = IdealSpec.coprime_vanishing(m)
    coprime = tuple(k for k in range(1, 65) if gcd(k, m) == 1)
    assert spec.constrained_indices(64) == coprime
    f = random_in_ideal(random.Random(m % 997), spec, 64)
    assert member(spec, f).is_member
    outside = member(spec, f + delta(coprime[-1], 64))
    assert (outside.verdict, outside.index) == (NON_MEMBER, coprime[-1])
    verdict = probe_prime(spec, 20, 3, 64)
    if verdict.verdict == NON_MEMBER:
        g, h = verdict.elements
        assert not member(spec, g).is_member and not member(spec, h).is_member
        assert member(spec, g * h).is_member
    else:
        assert verdict.verdict == UNDECIDED


@pytest.mark.parametrize("m, k", [(6, 1), (30030, 2), (30030 * 1000003, 3)])
def test_gcd_count_index_set_never_factors_its_modulus(monkeypatch, m, k):
    spec = IdealSpec.gcd_count(m, k)  # the squarefree check factors m
    _refuse_factorize(monkeypatch)
    few = tuple(i for i in range(1, 129) if distinct_count_scan(gcd(i, m)) <= k)
    assert spec.constrained_indices(128) == few


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
