"""Element classification, atom certificates with their exhaustive
soundness search, norm facts about non-unit products, and the units
group."""

import random
from fractions import Fraction

import pytest

from dirichlet_ring import (
    ArithFunc,
    ZeroFunctionError,
    check_nonprime_norm_product,
    classify,
    delta,
    essential_witness,
    identity,
    units_group_probe,
    zeros,
)
from dirichlet_ring.sampling import random_non_unit, random_nonzero
from dirichlet_ring.structure import (
    ADDITIVE,
    CERT_COMPOSITE_NEXT,
    CERT_NONE,
    CERT_PRIME_NORM,
    COMPLETELY_ADDITIVE,
    NOT_ADDITIVE,
    certified_atom_factor_search,
    nonunit_product_profiles,
)
from dirichlet_ring.witness import MEMBER
from dirichlet_ring.zoo import big_omega, liouville, mangoldt, mobius

from oracles import convolve_lists


def test_classify_mobius_is_a_unit():
    report = classify(mobius(32))
    assert report.is_unit and not report.in_maximal
    assert report.norm == 1
    assert report.atom_certificate == CERT_NONE


def test_classify_prime_indicator_is_an_atom():
    report = classify(delta(7, 16))
    assert not report.is_unit and report.in_maximal
    assert report.atom_certificate == CERT_PRIME_NORM


def test_classify_composite_norm_with_next_nonzero():
    f = ArithFunc([0, 0, 0, 1, 1, 0])
    report = classify(f)
    assert report.norm == 4
    assert report.atom_certificate == CERT_COMPOSITE_NEXT


def test_classify_composite_norm_without_next_is_undecided():
    assert classify(delta(4, 16)).atom_certificate == CERT_NONE


def test_classify_additive_classes():
    assert classify(big_omega(32)).additive_class == COMPLETELY_ADDITIVE
    assert classify(mangoldt(32)).additive_class == NOT_ADDITIVE
    # additive but not completely: the distinct-prime counter
    from dirichlet_ring.zoo import distinct_prime_count

    assert classify(distinct_prime_count(32)).additive_class == ADDITIVE


def test_classify_rejects_zero():
    with pytest.raises(ZeroFunctionError):
        classify(zeros(8))


def test_additive_implies_in_maximal():
    rng = random.Random(3)
    from dirichlet_ring.sampling import random_additive

    for _ in range(8):
        f = random_additive(rng, 48)
        if f.is_zero():
            continue
        report = classify(f)
        if report.additive_class in (ADDITIVE, COMPLETELY_ADDITIVE):
            assert report.in_maximal


def test_local_dichotomy_on_samples():
    rng = random.Random(8)
    for _ in range(30):
        f = random_nonzero(rng, 32)
        report = classify(f)
        assert report.is_unit != report.in_maximal
        assert report.is_unit == bool(f(1))


# non-prime norm products ----------------------------------------------------


def test_nonunit_product_norm_four():
    w = check_nonprime_norm_product(delta(2, 32), delta(2, 32))
    assert w.verdict == MEMBER
    assert (delta(2, 32) * delta(2, 32)).norm() == 4


def test_nonunit_products_vanish_at_primes():
    rng = random.Random(12)
    for _ in range(20):
        f = random_non_unit(rng, 128)
        g = random_non_unit(rng, 128)
        assert check_nonprime_norm_product(f, g).verdict == MEMBER


def test_nonprime_norm_product_rejects_units():
    with pytest.raises(ValueError):
        check_nonprime_norm_product(identity(8), delta(2, 8))
    with pytest.raises(ZeroFunctionError):
        check_nonprime_norm_product(zeros(8), delta(2, 8))


# units group -------------------------------------------------------------------


def test_units_group_probe_passes():
    assert units_group_probe(10, seed=4, window=32).verdict == MEMBER


@pytest.mark.parametrize("samples", [0, -4])
def test_units_group_probe_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        units_group_probe(samples, 0, 16)


def test_mobius_liouville_products_and_inverses():
    mu, lam = mobius(64), liouville(64)
    prod = mu * lam
    assert prod(1) != 0
    assert prod.invert() == lam.invert() * mu.invert()


def test_unit_value_products():
    f = ArithFunc([2, 0, 0])
    g = ArithFunc([Fraction(1, 3), 0, 0])
    assert (f * g)(1) == Fraction(2, 3)


# essential ideal ---------------------------------------------------------------


def test_essential_witness_meets_maximal_ideal():
    rng = random.Random(6)
    for _ in range(10):
        f = random_nonzero(rng, 24)
        w = essential_witness(f)
        assert not w.is_zero()
        assert w(1) == 0
        assert w.norm() == 2 * f.norm()
    with pytest.raises(ZeroFunctionError):
        essential_witness(zeros(8))


# exhaustive atom soundness -------------------------------------------------------


def test_product_profiles_match_direct_convolution():
    # the profile enumeration agrees with literal convolution of padded factors
    profiles = nonunit_product_profiles(8)
    rng = random.Random(44)
    for _ in range(50):
        g = [0, 0] + [rng.choice((-1, 0, 1)) for _ in range(3)] + [0, 0, 0]
        h = [0, 0] + [rng.choice((-1, 0, 1)) for _ in range(3)] + [0, 0, 0]
        g[1] = rng.choice((-1, 0, 1))
        h[1] = rng.choice((-1, 0, 1))
        if not any(g) or not any(h):
            continue
        assert tuple(convolve_lists(g, h)) in profiles


def test_no_certified_atom_factors_at_reduced_bounds():
    assert certified_atom_factor_search(window=9) is None


def test_certified_atoms_really_resist_the_search():
    # spot-check: a certified atom profile is never a non-unit product
    profiles = nonunit_product_profiles(12)
    atom = tuple([0, 0, 0, 1, 1] + [0] * 7)  # norm 4, next index nonzero
    assert atom not in profiles
    prime_atom = tuple([0, 0, 1] + [0] * 9)  # norm 3
    assert prime_atom not in profiles
