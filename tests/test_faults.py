"""Fault injection: every check must be able to fail.

Each fault below breaks one function of the package and is patched in
under every name a package module looks it up by (``zoo`` imports
``_lift`` by name; ``dirichlet_product``, which ``verify`` and
``structure`` import, and every kernel run the loops of ``ring``).  A
fault counts as caught when ``verify.run_all(64, 0)`` reports a FAIL or
one of the ``ORACLE_COMPARISONS`` against the independent evaluators in
``oracles`` disagrees.  ``KILLS`` records, for each fault, exactly the
checks and comparisons that catch it (the fault x check kill matrix);
the test asserts it, so a check that stops catching a fault shows up
here.  A fault that a single check catches shows where to strengthen
the suite.

The index-set cache of ``IdealSpec.constrained_indices`` is cleared
around every test, so no fault leaves a wrong index set behind.
"""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from dirichlet_ring import ideals, primes, ring, structure, verify
from dirichlet_ring.ideals import TAG_COPRIME, IdealSpec
from dirichlet_ring.ring import ArithFunc, NotDivisibleWitness

from oracles import convolve_lists, divide_lists

CONSTRAINED = IdealSpec.constrained_indices  # the cached original
CERTIFICATE = structure._certificate_for_profile
LIFT = ring._lift
MISMATCH = ring._mismatch
DIVIDE = ring._divide
STEP = ring._step
SIEVE = primes.smallest_prime_factors
DECOMPOSE = ideals.decompose_coprime_vanishing


def inject(monkeypatch, original, fault) -> None:
    """Replace ``original`` by ``fault`` under every name a package module
    holds it by."""
    names = [(module, key) for name, module in list(sys.modules.items())
             if name == "dirichlet_ring" or name.startswith("dirichlet_ring.")
             for key, value in vars(module).items() if value is original]
    assert names, f"{original.__name__} is looked up nowhere"
    for module, key in names:
        monkeypatch.setattr(module, key, fault)


# the faults ---------------------------------------------------------------


def product_skipping_squares(a, b, n, zero):
    """``ring._product`` term by term, without the terms i = j > 1."""
    out = [[z] * n for z in zero]
    for i in range(1, n + 1):
        for j in range(1, n // i + 1):
            if a[0][i - 1] and not i == j > 1:
                ring._step(out, slice(i * j - 1, i * j), b, slice(j - 1, j), a, i - 1)
    return out


def divide_doubling_g47(h, acc, at, f, a):
    """``_divide`` with the solved value g(47) doubled before ``_solve``
    pushes it on."""
    g = DIVIDE(h, acc, at, f, a)
    m = (at.start + 1) // a  # the block's first m
    if m <= 47 < m + len(g[0]):
        g[0][47 - m] *= 2  # the value, or its numerator
    return g


def mismatch_scanning_one_short(acc, target, a, n):
    """``_mismatch``, the leftover scan of ``try_divide``, stopping one
    index early."""
    return MISMATCH(acc, target, a, n - 1)


def constrained_dropping_last_of_p_m(self, window):
    """``constrained_indices`` that loses the last index of every P_m."""
    idxs = CONSTRAINED(self, window)
    return idxs[:-1] if self.tag == TAG_COPRIME else idxs


def certificate_firing_at_small_norms(profile, norm_bound):
    """``_certificate_for_profile`` that certifies every norm 2..6."""
    c = next((i + 1 for i, v in enumerate(profile) if v), None)
    if c is not None and 2 <= c <= 6:
        return structure.CERT_PRIME_NORM
    return CERTIFICATE(profile, norm_bound)


def sieve_calling_49_prime(n):
    """``smallest_prime_factors`` that never crosses off 49."""
    spf = SIEVE(n)
    if n >= 49:
        spf[49] = 49
    return spf


def decomposition_one_index_late(m, f):
    """``decompose_coprime_vanishing`` whose generators are the indicators
    one index past m's primes; the points and cofactors stay right."""
    dec = DECOMPOSE(m, f)
    return dec._replace(generators=tuple(ring.delta(q + 1, len(f), f.mode)
                                         for q in dec.generator_points))


def lift_with_one_scale(n, *operands):
    """``_lift`` that gives every operand the first operand's denominator."""
    lifted = LIFT(n, *operands)
    return [(vals, lifted[0][1]) for vals, _ in lifted]


def step_keeping_the_gcd(acc, at, col, cut, row, k):
    """``_step`` whose pair gcd branch divides the gcd out of the
    numerators only."""
    if len(row) == 1 or row[1][k].bit_length() + max(col[1][cut]).bit_length() <= 64:
        return STEP(acc, at, col, cut, row, k)
    (nums, dens), cn, cd, xn, xd = acc, col[0][cut], col[1][cut], row[0][k], row[1][k]
    tn = [m * xn for m in cn]
    td = [e * xd if m else 1 for m, e in zip(cn, cd)]
    an, ad = nums[at], dens[at]
    g = list(map(gcd, ad, td))
    nums[at] = [p * (t // q) + m * (d // q) for p, t, m, d, q in zip(an, td, tn, ad, g)]
    dens[at] = [d * t for d, t in zip(ad, td)]


FAULTS = {
    "product skips i = j > 1": lambda mp: inject(mp, ring._product, product_skipping_squares),
    "_solve doubles g(47)": lambda mp: inject(mp, DIVIDE, divide_doubling_g47),
    "leftover scan stops one short": lambda mp: inject(mp, MISMATCH, mismatch_scanning_one_short),
    "P_m loses its last index": lambda mp: mp.setattr(
        IdealSpec, "constrained_indices", constrained_dropping_last_of_p_m),
    "certificate fires at norms 2..6": lambda mp: inject(
        mp, CERTIFICATE, certificate_firing_at_small_norms),
    "sieve calls 49 prime": lambda mp: inject(mp, SIEVE, sieve_calling_49_prime),
    "generators one index late": lambda mp: inject(mp, DECOMPOSE, decomposition_one_index_late),
    "_lift shares one scale": lambda mp: inject(mp, LIFT, lift_with_one_scale),
    "_Pair gcd branch keeps the gcd": lambda mp: inject(mp, STEP, step_keeping_the_gcd),
}


# the oracle comparisons ---------------------------------------------------


def _operand(rng, n, wide, norm=1):
    """Entries -3..3 over 1, 2, 3 (narrow) or over two denominators of at
    least 20 bits past SHARED_BITS (wide, stored as numerator and
    denominator columns), vanishing below ``norm`` and not at it.  The
    draws do not depend on the bound, so neither do the narrow cases."""
    d = (1 << (ring.SHARED_BITS + 19)) + rng.randrange(1 << 99)
    dens = (d, d + 1) if wide else (1, 2, 3)
    vals = [Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(n)]
    vals[: norm] = [0] * (norm - 1) + [Fraction(rng.choice((-2, -1, 1, 2)), dens[0])]
    vals[norm % n] = Fraction(rng.choice((-1, 1)), dens[-1])
    f = ArithFunc(vals)
    assert isinstance(f._den, tuple) == wide
    return f


def _cases(n):
    rng = random.Random(5)
    return [(_operand(rng, n, wide), _operand(rng, n, wide, norm)) for wide in (False, True)
            for norm in (1, 2, 3)]


def _convolve_agrees() -> bool:
    return all(list((f * g).values) == convolve_lists(list(f.values), list(g.values))
               for f, g in _cases(24))


def _divide_agrees() -> bool:
    """Quotients of f * g, and the witness once it is moved off f * g at
    the last index or at the first index past the divisor's norm."""
    for g, f in _cases(23):
        a = f.norm()
        for k in (0, a + 1, 23):
            h = f * g + (ring.delta(k, 23) if k else ring.zeros(23))
            q = ring.try_divide(h, f)  # looked up where a fault replaces it
            got = q.index if isinstance(q, NotDivisibleWitness) else list(q.values)
            if got != divide_lists(list(h.values), list(f.values)):
                return False
    return True


ORACLE_COMPARISONS = {"oracle: convolve": _convolve_agrees, "oracle: try_divide": _divide_agrees}


# the kill matrix ----------------------------------------------------------
#
# Checks are named by their function in ``verify`` without ``_check_``.
# verify-paper samples narrow functions only, so the wide-path fault is
# caught by the oracle comparisons alone, and so is the leftover scan,
# which misses only a witness at the last index; only the atoms check
# sees the certificate fault, and only the generator check sees a wrong
# generator, since a reconstruction reads the points and the cofactors.

KILLS = {
    "product skips i = j > 1": {"invertibility", "units_group", "norm_homomorphism",
                                "integral_domain", "semiprime", "mobius_inversion",
                                "oracle: convolve"},
    "_solve doubles g(47)": {"invertibility", "units_group", "mobius_inversion"},
    "leftover scan stops one short": {"oracle: try_divide"},
    "P_m loses its last index": {"principal_prime", "generator_count", "not_bezout", "krull_chains",
                                 "prime_products_ideal", "semiprime_boundaries"},
    "certificate fires at norms 2..6": {"atoms_every_norm"},
    "sieve calls 49 prime": {"nonprime_norm_products", "krull_chains", "prime_tail_not_prime",
                             "mobius_inversion"},
    "generators one index late": {"generator_count"},
    "_lift shares one scale": {"invertibility", "units_group", "local_dichotomy",
                               "oracle: convolve", "oracle: try_divide"},
    "_Pair gcd branch keeps the gcd": {"oracle: convolve", "oracle: try_divide"},
}


@pytest.fixture(autouse=True)
def fresh_index_cache():
    CONSTRAINED.cache_clear()
    yield
    CONSTRAINED.cache_clear()


def caught() -> set[str]:
    """The verify-paper checks that FAIL at window 64, seed 0, and the
    oracle comparisons that disagree."""
    checks = dict(verify.CHECKS)
    failed = {checks[r.name].__name__.removeprefix("_check_")
              for r in verify.run_all(64, 0) if not r.passed}
    return failed | {name for name, agrees in ORACLE_COMPARISONS.items() if not agrees()}


def test_the_intact_package_passes_every_check():
    assert caught() == set()


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_is_caught(monkeypatch, fault):
    FAULTS[fault](monkeypatch)
    assert KILLS[fault] and caught() == KILLS[fault]


def test_certificate_fault_is_found_by_the_atom_search(monkeypatch):
    """The least certified product of two non-units, the profile an
    enumeration of all 3^(w-1) candidates in ``itertools.product`` order
    meets first."""
    FAULTS["certificate fires at norms 2..6"](monkeypatch)
    tail = (0, -1, 0, -1, 0, -1, 0)
    for w in range(2, 11):
        expected = (0, 0, 0, -1) + tail[: w - 4] if w >= 4 else None
        assert structure.certified_atom_factor_search(w) == expected, w
