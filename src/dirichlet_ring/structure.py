"""Classification of single ring elements: units, the maximal ideal,
atom certificates, and norm-based non-primality facts."""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass

from .primes import is_prime, primes_upto
from .ring import ArithFunc, ZeroFunctionError, dirichlet_product, identity, indicator_shift
from .sampling import random_unit
from .witness import MEMBER, NON_MEMBER, Witness
from .zoo import is_additive, is_completely_additive

CERT_PRIME_NORM = "prime_norm"
CERT_COMPOSITE_NEXT = "composite_norm_next_nonzero"
CERT_NONE = "none"

NOT_ADDITIVE = "not_additive"
ADDITIVE = "additive"
COMPLETELY_ADDITIVE = "completely_additive"

# bounds for the exhaustive atom-soundness search: candidate factors and
# certified atoms draw their entries from ATOM_COEFFS on a support of at
# most ATOM_SUPPORT_BOUND indices, and certificates are only enumerated
# for norms up to ATOM_NORM_BOUND
ATOM_SUPPORT_BOUND = 12
ATOM_NORM_BOUND = 6
ATOM_COEFFS = (-1, 0, 1)


@dataclass(frozen=True)
class ElementReport:
    is_unit: bool
    in_maximal: bool
    norm: int
    atom_certificate: str
    additive_class: str

    def to_dict(self) -> dict:
        return asdict(self)


def classify(f: ArithFunc) -> ElementReport:
    """Report unit status, norm, atom certificate, and additivity class.

    Two sufficient conditions certify an atom: a prime norm (with
    f(1) = 0), or a composite norm c with f(c+1) != 0.  When neither
    applies the certificate is "none" - atomicity is then undecided at
    this truncation, never refuted.
    """
    c = f.norm()
    if c is None:
        raise ZeroFunctionError("cannot classify the zero window")
    is_unit = c == 1
    if is_additive(f).is_member:
        additive_class = (
            COMPLETELY_ADDITIVE if is_completely_additive(f).is_member else ADDITIVE
        )
    else:
        additive_class = NOT_ADDITIVE
    return ElementReport(
        is_unit=is_unit,
        in_maximal=not is_unit,
        norm=c,
        atom_certificate=_certificate_for_profile(f._values, len(f)),
        additive_class=additive_class,
    )


def check_nonprime_norm_product(f: ArithFunc, g: ArithFunc) -> Witness:
    """Confirm that a product of two non-units vanishes at every prime index.

    Consequently its norm is never a prime integer.  The returned witness
    summarizes the scan; a violation (which the arithmetic rules out)
    would come back as non_member with the offending prime.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroFunctionError("need nonzero operands")
    if f(1) or g(1):
        raise ValueError("both operands must be non-units (value 0 at index 1)")
    h = f.convolve(g)
    for p in primes_upto(len(h)):
        if h._values[p - 1]:
            return Witness(NON_MEMBER, index=p, note="nonzero at a prime index")
    c = h.norm()
    desc = "zero at truncation" if c is None else str(c)
    return Witness(
        MEMBER, note=f"all prime indices <= {len(h)} vanish; norm is {desc}, not prime"
    )


def units_group_probe(samples: int, seed: int, window: int) -> Witness:
    """Spot-check the abelian-group laws of the units under convolution."""
    if samples < 1:
        raise ValueError("samples must be at least 1: no unit pair would be checked")
    rng = random.Random(seed)
    e = identity(window)
    for _ in range(samples):
        f = random_unit(rng, window)
        g = random_unit(rng, window)
        fg = f.convolve(g)
        if fg(1) != f(1) * g(1) or not fg(1):
            return Witness(NON_MEMBER, index=1, note="closure failed at index 1")
        if fg != g.convolve(f):
            return Witness(NON_MEMBER, note="commutativity failed")
        if e.convolve(f) != f:
            return Witness(NON_MEMBER, note="identity failed")
        if f.convolve(f.invert()) != e:
            return Witness(NON_MEMBER, note="inverse round-trip failed")
        if fg.invert() != g.invert().convolve(f.invert()):
            return Witness(NON_MEMBER, note="inverse of a product failed")
    return Witness(MEMBER, note=f"{samples} sampled unit pairs satisfy the group laws")


def essential_witness(f: ArithFunc) -> ArithFunc:
    """A nonzero element of the maximal ideal inside the ideal generated by f.

    The element is delta_2 * f, written on a window twice as long so its
    first nonzero entry (at 2 * norm(f)) stays visible.
    """
    if f.is_zero():
        raise ZeroFunctionError("the zero window generates nothing visible")
    return indicator_shift(2, f, 2 * len(f))


# exhaustive desk-scale soundness search for the atom certificates --------


def nonunit_product_profiles(window: int) -> set[tuple[int, ...]]:
    """Value tuples on 1..window of every product of two non-unit factors
    whose entries come from ``ATOM_COEFFS``.

    Both factors vanish at 1, so only factor indices 2..window//2 can
    reach the window; enumerating that range is therefore exhaustive for
    any larger support bound.  Integer arithmetic throughout.
    """
    top = window // 2
    factors = [
        (0,) + vals + (0,) * (window - top)
        for vals in itertools.product(ATOM_COEFFS, repeat=max(top - 1, 0))
        if any(vals)
    ]
    return {tuple(dirichlet_product(g, h, window, 0)) for g in factors for h in factors}


def _certificate_for_profile(profile: tuple[int, ...], norm_bound: int) -> str:
    """Certificate of the function with these values at 1..len(profile)."""
    c = next((i + 1 for i, v in enumerate(profile) if v), None)
    if c is None or c == 1 or c > norm_bound:
        return CERT_NONE
    if is_prime(c):
        return CERT_PRIME_NORM
    if c < len(profile) and profile[c]:
        return CERT_COMPOSITE_NEXT
    return CERT_NONE


def certified_atom_factor_search(window: int = ATOM_SUPPORT_BOUND) -> tuple[int, ...] | None:
    """Look for a certified atom that is secretly a product of non-units.

    Enumerates every function with entries in ``ATOM_COEFFS`` supported
    on 2..window whose certificate fires with norm <= ``ATOM_NORM_BOUND``,
    and checks it against all products of two bounded non-units on the
    same window.  Returns a counterexample profile, or None - the sound
    outcome.
    """
    profiles = nonunit_product_profiles(window)
    for tail in itertools.product(ATOM_COEFFS, repeat=window - 1):
        profile = (0,) + tail
        if _certificate_for_profile(profile, ATOM_NORM_BOUND) == CERT_NONE:
            continue
        if profile in profiles:
            return profile
    return None
