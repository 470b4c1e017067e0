"""Ideal families of the convolution ring: membership oracles, quotients,
decompositions, chain builders, and primality probes.

Every family is described by an :class:`IdealSpec`, whose
``constrained_indices(window)`` lists the indices where the defining
condition forces a member to vanish.  Each family is decided once over
the whole window from the one smallest-prime-factor sieve: ``K_n`` reads
the primes off it, and the prime-divisor families bound a count of the
distinct primes of each index, folded over the window.  Membership
verdicts are therefore statements about the truncation window, never
about the full ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from math import prod
from operator import add, mul

from .primes import factorize, is_prime, nth_prime, prime_power_fold, primes_upto
from .ring import (_ZERO_ONE, ArithFunc, EXACT, NotDivisibleWitness, WindowError,
                   ZeroFunctionError, delta, indicator_shift, try_divide, zeros)
from .sampling import _constrained, random_func
from .witness import MEMBER, NON_MEMBER, UNDECIDED, Witness


class NotInIdealError(ValueError):
    """A precondition required ideal membership that the window refutes."""

    def __init__(self, witness: Witness, message: str):
        super().__init__(message)
        self.witness = witness


TAG_NORM_FLOOR = "I"  # functions vanishing below a norm threshold
TAG_MAXIMAL = "maximal"  # the unique maximal ideal: f(1) = 0
TAG_COPRIME = "P"  # vanish wherever gcd with m is 1
TAG_PRIME_PRODUCTS = "J"  # vanish on products of primes from Q
TAG_PRIME_TAIL = "K"  # vanish at 1 and at all primes from the n-th on
TAG_GCD_COUNT = "Pk"  # vanish wherever gcd with m has few distinct primes


@dataclass(frozen=True)
class IdealSpec:
    """One instance of an ideal family, with enough data to test membership."""

    tag: str
    n: int | None = None
    m: int | None = None
    k: int | None = None
    primes: tuple[int, ...] = ()
    complement: bool = False

    # constructors -------------------------------------------------------

    @classmethod
    def norm_floor(cls, n: int) -> "IdealSpec":
        if n < 1:
            raise ValueError("norm threshold must be at least 1")
        return cls(TAG_NORM_FLOOR, n=n)

    @classmethod
    def maximal(cls) -> "IdealSpec":
        return cls(TAG_MAXIMAL)

    @classmethod
    def coprime_vanishing(cls, m: int) -> "IdealSpec":
        if m < 1:
            raise ValueError("modulus must be at least 1")
        return cls(TAG_COPRIME, m=m)

    @classmethod
    def prime_products(cls, primes, complement: bool = False) -> "IdealSpec":
        ps = tuple(sorted(set(primes)))
        if not ps:
            raise ValueError("need a nonempty set of primes")
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return cls(TAG_PRIME_PRODUCTS, primes=ps, complement=complement)

    @classmethod
    def prime_tail(cls, n: int) -> "IdealSpec":
        if n < 1:
            raise ValueError("tail start must be at least 1")
        return cls(TAG_PRIME_TAIL, n=n)

    @classmethod
    def gcd_count(cls, m: int, k: int) -> "IdealSpec":
        if m < 1:
            raise ValueError("modulus must be at least 1")
        if not factorize(m).is_squarefree:
            raise ValueError(f"{m} is not squarefree")
        if k < 0:
            raise ValueError("count bound must be nonnegative")
        return cls(TAG_GCD_COUNT, m=m, k=k)

    # presentation ---------------------------------------------------------

    def label(self) -> str:
        if self.tag == TAG_NORM_FLOOR:
            return f"I_{self.n}"
        if self.tag == TAG_MAXIMAL:
            return "maximal"
        if self.tag == TAG_COPRIME:
            return f"P_{self.m}"
        if self.tag == TAG_PRIME_TAIL:
            return f"K_{self.n}"
        if self.tag == TAG_GCD_COUNT:
            return f"P_{{{self.m},{self.k}}}"
        body = ",".join(str(p) for p in self.primes)
        return f"J_~{{{body}}}" if self.complement else f"J_{{{body}}}"

    def __str__(self) -> str:
        return self.label()

    # the defining predicate ------------------------------------------------

    def constrained_indices(self, window: int) -> list[int]:
        """The indices 1..window, ascending, where members must vanish."""
        if self.tag == TAG_NORM_FLOOR:
            return list(range(1, min(self.n, window + 1)))
        if self.tag == TAG_MAXIMAL:
            return [1]
        if self.tag == TAG_PRIME_TAIL:  # 1 and the primes from the n-th on
            return [1] + primes_upto(window)[self.n - 1 :]
        # the rest bound a count of idx's distinct primes: P_m (at 0) and
        # P_{m,k} (at k) count the primes of m, J_~Q (at 0) those in Q, and
        # J_Q (at 0) those outside Q; 1, the empty product, always counts 0
        if self.tag == TAG_PRIME_PRODUCTS:
            chosen, outside = set(self.primes), not self.complement
        else:
            chosen, outside = set(factorize(self.m).distinct_primes), False
        bound = self.k if self.tag == TAG_GCD_COUNT else 0
        counts = prime_power_fold(window, lambda p, a: (p in chosen) != outside, add, 0)
        return [idx for idx, c in enumerate(counts, start=1) if c <= bound]


def member(spec: IdealSpec, f: ArithFunc) -> Witness:
    """Decide membership on f's window; non-members carry the violating index."""
    window = len(f)
    if spec.tag == TAG_NORM_FLOOR and spec.n > window + 1:
        raise WindowError(
            f"norm threshold {spec.n} inspects indices beyond the window {window}"
        )
    vals = f._values
    for idx in _constrained(spec, window):
        if vals[idx - 1]:
            return Witness(
                NON_MEMBER, index=idx, note=f"f({idx}) != 0 but {spec.label()} forces 0 there"
            )
    return Witness(MEMBER, note=f"vanishes at every constrained index <= {window}")


def _require_member(spec: IdealSpec, f: ArithFunc) -> None:
    verdict = member(spec, f)
    if not verdict.is_member:
        raise NotInIdealError(
            verdict, f"not in {spec.label()}: nonzero at index {verdict.index}"
        )


# quotients and decompositions -------------------------------------------


def principal_quotient(p: int, f: ArithFunc) -> ArithFunc:
    """The g with delta_p * g = f, for f in the principal ideal at a prime p.

    g is read off directly: g(k) = f(k*p).  Its window is floor(len(f)/p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _require_member(IdealSpec.coprime_vanishing(p), f)
    if len(f) < p:
        raise WindowError(f"window {len(f)} holds no multiple of {p}")
    return ArithFunc._of(f._values[p - 1 :: p], f.mode, f._den)


@dataclass(frozen=True)
class Decomposition:
    """f written as a combination of prime-indicator generators."""

    m: int
    target: ArithFunc
    generators: tuple[ArithFunc, ...]
    generator_points: tuple[int, ...]
    cofactors: tuple[ArithFunc, ...]

    def reconstruction(self) -> ArithFunc:
        """Sum of generator * cofactor terms on the target's window."""
        window = len(self.target)
        total = zeros(window, self.target.mode)
        for q, g in zip(self.generator_points, self.cofactors):
            total = total + indicator_shift(q, g, window)
        return total


def decompose_coprime_vanishing(m: int, f: ArithFunc) -> Decomposition:
    """Split f over the indicator generators at m's distinct primes.

    A member of P_m vanishes off the multiples of m's primes, so each f(k)
    is read straight into the cofactor of the largest prime q of m that
    divides k, at position k/q.  A cofactor's window is floor(len(f)/q),
    or a single zero when no multiple of q fits in the window.
    """
    _require_member(IdealSpec.coprime_vanishing(m), f)
    qs = factorize(m).distinct_primes
    window = len(f)
    owner = [0] * (window + 1)  # the largest prime of m dividing each index
    for q in qs:
        owner[q::q] = [q] * (window // q)
    vals, zero = f._values, _ZERO_ONE[f.mode][0]
    cofactors = {q: [zero] * max(window // q, 1) for q in qs}
    for k, q in enumerate(owner):
        if q:
            cofactors[q][k // q - 1] = vals[k - 1]
    return Decomposition(
        m=m,
        target=f,
        generators=tuple(delta(q, window, f.mode) for q in qs),
        generator_points=qs,
        cofactors=tuple(ArithFunc._of(cofactors[q], f.mode, f._den) for q in qs),
    )


# chains -----------------------------------------------------------------

CHAIN_FAMILIES = ("P_ascending", "J_descending", "I_descending", "K_ascending")


@dataclass(frozen=True)
class ChainLink:
    """A strict inclusion between adjacent chain members, with its separator."""

    smaller: IdealSpec
    larger: IdealSpec
    separator: ArithFunc
    separator_label: str
    in_larger: Witness
    not_in_smaller: Witness


@dataclass(frozen=True)
class ChainReport:
    family: str
    specs: tuple[IdealSpec, ...]
    links: tuple[ChainLink, ...]

    def to_dot(self) -> str:
        """Render the chain as a DOT digraph: edges point small -> large."""
        lines = ["digraph chain {", "  rankdir=LR;"]
        for spec in self.specs:
            lines.append(f'  "{spec.label()}";')
        for link in self.links:
            lines.append(
                f'  "{link.smaller.label()}" -> "{link.larger.label()}"'
                f' [label="{link.separator_label}"];'
            )
        lines.append("}")
        return "\n".join(lines)


def _chain_specs_and_points(family: str, length: int):
    """The specs in listed order, the separator point between each pair of
    neighbours, and whether the ideals grow along the list."""
    ps = primes_upto(nth_prime(length + 1))
    if family == "P_ascending":
        specs = [IdealSpec.coprime_vanishing(m) for m in accumulate(ps[:length], mul)]
        return specs, ps[1:length], True
    if family == "J_descending":
        return [IdealSpec.prime_products(ps[:i]) for i in range(1, length + 1)], ps[1:length], False
    if family == "I_descending":
        return [IdealSpec.norm_floor(i) for i in range(1, length + 1)], range(1, length), False
    if family == "K_ascending":
        return [IdealSpec.prime_tail(i) for i in range(1, length + 1)], ps[: length - 1], True
    raise ValueError(f"unknown chain family {family!r}; choose from {CHAIN_FAMILIES}")


def chain(family: str, length: int, window: int) -> ChainReport:
    """Build a finite stretch of one of the four chain constructions.

    Each adjacent pair comes with a separator, the indicator of its
    separator point, that the membership oracle confirms to lie in the
    larger ideal and not in the smaller one.
    """
    if length < 2:
        raise ValueError("a chain needs at least two members")
    specs, points, ascending = _chain_specs_and_points(family, length)
    links = []
    for i, p in enumerate(points):
        smaller, larger = (specs[i], specs[i + 1]) if ascending else (specs[i + 1], specs[i])
        sep, label = delta(p, window), f"delta_{p}"
        if sep.is_zero():
            raise WindowError(f"window {window} too small to hold separator {label}")
        in_larger = member(larger, sep)
        not_in_smaller = member(smaller, sep)
        if not in_larger.is_member or not_in_smaller.is_member:
            raise AssertionError(f"separator {label} fails to separate")
        links.append(ChainLink(smaller, larger, sep, label, in_larger, not_in_smaller))
    return ChainReport(family=family, specs=tuple(specs), links=tuple(links))


# probes ------------------------------------------------------------------


def _random_outside(idxs: tuple[int, ...], rng: random.Random, window: int) -> tuple[ArithFunc, int]:
    """A random non-member and its first violating index, given the ideal's
    nonempty tuple of constrained indices."""
    for _ in range(64):
        f = random_func(rng, window)
        first = next((idx for idx in idxs if f._values[idx - 1]), None)
        if first is not None:
            return f, first
    # force a violation at the first constrained index
    vals = list(random_func(rng, window).values)
    vals[idxs[0] - 1] = 1
    return ArithFunc(vals, EXACT), idxs[0]


def _known_counterexample(spec: IdealSpec, window: int):
    """Hand-built non-primality witnesses for the families that have one."""
    if spec.tag == TAG_PRIME_TAIL:
        f = ArithFunc([0] + [1] * (window - 1), EXACT)
        return f, f
    if spec.tag == TAG_GCD_COUNT:
        qs = factorize(spec.m).distinct_primes
        if 1 <= spec.k < len(qs):
            return delta(prod(qs[: spec.k]), window), delta(qs[spec.k], window)
    if spec.tag == TAG_NORM_FLOOR and spec.n >= 3:
        d = delta(spec.n - 1, window)
        return d, d
    return None


def probe_prime(spec: IdealSpec, trials: int, seed: int, window: int) -> Witness:
    """Refutation search for primality of an ideal on the window.

    A ``non_member`` verdict means primality is refuted: the attached
    pair of elements lies outside the ideal while their product lands
    inside.  ``undecided_at_truncation`` means no counterexample was
    found; the window can never *prove* an ideal prime.
    """
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    if window < 1:
        raise ValueError("window length must be at least 1")
    refuted = "product of two non-members lies in the ideal"
    known = _known_counterexample(spec, window)
    if known is not None:
        f, g = known
        if (
            not member(spec, f).is_member
            and not member(spec, g).is_member
            and member(spec, f.convolve(g)).is_member
        ):
            return Witness(NON_MEMBER, note=refuted, elements=known)
    idxs = _constrained(spec, window)
    rng = random.Random(seed)
    for _ in range(trials if idxs else 0):  # an ideal constraining nothing has no non-members
        f, kf = _random_outside(idxs, rng, window)
        g, kg = _random_outside(idxs, rng, window)
        # f(kf) g(kg) lands at kf * kg; past the window the product can
        # look like a member only because its violation is cut off
        if kf * kg <= window and member(spec, f.convolve(g)).is_member:
            return Witness(NON_MEMBER, note=refuted, elements=(f, g))
    return Witness(UNDECIDED, note=f"no counterexample among {trials} sampled pairs")


def probe_semiprime(
    m: int, k: int, f: ArithFunc, rmax: int, window: int | None = None
) -> Witness:
    """Track the powers of a non-member of the gcd-count ideal.

    For f outside the ideal with least constrained nonzero index n0, each
    power f^r must stay outside, failing first at exactly n0^r.  The
    returned ``non_member`` verdict records that all powers up to rmax did
    so; a function already in the ideal gives a vacuous ``member`` pass.
    """
    if rmax < 1:
        raise ValueError("rmax must be at least 1: no power would be checked")
    spec = IdealSpec.gcd_count(m, k)
    if window is None:
        window = len(f)
    if window > len(f):
        raise WindowError(f"requested window {window} exceeds the operand's {len(f)}")
    f = f.truncate(window)
    base = member(spec, f)
    if base.is_member:
        return Witness(
            MEMBER, note="vacuously in the ideal; every power stays there by closure"
        )
    n0 = base.index
    if n0**rmax > window:
        raise WindowError(
            f"window {window} cannot see index {n0}^{rmax} = {n0 ** rmax}"
        )
    power = f
    for r in range(1, rmax + 1):
        verdict = member(spec, power)
        if verdict.is_member or verdict.index != n0**r:
            raise AssertionError(
                f"power {r} deviates from the predicted first failure at {n0 ** r}"
            )
        if r < rmax:
            power = power.convolve(f)
    return Witness(
        NON_MEMBER,
        index=n0,
        note=f"powers 1..{rmax} stay outside, first failing exactly at {n0}^r",
    )


def divisibility_depth(h: ArithFunc, f: ArithFunc) -> int:
    """Largest r such that f^r divides h on the window.

    Bounded by log base norm(f) of norm(h), since norms multiply; a unit
    divisor is rejected because its depth would be unbounded.
    """
    if h.is_zero() or f.is_zero():
        raise ZeroFunctionError("divisibility depth needs nonzero operands")
    if f.norm() == 1:
        raise ValueError("unit divisor: every power divides, depth is unbounded")
    depth = 0
    power = f
    while True:
        if power.is_zero():
            # the power's norm outgrew the window, so it divides nothing here
            return depth
        q = try_divide(h, power)
        if isinstance(q, NotDivisibleWitness):
            return depth
        depth += 1
        power = power.convolve(f)
