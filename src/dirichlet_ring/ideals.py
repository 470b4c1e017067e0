"""Ideal families of the convolution ring: membership oracles, quotients,
decompositions, chain builders, and primality probes.

Every family is described by an :class:`IdealSpec` and decided by a
window-level predicate: an index is *constrained* when the defining
condition forces the value there to vanish.  Membership verdicts are
therefore statements about the truncation window, never about the full
ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .primes import factorize, is_prime, nth_prime
from .ring import (
    ArithFunc,
    EXACT,
    NotDivisibleWitness,
    WindowError,
    ZeroFunctionError,
    delta,
    indicator_shift,
    try_divide,
    zeros,
)
from .witness import (
    Witness,
    member_witness,
    non_member_witness,
    undecided_witness,
)


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

    @cached_property
    def _tail_start(self) -> int:  # K_n vanishes at the primes from this one on
        return nth_prime(self.n)

    def constrains(self, idx: int) -> bool:
        """Whether the family definition forces members to vanish at idx."""
        if self.tag == TAG_NORM_FLOOR:
            return idx < self.n
        if self.tag == TAG_MAXIMAL:
            return idx == 1
        if self.tag == TAG_COPRIME:
            return gcd(self.m, idx) == 1
        if self.tag == TAG_PRIME_TAIL:
            return idx == 1 or (idx >= self._tail_start and is_prime(idx))
        if self.tag == TAG_GCD_COUNT:
            return factorize(gcd(self.m, idx)).distinct_count <= self.k
        # products of primes drawn from Q (1 included, as the empty product)
        ps = factorize(idx).distinct_primes
        if self.complement:
            return not any(p in self.primes for p in ps)
        return all(p in self.primes for p in ps)

    def constrained_indices(self, window: int) -> list[int]:
        return [idx for idx in range(1, window + 1) if self.constrains(idx)]


def member(spec: IdealSpec, f: ArithFunc) -> Witness:
    """Decide membership on f's window; non-members carry the violating index."""
    window = len(f)
    if spec.tag == TAG_NORM_FLOOR and spec.n > window + 1:
        raise WindowError(
            f"norm threshold {spec.n} inspects indices beyond the window {window}"
        )
    for idx in range(1, window + 1):
        if spec.constrains(idx) and f(idx):
            return non_member_witness(
                index=idx, note=f"f({idx}) != 0 but {spec.label()} forces 0 there"
            )
    return member_witness(note=f"vanishes at every constrained index <= {window}")


# quotients and decompositions -------------------------------------------


def principal_quotient(p: int, f: ArithFunc) -> ArithFunc:
    """The g with delta_p * g = f, for f in the principal ideal at a prime p.

    g is read off directly: g(k) = f(k*p).  Its window is floor(len(f)/p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    spec = IdealSpec.coprime_vanishing(p)
    verdict = member(spec, f)
    if not verdict.is_member:
        raise NotInIdealError(
            verdict, f"not in {spec.label()}: nonzero at index {verdict.index}"
        )
    if len(f) < p:
        raise WindowError(f"window {len(f)} holds no multiple of {p}")
    vals = tuple(f(k * p) for k in range(1, len(f) // p + 1))
    return ArithFunc(vals, f.mode)


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


def _restrict_to_multiples(f: ArithFunc, q: int) -> ArithFunc:
    vals = tuple(
        f.values[i] if (i + 1) % q == 0 else Fraction(0) for i in range(len(f))
    )
    return ArithFunc(vals, f.mode)


def decompose_coprime_vanishing(m: int, f: ArithFunc) -> Decomposition:
    """Split f over the indicator generators at m's distinct primes.

    Peels one prime at a time, largest first: the slice of f supported on
    multiples of q is handed to :func:`principal_quotient`, and the
    remainder continues with the smaller primes.  The remainder after the
    last prime is identically zero.
    """
    spec = IdealSpec.coprime_vanishing(m)
    verdict = member(spec, f)
    if not verdict.is_member:
        raise NotInIdealError(
            verdict, f"not in {spec.label()}: nonzero at index {verdict.index}"
        )
    qs = factorize(m).distinct_primes
    window = len(f)
    cofactors: dict[int, ArithFunc] = {}
    residual = f
    for q in reversed(qs):
        part = _restrict_to_multiples(residual, q)
        if len(f) < q:
            # no multiple of q fits in the window, so the slice is empty
            cofactors[q] = zeros(1, f.mode)
        else:
            cofactors[q] = principal_quotient(q, part)
        residual = residual - part
    if not residual.is_zero():
        raise AssertionError("decomposition left a nonzero remainder")
    return Decomposition(
        m=m,
        target=f,
        generators=tuple(delta(q, window, f.mode) for q in qs),
        generator_points=qs,
        cofactors=tuple(cofactors[q] for q in qs),
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


def _chain_specs_and_separators(family: str, length: int, window: int):
    """Specs in listed order plus (smaller_i, larger_i, separator, label)."""
    if family == "P_ascending":
        ms = []
        m = 1
        for i in range(1, length + 1):
            m *= nth_prime(i)
            ms.append(m)
        specs = [IdealSpec.coprime_vanishing(m) for m in ms]
        seps = []
        for i in range(length - 1):
            p = nth_prime(i + 2)
            seps.append((specs[i], specs[i + 1], delta(p, window), f"delta_{p}"))
        return specs, seps
    if family == "J_descending":
        sets = [tuple(nth_prime(j) for j in range(1, i + 1)) for i in range(1, length + 1)]
        specs = [IdealSpec.prime_products(s) for s in sets]
        seps = []
        for i in range(length - 1):
            p = nth_prime(i + 2)
            seps.append((specs[i + 1], specs[i], delta(p, window), f"delta_{p}"))
        return specs, seps
    if family == "I_descending":
        specs = [IdealSpec.norm_floor(i) for i in range(1, length + 1)]
        seps = []
        for i in range(length - 1):
            seps.append((specs[i + 1], specs[i], delta(i + 1, window), f"delta_{i + 1}"))
        return specs, seps
    if family == "K_ascending":
        specs = [IdealSpec.prime_tail(i) for i in range(1, length + 1)]
        seps = []
        for i in range(length - 1):
            p = nth_prime(i + 1)
            seps.append((specs[i], specs[i + 1], delta(p, window), f"delta_{p}"))
        return specs, seps
    raise ValueError(f"unknown chain family {family!r}; choose from {CHAIN_FAMILIES}")


def chain(family: str, length: int, window: int) -> ChainReport:
    """Build a finite stretch of one of the four chain constructions.

    Each adjacent pair comes with a separator that the membership oracle
    confirms to lie in the larger ideal and not in the smaller one.
    """
    if length < 2:
        raise ValueError("a chain needs at least two members")
    specs, seps = _chain_specs_and_separators(family, length, window)
    links = []
    for smaller, larger, sep, label in seps:
        if sep.is_zero():
            raise WindowError(
                f"window {window} too small to hold separator {label}"
            )
        in_larger = member(larger, sep)
        not_in_smaller = member(smaller, sep)
        if not in_larger.is_member or not_in_smaller.is_member:
            raise AssertionError(f"separator {label} fails to separate")
        links.append(
            ChainLink(
                smaller=smaller,
                larger=larger,
                separator=sep,
                separator_label=label,
                in_larger=in_larger,
                not_in_smaller=not_in_smaller,
            )
        )
    return ChainReport(family=family, specs=tuple(specs), links=tuple(links))


# probes ------------------------------------------------------------------


def _random_outside(
    spec: IdealSpec, rng: random.Random, window: int
) -> tuple[ArithFunc, int]:
    """A random non-member and its first violating index."""
    from .sampling import random_func  # local import to avoid a cycle

    for _ in range(64):
        f = random_func(rng, window)
        verdict = member(spec, f)
        if not verdict.is_member:
            return f, verdict.index
    # force a violation at the first constrained index
    idxs = spec.constrained_indices(window)
    if not idxs:
        raise WindowError(f"{spec.label()} constrains nothing on window {window}")
    vals = list(random_func(rng, window).values)
    vals[idxs[0] - 1] = Fraction(1)
    return ArithFunc(vals, EXACT), idxs[0]


def _known_counterexample(spec: IdealSpec, window: int):
    """Hand-built non-primality witnesses for the families that have one."""
    if spec.tag == TAG_PRIME_TAIL:
        f = ArithFunc([Fraction(0)] + [Fraction(1)] * (window - 1), EXACT)
        return f, f
    if spec.tag == TAG_GCD_COUNT and 1 <= spec.k < factorize(spec.m).distinct_count:
        qs = factorize(spec.m).distinct_primes
        alpha = 1
        for q in qs[: spec.k]:
            alpha *= q
        beta = qs[spec.k]
        return delta(alpha, window), delta(beta, window)
    if spec.tag == TAG_NORM_FLOOR and spec.n >= 3:
        d = delta(spec.n - 1, window)
        return d, d
    return None


def probe_prime(
    spec: IdealSpec, trials: int, seed: int, window: int
) -> Witness:
    """Refutation search for primality of an ideal on the window.

    A ``non_member`` verdict means primality is refuted: the attached
    pair of elements lies outside the ideal while their product lands
    inside.  ``undecided_at_truncation`` means no counterexample was
    found; the window can never *prove* an ideal prime.
    """
    known = _known_counterexample(spec, window)
    if known is not None:
        f, g = known
        if (
            not member(spec, f).is_member
            and not member(spec, g).is_member
            and member(spec, f.convolve(g)).is_member
        ):
            return non_member_witness(
                note="product of two non-members lies in the ideal",
                elements=(f, g),
            )
    rng = random.Random(seed)
    for _ in range(trials):
        try:
            f, kf = _random_outside(spec, rng, window)
            g, kg = _random_outside(spec, rng, window)
        except WindowError:
            break
        # f(kf) g(kg) lands at kf * kg; past the window the product can
        # look like a member only because its violation is cut off
        if kf * kg <= window and member(spec, f.convolve(g)).is_member:
            return non_member_witness(
                note="product of two non-members lies in the ideal",
                elements=(f, g),
            )
    return undecided_witness(note=f"no counterexample among {trials} sampled pairs")


def probe_semiprime(
    m: int, k: int, f: ArithFunc, rmax: int, window: int | None = None
) -> Witness:
    """Track the powers of a non-member of the gcd-count ideal.

    For f outside the ideal with least constrained nonzero index n0, each
    power f^r must stay outside, failing first at exactly n0^r.  The
    returned ``non_member`` verdict records that all powers up to rmax did
    so; a function already in the ideal gives a vacuous ``member`` pass.
    """
    spec = IdealSpec.gcd_count(m, k)
    if window is None:
        window = len(f)
    if window > len(f):
        raise WindowError(f"requested window {window} exceeds the operand's {len(f)}")
    f = f.truncate(window)
    base = member(spec, f)
    if base.is_member:
        return member_witness(
            note="vacuously in the ideal; every power stays there by closure"
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
    return non_member_witness(
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
