"""Ideal families of the convolution ring: membership oracles, quotients,
decompositions, chain builders, and primality decisions and probes.

Every family is described by an :class:`IdealSpec`, whose
``constrained_indices(window)`` is the tuple of indices where the
defining condition forces a member to vanish, cached per (spec, window).
Each family is decided once over the whole window from the window's
primes: ``K_n`` reads them off the sieve, and the prime-divisor
families bound a count of each index's distinct primes from a chosen
set, built by one slice of multiples per chosen prime.  Each family is
the support ideal of those indices, so chains are decided from the index
sets on 1..n, with no indicator built, as are the minimal generators,
and primality has one decider, ``window_prime``'s scan of the pairs of
indices, whose verdict ``probe_prime`` reports.  Membership verdicts are
therefore statements about the truncation window, never about the full ring.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import add, le, mul
from typing import NamedTuple

from .primes import factorize, is_prime, nth_prime, prime_factors_upto, prime_power_fold, primes_upto
from .ring import (MEMBER, NON_MEMBER, UNDECIDED, ArithFunc, NotDivisibleWitness, WindowError,
                   Witness, ZeroFunctionError, delta, indicator_shift, take, try_divide, zeros)


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


_PLUS_ONE = bytes(range(1, 256)) + b"\xff"  # a bytes.translate table adding 1 to each byte


class IdealSpec(NamedTuple):
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

    @lru_cache(maxsize=32)
    def constrained_indices(self, window: int) -> tuple[int, ...]:
        """The indices 1..window, ascending, where members must vanish;
        cached per (spec, window), since ``member``, the probes and
        ``random_in_ideal`` ask again and again for the same few.  P_m and
        P_{m,k} divide m by trial only up to the window, and never factor m in full."""
        if self.tag == TAG_NORM_FLOOR:
            return tuple(range(1, min(self.n, window + 1)))
        if self.tag == TAG_MAXIMAL:
            return (1,)
        if self.tag == TAG_PRIME_TAIL:  # 1 and the primes from the n-th on
            return (1, *primes_upto(window)[self.n - 1 :])
        # the rest bound a count of idx's distinct primes from a chosen set,
        # one slice of multiples per chosen prime: P_m (at 0) and P_{m,k} (at
        # k) count those dividing m, J_~Q (at 0) those in Q, and J_Q (at 0)
        # those outside Q
        if self.tag == TAG_PRIME_PRODUCTS and self.complement:
            chosen = [p for p in self.primes if p <= window]
        elif self.tag == TAG_PRIME_PRODUCTS:
            chosen = set(primes_upto(window)).difference(self.primes)
        else:  # m's primes up to the window, by trial division to min(window, sqrt(m))
            chosen = [p for p, _ in prime_factors_upto(self.m, window)]
        counts = bytearray(window)  # at idx - 1; no index below 2**63 has 16 distinct primes
        for p in chosen:
            counts[p - 1 :: p] = counts[p - 1 :: p].translate(_PLUS_ONE)
        bound = self.k if self.tag == TAG_GCD_COUNT else 0
        return tuple(compress(range(1, window + 1), map(le, counts, repeat(bound))))


def member(spec: IdealSpec, f: ArithFunc) -> Witness:
    """Decide membership on f's window; non-members carry the violating index."""
    window = len(f)
    _require_window(spec, window)
    vals = f._values
    for idx in spec.constrained_indices(window):
        if vals[idx - 1]:
            return Witness(
                NON_MEMBER, index=idx, note=f"f({idx}) != 0 but {spec.label()} forces 0 there"
            )
    return Witness(MEMBER, note=f"vanishes at every constrained index <= {window}")


def _require_window(spec: IdealSpec, window: int) -> None:
    if spec.tag == TAG_NORM_FLOOR and spec.n > window + 1:
        raise WindowError(f"norm threshold {spec.n} inspects indices beyond the window {window}")


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
    return take(f, range(p, len(f) + 1, p))


class Decomposition(NamedTuple):
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
    """Split f over the indicator generators at m's distinct primes up to f's window,
    which are ``minimal_generators(P_m, len(f))``; m is never factored in full.

    A member of P_m vanishes off the multiples of m's primes, so cofactor
    q reads f at q, 2q, ..., with the multiples of each larger prime of m
    set to 0 by one slice each: f(k) goes to the largest prime of m that
    divides k, at k/q.  A cofactor's window is floor(len(f)/q).
    """
    _require_member(IdealSpec.coprime_vanishing(m), f)
    window = len(f)
    qs = tuple(p for p, _ in prime_factors_upto(m, window))
    cofactors = []
    for i, q in enumerate(qs):
        ks = list(range(q, window + 1, q))  # the k of each f(k) read, or 0
        for r in qs[i + 1 :]:  # r divides k = jq exactly when r divides j
            ks[r - 1 :: r] = [0] * (len(ks) // r)
        cofactors.append(take(f, ks))
    return Decomposition(
        m=m,
        target=f,
        generators=tuple(delta(q, window, f.mode) for q in qs),
        generator_points=qs,
        cofactors=tuple(cofactors),
    )


# chains -----------------------------------------------------------------


class ChainLink(NamedTuple):
    """A strict inclusion between adjacent chain members, decided from their
    index sets on 1..n; delta at the separator lies in the larger, not the smaller."""

    smaller: IdealSpec
    larger: IdealSpec
    separator_label: str


class ChainReport(NamedTuple):
    family: str
    specs: tuple[IdealSpec, ...]
    links: tuple[ChainLink, ...]


CHAIN_FAMILIES = ("P_ascending", "J_descending", "I_descending", "K_ascending")


def _chain_specs(family: str, length: int, window: int):
    """The specs in listed order, and whether the ideals grow along the list.
    A window too small to hold every separator fails before any spec is built."""
    if family not in CHAIN_FAMILIES:
        raise ValueError(f"unknown chain family {family!r}; choose from {CHAIN_FAMILIES}")
    if window < 1:
        raise ValueError("window length must be at least 1")
    # the separators are the integers 1..length-1 (I), the primes p_1..p_(length-1)
    # (K) or p_2..p_length (P, J); the first `held` of the sequence fit
    first, last = (2, length) if family[0] in "PJ" else (1, length - 1)
    held = window if family == "I_descending" else len(primes_upto(window))
    if last > held:
        k = max(first, held + 1)
        label = f"delta_{k if family == 'I_descending' else nth_prime(k)}"
        raise WindowError(f"window {window} too small to hold separator {label}")
    ps = primes_upto(nth_prime(length))
    if family == "P_ascending":
        return [IdealSpec.coprime_vanishing(m) for m in accumulate(ps, mul)], True
    if family == "J_descending":
        return [IdealSpec.prime_products(ps[:i]) for i in range(1, length + 1)], False
    if family == "I_descending":
        return [IdealSpec.norm_floor(i) for i in range(1, length + 1)], False
    return [IdealSpec.prime_tail(i) for i in range(1, length + 1)], True


# the set of an index tuple, cached by the tuple's value: each (spec, window)
# builds its set once, so a chain of L members builds L sets, and 32 fit, as
# in constrained_indices' cache
_index_set = lru_cache(maxsize=32)(frozenset)


def first_difference(a: IdealSpec, b: IdealSpec, n: int, subset: bool = False) -> int | None:
    """The least k <= n that exactly one of a and b constrains (with ``subset``, that
    only b constrains), or None.  Each family is a support ideal, so delta_k lies in
    exactly one of them (in a and not in b), and None means a = b (a in b) on 1..n."""
    sa, sb = _index_set(a.constrained_indices(n)), _index_set(b.constrained_indices(n))
    return min(sb - sa if subset else sa ^ sb, default=None)


def chain(family: str, length: int, window: int) -> ChainReport:
    """Build a finite stretch of one of the four chain constructions.

    Each adjacent pair is decided from the two index sets on 1..window: the
    smaller ideal lies in the larger when no index is constrained by the
    larger alone, and the separator delta_k, at the least index k constrained
    by the smaller alone, lies in the larger and not in the smaller.
    """
    if length < 2:
        raise ValueError("a chain needs at least two members")
    specs, ascending = _chain_specs(family, length, window)
    links = []
    for i in range(length - 1):
        smaller, larger = (specs[i], specs[i + 1]) if ascending else (specs[i + 1], specs[i])
        k = first_difference(larger, smaller, window, subset=True)
        if k is None or first_difference(smaller, larger, window, subset=True) is not None:
            raise AssertionError(f"{smaller} is not strictly inside {larger} on 1..{window}")
        links.append(ChainLink(smaller, larger, f"delta_{k}"))
    return ChainReport(family=family, specs=tuple(specs), links=tuple(links))


# primality ---------------------------------------------------------------


def minimal_generators(spec: IdealSpec, window: int) -> tuple[int, ...]:
    """The s in 2..window outside T = ``spec.constrained_indices(window)`` with s/p in T for every
    prime p | s: their delta_s span I / mI (m maximal), so by Nakayama a proper I needs that many."""
    inside = _index_set(spec.constrained_indices(window))
    primes = prime_power_fold(window, lambda p, a: (p,), add, ())  # each index's, off the sieve
    return tuple(s for s in range(2, window + 1)
                 if s not in inside and all(s // p in inside for p in primes[s - 1]))


def window_prime(spec: IdealSpec, window: int, squares: bool = False) -> Witness:
    """Decide whether the ideal is prime on 1..window, or semi-prime with ``squares``.

    Its constrained indices T are divisor-closed, so f and g outside it, with
    least nonzero indices a and b in T and ab in T, have (f*g)(ab) = f(a)g(b) != 0.
    So it is prime exactly when a, b in T with ab <= window gives ab in T, and
    semi-prime when a = b does; delta_a and delta_b exhibit a failure.  Pairs
    with ab > window stay undecided, and the whole ring is neither."""
    if window < 1:
        raise ValueError("window length must be at least 1")
    _require_window(spec, window)
    idxs = spec.constrained_indices(window)
    if not idxs:
        return Witness(NON_MEMBER, note=f"not {'semi-' * squares}prime (the whole ring)")
    # a nonempty T holds 1, and the row a = 1 (|T| pairs, or 1 square) never fails
    skip = 1 if idxs[0] == 1 else 0
    inside, pairs = _index_set(idxs), skip * (1 if squares else len(idxs))
    for i, a in enumerate(idxs[skip:], skip):
        for b in (a,) if squares else idxs[i:]:
            if a * b > window:
                break
            if a * b not in inside:
                return Witness(NON_MEMBER, pair=(a, b), elements=(delta(a, window), delta(b, window)),
                               note=f"delta_{a} * delta_{b} = delta_{a * b} lies in {spec.label()}")
            pairs += 1
        if a * a > window:
            break
    return Witness(MEMBER, note=f"every one of {pairs} {'squares' if squares else 'pairs'} "
                                f"with product <= {window} stays outside")


# probes ------------------------------------------------------------------


def probe_prime(spec: IdealSpec, window: int) -> Witness:
    """Refute primality on the window from ``window_prime``'s scan; never certify it.

    ``non_member`` carries the scan's least failing pair delta_a, delta_b (for
    K_n the all-ones-from-2 function twice), checked to lie outside, with first
    violations kf * kg <= window, and to have its product inside; the whole ring
    has no pair.  ``undecided_at_truncation`` carries the scan's note.  No other
    pair can refute: T is divisor-closed, so (f*g)(kf kg) = f(kf) g(kg) != 0
    when kf kg is in T.
    """
    scan = window_prime(spec, window)
    if scan.pair is None:  # the scan passes, or the ideal is the whole ring
        return Witness(UNDECIDED, note=scan.note) if scan.is_member else scan
    f, g = scan.elements
    if spec.tag == TAG_PRIME_TAIL:  # the all-ones-from-2 function, twice
        f = g = ArithFunc._of([0] + [1] * (window - 1), 1)
    kf, kg = member(spec, f).index, member(spec, g).index  # None for a member
    # f(kf) g(kg) lands at kf * kg; past the window the product can
    # look like a member only because its violation is cut off
    if not (kf and kg and kf * kg <= window and member(spec, f.convolve(g)).is_member):
        raise AssertionError(f"the scan's pair does not refute {spec.label()} on 1..{window}")
    return Witness(NON_MEMBER, note="product of two non-members lies in the ideal", elements=(f, g))


def divisibility_depth(h: ArithFunc, f: ArithFunc) -> int:
    """Largest r such that f^r divides h on the window.

    f^(r+1) divides h exactly when f divides h / f^r, which is unique on
    its shorter window, so the running quotient is divided by f while its
    window holds norm(f), and no power of f is built.  Norms multiply, so
    the depth is at most log base norm(f) of norm(h); a unit divisor is
    rejected because its depth would be unbounded.
    """
    if h.is_zero() or f.is_zero():
        raise ZeroFunctionError("divisibility depth needs nonzero operands")
    a = f.norm()
    if a == 1:
        raise ValueError("unit divisor: every power divides, depth is unbounded")
    depth = 0
    while len(h) >= a and not isinstance(h := try_divide(h, f), NotDivisibleWitness):
        depth += 1
    return depth
