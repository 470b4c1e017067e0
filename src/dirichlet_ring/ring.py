"""Truncated exact arithmetic in the ring of arithmetical functions.

A function is stored as its values at 1..n.  Addition is pointwise and
multiplication is Dirichlet convolution, so everything here is
prefix-correct: entry k of any result depends only on entries at
divisors of k.  Float mode exists for the few functions whose values
are irrational.

An exact function whose common denominator d (the lcm of its values'
denominators) fits in 64 bits is narrow: it stores the integers d*f(k)
and d, with gcd(d, *integers) == 1.  Any other is wide and stores its
values as Fractions.  The values alone fix the stored form, so ``==``
and ``hash`` compare forms.  ``values`` and ``f(k)`` build a narrow
function's Fractions on each request and keep none; the package's own
readers use the integers.

``ArithFunc(values, mode)`` is the one checker for values from outside
the package, sequence files included.  Ints and Fractions are exact,
floats are float values, and a list of both needs ``mode=``; float mode
converts exact values and rejects any that is not a finite double.
Package code that holds the stored form builds with ``ArithFunc._of``.

Two loops carry the whole ring.  :func:`dirichlet_product` is the
convolution; every product in the package goes through it.  ``_solve``
is the standard recursion for f * g = h (Apostol, *Introduction to
Analytic Number Theory*, ch. 2) run in sieve order: once g(m) is known,
f(i) g(m) is pushed into the accumulator at index i*m, so no index ever
searches for its divisors.  Inversion is the quotient of e by f, and
exact division is the same recursion plus a scan for the first index it
cannot match.  Narrow operands run the loops on their integers, and a
narrow result is put in lowest terms by one gcd.  When an operand is
wide, all run on unreduced numerator/denominator pairs (``_Pair``),
which put off the gcds that every Fraction operation takes (Knuth,
TAOCP vol. 2, 4.5.1); the recursion reduces each solved value once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isfinite, lcm
from typing import Iterable, Sequence, Union

EXACT = "exact"
FLOAT = "float"

Scalar = Union[int, float, Fraction]


class ModeMismatchError(ValueError):
    """Exact and float values may not meet in one operation."""


class NonUnitError(ValueError):
    """Inversion needs f(1) != 0; anything else lies in the maximal ideal."""


class ZeroFunctionError(ValueError):
    """The operation needs a function that is nonzero on its window."""


class WindowError(ValueError):
    """The truncation window is too short to carry out the request."""


@dataclass(frozen=True)
class NotDivisibleWitness:
    """Index at which no quotient can reproduce the dividend."""

    index: int
    note: str = ""


def _kind(t: type) -> str | None:
    """The mode whose entries may have type t: FLOAT, EXACT, or None (bool too)."""
    if issubclass(t, float):
        return FLOAT
    return EXACT if issubclass(t, (int, Fraction)) and not issubclass(t, bool) else None


def _canonical(entries: Sequence, den: int | None) -> tuple[tuple, int | None]:
    """The stored form (entries, den) of integers over ``den``, or of
    Fractions and ints when den is None.  The running lcm stops as soon
    as it passes 64 bits, so unrelated wide denominators cost a few
    entries' scan."""
    if den is None:
        den = 1
        for v in entries:
            if den % v.denominator:
                den = lcm(den, v.denominator)
                if den.bit_length() > 64:
                    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in entries), None
        entries = [v.numerator * (den // v.denominator) if den > 1 else v.numerator for v in entries]
    g = gcd(den, *entries)
    if g > 1:
        den //= g
        entries = [x // g for x in entries]
    if den.bit_length() > 64:
        return tuple(Fraction(x, den) for x in entries), None
    return tuple(entries), den


def _norm(values: Sequence, n: int) -> int | None:
    return next((i for i in range(1, n + 1) if values[i - 1]), None)


def dirichlet_product(a: Sequence, b: Sequence, n: int, zero) -> list:
    """(a*b)(k) for k = 1..n, where a[i - 1] holds a(i); sums start at ``zero``."""
    out = [zero] * n
    for i in range(1, n + 1):
        ai = a[i - 1]
        if not ai:
            continue
        for j in range(1, n // i + 1):
            bj = b[j - 1]
            if bj:
                out[i * j - 1] += ai * bj
    return out


def _solve(h: Sequence, f: Sequence, a: int, n: int, zero, divide) -> tuple[list, list]:
    """Sieve-order recursion for f * g = h on 1..n, where a is the norm of f.

    Returns (g, acc).  g, on 1..n//a, satisfies (f*g)(a*m) = h(a*m) for
    every m: each g(m) is ``divide(rest)``, where rest is h(a*m) less what
    the earlier values pushed into acc, then f(i) g(m) is pushed into acc
    at i*m for i > a.  Since f vanishes below a, acc ends up holding
    (f*g)(k) at every k that is not a multiple of a; entries at multiples
    of a are scratch.
    """
    acc = [zero] * n
    g = [zero] * (n // a)
    for m in range(1, n // a + 1):
        rest = h[a * m - 1] - acc[a * m - 1]
        if not rest:
            continue
        gm = g[m - 1] = divide(rest)
        for i in range(a + 1, n // m + 1):
            fi = f[i - 1]
            if fi:
                acc[i * m - 1] += fi * gm
    return g, acc


def _exact_quotient(d: int):
    """Division step over ints that refuses to round."""

    def divide(rest: int) -> int:
        q, r = divmod(rest, d)
        if r:
            raise ArithmeticError(f"scaled recursion left remainder {r} on division by {d}")
        return q

    return divide


class _Pair:
    """The value numerator/denominator, denominator > 0, kept unreduced.

    ``*`` takes no gcd and ``+``, ``-`` and ``==`` cross-multiply, so a
    sum of products of narrow terms costs no gcd at all.  The other
    operand may be an int (the loops' zero), a Fraction (a solved value)
    or a pair, since all three carry ``numerator`` and ``denominator``.
    A term whose denominator passes 64 bits (a product with a solved
    value of the recursion, or an accumulator taken from the dividend)
    first has gcd(denominator, other.denominator) divided out, which
    keeps the accumulators from growing by the whole width of every term.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator

    def __mul__(self, other) -> "_Pair":
        return _Pair(self.numerator * other.numerator, self.denominator * other.denominator)

    def __add__(self, other) -> "_Pair":
        d, e = self.denominator, other.denominator
        if e.bit_length() > 64:
            g = gcd(d, e)
            return _Pair(self.numerator * (e // g) + other.numerator * (d // g), d // g * e)
        return _Pair(self.numerator * e + other.numerator * d, d * e)

    __radd__ = __add__

    def __sub__(self, other) -> "_Pair":
        return self + _Pair(-other.numerator, other.denominator)

    def __eq__(self, other) -> bool:
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __bool__(self) -> bool:
        return self.numerator != 0


def _lift(n: int, *operands: ArithFunc) -> list[tuple[Sequence, int | None]]:
    """The exact loops' working values of each operand on 1..n: its stored
    (integers, denominator) when every operand is narrow, else (its values
    as unreduced ``_Pair``s, None).  Either way the loops start from 0."""
    if all(f._den is not None for f in operands):
        return [(f._values, f._den) for f in operands]
    return [([_Pair(v.numerator, v.denominator) for v in f.values[:n]], None) for f in operands]


def _reduced_quotient(lead: Fraction):
    """Division step over pairs: the Fraction rest / lead, reduced once.

    The solved values are multiplied into every later accumulator, so
    leaving them unreduced would compound their growth.
    """
    return lambda rest: Fraction(rest.numerator * lead.denominator, rest.denominator * lead.numerator)


def _chain_length(m: int, a: int) -> int:
    """Steps of m -> a*m // (a+1) down to 0.

    In the recursion with norm a, g(m) depends only on values g(m') with
    m' <= a*m // (a+1), so this bounds how many divisions by f(a) stack
    up in any g(m') with m' <= m.
    """
    k = 0
    while m:
        m = a * m // (a + 1)
        k += 1
    return k


def _solve_exact(h: ArithFunc, f: ArithFunc, a: int, n: int) -> tuple[ArithFunc, list, Sequence]:
    """``_solve`` on exact functions; returns (g, acc, target).

    When h and f are both narrow, h = H/dh and f = F/df, the recursion
    solves F * G = c*H over ints with c = |F(a)|^K and K =
    _chain_length(n//a, a), so every division by F(a) is exact, and g =
    G*df / (dh*c).  acc holds F * G, on the scale of target = c*H.
    Otherwise it runs on ``_Pair`` values, target is h as pairs, and g
    is built from the Fractions of the division step.
    """
    (hs, dh), (fs, df) = _lift(n, h, f)
    if dh is None:
        g, acc = _solve(hs, fs, a, n, 0, _reduced_quotient(f(a)))
        return ArithFunc._of(g, EXACT), acc, hs
    c = abs(fs[a - 1]) ** _chain_length(n // a, a)
    target = [c * x for x in hs[:n]]
    g, acc = _solve(target, fs, a, n, 0, _exact_quotient(fs[a - 1]))
    return ArithFunc._of([x * df for x in g], EXACT, dh * c), acc, target


class ArithFunc:
    """An arithmetical function truncated to indices 1..n.

    Instances are immutable; every operation returns a new function.
    Calling the object evaluates it: ``f(k)`` for 1 <= k <= len(f).
    ``_values`` holds a narrow function's integers and ``_den`` their
    denominator; otherwise ``_values`` holds the values, ``_den`` None.
    """

    __slots__ = ("_values", "_mode", "_den")

    def __init__(self, values: Iterable[Scalar], mode: str | None = None):
        vals = list(values)
        if not vals:
            raise ValueError("need at least one value (indices start at 1)")
        kinds = set(map(_kind, set(map(type, vals))))
        if mode is None:
            if kinds >= {EXACT, FLOAT}:
                raise ModeMismatchError("mixed exact and float entries; pass mode= to convert explicitly")
            mode = FLOAT if FLOAT in kinds else EXACT
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown scalar mode {mode!r}")
        if not kinds <= {EXACT, mode}:  # float mode converts exact values; name the first other one
            bad = next(v for v in vals if _kind(type(v)) not in (EXACT, mode))
            if isinstance(bad, bool):
                raise TypeError("bool is not a scalar value")
            raise ModeMismatchError(f"{mode} mode cannot hold {type(bad).__name__} values")
        if mode == FLOAT:
            try:
                vals = list(map(float, vals))
            except OverflowError:  # an int or Fraction too large for a double
                vals = [inf]
            if not all(map(isfinite, vals)):
                raise ValueError("float values must be finite")
        self._store(vals, mode, None)

    def _store(self, vals: Sequence, mode: str, den: int | None) -> None:
        self._values, self._den = _canonical(vals, den) if mode == EXACT else (tuple(vals), None)
        self._mode = mode

    @classmethod
    def _of(cls, entries: Sequence, mode: str, den: int | None = None) -> "ArithFunc":
        """Trusted constructor: floats, exact values, or integers over ``den``."""
        obj = cls.__new__(cls)
        obj._store(entries, mode, den)
        return obj

    @property
    def values(self) -> tuple:
        """f(1), ..., f(n): Fractions in exact mode, floats in float mode."""
        d = self._den
        return self._values if d is None else tuple(Fraction(x, d) for x in self._values)

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def n(self) -> int:
        return len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __call__(self, k: int):
        if not 1 <= k <= len(self._values):
            raise IndexError(f"index {k} outside the window 1..{len(self._values)}")
        d = self._den
        return self._values[k - 1] if d is None else Fraction(self._values[k - 1], d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArithFunc):
            return NotImplemented
        return (self._mode, self._den, self._values) == (other._mode, other._den, other._values)

    def __hash__(self) -> int:
        return hash((self._mode, self._den, self._values))

    def __repr__(self) -> str:
        head = ", ".join(str(self(k)) for k in range(1, min(len(self._values), 8) + 1))
        tail = ", ..." if len(self._values) > 8 else ""
        return f"ArithFunc([{head}{tail}], mode={self._mode}, n={len(self._values)})"

    def is_zero(self) -> bool:
        return not any(self._values)

    def _require_same_mode(self, other: "ArithFunc") -> None:
        if self._mode != other._mode:
            raise ModeMismatchError(f"cannot combine {self._mode} mode with {other._mode} mode")

    # ring operations ---------------------------------------------------

    def add(self, other: "ArithFunc") -> "ArithFunc":
        self._require_same_mode(other)
        da, db = self._den, other._den
        if da is None or db is None:
            return ArithFunc._of(list(map(operator.add, self.values, other.values)), self._mode)
        d = da // gcd(da, db) * db
        a = self._values if d == da else [x * (d // da) for x in self._values]
        b = other._values if d == db else [x * (d // db) for x in other._values]
        return ArithFunc._of(list(map(operator.add, a, b)), EXACT, d)

    def __add__(self, other):
        if not isinstance(other, ArithFunc):
            return NotImplemented
        return self.add(other)

    def __neg__(self) -> "ArithFunc":
        return ArithFunc._of([-v for v in self._values], self._mode, self._den)

    def __sub__(self, other):
        if not isinstance(other, ArithFunc):
            return NotImplemented
        return self.add(-other)

    def convolve(self, other: "ArithFunc") -> "ArithFunc":
        """Dirichlet convolution: (f*g)(k) = sum of f(i)g(j) over ij = k."""
        self._require_same_mode(other)
        n = min(len(self._values), len(other._values))
        if self._mode == EXACT:
            (a, da), (b, db) = _lift(n, self, other)
            out = dirichlet_product(a, b, n, 0)
            if da is None:
                return ArithFunc._of([Fraction(x.numerator, x.denominator) for x in out], EXACT)
            return ArithFunc._of(out, EXACT, da * db)
        return ArithFunc._of(dirichlet_product(self._values, other._values, n, 0.0), FLOAT)

    def __mul__(self, other):
        if not isinstance(other, ArithFunc):
            return NotImplemented
        return self.convolve(other)

    def norm(self) -> int | None:
        """Least index with a nonzero value; None when the window is all zero."""
        return _norm(self._values, len(self._values))

    def invert(self) -> "ArithFunc":
        """Convolution inverse on the window: the quotient of e by f.

        Exact mode produces the exact inverse.  Float mode runs the same
        recursion in double precision; one multiplication by 1/f(1) per
        index, so roundoff stays small at desk-scale windows.
        """
        if not self._values[0]:
            raise NonUnitError("f(1) = 0: not a unit (lies in the maximal ideal)")
        n = len(self._values)
        e = identity(n, self._mode)
        if self._mode == EXACT:
            return _solve_exact(e, self, 1, n)[0]
        lead = 1 / self._values[0]
        g, _ = _solve(e._values, self._values, 1, n, 0.0, lambda rest: rest * lead)
        return ArithFunc._of(g, FLOAT)

    def power(self, r: int) -> "ArithFunc":
        """r-fold convolution power by square-and-multiply; f^0 is the identity.

        Exact results equal r sequential convolutions.  In float mode the
        products are grouped differently, so entries may differ from the
        sequential ones in the last bits.
        """
        if r < 0:
            raise ValueError("negative powers: invert first")
        n = len(self._values)
        if r == 0:
            return identity(n, self._mode)
        if self._den is None:
            return _square_and_multiply(self, r, ArithFunc.convolve)
        # X/dx times Y/dy is X*Y over dx*dy
        product = lambda x, y: (dirichlet_product(x[0], y[0], n, 0), x[1] * y[1])
        ints, d = _square_and_multiply((self._values, self._den), r, product)
        return ArithFunc._of(ints, EXACT, d)

    def __pow__(self, r: int) -> "ArithFunc":
        return self.power(r)

    # window helpers ----------------------------------------------------

    def truncate(self, n: int) -> "ArithFunc":
        if not 1 <= n <= len(self._values):
            raise WindowError(f"cannot truncate a window of {len(self._values)} to {n}")
        return ArithFunc._of(self._values[:n], self._mode, self._den)

    def to_float(self) -> "ArithFunc":
        """Explicit conversion to float mode (exact -> float is lossy)."""
        d = self._den  # int / int rounds once, as float(Fraction) does
        return ArithFunc._of([x / d for x in self._values] if d else map(float, self._values), FLOAT)


def _square_and_multiply(base, r: int, times):
    """base**r for r >= 1 under the product ``times``."""
    out = None
    while True:
        if r & 1:
            out = base if out is None else times(out, base)
        r >>= 1
        if not r:
            return out
        base = times(base, base)


# constructors ----------------------------------------------------------

_ZERO_ONE = {EXACT: (0, 1), FLOAT: (0.0, 1.0)}


def zeros(n: int, mode: str = EXACT) -> ArithFunc:
    if n < 1:
        raise ValueError("window length must be at least 1")
    return ArithFunc._of([_ZERO_ONE[mode][0]] * n, mode, 1)


def identity(n: int, mode: str = EXACT) -> ArithFunc:
    """The convolution identity e: 1 at index 1, 0 elsewhere."""
    return delta(1, n, mode)


def delta(m: int, n: int, mode: str = EXACT) -> ArithFunc:
    """The indicator of {m}: 1 at index m, 0 elsewhere on 1..n."""
    if m < 1:
        raise ValueError("support point must be at least 1")
    if n < 1:
        raise ValueError("window length must be at least 1")
    zero, one = _ZERO_ONE[mode]
    vals = [zero] * n
    if m <= n:
        vals[m - 1] = one
    return ArithFunc._of(vals, mode, 1)


def try_divide(h: ArithFunc, f: ArithFunc) -> ArithFunc | NotDivisibleWitness:
    """Solve f * g = h on the common window, exactly.

    Returns the quotient g (of length floor(n / norm(f))) when one
    exists, else a :class:`NotDivisibleWitness` carrying the first index
    that rules every candidate out.  Divisibility is certified only at
    this truncation; nothing is claimed about indices beyond the window.
    """
    if h.mode != EXACT or f.mode != EXACT:
        raise ModeMismatchError("division is exact-mode only")
    n = min(len(h), len(f))
    a = _norm(f._values, n)
    if a is None:
        raise ZeroFunctionError("divisor is zero on the window")
    b = _norm(h._values, n)
    if b is not None and b % a:
        return NotDivisibleWitness(b, "dividend norm is not a multiple of the divisor norm")
    g, acc, target = _solve_exact(h, f, a, n)
    # the recursion fixes every multiple of a; check the rest of the window
    for k in range(1, n + 1):
        if k % a and acc[k - 1] != target[k - 1]:
            return NotDivisibleWitness(k, "no quotient can match the dividend at this index")
    return g


def indicator_shift(m: int, g: ArithFunc, n_out: int) -> ArithFunc:
    """The convolution delta_m * g, written out on a window of length n_out.

    This is just an index dilation: value g(j) lands at index m*j.  It is
    only sound while every multiple of m inside the output window maps
    back into g's window, i.e. n_out < m * (len(g) + 1); beyond that the
    result would depend on values g was truncated away from.
    """
    if m < 1:
        raise ValueError("shift factor must be at least 1")
    if n_out < 1:
        raise ValueError("window length must be at least 1")
    if n_out >= m * (len(g) + 1):
        raise WindowError(
            f"window {n_out} reaches index {m * (len(g) + 1)} = {m}*{len(g) + 1}, "
            "beyond what the shifted operand determines"
        )
    vals = [_ZERO_ONE[g.mode][0]] * n_out
    vals[m - 1::m] = g._values[: n_out // m]
    return ArithFunc._of(vals, g.mode, g._den)
