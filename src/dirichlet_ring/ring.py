"""Truncated exact arithmetic in the ring of arithmetical functions.

A function is stored as its values at 1..n.  Addition is pointwise and
multiplication is Dirichlet convolution, so everything here is
prefix-correct: entry k of any result depends only on entries at
divisors of k.  Float mode exists for the few functions whose values
are irrational, and a float function holds finite doubles only: the
constructor and ``ArithFunc._of`` check every float function where it
is built, so a kernel result that overflows raises ``ValueError``.

An exact function whose common denominator d (the lcm of its values'
denominators) has at most ``SHARED_BITS`` bits is narrow: it stores the
integers d*f(k) and d, with gcd(d, *integers) == 1.  Any other is wide
and stores two columns, the numerators and the denominators of its
values, each pair in lowest terms with a positive denominator;
:func:`shared_denominator` decides, for the constructor, every kernel
result and the sequence-file loader.  The values alone fix the stored
form, so ``==`` and ``hash`` compare forms.  ``values`` and ``f(k)``
build Fractions, for either form, on each request and keep none.  Other
modules reach the integers through :func:`take` and :func:`lowest_terms`,
and a float function's values, its stored tuple, through ``values``.
They read ``_values`` only for zero tests, which hold on it in every form
(``ideals.member``, ``structure.classify`` and ``zoo._scan_pairs``); the
pair scan of ``zoo._scan_pairs`` reads a float function's ``_values`` and
an exact one's :func:`_lift` columns.

``ArithFunc(values, mode)`` checks values from outside the package,
float sequence files included: ints and Fractions are exact, floats are
float values, and a list of both needs ``mode=``; float mode converts
exact values and rejects any that is not a finite double.  An exact
file's strings are checked by ``seqfile.from_json_obj``, which builds
with ``ArithFunc._of`` as package code holding the stored form does.

Two loops carry the whole ring, and both run as strided slice passes:
``_step`` adds a column times one scalar into every m-th entry of an
accumulator at C level; it and ``_divide``, which solves one block of
the recursion, hold all the per-type arithmetic.
``_product`` is the convolution, split by Dirichlet's hyperbola method
into one slice per i <= sqrt(n) and one per j <= n/(sqrt(n)+1); every
product in the package goes through it, and ``ArithFunc.power`` squares
and multiplies through ``ArithFunc.convolve``.  An exact square,
``f.convolve(f)``, hands it one column set, and it then takes each
unordered pair ij = k once, at about half the multiply-adds; a float
square keeps the general split, since the symmetric pass sums each entry
in another order and doubles would round differently.  ``_solve`` is the
standard recursion for f * g = h (Apostol, *Introduction to Analytic
Number Theory*, ch. 2) run in sieve order and in blocks: a block of g
reads only earlier blocks, so its values are solved together and then
pushed into the accumulator at every i*m, and no index ever searches for
its divisors.  ``_quotient`` runs it plus a scan for the first index it
cannot match: inversion, exact or float, is its quotient of e by f, and
exact division reads the quotient and the scan.

The loops run on column sets: a narrow operand's integers, a float
function's values, or, when an operand is wide, numerator and
denominator columns, which are a wide function's stored columns.  Pairs
in the loops are unreduced, which puts off the gcds that every Fraction
operation takes (Knuth, TAOCP vol. 2, 4.5.1); the recursion reduces
each solved value once, a product each output pair once, and a narrow
result is put in lowest terms by one gcd.  Every entry sums its terms
in the order of a term-by-term loop, ascending i in a product and
ascending m in the recursion (only an exact square, whose sums are exact,
takes its pairs in another order), and a term with a zero factor adds
nothing, so float results do not depend on how the slices are cut.

The verdict records live here too: ``NotDivisibleWitness`` for a
division, and ``Witness`` with its verdicts ``MEMBER``, ``NON_MEMBER``
and ``UNDECIDED`` for the oracles and probes of the other modules.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, islice, repeat
from math import gcd, isfinite, isqrt, lcm
from operator import add, floordiv, mod, mul, ne, sub, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence

EXACT = "exact"
FLOAT = "float"

# the widest lcm at which convolve, invert, try_divide and power(3) ran no
# slower on integers over it than on pairs, at n=1024 and 4096
SHARED_BITS = 80


class ModeMismatchError(ValueError):
    """Exact and float values may not meet in one operation."""


class NonUnitError(ValueError):
    """Inversion needs f(1) != 0; anything else lies in the maximal ideal."""


class ZeroFunctionError(ValueError):
    """The operation needs a function that is nonzero on its window."""


class WindowError(ValueError):
    """The truncation window is too short to carry out the request."""


class NotDivisibleWitness(NamedTuple):
    """Index at which no quotient can reproduce the dividend."""

    index: int
    note: str = ""


MEMBER = "member"
NON_MEMBER = "non_member"
UNDECIDED = "undecided_at_truncation"


class Witness(NamedTuple):
    """A verdict about the truncation window, never more: ``member`` and
    ``non_member`` are what the window shows, and ``undecided_at_truncation``
    is the honest outcome when it cannot settle the question either way."""

    verdict: str
    index: int | None = None
    pair: tuple[int, int] | None = None
    note: str = ""
    elements: tuple = ()

    @property
    def is_member(self) -> bool:
        return self.verdict == MEMBER

    def to_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.index is not None:
            out["index"] = self.index
        if self.pair is not None:
            out["pair"] = list(self.pair)
        if self.note:
            out["note"] = self.note
        return out


def _kind(t: type) -> str | None:
    """The mode whose entries may have type t: FLOAT, EXACT, or None (bool too)."""
    if issubclass(t, float):
        return FLOAT
    return EXACT if issubclass(t, (int, Fraction)) and not issubclass(t, bool) else None


def shared_denominator(dens: Iterable[int]) -> int | None:
    """The lcm of ``dens``, or None as soon as it passes SHARED_BITS bits,
    so unrelated wide denominators cost a few entries' scan."""
    d = 1
    for e in dens:
        if d % e:
            d = lcm(d, e)
            if d.bit_length() > SHARED_BITS:
                return None
    return d


def _lowest(nums: Sequence[int], dens: Iterable[int]) -> tuple[list, list]:
    """Pairs over positive denominators in lowest terms, one gcd each;
    ``dens`` is a sequence, or ``repeat(d)`` for one denominator."""
    g = list(map(gcd, nums, dens))
    return list(map(floordiv, nums, g)), list(map(floordiv, dens, g))


def _canonical(entries: Sequence, den) -> tuple[tuple, int | tuple]:
    """The stored form (entries, den) of integers over an int ``den``, or
    of numerators over a sequence ``den`` of positive denominators, each
    pair in lowest terms."""
    if isinstance(den, int):
        # over 1 the pairs are in lowest terms, and the star call would copy the window
        g = gcd(den, *entries) if den > 1 else 1
        if g > 1:
            den //= g
            entries = [x // g for x in entries]
        if den.bit_length() <= SHARED_BITS:
            return tuple(entries), den
        # past the bound; the lcm of the reduced pairs' denominators is den
        nums, dens = _lowest(entries, repeat(den))
        return tuple(nums), tuple(dens)
    d = shared_denominator(den)
    if d is None:
        return tuple(entries), tuple(den)
    # pairs in lowest terms over their lcm need no gcd
    return tuple(entries) if d == 1 else tuple(x * (d // e) for x, e in zip(entries, den)), d


def _finite(values: Iterable[float]) -> tuple:
    """A float function's stored tuple: every value must be a finite
    double, so a kernel result that overflowed is refused where it is
    built, as is an exact value too large for a double as it converts."""
    try:
        vals = tuple(values)
        if all(map(isfinite, vals)):
            return vals
    except OverflowError:
        pass
    raise ValueError("float values must be finite")


def _norm(values: Sequence, n: int) -> int | None:
    return next((i for i in range(1, n + 1) if values[i - 1]), None)


def _step(acc: list, at: slice, col: list, cut: slice, row: list, k: int) -> None:
    """acc[at] += col[cut] * row[k], one pass over each column's slice.

    acc, col and row are column sets: lists of columns, either one of
    values (ints, floats or Fractions), or numerators and denominators >
    0.  A column of values is updated by one comprehension, which ran
    5-29% faster than map(add, ..., map(mul, ...)) in the ring kernels at
    n=64..4096 on Python 3.11; pair columns by maps.

    Pairs stay unreduced (Knuth, TAOCP vol. 2, 4.5.1) except that, when
    a term's denominator can pass 64 bits, gcd(accumulator, term) is
    divided out of each denominator, which keeps the accumulators from
    growing by the whole width of every term: without it a wide invert at
    n=4096 took 200 ms instead of 82 (2-vCPU Xeon, Python 3.11).

    row[k] is never zero: the loops skip those.  A term with a zero
    factor adds nothing, as if skipped: on finite doubles it adds +-0.0
    to a sum that started at +0.0.
    """
    if len(row) == 1:
        s, v = acc[0], row[0][k]
        s[at] = [p + q * v for p, q in zip(s[at], col[0][cut])]
        return
    xn, xd = row[0][k], row[1][k]
    (nums, dens), cn, cd = acc, col[0][cut], col[1][cut]
    tn = map(mul, cn, repeat(xn))
    td = list(map(mul, cd, repeat(xd)))
    if 0 in cn:
        td = [t if m else 1 for m, t in zip(cn, td)]
    an, ad = nums[at], dens[at]
    if xd.bit_length() + max(cd).bit_length() > 64:
        g = list(map(gcd, ad, td))
        ad = list(map(floordiv, ad, g))
        nums[at] = map(add, map(mul, an, map(floordiv, td, g)), map(mul, tn, ad))
    else:
        nums[at] = map(add, map(mul, an, td), map(mul, tn, ad))
    dens[at] = map(mul, ad, td)


def _divide(h: list, acc: list, at: slice, f: list, a: int) -> list:
    """The column set of (h - acc) / f(a) at the indices ``at`` slices out.

    Pairs are solved in lowest terms with positive denominators, so the
    solved columns are the stored form of g: the solved values are
    multiplied into every later accumulator, and leaving them unreduced
    would compound their growth.  Floats are multiplied by 1/f(a), and a
    zero rest gives 0.0 whatever the lead's sign.  Integers are divided
    exactly, and a remainder is refused rather than rounded.
    """
    if len(f) == 2:  # times 1/f(a), its sign moved to the numerator
        num, den = f[1][a - 1], f[0][a - 1]
        if den < 0:
            num, den = -num, -den
        hn, hd, an, ad = h[0][at], h[1][at], acc[0][at], acc[1][at]
        rest = map(sub, map(mul, hn, ad), map(mul, an, hd))
        return _lowest(list(map(mul, rest, repeat(num))), list(map(mul, map(mul, hd, ad), repeat(den))))
    lead = f[0][a - 1]
    rest = map(sub, h[0][at], acc[0][at])
    if isinstance(lead, float):
        r = 1 / lead
        return [[x * r if x else 0.0 for x in rest]]
    rest = list(rest)
    if any(map(mod, rest, repeat(lead))):
        left = next(x % lead for x in rest if x % lead)
        raise ArithmeticError(f"scaled recursion left remainder {left} on division by {lead}")
    return [list(map(floordiv, rest, repeat(lead)))]


def _product(a: list, b: list, n: int, zero: tuple) -> list:
    """The column set of (a*b)(k) for k = 1..n; sums start at ``zero``.

    Dirichlet's hyperbola split: one slice over b for each i <= isqrt(n),
    then one slice over a for each j <= n // (isqrt(n) + 1), j descending,
    so every entry sums its terms a(i) b(j) in ascending i.

    When a is b, a square, each unordered pair ij = k is one term: a(i)^2
    at i^2 and 2 a(i) a(j) at ij for i < j <= n/i, one slice per
    i <= isqrt(n), or about half the multiply-adds.  Its terms sum in
    another order, so only exact column sets may share one set: ints and
    unreduced pairs add exactly, and floats would round differently.
    """
    acc = [[z] * n for z in zero]
    s = isqrt(n)
    if a is b:
        lead = list(compress(range(1, s + 1), a[0]))
        for i in lead:  # before any pass, while acc holds zeros
            for c, x in zip(acc, a):
                c[i * i - 1] = x[i - 1] * x[i - 1]
        twice = [[2 * x for x in a[0][:s]], *a[1:]]
        for i in lead:
            if i * (i + 1) <= n:
                _step(acc, slice(i * (i + 1) - 1, n, i), a, slice(i, n // i), twice, i - 1)
        return acc
    for i in compress(range(1, s + 1), a[0]):
        _step(acc, slice(i - 1, n, i), b, slice(n // i), a, i - 1)
    t = n // (s + 1)
    for j in compress(range(t, 0, -1), reversed(b[0][:t])):
        _step(acc, slice((s + 1) * j - 1, n, j), a, slice(s, n // j), b, j - 1)
    return acc


def dirichlet_product(a: Sequence, b: Sequence, n: int, zero) -> list:
    """(a*b)(k) for k = 1..n, where a[i - 1] holds a(i); sums start at ``zero``."""
    return _product([a], [b], n, (zero,))[0]


def _blocks(top: int, a: int) -> Iterator[tuple[int, int]]:
    """The blocks [lo, hi) that cover 1..top, with hi = ceil(lo*(a+1)/a).

    In the recursion with norm a, g(m) reads g(m') only at m' <= a*m//(a+1),
    which lies below lo for every m < hi: a block reads only earlier blocks.
    """
    lo = 1
    while lo <= top:
        hi = (lo * (a + 1) + a - 1) // a
        yield lo, (hi if hi <= top else top + 1)
        lo = hi


def _solve(h: list, f: list, a: int, n: int, zero: tuple) -> tuple[list, list]:
    """Blocked sieve-order recursion for f * g = h on 1..n, where a is the
    norm of f and h, f, g and the accumulator are column sets.

    Returns (g, acc).  g, on 1..n//a, satisfies (f*g)(a*m) = h(a*m) for
    every m.  Block by block, :func:`_divide` solves the block's
    g(m) = (h(a*m) - acc(a*m)) / f(a), where ``at`` slices out the block's
    a*m; then f(i) g(m) is pushed into acc at i*m for every i > a: one
    slice per m, or one per i in descending order, whichever is fewer, so
    every entry sums its terms in ascending m.
    Since f vanishes below a, acc ends up holding (f*g)(k) at every k that
    is not a multiple of a; entries at multiples of a are scratch.
    """
    acc = [[z] * n for z in zero]
    g = [[] for _ in zero]
    for lo, hi in _blocks(n // a, a):
        for c, q in zip(g, _divide(h, acc, slice(a * lo - 1, a * (hi - 1), a), f, a)):
            c += q
        top = n // lo  # the largest i that meets the block
        if hi - lo <= top - a:
            for m in compress(range(lo, min(hi, n // (a + 1) + 1)), g[0][lo - 1 :]):
                _step(acc, slice((a + 1) * m - 1, n, m), f, slice(a, n // m), g, m - 1)
        else:
            for i in compress(range(top, a, -1), reversed(f[0][a:top])):
                last = min(hi - 1, n // i)
                _step(acc, slice(i * lo - 1, i * last, i), g, slice(lo - 1, last), f, i - 1)
    return g, acc


def _lift(n: int, *operands: ArithFunc) -> list[tuple[list, int | None]]:
    """The exact loops' column set of each operand on 1..n: [its stored
    integers] and their denominator when every operand is narrow, else
    [numerators, denominators] and None: a wide operand's stored columns,
    or a narrow one's integers, unreduced over its denominator."""
    dens = [f._den for f in operands]
    if all(isinstance(d, int) for d in dens):
        return [([f._values], d) for f, d in zip(operands, dens)]
    return [([f._values[:n], d[:n] if isinstance(d, tuple) else (d,) * n], None)
            for f, d in zip(operands, dens)]


def _mismatch(acc: list, target: list, a: int, n: int) -> int | None:
    """The least k <= n, not a multiple of a, at which the column sets acc
    and target hold different values; pairs are cross-multiplied.  Each
    residue r of k mod a is one strided slice."""
    found = []
    for r in range(1, a):
        at = slice(r - 1, n, a)
        if len(acc) == 1:
            differs = map(ne, acc[0][at], target[0][at])
        else:
            xn, xd, yn, yd = acc[0][at], acc[1][at], target[0][at], target[1][at]
            differs = map(ne, map(mul, xn, yd), map(mul, yn, xd))
        found += islice(compress(range(r, n + 1, a), differs), 1)
    return min(found, default=None)


def _quotient(h: ArithFunc, f: ArithFunc, a: int, n: int) -> tuple[ArithFunc, int | None]:
    """``_solve`` for f * g = h on functions of one mode; returns g and
    the least k <= n, not a multiple of a, at which f * g misses h, or
    None when it matches h on the whole window.

    When h and f are both narrow, h = H/dh and f = F/df, the recursion
    solves F * G = c*H over ints with c = |F(a)|^K, K the number of
    blocks: a value of block t reads only earlier blocks, so it has at
    most t divisions by F(a) in it, every one of them exact, and g =
    G*df / (dh*c).  Otherwise it runs on pair columns, or on floats.
    """
    if f._den is None:
        [g], acc = _solve([h._values], [f._values], a, n, (0.0,))
        return ArithFunc._of(g), _mismatch(acc, [h._values], a, n)
    (hs, dh), (fs, df) = _lift(n, h, f)
    if dh is None:
        (gn, gd), acc = _solve(hs, fs, a, n, (0, 1))
        return ArithFunc._of(gn, gd), _mismatch(acc, hs, a, n)
    [F], [H] = fs, hs
    c = abs(F[a - 1]) ** sum(1 for _ in _blocks(n // a, a))
    target = [c * x for x in H[:n]]
    [g], acc = _solve([target], fs, a, n, (0,))
    return ArithFunc._of([x * df for x in g], dh * c), _mismatch(acc, [target], a, n)


class ArithFunc:
    """An arithmetical function truncated to indices 1..n.

    Instances are immutable; every operation returns a new function.
    Calling the object evaluates it: ``f(k)`` for 1 <= k <= len(f).
    ``_values`` holds a narrow function's integers and ``_den`` their
    denominator, a wide function's numerators and ``_den`` the tuple of
    their denominators, or a float function's values and ``_den`` None;
    so the mode is FLOAT exactly when ``_den`` is None.
    """

    __slots__ = ("_values", "_den")

    def __init__(self, values: Iterable[int | float | Fraction], mode: str | None = None):
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
            self._values, self._den = _finite(map(float, vals)), None
        else:  # ints and Fractions alike have a numerator and a denominator
            self._values, self._den = _canonical([v.numerator for v in vals], [v.denominator for v in vals])

    @classmethod
    def _of(cls, entries: Sequence, den=None) -> "ArithFunc":
        """Trusted constructor: float values when ``den`` is None, each
        checked to be finite, else integers over an int ``den``, or
        numerators over a sequence ``den`` of denominators, in lowest
        terms and positive."""
        obj = cls.__new__(cls)
        obj._values, obj._den = (_finite(entries), None) if den is None else _canonical(entries, den)
        return obj

    @property
    def values(self) -> tuple:
        """f(1), ..., f(n): Fractions in exact mode, floats in float mode."""
        d = self._den
        if d is None:
            return self._values
        return tuple(map(Fraction, self._values, d if isinstance(d, tuple) else repeat(d)))

    @property
    def mode(self) -> str:
        return FLOAT if self._den is None else EXACT

    def __len__(self) -> int:
        return len(self._values)

    def __call__(self, k: int):
        if not 1 <= k <= len(self._values):
            raise IndexError(f"index {k} outside the window 1..{len(self._values)}")
        d = self._den
        if d is None:
            return self._values[k - 1]
        return Fraction(self._values[k - 1], d[k - 1] if isinstance(d, tuple) else d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArithFunc):
            return NotImplemented
        return (self._den, self._values) == (other._den, other._values)

    def __hash__(self) -> int:
        return hash((self._den, self._values))

    def __repr__(self) -> str:
        head = ", ".join(str(self(k)) for k in range(1, min(len(self._values), 8) + 1))
        tail = ", ..." if len(self._values) > 8 else ""
        return f"ArithFunc([{head}{tail}], mode={self.mode}, n={len(self._values)})"

    def is_zero(self) -> bool:
        return not any(self._values)

    def _require_same_mode(self, other: "ArithFunc") -> None:
        if self.mode != other.mode:
            raise ModeMismatchError(f"cannot combine {self.mode} mode with {other.mode} mode")

    # ring operations ---------------------------------------------------

    def add(self, other: "ArithFunc") -> "ArithFunc":
        self._require_same_mode(other)
        da, db = self._den, other._den
        if da is None:
            return ArithFunc._of(list(map(add, self._values, other._values)))
        if isinstance(da, tuple) or isinstance(db, tuple):
            n = min(len(self._values), len(other._values))
            [((an, ad), _), ((bn, bd), _)] = _lift(n, self, other)
            nums, dens = _lowest(list(map(add, map(mul, an, bd), map(mul, bn, ad))), list(map(mul, ad, bd)))
            return ArithFunc._of(nums, dens)
        d = lcm(da, db)
        a = self._values if d == da else [x * (d // da) for x in self._values]
        b = other._values if d == db else [x * (d // db) for x in other._values]
        return ArithFunc._of(list(map(add, a, b)), d)

    def __add__(self, other):
        if not isinstance(other, ArithFunc):
            return NotImplemented
        return self.add(other)

    def __neg__(self) -> "ArithFunc":
        return ArithFunc._of([-v for v in self._values], self._den)

    def __sub__(self, other):
        if not isinstance(other, ArithFunc):
            return NotImplemented
        return self.add(-other)

    def convolve(self, other: "ArithFunc") -> "ArithFunc":
        """Dirichlet convolution: (f*g)(k) = sum of f(i)g(j) over ij = k.

        ``f.convolve(f)`` in exact mode hands ``_product`` one column set,
        which squares in one symmetric pass."""
        self._require_same_mode(other)
        n = min(len(self._values), len(other._values))
        if self.mode == EXACT:
            (a, da), (b, db) = _lift(n, self) * 2 if other is self else _lift(n, self, other)
            if da is None:
                nums, dens = _lowest(*_product(a, b, n, (0, 1)))
                return ArithFunc._of(nums, dens)
            return ArithFunc._of(_product(a, b, n, (0,))[0], da * db)
        return ArithFunc._of(dirichlet_product(self._values, other._values, n, 0.0))

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
        return _quotient(identity(n, self.mode), self, 1, n)[0]

    def power(self, r: int) -> "ArithFunc":
        """r-fold convolution power by square-and-multiply; f^0 is the identity.

        Exact results equal r sequential convolutions.  In float mode the
        products are grouped differently, so entries may differ from the
        sequential ones in the last bits.
        """
        if r < 0:
            raise ValueError("negative powers: invert first")
        if r == 0:
            return identity(len(self._values), self.mode)
        out, base = None, self
        while True:
            if r & 1:
                out = base if out is None else out.convolve(base)
            r >>= 1
            if not r:
                return out
            base = base.convolve(base)

    def __pow__(self, r: int) -> "ArithFunc":
        return self.power(r)

    # window helpers ----------------------------------------------------

    def truncate(self, n: int) -> "ArithFunc":
        if not 1 <= n <= len(self._values):
            raise WindowError(f"cannot truncate a window of {len(self._values)} to {n}")
        return take(self, range(1, n + 1))

    def to_float(self) -> "ArithFunc":
        """Explicit conversion to float mode (exact -> float is lossy)."""
        d = self._den  # int / int rounds once, as float(Fraction) does
        if d is None:
            return self
        return ArithFunc._of(map(truediv, self._values, d if isinstance(d, tuple) else repeat(d)))


# constructors ----------------------------------------------------------

_ZERO_ONE = {EXACT: (0, 1), FLOAT: (0.0, 1.0)}


def zeros(n: int, mode: str = EXACT) -> ArithFunc:
    """The zero function on 1..n: the indicator of n + 1, past the window."""
    return delta(n + 1, n, mode)


def identity(n: int, mode: str = EXACT) -> ArithFunc:
    """The convolution identity e: 1 at index 1, 0 elsewhere."""
    return delta(1, n, mode)


def delta(m: int, n: int, mode: str = EXACT) -> ArithFunc:
    """The indicator of {m}: 1 at index m, 0 elsewhere on 1..n."""
    if n < 1:
        raise ValueError("window length must be at least 1")
    if m < 1:
        raise ValueError("support point must be at least 1")
    if mode not in _ZERO_ONE:
        raise ValueError(f"unknown scalar mode {mode!r}")
    zero, one = _ZERO_ONE[mode]
    vals = [zero] * n
    if m <= n:
        vals[m - 1] = one
    return ArithFunc._of(vals, 1 if mode == EXACT else None)


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
    # the recursion fixes every multiple of a; _quotient checks the rest
    g, k = _quotient(h, f, a, n)
    return g if k is None else NotDivisibleWitness(k, "no quotient can match the dividend at this index")


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
    idx = [0] * n_out
    idx[m - 1::m] = range(1, n_out // m + 1)
    return take(g, idx)


def take(f: ArithFunc, idx: Sequence[int]) -> ArithFunc:
    """The function whose value at j is f(idx[j - 1]), or 0 where
    idx[j - 1] is 0, built from f's stored form: truncations, dilations
    and quotients by a delta are all this."""
    vals, d = (_ZERO_ONE[f.mode][0],) + f._values, f._den
    entries = [vals[k] for k in idx]
    if isinstance(d, tuple):
        dens = (1,) + d
        d = [dens[k] for k in idx]
    return ArithFunc._of(entries, d)


def lowest_terms(f: ArithFunc) -> tuple[Sequence[int], Sequence[int] | None]:
    """An exact f's values as numerators and denominators in lowest terms,
    the denominators None when every value is an integer."""
    d = f._den
    if d == 1:
        return f._values, None
    return _lowest(f._values, repeat(d)) if isinstance(d, int) else (f._values, d)
