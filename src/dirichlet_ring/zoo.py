"""Generators for the named arithmetical functions.

The multiplicative and additive ones are defined by their values at prime
powers (``primes.prime_power_fold``); Ramanujan's tau comes from Jacobi's
identity and three squarings by Kronecker substitution, each one bigint
product.  Everything is exact except the Mangoldt function and the
logarithm, whose values are irrational and therefore live in float mode;
every generator builds through the trusted ``ArithFunc._of``.  The
additivity checks run one ``map`` pass per m over slices of the values.
"""

from __future__ import annotations

import math
from math import gcd
from itertools import compress, repeat
from operator import add, mul, ne

from .primes import is_prime, prime_power_fold, primes_upto
from .ring import FLOAT, MEMBER, NON_MEMBER, ArithFunc, Witness, _lift, delta, identity

# a float pair fails when |f(mk) - f(m) - f(k)| passes FLOAT_SLACK times
# |f(mk)| + |f(m)| + |f(k)|: twice the 4 units of roundoff, 2^-53, that
# s*log(k) with a log within one ulp can show (Higham, 2002, 3.1)
FLOAT_SLACK = 8 * 2.0**-53


def _multiplicative(n: int, at) -> ArithFunc:
    return ArithFunc._of(prime_power_fold(n, at, mul, 1), 1)


def _additive(n: int, at) -> ArithFunc:
    return ArithFunc._of(prime_power_fold(n, at, add, 0), 1)


def mobius(n: int) -> ArithFunc:
    """1 at 1; (-1)^k on products of k distinct primes; 0 otherwise."""
    return _multiplicative(n, lambda p, a: -1 if a == 1 else 0)


def euler_phi(n: int) -> ArithFunc:
    """Count of 1..k coprime to k; p^a - p^(a-1) at prime powers."""
    return _multiplicative(n, lambda p, a: p**a - p ** (a - 1))


def mangoldt(n: int) -> ArithFunc:
    """log p at prime powers p^m, 0 elsewhere.  Float mode."""
    vals = [0.0] * n
    for p in primes_upto(n):
        q, log_p = p, math.log(p)
        while q <= n:
            vals[q - 1] = log_p
            q *= p
    return ArithFunc._of(vals)


def liouville(n: int) -> ArithFunc:
    """(-1) to the number of prime factors counted with multiplicity."""
    return _multiplicative(n, lambda p, a: (-1) ** a)


def _square(c: list[int], n: int) -> list[int]:
    """The coefficients of degree < n of the square of the polynomial c,
    by Kronecker substitution: c evaluated at 2^s in one int, one bigint
    multiplication, and the product's base-2^s digits read back.

    Each coefficient d of the square has |d| <= max|c| * sum|c|, so a
    slot of s = 8w bits holds d + 2^(s-1) in [0, 2^s); packing and
    unpacking add and take off that offset in every slot, so signed
    values pass through ``int.to_bytes`` and ``int.from_bytes``.
    """
    bound = max(map(abs, c)) * sum(map(abs, c))
    w = bound.bit_length() // 8 + 1
    half = 1 << (8 * w - 1)
    offset = int.from_bytes(half.to_bytes(w, "little") * n, "little")
    x = int.from_bytes(b"".join([(v + half).to_bytes(w, "little") for v in c]), "little") - offset
    digits = ((x * x + offset) & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    return [int.from_bytes(digits[i:i + w], "little") - half for i in range(0, w * n, w)]


def ramanujan_tau(n: int) -> ArithFunc:
    """Coefficients of x * prod_{j>=1} (1 - x^j)^24, truncated at degree n.

    Jacobi's identity gives the cube of the product term by term,
    prod (1 - x^j)^3 = sum_k (-1)^k (2k + 1) x^(k(k+1)/2); three exact
    squarings by Kronecker substitution (Harvey, arXiv:0712.4046) raise
    it to the 24th power.
    """
    coeffs = [0] * n
    k = t = 0
    while t < n:
        coeffs[t] = (-1) ** k * (2 * k + 1)
        k += 1
        t += k
    for _ in range(3):
        coeffs = _square(coeffs, n)
    return ArithFunc._of(coeffs, 1)


def dedekind_psi(n: int) -> ArithFunc:
    """k * prod(1 + 1/p) over p | k; p^a + p^(a-1) at prime powers."""
    return _multiplicative(n, lambda p, a: p**a + p ** (a - 1))


def big_omega(n: int) -> ArithFunc:
    """Number of prime factors counted with multiplicity."""
    return _additive(n, lambda p, a: a)


def distinct_prime_count(n: int) -> ArithFunc:
    """Number of distinct prime divisors."""
    return _additive(n, lambda p, a: 1)


def p_adic_valuation(p: int, n: int) -> ArithFunc:
    """Largest exponent a with p^a dividing k."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _additive(n, lambda q, a: a if q == p else 0)


def log_function(n: int) -> ArithFunc:
    """Natural logarithm at each index.  Float mode."""
    return ArithFunc._of(list(map(math.log, range(1, n + 1))))


def unit(n: int) -> ArithFunc:
    """The constant-one function u."""
    return ArithFunc._of([1] * n, 1)


def natural(n: int) -> ArithFunc:
    """The inclusion k -> k."""
    return ArithFunc._of(range(1, n + 1), 1)


_PLAIN = {
    "mobius": mobius,
    "euler_phi": euler_phi,
    "mangoldt": mangoldt,
    "liouville": liouville,
    "ramanujan_tau": ramanujan_tau,
    "dedekind_psi": dedekind_psi,
    "big_omega": big_omega,
    "distinct_prime_count": distinct_prime_count,
    "log": log_function,
    "identity_e": identity,
    "unit_u": unit,
    "natural_N": natural,
}

_PARAMETRIC = {
    "p_adic_valuation": p_adic_valuation,
    "delta": delta,
}

FUNCTION_TAGS = tuple(sorted(_PLAIN)) + tuple(sorted(_PARAMETRIC))


def generate(tag: str, n: int, param: int | None = None) -> ArithFunc:
    """Build a named function by tag; parametric tags need ``param``."""
    if n < 1:
        raise ValueError("window length must be at least 1")
    if tag in _PLAIN:
        if param is not None:
            raise ValueError(f"{tag} takes no parameter")
        return _PLAIN[tag](n)
    if tag in _PARAMETRIC:
        if param is None:
            raise ValueError(f"{tag} needs a parameter")
        return _PARAMETRIC[tag](param, n)
    raise ValueError(f"unknown function tag {tag!r}")


# additivity ------------------------------------------------------------


def _float_fails(a: float, b: float, c: float) -> bool:
    """Whether |a - b - c| passes FLOAT_SLACK times |a| + |b| + |c|; when
    that sum overflows, on a/4, b/4 and c/4, which a power of two scales
    exactly at that size, so no pair passes by inf > inf being False."""
    size = abs(a) + abs(b) + abs(c)
    if size == math.inf:
        return _float_fails(a / 4, b / 4, c / 4)
    return abs(a - b - c) > FLOAT_SLACK * size


def _scan_pairs(f: ArithFunc, coprime_only: bool) -> Witness:
    """The first pair m <= k, in order of m then k, with mk <= len(f) and
    f(mk) != f(m) + f(k); only coprime pairs when ``coprime_only``.

    Each m is one pass over the slices f(m*m), f(m*(m+1)), ... and f(m),
    f(m+1), ..., with ``ne`` and ``add`` on exact integers.  Exact mode
    compares the columns of ``ring._lift``: a narrow function's stored
    integers, or a wide one's (numerator, denominator) pairs,
    cross-multiplied.  Float mode allows roundoff (:func:`_float_fails`).
    """
    n = len(f)
    vals = f._values
    fails = None  # ne(a, b + c) on integers, a = f(mk), b = f(m), c = f(k)
    if f.mode == FLOAT:
        fails = _float_fails
    elif not vals[0]:  # else the first pair, (1, 1), fails on the stored values
        [(cols, _)] = _lift(n, f)
        vals = cols[0]
        if len(cols) == 2:
            vals = list(zip(*cols))
            fails = lambda a, b, c: (a[0] * b[1] - b[0] * a[1]) * c[1] != c[0] * a[1] * b[1]
    m = 1
    while m * m <= n:
        top = n // m
        fmk, fk = vals[m * m - 1 : m * top : m], vals[m - 1 : top]  # f(mk) and f(k), k = m..top
        if fails is None:
            failed = map(ne, fmk, map(add, repeat(vals[m - 1]), fk))
        else:
            failed = map(fails, fmk, repeat(vals[m - 1]), fk)
        ks = compress(range(m, top + 1), failed)
        k = next((k for k in ks if gcd(m, k) == 1) if coprime_only else ks, None)
        if k is not None:
            return Witness(NON_MEMBER, pair=(m, k), note=f"f({m}*{k}) != f({m}) + f({k})")
        m += 1
    return Witness(MEMBER, note=f"all pairs with product <= {n} pass")


def is_additive(f: ArithFunc) -> Witness:
    """Check f(mk) = f(m) + f(k) for every coprime pair with mk <= len(f)."""
    return _scan_pairs(f, coprime_only=True)


def is_completely_additive(f: ArithFunc) -> Witness:
    """Check f(mk) = f(m) + f(k) for every pair with mk <= len(f)."""
    return _scan_pairs(f, coprime_only=False)
