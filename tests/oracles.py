"""Independent brute-force evaluators used as test oracles.

Everything here deliberately avoids the library's code paths: factoring
is an upward divisor scan, convolution, division and inversion scan
every divisor of every index, the totient counts coprime integers one by
one, the tau expansion multiplies polynomials schoolbook-style, additivity
is tested pair by pair, a narrow scalar is drawn with two ``randint``
calls, and the constructor's input rules are checked one entry at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isfinite


def prime_factors_scan(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs by trying candidate divisors upward."""
    out = []
    d = 2
    while n > 1:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1
    return out


def is_prime_scan(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def mobius_scan(n: int) -> int:
    factors = prime_factors_scan(n)
    if any(a > 1 for _, a in factors):
        return 0
    return (-1) ** len(factors)


def phi_count(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def liouville_scan(n: int) -> int:
    return (-1) ** sum(a for _, a in prime_factors_scan(n))


def psi_scan(n: int) -> int:
    value = Fraction(n)
    for p, _ in prime_factors_scan(n):
        value *= Fraction(p + 1, p)
    assert value.denominator == 1
    return int(value)


def big_omega_scan(n: int) -> int:
    return sum(a for _, a in prime_factors_scan(n))


def distinct_count_scan(n: int) -> int:
    return len(prime_factors_scan(n))


def nu_p_scan(p: int, n: int) -> int:
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def additivity_pair_scan(values: list, coprime_only: bool, slack: float = 0.0):
    """(verdict, pair, note) of the first pair m <= k, in order of m then k,
    with m*k in the window and |v(mk) - v(m) - v(k)| above ``slack`` times
    |v(mk)| + |v(m)| + |v(k)|; only coprime pairs when ``coprime_only``."""
    n = len(values)
    for m in range(1, n + 1):
        for k in range(m, n + 1):
            if m * k > n:
                break
            if coprime_only and gcd(m, k) != 1:
                continue
            a, b, c = values[m * k - 1], values[m - 1], values[k - 1]
            if abs(a - b - c) > slack * (abs(a) + abs(b) + abs(c)):
                return "non_member", (m, k), f"f({m}*{k}) != f({m}) + f({k})"
    return "member", None, f"all pairs with product <= {n} pass"


def randint_scalar(rng) -> Fraction:
    """A narrow scalar (numerator -3..3 over denominator 1..3) drawn with
    two ``randint`` calls, numerator first."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


class Refused(Exception):
    """The error a constructor should raise: its class name and message."""

    def __init__(self, kind: str, message: str):
        super().__init__(kind, message)
        self.kind, self.message = kind, message


def construct_reference(values, mode=None) -> tuple[str, tuple]:
    """(mode, values as Fractions or floats) of the function built from
    ``values``, or :class:`Refused` with the error for the first entry a
    rule rejects.  With no mode, a float entry picks float mode unless an
    int or Fraction is present too.  Entry by entry, a bool is a
    TypeError and a type the mode cannot hold a ModeMismatchError (float
    mode converts ints and Fractions); after every entry's type passes,
    float mode needs every value to be a finite double."""
    vals = list(values)
    if not vals:
        raise Refused("ValueError", "need at least one value (indices start at 1)")
    if mode is None:
        has_float = any(isinstance(v, float) for v in vals)
        if has_float and any(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in vals):
            raise Refused("ModeMismatchError", "mixed exact and float entries; pass mode= to convert explicitly")
        mode = "float" if has_float else "exact"
    if mode not in ("exact", "float"):
        raise Refused("ValueError", f"unknown scalar mode {mode!r}")
    for v in vals:
        if isinstance(v, bool):
            raise Refused("TypeError", "bool is not a scalar value")
        if not isinstance(v, (float, int, Fraction) if mode == "float" else (int, Fraction)):
            raise Refused("ModeMismatchError", f"{mode} mode cannot hold {type(v).__name__} values")
    if mode == "exact":
        return mode, tuple(Fraction(v) for v in vals)
    doubles = []
    for v in vals:
        try:
            doubles.append(float(v))
        except OverflowError:
            doubles.append(inf)
    if not all(isfinite(x) for x in doubles):
        raise Refused("ValueError", "float values must be finite")
    return mode, tuple(doubles)


def sigma_scan(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def convolve_lists(a: list, b: list) -> list:
    """Dirichlet convolution by scanning the divisors of each index."""
    n = min(len(a), len(b))
    out = []
    for k in range(1, n + 1):
        total = 0
        for d in range(1, k + 1):
            if k % d == 0:
                total += a[d - 1] * b[k // d - 1]
        out.append(total)
    return out


def divide_lists(h: list, f: list):
    """Solve f * g = h on the common window by scanning divisors.

    With a the least index where f is nonzero, returns the quotient g on
    1..n//a, or the least index where f * g differs from h when no
    quotient exists.
    """
    n = min(len(h), len(f))
    a = next(i for i in range(1, n + 1) if f[i - 1])
    g = []
    for m in range(1, n // a + 1):
        k = a * m
        known = sum(f[d - 1] * g[k // d - 1] for d in range(a + 1, k + 1) if k % d == 0)
        g.append(Fraction(h[k - 1] - known) / f[a - 1])
    product = convolve_lists(f[:n], g + [0] * (n - len(g)))
    for k in range(1, n + 1):
        if product[k - 1] != h[k - 1]:
            return k
    return g


def invert_floats(f: list[float]) -> list[float]:
    """Float inverse by the divisor-order recursion, summed in the order
    g(k) = -(1/f(1)) * sum of g(d) f(k/d) over divisors d < k, ascending."""
    lead = 1.0 / f[0]
    g = [lead]
    for k in range(2, len(f) + 1):
        acc = 0.0
        for d in range(1, k):
            if k % d == 0 and g[d - 1]:
                acc += g[d - 1] * f[k // d - 1]
        g.append(-lead * acc if acc else 0.0)
    return g


def _poly_mul(p: list[int], q: list[int], cap: int) -> list[int]:
    out = [0] * min(len(p) + len(q) - 1, cap)
    for i, pi in enumerate(p):
        if not pi or i >= cap:
            continue
        for j, qj in enumerate(q):
            if i + j >= cap:
                break
            if qj:
                out[i + j] += pi * qj
    return out


def tau_eta_product(n: int) -> list[int]:
    """tau(1..n): expand x * prod_j (1 - x^j)^24 with schoolbook products.

    Each factor's 24th power is built by 24 literal polynomial
    multiplications, then folded into the running product.
    """
    cap = n  # keep degrees 0..n-1; tau(k) is the degree k-1 coefficient
    prod = [1]
    for j in range(1, n):
        base = [0] * (j + 1)
        base[0], base[j] = 1, -1
        f24 = [1]
        for _ in range(24):
            f24 = _poly_mul(f24, base, cap)
        prod = _poly_mul(prod, f24, cap)
    prod = prod + [0] * (cap - len(prod))
    return prod


def rank_over_q(rows: list[list[Fraction]]) -> int:
    """Rank of a small exact matrix by Gaussian elimination."""
    matrix = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        lead = matrix[rank][col]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                scale = matrix[r][col] / lead
                matrix[r] = [x - scale * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank
