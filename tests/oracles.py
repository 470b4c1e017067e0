"""Independent brute-force evaluators used as test oracles.

Everything here deliberately avoids the library's code paths: factoring
is an upward divisor scan, convolution, division and inversion scan
every divisor of every index, divisibility depth divides by each power
of the divisor in turn, the totient counts coprime integers one by
one, tau comes from a schoolbook expansion of the eta product and from
the divisor-sum recursion over a sieve of sigma, additivity
is tested pair by pair, a narrow scalar is drawn as one of its 21
(numerator, denominator) pairs and built as a Fraction (or, for the
operands of the pinned kernel digests, with two ``randint`` calls), and
the constructor's input rules are checked one entry at a time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isfinite, isqrt
from operator import mul


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


def least_prime_factor_scan(n: int) -> int:
    """The least d >= 2 dividing n >= 2, trying candidates upward to
    sqrt(n); n itself when none divides."""
    return next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)


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


def constrained_scan(spec, window: int) -> list[int]:
    """The indices 1..window where a member of ``spec``'s ideal must
    vanish, from the family definitions by divisor scans.  The spec is read
    through its fields; its tag is "I", "maximal", "P", "Pk", "K" or "J"."""
    scanned_primes = [k for k in range(2, window + 1) if is_prime_scan(k)]

    def constrains(idx):
        ps = {p for p, _ in prime_factors_scan(idx)}
        if spec.tag == "I":
            return idx < spec.n
        if spec.tag == "maximal":
            return idx == 1
        if spec.tag == "P":
            return all(spec.m % p for p in ps)
        if spec.tag == "Pk":
            return sum(spec.m % p == 0 for p in ps) <= spec.k
        if spec.tag == "K":
            return idx == 1 or idx in scanned_primes[spec.n - 1 :]
        if spec.complement:
            return not ps & set(spec.primes)
        return ps <= set(spec.primes)

    return [idx for idx in range(1, window + 1) if constrains(idx)]


def minimal_generators_scan(spec, window: int) -> tuple[int, ...]:
    """The s in 2..window outside T = ``constrained_scan(spec, window)``
    whose proper divisors all lie in T, each found by trying every d < s."""
    inside = set(constrained_scan(spec, window))
    return tuple(s for s in range(2, window + 1)
                 if s not in inside and all(d in inside for d in range(1, s) if s % d == 0))


def additivity_pair_scan(values: list, coprime_only: bool, slack: float = 0.0):
    """(verdict, pair, note) of the first pair m <= k, in order of m then k,
    with m*k in the window and |v(mk) - v(m) - v(k)| above ``slack`` times
    |v(mk)| + |v(m)| + |v(k)|; only coprime pairs when ``coprime_only``.
    A pair of doubles whose sum of magnitudes overflows is compared at a
    quarter of each value, so inf > inf cannot pass it."""
    n = len(values)
    for m in range(1, n + 1):
        for k in range(m, n + 1):
            if m * k > n:
                break
            if coprime_only and gcd(m, k) != 1:
                continue
            a, b, c = values[m * k - 1], values[m - 1], values[k - 1]
            if abs(a) + abs(b) + abs(c) == inf:
                a, b, c = a / 4, b / 4, c / 4
            if abs(a - b - c) > slack * (abs(a) + abs(b) + abs(c)):
                return "non_member", (m, k), f"f({m}*{k}) != f({m}) + f({k})"
    return "member", None, f"all pairs with product <= {n} pass"


# a narrow scalar's (numerator, denominator) pairs, numerator outer
NARROW_PAIRS = [(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
NONZERO_PAIRS = [(a, b) for a, b in NARROW_PAIRS if a]


def choices_scalars(rng, k: int) -> list[Fraction]:
    """k narrow scalars drawn with one ``choices`` call over ``NARROW_PAIRS``."""
    return [Fraction(a, b) for a, b in rng.choices(NARROW_PAIRS, k=k)]


def choice_scalar(rng, nonzero: bool = False) -> Fraction:
    """One narrow scalar drawn with ``choice`` over ``NARROW_PAIRS``, or over
    ``NONZERO_PAIRS``."""
    a, b = rng.choice(NONZERO_PAIRS if nonzero else NARROW_PAIRS)
    return Fraction(a, b)


def randint_scalar(rng) -> Fraction:
    """A narrow scalar (numerator -3..3 over denominator 1..3) drawn with
    two ``randint`` calls, numerator first."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def randint_nonzero(rng) -> Fraction:
    """``randint_scalar`` drawn again until it is nonzero."""
    v = randint_scalar(rng)
    while not v:
        v = randint_scalar(rng)
    return v


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


def depth_power_chain(h: list, f: list) -> int:
    """Largest r with f^r dividing h on the common window, by definition:
    divide h by f, f^2, ..., each power a scanned convolution, until a
    power is zero on the window or leaves a mismatch."""
    n = min(len(h), len(f))
    h, f = h[:n], f[:n]
    depth, power = 0, f
    while any(power) and not isinstance(divide_lists(h, power), int):
        depth, power = depth + 1, convolve_lists(power, f)
    return depth


def invert_floats(f: list[float]) -> list[float]:
    """Float inverse by the divisor-order recursion, summed in the order
    g(k) = -(1/f(1)) * sum of g(d) f(k/d) over divisors d < k, ascending;
    a term with a zero factor is skipped, so 0 * inf adds no nan."""
    lead = 1.0 / f[0]
    g = [lead]
    for k in range(2, len(f) + 1):
        acc = 0.0
        for d in range(1, k):
            if k % d == 0 and g[d - 1] and f[k // d - 1]:
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

    (1 - y)^24 is built by 24 literal polynomial multiplications; each
    factor (1 - x^j)^24 is that polynomial at y = x^j, folded into the
    running product one term c x^(ij) at a time.
    """
    f24 = [1]
    for _ in range(24):
        f24 = _poly_mul(f24, [1, -1], 25)
    prod = [1] + [0] * (n - 1)  # degrees 0..n-1; tau(k) is the degree k-1 coefficient
    for j in range(1, n):
        out = [0] * n
        for i, c in enumerate(f24):
            s = i * j
            if s >= n:
                break
            out[s:] = [a + c * b for a, b in zip(out[s:], prod)]
        prod = out
    return prod


def sigma_sieve(n: int) -> list[int]:
    """sigma(1..n), the divisor sums, by adding each d to its multiples."""
    sigma = [0] * n
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            sigma[m - 1] += d
    return sigma


def tau_sigma_recursion(n: int) -> list[int]:
    """tau(1..n) from the logarithmic derivative of the eta product: with
    c_m the degree-m coefficient of prod_j (1 - x^j)^24,
    m c_m = -24 sum_{k=1..m} sigma(k) c_{m-k}, and the division is exact."""
    sigma = sigma_sieve(n)
    coeffs = [1]
    for m in range(1, n):
        coeffs.append(-24 * sum(map(mul, sigma[:m], reversed(coeffs))) // m)
    return coeffs


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
