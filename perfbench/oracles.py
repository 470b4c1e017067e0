"""Independent evaluators for checking the outputs of dirichlet_ring.

Nothing here imports the package under test.  Factorizations come from a
smallest-prime-factor sieve, divisors from a scan up to the square root, and
ring results are checked by summing over the divisors of sampled indices.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd

# Highly composite numbers up to 65536: the indices with the most divisors,
# hence the ones where a convolution sums the most terms.
HIGHLY_COMPOSITE = (
    1, 2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840, 1260, 1680,
    2520, 5040, 7560, 10080, 15120, 20160, 25200, 27720, 45360, 50400, 55440,
)

TAU_1_TO_10 = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)

FLOAT_RTOL = 1e-9


class CheckError(Exception):
    """An output disagrees with the independent evaluator."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def divisors_scan(k: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d * d != k:
                large.append(k // d)
        d += 1
    return small + large[::-1]


def spf_sieve(limit: int) -> list[int]:
    """spf[k] is the smallest prime factor of k (spf[0] = spf[1] = 0)."""
    spf = [0] * (limit + 1)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            for m in range(p, limit + 1, p):
                if spf[m] == 0:
                    spf[m] = p
    return spf


def factor_spf(k: int, spf: list[int]) -> list[tuple[int, int]]:
    out = []
    while k > 1:
        p = spf[k]
        a = 0
        while k % p == 0:
            k //= p
            a += 1
        out.append((p, a))
    return out


def primes_from_spf(spf: list[int]) -> list[int]:
    return [k for k in range(2, len(spf)) if spf[k] == k]


# named functions at one index, from a factorization ------------------------


def mobius_at(fac) -> int:
    return 0 if any(a > 1 for _, a in fac) else (-1) ** len(fac)


def phi_at(k: int, fac) -> int:
    for p, _ in fac:
        k = k // p * (p - 1)
    return k


def psi_at(k: int, fac) -> int:
    for p, _ in fac:
        k = k // p * (p + 1)
    return k


def big_omega_at(fac) -> int:
    return sum(a for _, a in fac)


def mangoldt_at(fac) -> float:
    return math.log(fac[0][0]) if len(fac) == 1 else 0.0


def valuation(p: int, k: int) -> int:
    a = 0
    while k % p == 0:
        k //= p
        a += 1
    return a


def exact_value(tag: str, k: int, param: int | None, fac: list[tuple[int, int]]):
    """Value of a zoo function at k from the factorization ``fac`` of k;
    tau is not covered."""
    if tag == "identity_e":
        return Fraction(int(k == 1))
    if tag == "unit_u":
        return Fraction(1)
    if tag == "natural_N":
        return Fraction(k)
    if tag == "delta":
        return Fraction(int(k == param))
    if tag == "p_adic_valuation":
        return Fraction(valuation(param, k))
    if tag == "log":
        return math.log(k)
    if tag == "mobius":
        return Fraction(mobius_at(fac))
    if tag == "euler_phi":
        return Fraction(phi_at(k, fac))
    if tag == "dedekind_psi":
        return Fraction(psi_at(k, fac))
    if tag == "liouville":
        return Fraction((-1) ** big_omega_at(fac))
    if tag == "big_omega":
        return Fraction(big_omega_at(fac))
    if tag == "distinct_prime_count":
        return Fraction(len(fac))
    if tag == "mangoldt":
        return mangoldt_at(fac)
    raise ValueError(f"no evaluator for {tag!r}")


# sampled checks of ring results -----------------------------------------------


def sample_indices(rng: random.Random, n: int, count: int = 48) -> list[int]:
    """1, n, every highly composite index <= n, and ``count`` seeded picks."""
    picks = {1, n, *(k for k in HIGHLY_COMPOSITE if k <= n)}
    picks.update(rng.randint(1, n) for _ in range(count))
    return sorted(picks)


def dirichlet_at(f, g, k: int):
    """(f*g)(k) by summing f(d) g(k/d) over every divisor d of k."""
    return sum((f[d - 1] * g[k // d - 1] for d in divisors_scan(k)), start=0 * f[0])


def power_at(f, r: int, k: int):
    """The r-fold convolution power of f at k, from the divisors of k."""
    divs = divisors_scan(k)
    prev = {m: f[m - 1] for m in divs}
    for _ in range(r - 1):
        prev = {
            m: sum((f[d - 1] * prev[m // d] for d in divisors_scan(m)), start=0 * f[0])
            for m in divs
        }
    return prev[k]


def close(x: float, y: float) -> bool:
    return abs(x - y) <= FLOAT_RTOL * max(1.0, abs(y))


def check_values(got, expected, what: str, indices) -> None:
    """got and expected are 0-based sequences; compare at 1-based indices."""
    for k in indices:
        g, e = got[k - 1], expected(k) if callable(expected) else expected[k - 1]
        ok = close(g, e) if isinstance(e, float) else g == e
        require(ok, f"{what}: value at {k} is {g}, expected {e}")


def check_convolution(got, f, g, indices, what: str) -> None:
    check_values(got, lambda k: dirichlet_at(f, g, k), what, indices)


def check_inverse(got, f, indices, what: str) -> None:
    one = f[0] / f[0]
    check_values(
        _Convolved(f, got), lambda k: one if k == 1 else 0 * one, f"{what} (f * f^-1 = e)", indices
    )


class _Convolved:
    """Read-only view whose entry k-1 is (f*g)(k), computed on access."""

    def __init__(self, f, g):
        self.f, self.g = f, g

    def __getitem__(self, i):
        return dirichlet_at(self.f, self.g, i + 1)


# Ramanujan tau -------------------------------------------------------------------


def check_tau(tau: list[int], rng: random.Random, spf: list[int]) -> None:
    """tau(1..10), multiplicativity on coprime pairs and the Hecke recurrence."""
    n = len(tau)
    require(n >= 10, "tau window shorter than 10")
    require(tuple(tau[:10]) == TAU_1_TO_10, f"tau(1..10) is {tau[:10]}")
    for _ in range(64):
        m = rng.randint(2, n // 2)
        k = rng.randint(2, n // m)
        if gcd(m, k) == 1:
            require(tau[m * k - 1] == tau[m - 1] * tau[k - 1], f"tau({m}*{k}) is not multiplicative")
    for p in primes_from_spf(spf):
        if p * p > n:
            break
        q = p
        while q * p <= n:
            # tau(p^(a+1)) = tau(p) tau(p^a) - p^11 tau(p^(a-1))
            prev = tau[q // p - 1]
            require(
                tau[q * p - 1] == tau[p - 1] * tau[q - 1] - p**11 * prev,
                f"Hecke recurrence fails at {q * p}",
            )
            q *= p
