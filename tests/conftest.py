# keeps this directory importable so tests can share the oracle helpers
from fractions import Fraction
from math import gcd, isqrt
from types import SimpleNamespace

import pytest

from dirichlet_ring import seqfile


@pytest.fixture
def fractions_built(monkeypatch):
    """Counts, in ``.made``, every Fraction built from here on, in the
    package or out of it: ``Fraction.__new__`` is wrapped by a counter."""
    count = SimpleNamespace(made=0)
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count.made += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return count


def coprime_pair(bits: int) -> tuple[int, int]:
    """Odd p < q, coprime to each other and to 3, 5 and 7, whose product
    has exactly ``bits`` bits (at least 8): denominators that sit at a
    bound of ``bits`` bits, and pass it together with any other prime."""
    p = isqrt(1 << (bits - 1)) + 1
    while gcd(p, 210) > 1:
        p += 1
    q = p + 1
    while gcd(q, 210 * p) > 1:
        q += 1
    assert (p * q).bit_length() == bits
    return p, q


def save(f, path, name: str = "sequence") -> None:
    """Write the sequence file of ``f`` through the one writer ``--out`` uses."""
    seqfile.write(seqfile.to_json(f, name), path)
