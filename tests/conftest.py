# keeps this directory importable so tests can share the oracle helpers
import gc
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest

from dirichlet_ring import seqfile

SRC_DIR = str(Path(seqfile.__file__).resolve().parent.parent)


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
    seqfile.write(seqfile.dumps((f, name)), path)


def run_cli_subprocess(*argv):
    """``python -m dirichlet_ring *argv`` in a child process, on this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "dirichlet_ring", *argv], capture_output=True, env=env)


def traced_peak(call):
    """The peak bytes ``call()`` allocates above what was live before it,
    under tracemalloc, and its result."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        if not tracing:
            tracemalloc.stop()
