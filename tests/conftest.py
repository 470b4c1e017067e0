# keeps this directory importable so tests can share the oracle helpers
from fractions import Fraction
from types import SimpleNamespace

import pytest


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
