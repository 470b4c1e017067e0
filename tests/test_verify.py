"""The verify-paper suite's handling of failing and crashing checks, and
its pinned report."""

import hashlib
import itertools

import pytest

from dirichlet_ring import verify
from dirichlet_ring.ideals import IdealSpec
from dirichlet_ring.ring import ArithFunc, dirichlet_product


def test_run_all_records_a_crashing_check_and_goes_on(monkeypatch):
    def crash(ctx):
        raise ZeroDivisionError("division by zero")

    name, _ = verify.CHECKS[0]
    monkeypatch.setattr(verify, "CHECKS", ((name, crash),) + verify.CHECKS[1:])
    results = verify.run_all(64, 0)
    assert len(results) == len(verify.CHECKS)
    assert not results[0].passed
    assert results[0].detail == "ZeroDivisionError: division by zero"
    assert all(r.passed for r in results[1:])


def test_invertibility_check_counts_only_non_unit_rejections(monkeypatch):
    invert = ArithFunc.invert

    def crash_on_non_units(self):
        if not self(1):
            raise RuntimeError("broken kernel")
        return invert(self)

    monkeypatch.setattr(ArithFunc, "invert", crash_on_non_units)
    with pytest.raises(RuntimeError):
        verify._check_invertibility(verify._Ctx(64, 0, "invertibility"))
    # a kernel that "inverts" a non-unit fails the check
    monkeypatch.setattr(ArithFunc, "invert", lambda self: invert(self) if self(1) else self)
    with pytest.raises(AssertionError, match=r"^inverted an element with f\(1\) = 0$"):
        verify._check_invertibility(verify._Ctx(64, 0, "invertibility"))


def test_shared_candidates_are_named_in_failures():
    ctx = verify._Ctx(64, 0, "candidates")
    labels = [label for label, _ in verify._candidates(ctx)]
    assert labels[0] == "delta_1" and labels[63] == "delta_64"
    assert labels[64:] == [f"random function {k}" for k in range(1, 11)]
    p6, p10 = IdealSpec.coprime_vanishing(6), IdealSpec.coprime_vanishing(10)
    with pytest.raises(AssertionError, match=r"^P_6 and P_10 disagree on delta_3$"):
        verify._require_same_verdicts(ctx, p6, p10, "P_6 and P_10 disagree")


def test_seed_63_passes_every_check():
    # seed 63 once failed: a sampled P_6 probe refuted primality from a violation at index 65
    assert all(r.passed for r in verify.run_all(64, 63))


@pytest.mark.parametrize("window", range(1, 9))
def test_pruned_idempotent_search_matches_brute_force(window):
    brute = [t for t in itertools.product((-1, 0, 1), repeat=window)
             if tuple(dirichlet_product(t, t, window, 0)) == t]
    assert sorted(verify._idempotents(window)) == sorted(brute)


def test_idempotent_check_takes_few_products(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return dirichlet_product(*args)

    monkeypatch.setattr(verify, "dirichlet_product", counted)
    detail = verify._check_no_idempotents(verify._Ctx(64, 0, "idempotents"))
    assert detail == "exhaustive window-8 search over 6561 candidates: only 0 and e"
    # each of the two idempotent prefixes (0 and e) at windows 1..7 is
    # tried with all three next entries, after the three one-entry candidates
    assert len(calls) == 3 + 7 * 2 * 3


@pytest.mark.parametrize("seed, digest", [
    (0, "4313aad9dbead3bc85ad341f9270e50c7540755bc5b048f4289dcb1f72958822"),
    (1, "d558615eae98acd5f05dee675d2fbe3bbf6f611217d732c7b0254b357018d455"),
], ids=["seed0", "seed1"])  # ids without the digest, so a new digest keeps the test's name
def test_report_at_256_is_pinned(seed, digest):
    # the whole verify-paper report, verdicts, witnesses and draws included;
    # a change anywhere in what the suite computes or prints changes it
    report = verify.render_report(verify.run_all(256, seed), 256, seed)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_report_at_1024_is_pinned():
    # the window of the benchmark's longest verify-paper run
    report = verify.render_report(verify.run_all(1024, 0), 1024, 0)
    digest = "e923b2f06d3497ac9fb9e7b9de19048830e90c042dd1cb38c78a112fc7a93a24"
    assert hashlib.sha256(report.encode()).hexdigest() == digest
