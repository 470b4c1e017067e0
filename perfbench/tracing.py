"""Per-layer tracing of dirichlet_ring from outside the package.

``Tracer.install`` replaces each public function listed in ``_targets`` in
every ``dirichlet_ring.*`` module attribute (and module-level dict) that
holds it, and wraps the ring kernels on ``ArithFunc``; ``uninstall`` puts
the originals back.  A wrapped call records a span (name, start, end,
parent span, op id).  The high-frequency ``factorize``, ``is_prime``,
``nth_prime`` and ``random_scalar`` only add to a counter and a time sum.
Self time is a call's duration minus the time of the wrapped calls it
made, so the self times of all layers add up to the traced time.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

ZOO_GENERATORS = ("mobius", "euler_phi", "mangoldt", "liouville", "dedekind_psi", "big_omega",
                  "distinct_prime_count", "p_adic_valuation", "log_function", "unit", "natural")
SAMPLERS = ("random_func", "random_nonzero", "random_unit", "random_non_unit",
            "random_with_norm", "random_in_ideal", "random_additive")

# Layers that must record calls on each workload; a zero here means a
# rebinding in the package bypassed the wrappers.
REQUIRED_CALLS = {
    "verify": ("ring.convolve", "ring.invert", "ring.try_divide", "primes.factorize", "primes.is_prime",
               "primes.nth_prime", "zoo.generate", "zoo.ramanujan_tau", "zoo.is_additive", "sampling",
               "ideals.member", "ideals.chain", "ideals.probe_prime", "ideals.decompose",
               "ideals.divisibility_depth", "structure.classify", "structure.atom_search",
               "structure.units_group_probe", "verify.run_all", "verify.check", "cli.main"),
    "kernels": ("ring.convolve", "ring.invert", "ring.try_divide", "ring.power", "ring.float"),
    "catalog": ("ring.convolve", "primes.factorize", "primes.is_prime", "primes.nth_prime",
                "zoo.generate", "zoo.ramanujan_tau", "zoo.is_additive", "ideals.member",
                "ideals.chain", "ideals.probe_prime", "ideals.decompose", "structure.classify",
                "seqfile.load", "seqfile.render", "cli.main"),
}


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _observe_kernel(tracer, args, result):
    if result.mode == "exact":
        tracer.bits_max = max(tracer.bits_max, _bits(result.values))


def _observe_convolve(tracer, args, result):
    if result.mode != "exact":
        return
    a, b = args[0].values, args[1].values
    n = min(len(a), len(b))
    nonzero_upto = [0] * (n + 1)  # nonzero entries of b among indices 1..j
    for j in range(1, n + 1):
        nonzero_upto[j] = nonzero_upto[j - 1] + (1 if b[j - 1] else 0)
    tracer.computed["madds"] += sum(nonzero_upto[n // i] for i in range(1, n + 1) if a[i - 1])
    _observe_kernel(tracer, args, result)


def _observe_divide(tracer, args, result):
    if hasattr(result, "values"):
        _observe_kernel(tracer, args, result)
    else:
        tracer.computed["witnesses"] += 1


def _observe_member(tracer, args, result):
    tracer.computed["indices_scanned"] += len(args[1]) if result.is_member else result.index


def _observe_probe(tracer, args, result):
    tracer.computed["refuted"] += result.verdict == "non_member"


def _observe_load(tracer, args, result):
    tracer.computed["bytes_in"] += os.path.getsize(args[0])


def _observe_render(tracer, args, result):
    tracer.computed["bytes_out"] += len(result.encode("utf-8"))


def _observe_run_all(tracer, args, result):
    tracer.computed["checks_passed"] += sum(r.passed for r in result)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent span index, op id)
        self.stats: dict = {}  # name -> [calls, total_ns, self_ns]
        self.computed = defaultdict(int)
        self.bits_max = 0
        self.op_id = -1
        self._stack: list = []  # frames: [child_ns, nearest span index]
        self._undo: list = []

    # wrappers ------------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0, 0])

    def span(self, name, fn, observe=None):
        """Wrap fn so each call records a span; ``name`` may depend on the args."""

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            label = name(args) if callable(name) else name
            own = len(self.spans)
            self.spans.append(None)
            frame = [0, own]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stat = self._stat(label)
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                self.spans[own] = (label, start, end, parent[1] if parent else None, self.op_id)
                if parent is not None:
                    parent[0] += duration
            if observe is not None:
                observe(self, args, result)
                if parent is not None:  # keep the bookkeeping out of the caller's self time
                    parent[0] += perf_counter_ns() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn with a call counter and a time sum, without spans."""
        stat = self._stat(name)
        stack = self._stack

        def wrapper(*args):
            parent = stack[-1] if stack else None
            frame = [0, parent[1] if parent else None]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    # installation --------------------------------------------------------------

    def _targets(self):
        from dirichlet_ring import cli, ideals, primes, ring, sampling, seqfile, structure, verify, zoo

        count = [(primes.factorize, "primes.factorize"), (primes.is_prime, "primes.is_prime"),
                 (primes.nth_prime, "primes.nth_prime"), (sampling.random_scalar, "sampling.scalar")]
        spans = [
            (ring.try_divide, "ring.try_divide", _observe_divide),
            (zoo.generate, "zoo.generate", None),
            *((getattr(zoo, f), "zoo.generate", None) for f in ZOO_GENERATORS),
            (zoo.ramanujan_tau, "zoo.ramanujan_tau", None),
            (zoo.is_additive, "zoo.is_additive", None),
            (zoo.is_completely_additive, "zoo.is_additive", None),
            *((getattr(sampling, f), "sampling", None) for f in SAMPLERS),
            (ideals.member, "ideals.member", _observe_member),
            (ideals.chain, "ideals.chain", None),
            (ideals.probe_prime, "ideals.probe_prime", _observe_probe),
            (ideals.decompose_coprime_vanishing, "ideals.decompose", None),
            (ideals.divisibility_depth, "ideals.divisibility_depth", None),
            (structure.classify, "structure.classify", None),
            (structure.certified_atom_factor_search, "structure.atom_search", None),
            (structure.units_group_probe, "structure.units_group_probe", None),
            (seqfile.load, "seqfile.load", _observe_load),
            (seqfile.render, "seqfile.render", _observe_render),
            (verify.run_all, "verify.run_all", _observe_run_all),
            (verify.render_report, "verify.check", None),
            (cli.main, "cli.main", None),
        ]
        return ring, verify, count, spans

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dirichlet_ring" and not mod_name.startswith("dirichlet_ring."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((setattr, module, key, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            self._undo.append((dict.__setitem__, value, k, original))

    def install(self) -> None:
        ring, verify, count, spans = self._targets()
        for fn, name in count:
            self._replace_everywhere(fn, self.counter(name, fn))
        for fn, name, observe in spans:
            self._replace_everywhere(fn, self.span(name, fn, observe))
        kernels = {"convolve": _observe_convolve, "invert": _observe_kernel, "power": _observe_kernel}
        for method, observe in kernels.items():
            fn = vars(ring.ArithFunc)[method]
            label = lambda args, m=method: "ring.float" if args[0].mode == "float" else f"ring.{m}"
            setattr(ring.ArithFunc, method, self.span(label, fn, observe))
            self._undo.append((setattr, ring.ArithFunc, method, fn))
        checks = verify.CHECKS
        verify.CHECKS = tuple((label, self.span("verify.check", fn)) for label, fn in checks)
        self._undo.append((setattr, verify, "CHECKS", checks))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    # results -------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self, passes: int, cache: dict, startup_ms: float, overhead: float) -> dict:
        """Per-layer metrics, each averaged over the traced passes."""

        def stat(*names):
            rows = [self.stats.get(n, [0, 0, 0]) for n in names]
            return [sum(r[i] for r in rows) for i in range(3)]

        def per(x):
            return x / passes

        def ms(ns):
            return ns / 1e6 / passes

        def ratio(part, whole):
            return part / whole if whole else 0.0

        conv, inv, div = stat("ring.convolve"), stat("ring.invert"), stat("ring.try_divide")
        powr, flt = stat("ring.power"), stat("ring.float")
        fact, nth, isp = stat("primes.factorize"), stat("primes.nth_prime"), stat("primes.is_prime")
        samp, member = stat("sampling"), stat("ideals.member")
        probe = stat("ideals.probe_prime")
        c = self.computed
        lookups = cache["hits"] + cache["misses"]
        values = {
            "ring.convolve.calls": (per(conv[0]), "count"),
            "ring.convolve.self_ms": (ms(conv[2]), "ms"),
            "ring.convolve.madds": (per(c["madds"]), "count"),
            "ring.convolve.ns_per_madd": (ratio(conv[2], c["madds"]), "ns"),
            "ring.invert.calls": (per(inv[0]), "count"),
            "ring.invert.self_ms": (ms(inv[2]), "ms"),
            "ring.try_divide.calls": (per(div[0]), "count"),
            "ring.try_divide.self_ms": (ms(div[2]), "ms"),
            "ring.try_divide.witness_ratio": (ratio(c["witnesses"], div[0]), "ratio"),
            "ring.power.calls": (per(powr[0]), "count"),
            "ring.power.total_ms": (ms(powr[1]), "ms"),
            "ring.float.self_ms": (ms(flt[2]), "ms"),
            "ring.out_bits_max": (self.bits_max, "bits"),
            "primes.factorize.calls": (per(fact[0]), "count"),
            "primes.factorize.self_ms": (ms(fact[2]), "ms"),
            "primes.factorize.miss_ratio": (ratio(cache["misses"], lookups), "ratio"),
            "primes.cache_entries": (cache["max_entries"], "count"),
            "primes.nth_prime.calls": (per(nth[0]), "count"),
            "primes.nth_prime.self_ms": (ms(nth[2]), "ms"),
            "primes.is_prime.calls": (per(isp[0]), "count"),
            "zoo.generate.self_ms": (ms(stat("zoo.generate")[2]), "ms"),
            "zoo.ramanujan_tau.self_ms": (ms(stat("zoo.ramanujan_tau")[2]), "ms"),
            "zoo.is_additive.self_ms": (ms(stat("zoo.is_additive")[2]), "ms"),
            "sampling.calls": (per(samp[0]), "count"),
            "sampling.self_ms": (ms(stat("sampling", "sampling.scalar")[2]), "ms"),
            "ideals.member.calls": (per(member[0]), "count"),
            "ideals.member.self_ms": (ms(member[2]), "ms"),
            "ideals.member.indices_scanned": (per(c["indices_scanned"]), "count"),
            "ideals.chain.self_ms": (ms(stat("ideals.chain")[2]), "ms"),
            "ideals.probe_prime.self_ms": (ms(probe[2]), "ms"),
            "ideals.probe_prime.refuted_ratio": (ratio(c["refuted"], probe[0]), "ratio"),
            "ideals.decompose.self_ms": (ms(stat("ideals.decompose")[2]), "ms"),
            "ideals.divisibility_depth.self_ms": (ms(stat("ideals.divisibility_depth")[2]), "ms"),
            "structure.classify.self_ms": (ms(stat("structure.classify")[2]), "ms"),
            "structure.atom_search.self_ms": (ms(stat("structure.atom_search")[2]), "ms"),
            "structure.units_group_probe.self_ms": (ms(stat("structure.units_group_probe")[2]), "ms"),
            "seqfile.load.self_ms": (ms(stat("seqfile.load")[2]), "ms"),
            "seqfile.render.self_ms": (ms(stat("seqfile.render")[2]), "ms"),
            "seqfile.bytes_in": (per(c["bytes_in"]), "bytes"),
            "seqfile.bytes_out": (per(c["bytes_out"]), "bytes"),
            "verify.run_all.total_ms": (ms(stat("verify.run_all")[1]), "ms"),
            "verify.self_ms": (ms(stat("verify.run_all", "verify.check")[2]), "ms"),
            "verify.checks_passed": (per(c["checks_passed"]), "count"),
            "cli.startup_ms": (startup_ms, "ms"),
            "cli.main.self_ms": (ms(stat("cli.main")[2]), "ms"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    def missing_layers(self, workload: str) -> list[str]:
        return [name for name in REQUIRED_CALLS[workload] if not self.stats.get(name, [0])[0]]
