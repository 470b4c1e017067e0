"""Benchmark for dirichlet_ring: end-to-end metrics per workload, or a traced run.

Run from the root of a checkout (the package is measured from ./src):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):
  verify   sequential ``verify-paper`` CLI processes, three at n=256, one at n=1024
  kernels  in-process ring kernels at n=4096 on narrow, wide and float inputs
  catalog  sequential toolbox CLI processes: gen, norm, classify, ideal, chain

All workloads are closed loops with one client: one op (a CLI process or a
library call) at a time. A run sets up three times (input files from the
seed, a child import of the package, a warm-up) and reports the median as
``setup_s``; it then runs whole passes over the workload's op mix, as many
as filled ``--seconds`` when the benchmark was defined
(workloads.PASS_SECONDS), so a faster commit does the same work in less
time. Each op and set-up is timed by the wall clock and scaled to the
reference machine speed by a calibration loop timed just before and after it
in helper.py, all on one CPU; the unscaled figures go to the facts line. Every op's output is checked, outside its timing, against
the independent evaluators in oracles.py; an op that repeats an earlier
command must reproduce its checked output byte for byte.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ops_per_s, op_p50_ms, op_tail_ms (the highest percentile
with at least ten samples beyond it, or the maximum when a run has fewer than
eleven ops), setup_s and peak_rss_mb (the largest peak RSS of any CLI child,
read with wait4, or of this process for in-process ops).  ``failed`` over
``attempted`` is the error rate.  With ``--trace 1`` each op runs in-process
(CLI ops through ``cli.main``) once untraced and once with tracing.py's
wrappers installed, and the JSON holds the per-layer metrics.  Spans go to
``.perfbench/``; nothing is written outside the checkout.

Exit status: 0 when every check passed, 1 when an output check or the
traced run's wrapper coverage failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from oracles import CheckError
from tracing import Tracer
from workloads import PASS_SECONDS, SETUPS

SETUP_REPEATS = 3
STARTUP_SAMPLES = 5
TAIL_BEYOND = 10
# helper.calibrate() on the reference machine (2-vCPU Intel Xeon, Python 3.11)
REFERENCE_CALIBRATION_S = 0.02
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class Raw(NamedTuple):
    """What one op produced: exit code and bytes for CLI ops, an object for calls."""

    returncode: int
    stdout: bytes = b""
    out: bytes | None = None
    output: object = None
    error: str = ""
    maxrss_kb: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def add(self, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.messages.append(failure)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Runner:
    """Executes ops as child processes (started by helper.py) or in this process."""

    def __init__(self, src: Path, work: Path):
        self.work = work
        env = {k: v for k, v in os.environ.items() if k not in ("DIRICHLET_N", "PYTHONPATH")}
        env["PYTHONPATH"] = str(src)
        self.helper = subprocess.Popen([sys.executable, str(Path(__file__).with_name("helper.py"))],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.stdout_path = work / "child.stdout"
        self.stderr_path = work / "child.stderr"

    def _ask(self, request: dict) -> dict:
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        return json.loads(self.helper.stdout.readline())

    def calibrate(self) -> float:
        """Seconds of the helper's calibration loop, at the machine's current speed."""
        return self._ask({"calibrate": True})["seconds"]

    def child(self, args: list[str]) -> tuple[float, Raw]:
        """Run ``python <args>`` from the helper, which times it and reaps it with wait4."""
        reply = self._ask({"argv": args, "stdout": str(self.stdout_path), "stderr": str(self.stderr_path)})
        code = reply["code"]
        stdout = self.stdout_path.read_bytes()
        error = "" if code == 0 else self.stderr_path.read_text(errors="replace").strip()[-300:]
        return reply["seconds"], Raw(code, stdout, error=error, maxrss_kb=reply["maxrss_kb"])

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()
        self.helper.stdout.close()

    def run(self, op, in_process: bool = False) -> tuple[float, Raw]:
        if op.call is not None:
            start = perf_counter()
            try:
                result, error = op.call(), ""
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            return elapsed, Raw(1 if error else 0, output=result, error=error)
        if op.out is not None and op.out.exists():
            op.out.unlink()
        if in_process:
            elapsed, raw = self._in_process(op.argv)
        else:
            elapsed, raw = self.child(["-m", "dirichlet_ring", *op.argv])
        if op.out is not None and op.out.exists():
            raw = raw._replace(out=op.out.read_bytes())
        return elapsed, raw

    def _in_process(self, argv: list[str]) -> tuple[float, Raw]:
        from dirichlet_ring import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception as exc:  # a crash in the CLI is a failed op
            code = 1
            stderr.write(f"{type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        error = "" if code == 0 else stderr.getvalue().strip()[-300:]
        return elapsed, Raw(code, stdout.getvalue().encode("utf-8"), error=error)


def evaluate(op, raw: Raw) -> str | None:
    """None when the op succeeded and its output passed its check, else why not."""
    if raw.returncode != 0 or raw.error:
        return f"{op.name}: exit code {raw.returncode} {raw.error}".strip()
    try:
        if op.call is not None:
            op.check(raw.output)
        else:
            op.check(raw.stdout, raw.out)
    except CheckError as exc:
        return f"{op.name}: {exc}"
    return None


def digest(raw: Raw) -> str:
    h = hashlib.sha256()
    if raw.output is not None:
        values = getattr(raw.output, "values", None)
        text = (f"{raw.output.mode}:" + ",".join(map(repr, values)) if values is not None
                else f"witness:{raw.output.index}")
        h.update(text.encode("utf-8"))
    else:
        h.update(raw.stdout)
        h.update(b"\0" + (raw.out or b""))
    return h.hexdigest()


class Checker:
    """Checks each op's first output fully; later passes must reproduce it exactly."""

    def __init__(self):
        self.tally = Tally()
        self.digests: dict = {}
        self.first: dict = {}

    def record(self, op, raw: Raw) -> None:
        if op.name not in self.digests:
            failure = evaluate(op, raw)
            if failure is None:
                self.digests[op.name] = digest(raw)
                self.first[op.name] = raw
        elif raw.returncode != 0 or raw.error:
            failure = evaluate(op, raw)
        else:
            failure = None if digest(raw) == self.digests[op.name] else (
                f"{op.name}: output differs from the checked first pass")
        self.tally.add(failure)

    def output_digest(self, passes) -> str:
        h = hashlib.sha256()
        for name in dict.fromkeys(op.name for ops in passes for op in ops):
            h.update(f"{name}={self.digests.get(name, 'unchecked')}\n".encode())
        return h.hexdigest()


def negative_self_test(workload, checker: Checker) -> str | None:
    """Feed the checker one flipped output and one failed exit; both must count."""
    candidates = [o for o in workload.passes[0] if o.name in workload.flip_ops and o.name in checker.first]
    if not candidates:
        return "every self-test op failed, so the checker could not be tested"
    op, good = candidates[0], checker.first[candidates[0].name]
    tally = Tally()
    tally.add(evaluate(op, workload.flip(good)))
    tally.add(evaluate(op, good._replace(returncode=1, error="injected failure")))
    if (tally.attempted, tally.failed, tally.error_rate) != (2, 2, 1.0):
        return f"checker missed an injected failure: {tally.failed} of 2 counted"
    return None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples beyond it, for the highest percentile
    that still has TAIL_BEYOND samples beyond it (the maximum if none does)."""
    xs = sorted(latencies)
    i = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def run_facts(root: Path, args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": loadavg(), "commit": commit, "src_sha256": src.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def warn_if_loaded(facts: dict, key: str) -> None:
    load = facts.get(key)
    if load and facts["nproc"] and load[0] > facts["nproc"]:
        print(f"warning: load average {load[0]} exceeds nproc {facts['nproc']} ({key}); "
              "timings are unreliable on a busy machine", file=sys.stderr)


def child_import(runner: Runner, root: Path) -> float:
    """Time a child that imports the CLI, and check it imports from this checkout."""
    elapsed, raw = runner.child(["-c", "import dirichlet_ring.cli, dirichlet_ring as d; print(d.__file__)"])
    where = raw.stdout.decode().strip()
    if raw.returncode != 0 or not Path(where).resolve().is_relative_to(root):
        print(f"error: the child imported dirichlet_ring from {where or raw.error!r}, not from {root}",
              file=sys.stderr)
        raise SystemExit(2)
    return elapsed


def set_up(name: str, seed: int, passes: int, runner: Runner, root: Path):
    start = perf_counter()
    child_import(runner, root)
    workload = SETUPS[name](seed, runner.work, passes)
    for op in workload.warmup:
        runner.run(op)
    return workload, perf_counter() - start


def measure(args, root: Path, runner: Runner, facts: dict) -> tuple[dict, Checker, str | None]:
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    times, raw_times = [], []
    checker = Checker()
    latencies, raw_latencies, rss_kb, by_op = [], [], 0, {}
    for _ in range(SETUP_REPEATS):
        before = runner.calibrate()
        workload, elapsed = set_up(args.workload, args.seed, passes, runner, root)
        raw_times.append(elapsed)
        times.append(elapsed * 2 * REFERENCE_CALIBRATION_S / (before + runner.calibrate()))
    after = runner.calibrate()
    for ops in workload.passes:
        for op in ops:
            before = after
            elapsed, raw = runner.run(op)
            after = runner.calibrate()
            raw_latencies.append(elapsed)
            elapsed *= 2 * REFERENCE_CALIBRATION_S / (before + after)
            latencies.append(elapsed)
            rss_kb = max(rss_kb, raw.maxrss_kb)
            checker.record(op, raw)
            by_op.setdefault(op.name, []).append(elapsed)
    if workload.kind == "library":
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problem = negative_self_test(workload, checker)
    ok_ops = checker.tally.attempted - checker.tally.failed
    value, pct, beyond = tail(latencies)
    metrics = {
        "ops_per_s": ok_ops / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_tail_ms": value * 1000,
        "setup_s": statistics.median(times),
        "peak_rss_mb": rss_kb / 1024,
    }
    raw_tail = tail(raw_latencies)[0]
    facts.update(passes=passes, ops=len(latencies), sizes=workload.sizes,
                 unscaled={"ops_per_s": ok_ops / sum(raw_latencies),
                           "op_p50_ms": statistics.median(raw_latencies) * 1000,
                           "op_tail_ms": raw_tail * 1000, "setup_s": statistics.median(raw_times)},
                 slowdown_vs_reference=sum(raw_latencies) / sum(latencies),
                 op_counts={name: len(ts) for name, ts in by_op.items()},
                 op_median_ms={name: round(statistics.median(ts) * 1000, 3) for name, ts in by_op.items()},
                 setup_s_samples=times, p50_samples=len(latencies),
                 tail={"percentile": pct, "samples": len(latencies), "beyond": beyond},
                 output_sha256=checker.output_digest(workload.passes))
    notes = {"op_p50_ms": f"median of {len(latencies)} ops",
             "op_tail_ms": f"p{pct:.1f} of {len(latencies)} ops, {beyond} beyond",
             "setup_s": f"median of {SETUP_REPEATS} set-ups",
             "ops_per_s": f"{ok_ops} ops in {sum(latencies):.3f} s over {passes} passes"}
    lines = [f"{name:<12} {v:.6g} {END_TO_END_UNITS[name]}" + (f"  ({notes[name]})" if name in notes else "")
             for name, v in metrics.items()]
    lines.append(f"error_rate   {checker.tally.error_rate:.6g} ratio  "
                 f"({checker.tally.failed} failed of {checker.tally.attempted} attempted)")
    print("\n".join(lines))
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            checker, problem)


def traced(args, root: Path, runner: Runner, facts: dict) -> tuple[dict, Checker, str | None]:
    from dirichlet_ring import primes

    passes = max(1, round(args.seconds / (2 * PASS_SECONDS[args.workload])))
    workload, _ = set_up(args.workload, args.seed, passes, runner, root)
    startup_ms = statistics.median(child_import(runner, root) for _ in range(STARTUP_SAMPLES)) * 1000
    factorize = primes.factorize
    cache = {"hits": 0, "misses": 0, "max_entries": 0}
    tracer = Tracer()
    checker = Checker()
    plain_s = traced_s = 0.0
    op_id = 0
    after = runner.calibrate()
    for ops in workload.passes:
        for i, op in enumerate(ops):
            # every op runs untraced and traced, in alternating order, so
            # neither run is always the one that finds the caches warm
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                factorize.cache_clear()  # each command starts cold, as a CLI process does
                before = after
                if with_trace:
                    tracer.op_id = op_id
                    tracer.install()
                try:
                    elapsed, raw = runner.run(op, in_process=True)
                finally:
                    tracer.uninstall()
                after = runner.calibrate()
                elapsed *= 2 * REFERENCE_CALIBRATION_S / (before + after)
                if not with_trace:
                    plain_s += elapsed
                else:
                    traced_s += elapsed
                    info = factorize.cache_info()
                    cache["hits"] += info.hits
                    cache["misses"] += info.misses
                    cache["max_entries"] = max(cache["max_entries"], info.currsize)
                checker.record(op, raw)
            op_id += 1
    metrics = tracer.metrics(passes, cache, startup_ms, traced_s / plain_s)
    spans_path = root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    missing = tracer.missing_layers(args.workload)
    problem = (f"no calls recorded for {', '.join(missing)}" if missing
               else negative_self_test(workload, checker))
    facts.update(passes=passes, ops=checker.tally.attempted, spans=len(tracer.spans),
                 spans_file=str(spans_path.relative_to(root)),
                 output_sha256=checker.output_digest(workload.passes))
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    return metrics, checker, problem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "kernels", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "dirichlet_ring" / "__init__.py").is_file():
        print(f"error: {root} holds no src/dirichlet_ring; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import dirichlet_ring

    if not Path(dirichlet_ring.__file__).resolve().is_relative_to(root):
        print(f"error: imported dirichlet_ring from {dirichlet_ring.__file__}, not {root}", file=sys.stderr)
        return 2
    # ops, the helper and its children share one CPU, so the calibration
    # sees the speed the ops saw
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = root / ".perfbench" / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root / "src", work)
    try:
        facts = run_facts(root, args)
        warn_if_loaded(facts, "loadavg_start")
        metrics, checker, problem = (traced if args.trace else measure)(args, root, runner, facts)
    finally:
        runner.close()

    facts["loadavg_end"] = loadavg()
    warn_if_loaded(facts, "loadavg_end")
    for message in checker.tally.messages[:10]:
        print(f"check failed: {message[:300]}", file=sys.stderr)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
    correct = checker.tally.failed == 0 and problem is None
    print("# facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": checker.tally.attempted,
                      "failed": checker.tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
