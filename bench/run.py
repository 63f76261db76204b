"""cqstar benchmark: one workload per process, one client, closed loop.

    python3 bench/run.py --workload c9-cli --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it times ops with tracing off and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes over
the same cases, and reports the per-layer metrics, the unattributed
remainder of each op and the tracing overhead. Op and set-up times are
scaled to a reference machine speed by a speed probe run around each of
them (see ``speed_probe``). The last line of stdout is one JSON object; the
line before it is the environment as JSON, and the lines before that repeat
the figures for people. See bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up is timed at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds, so that a set-up of a few tens of milliseconds still gets a
# steady median.
SETUP_REPEATS = 7
SETUP_MIN_S = 1.0
MIN_TIMED_OPS = 100
# A slow machine may need more than --seconds to reach MIN_TIMED_OPS, but the
# timed loop never starts a pass after this many times --seconds.
MAX_STRETCH = 3
# What speed_probe takes when the machine runs at its reference speed.
PROBE_REF_S = 0.005


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Names the code measured where there is no git commit to name it: an
    exported checkout, or a tree with uncommitted changes."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cqstar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def speed_probe() -> float:
    """Time a fixed piece of dict, tuple and str work, the kind of work the
    pure-Python program does, and return the seconds it took.

    The machine the benchmark was tuned on shares its cores, and its speed
    moves between states about 1.5x apart within seconds; a probe run just
    before and just after an op sees the state the op ran in. Op times are
    divided by the probes' mean and multiplied by PROBE_REF_S (``scaled``),
    which cancels the state and leaves the op's own cost.

    The collector is paused while the probe runs, so that what it measures
    is the machine and not the size of the heap the ops left behind.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(6000):
            key = (i, i * 7 % 1013, str(i & 255))
            table[key] = table.get(key[:2], 0) + 1
            _ = {key[0], key[1]}
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(elapsed: float, probe_before: float, probe_after: float) -> float:
    return elapsed * 2 * PROBE_REF_S / (probe_before + probe_after)


def rss_now_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def time_setup(workload, seed: int, workdir: Path) -> list[float]:
    """Generate the inputs repeatedly in a child process and return the
    scaled time of each. The child's memory stays out of this process's
    peak RSS, which then belongs to the one set-up kept and to the ops.

    Each repeat writes into a directory of its own, as a first set-up does:
    rewriting files that exist made the file system's share of the time
    vary from 5 to 90 ms between repeats."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            times = []
            total = 0.0
            before = speed_probe()
            while len(times) < SETUP_REPEATS or total < SETUP_MIN_S:
                target = workdir / f"setup-{len(times)}"
                target.mkdir()
                start = time.process_time()
                workload.generate(seed, target)
                elapsed = time.process_time() - start
                total += elapsed
                after = speed_probe()
                times.append(scaled(elapsed, before, after))
                before = after
            os.write(write_fd, json.dumps(times).encode())
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise BenchmarkError(f"generating the {workload.name} inputs failed")
    return json.loads(data)


class Runner:
    """Runs ops of one workload, checking every answer."""

    def __init__(self, workload, cases):
        self.workload = workload
        self.cases = cases
        self.attempted = 0
        self.failed = 0

    def op(self, case, counts=None) -> float:
        start = time.perf_counter()
        try:
            answer = self.workload.run(case)
            elapsed = time.perf_counter() - start
            ok = self.workload.check(case, answer)
            if counts is not None:
                self.workload.note(answer, counts)
            if not ok:
                self._report(case, f"wrong answer {answer!r}, expected {case.expected!r}")
        except Exception:  # a failing op is counted and the run goes on
            elapsed = time.perf_counter() - start
            ok = False
            self._report(case, traceback.format_exc())
        self.attempted += 1
        self.failed += not ok
        return elapsed

    def _report(self, case, detail: str) -> None:
        if self.failed < 3:
            print(f"op {case.name} failed: {detail}", file=sys.stderr)

    def one_pass(self, tracer=None, label: int = 0) -> tuple[list[float], list[float]]:
        """Run every case once, each between two speed probes; return the
        ops' wall times and their scaled times."""
        walls, times = [], []
        before = speed_probe()
        for case in self.cases:
            if tracer is None:
                elapsed = self.op(case)
            else:
                with tracer.op(f"{case.name}#{label}") as counts:
                    elapsed = self.op(case, counts)
            after = speed_probe()
            walls.append(elapsed)
            times.append(scaled(elapsed, before, after))
            before = after
        return walls, times


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_untraced(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    """Whole passes until --seconds have passed and MIN_TIMED_OPS ops ran, so
    every case weighs the same in every figure."""
    walls, latencies = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_STRETCH * seconds or (elapsed >= seconds and len(latencies) >= MIN_TIMED_OPS):
            break
        pass_walls, pass_times = runner.one_pass()
        walls.extend(pass_walls)
        latencies.extend(pass_times)
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    note = [
        f"latency samples: {len(latencies)} in {len(latencies) // len(runner.cases)} passes",
        f"unscaled wall times: {len(walls) / sum(walls):.4g} ops/s, p50 {statistics.median(walls) * 1e3:.4g} ms, "
        f"p90 {percentile(walls, 90) * 1e3:.4g} ms; scale factor median "
        f"{statistics.median(t / w for t, w in zip(latencies, walls)):.3f}",
    ]
    return metrics, note


def measure_traced(runner: Runner, seconds: float, spans_path: Path, header: dict) -> tuple[dict, list[str]]:
    """Alternate one untraced and one traced pass until --seconds have
    passed, so that drift in the machine's speed hits both sides alike."""
    from tracing import Tracer

    tracer = Tracer()
    passes = 0
    untraced_time = traced_time = 0.0
    start = time.perf_counter()
    while passes < 1 or time.perf_counter() - start < seconds:
        untraced_time += sum(runner.one_pass()[1])
        with tracer.installed():
            traced_time += sum(runner.one_pass(tracer, label=passes)[1])
        passes += 1
    tracer.dump(spans_path, {**header, "passes": passes})

    n = len(tracer.ops)
    layer_ms = {k: v * 1e3 / n for k, v in tracer.layer_self_seconds().items()}

    def total(key):
        return sum(op["counts"].get(key, 0) for op in tracer.ops)

    facts = total("facts")
    join_rows = total("join_rows")
    untraced_rate = n / untraced_time
    traced_rate = n / traced_time
    metrics = {
        "cli.self_ms": (layer_ms["cli"], "ms"),
        "parser.self_ms": (layer_ms["parser"], "ms"),
        "parser.us_per_fact": (layer_ms["parser"] * n * 1e3 / facts if facts else 0.0, "us"),
        "hypergraph.self_ms": (layer_ms["hypergraph"], "ms"),
        "decomposition.build_ms": (layer_ms["decomposition.build"], "ms"),
        "decomposition.verify_ms": (layer_ms["decomposition.verify"], "ms"),
        "decomposition.verify_calls": (total("verify_calls") / n, "count"),
        "decomposition.width": (total("width") / n, "count"),
        "starsize.self_ms": (layer_ms["starsize"], "ms"),
        "starsize.star_size": (total("star_size") / n, "count"),
        "engine.bind_ms": (layer_ms["engine.bind"], "ms"),
        "engine.bind_rows": (total("bind_rows") / n, "count"),
        "engine.join_ms": (layer_ms["engine.join"], "ms"),
        "engine.join_rows": (join_rows / n, "count"),
        "engine.peak_join_rows": (max(op["counts"].get("peak_join_rows", 0) for op in tracer.ops), "count"),
        "engine.project_ms": (layer_ms["engine.project"], "ms"),
        "engine.semijoin_ms": (layer_ms["engine.semijoin"], "ms"),
        "engine.acyclic_count_ms": (layer_ms["engine.acyclic_count"], "ms"),
        "engine.pipeline_self_ms": (layer_ms["engine.pipeline"], "ms"),
        "engine.max_intermediate": (total("max_intermediate") / n, "count"),
        "engine.bag_rows": (total("bag_rows") / n, "count"),
        "engine.cover_size": (total("cover_size") / n, "count"),
        "engine.join_yield": (total("bag_rows") / join_rows if join_rows else 0.0, "ratio"),
        "trace.unattributed_ms": (sum(op["unattributed"] for op in tracer.ops) * 1e3 / n, "ms"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead": (untraced_rate / traced_rate - 1, "ratio"),
    }
    note = [
        f"traced ops: {n} in {passes} passes, each after an untraced one; spans: {len(tracer.spans)} written to {spans_path}",
        "per-layer values are means per op, except peak_join_rows (max over ops), "
        "us_per_fact (parser time per fact) and join_yield (bag rows / join rows); "
        "layer times are wall times, the two ops_per_s are scaled",
    ]
    return metrics, note


def run(args) -> dict:
    if not (SRC / "cqstar").is_dir():
        raise BenchmarkError(f"no cqstar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        raise BenchmarkError(f"cannot import the program: {exc}") from None
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    out = BENCH / "_run"
    workdir = out / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = time_setup(workload, args.seed, workdir)
        cases = workload.generate(args.seed, workdir)
        start = time.perf_counter()
        for case in cases:
            case.expected = workload.expect(case)
        check_s = time.perf_counter() - start
        rss_setup = rss_now_mb()

        runner = Runner(workload, cases)
        runner.one_pass()  # warm-up: the first pass runs slower and is not timed
        header = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, **environment()}
        if args.trace:
            spans_path = out / f"spans-{workload.name}-{args.seed}.jsonl"
            metrics, note = measure_traced(runner, args.seconds, spans_path, header)
        else:
            metrics, note = measure_untraced(runner, args.seconds)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env: " + " ".join(f"{k}={v}" for k, v in header.items()))
    print(f"setup: {len(cases)} cases, setup_s median of {len(setup_times)} = "
          f"{statistics.median(setup_times):.4f} s, expected answers in {check_s:.3f} s; "
          f"RSS {rss_setup:.1f} MB after set-up, peak {peak_rss_mb():.1f} MB after the ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    frac = runner.failed / runner.attempted
    print(f"  {'fail_frac':28s} {frac:14.6g} ({runner.failed} of {runner.attempted} ops, warm-up included)")
    for line in note:
        print("  " + line)
    print(json.dumps({"env": header}))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
