"""End-to-end benchmark for rsa-cegd: `run` then `verify-transcript`, in process.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy-sweep --seed 1 --seconds 20 --trace 0

One operation is `rsa_cegd.cli.main(["run", ..., "--out", f])` followed by
`rsa_cegd.cli.main(["verify-transcript", f])`, stdout captured, exactly what a
user of the command line runs. One client drives the operations in a closed
loop on one thread. Operation i uses mode MODES[i % 3], goods size
sizes[(i // 3) % len(sizes)] and a seed derived from (workload, --seed, i).

With --trace 0 the run measures the end-to-end metrics. With --trace 1 each
operation runs twice back to back, once with every traced package function
wrapped (see layers.py) and once without, alternating which goes first; the
run reports the per-layer numbers per operation and the traced/untraced
wall-time ratio, and requires both passes to write byte-identical transcripts.

The last stdout line is the result object; the line before it holds the
environment record and details (sample counts, digests). Both are also saved
under perfbench/out/. See perfbench/README.md for the workloads and metrics.
"""

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
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 1
MODES = ("honest", "replay", "eoo-forward")
EXPECTED_VERDICT = {"honest": "FAIR", "replay": "UNFAIR_FOR_B",
                    "eoo-forward": "UNFAIR_FOR_A"}
VERIFIED = "transcript verified: all checks pass, verdict reproducible\n"
KIB = 1 << 10
MIB = 1 << 20
SETUP_SAMPLES = 9


@dataclass(frozen=True)
class Workload:
    name: str
    bits: int
    exponent: int
    sizes: tuple
    # Timed verify passes per transcript; its verify time is their median.
    verify_passes: int

    @property
    def period(self) -> int:
        """Operations in one full cycle of (mode, goods size) strata."""
        return len(MODES) * len(self.sizes)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("exchange-512", 512, 65537, (64,), 9),
    Workload("bulk-goods", 128, 65537, (64 * KIB, 256 * KIB, MIB), 3),
    Workload("toy-sweep", 32, 3, (64,), 1),
)}

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("run_p50_ms", "ms", "lower"),
    ("verify_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

PER_LAYER = (
    ("crypto.keygen.calls", "count/op", "lower"),
    ("crypto.keygen.ms", "ms/op", "lower"),
    ("crypto.prime_sample.calls", "count/op", "lower"),
    ("crypto.prime_sample.ms", "ms/op", "lower"),
    ("crypto.primality.calls", "count/op", "lower"),
    ("crypto.primality.ms", "ms/op", "lower"),
    ("crypto.primality.true_ratio", "ratio", "higher"),
    ("crypto.sym.calls", "count/op", "lower"),
    ("crypto.sym.mib", "MiB/op", "lower"),
    ("crypto.sym.ms", "ms/op", "lower"),
    ("crypto.hash.calls", "count/op", "lower"),
    ("crypto.hash.ms", "ms/op", "lower"),
    ("crypto.modpow.calls", "count/op", "lower"),
    ("crypto.modpow.ms", "ms/op", "lower"),
    ("credentials.goods_cert_issue.ms", "ms/op", "lower"),
    ("credentials.goods_cert_check.ms", "ms/op", "lower"),
    ("credentials.recovery_cert_issue.ms", "ms/op", "lower"),
    ("credentials.recovery_cert_verify.calls", "count/op", "lower"),
    ("credentials.recovery_cert_verify.ms", "ms/op", "lower"),
    ("vres.wrap_key.ms", "ms/op", "lower"),
    ("vres.generate.ms", "ms/op", "lower"),
    ("vres.check.calls", "count/op", "lower"),
    ("vres.check.ms", "ms/op", "lower"),
    ("vres.auth_token.ms", "ms/op", "lower"),
    ("vres.recover.ms", "ms/op", "lower"),
    *((f"protocol.{step}.{kind}", "ms/op", "lower")
      for step in ("E1_send", "E1_recv", "E2_recv", "E3_recv", "E4_recv",
                   "R1_recv", "R2_recv", "R3_recv")
      for kind in ("ms", "self_ms")),
    ("protocol.reject.count", "count/op", "lower"),
    ("harness.build_world.ms", "ms/op", "lower"),
    ("harness.build_world.self_ms", "ms/op", "lower"),
    ("harness.run.self_ms", "ms/op", "lower"),
    ("harness.evaluate_fairness.ms", "ms/op", "lower"),
    ("harness.verify_report.ms", "ms/op", "lower"),
    ("harness.verify_report.self_ms", "ms/op", "lower"),
    ("transcript.message_record.ms", "ms/op", "lower"),
    ("transcript.encode.ms", "ms/op", "lower"),
    ("transcript.encode.mib", "MiB/op", "lower"),
    ("transcript.write.ms", "ms/op", "lower"),
    ("transcript.load.ms", "ms/op", "lower"),
    ("cli.run.ms", "ms/op", "lower"),
    ("cli.run.self_ms", "ms/op", "lower"),
    ("cli.verify.ms", "ms/op", "lower"),
    ("cli.verify.self_ms", "ms/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# Fresh interpreter: import the package, then one toy run + verify, which
# pays every lazy set-up cost (imports, prime sieve, argparse) once.
SETUP_CHILD = """
import time
start = time.perf_counter()
import contextlib, io, os, sys
sys.path.insert(0, sys.argv[1])
from rsa_cegd import cli
path = os.path.join(sys.argv[2], "setup.jsonl")
with contextlib.redirect_stdout(io.StringIO()):
    ok = (cli.main(["run", "--mode", "honest", "--bits", "32", "--exponent", "3",
                    "--seed", "1", "--out", path]) == 0
          and cli.main(["verify-transcript", path]) == 0)
print(time.perf_counter() - start if ok else "failed")
"""


class SetupError(RuntimeError):
    """The package cannot be found or does not run at all."""


@dataclass(frozen=True)
class Op:
    index: int
    mode: str
    size: int
    seed: int

    @property
    def stratum(self) -> tuple:
        return (self.mode, self.size)


@dataclass
class OpResult:
    op: Op
    run_s: float = 0.0
    verify_s: float = 0.0
    wall_s: float = 0.0
    digest: str = ""
    problem: str | None = None


def plan(workload: Workload, seed: int, index: int) -> Op:
    key = f"{workload.name}/{seed}/{index}".encode("ascii")
    op_seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    return Op(index, MODES[index % len(MODES)],
              workload.sizes[(index // len(MODES)) % len(workload.sizes)], op_seed)


def import_package():
    if not (SRC / "rsa_cegd" / "__init__.py").is_file():
        raise SetupError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import rsa_cegd
    import rsa_cegd.cli
    if Path(rsa_cegd.__file__).resolve().parent != SRC / "rsa_cegd":
        raise SetupError(f"imported rsa_cegd from {rsa_cegd.__file__}, not {SRC}")
    return rsa_cegd


def _call(main, argv) -> tuple[int, str, float]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, sink.getvalue(), elapsed


def run_op(pkg, workload: Workload, op: Op, path: str, passes: int,
           tracer=None) -> OpResult:
    """One run + verify. Every failure mode ends in result.problem."""
    main = pkg.cli.main
    run_argv = ["run", "--mode", op.mode, "--bits", str(workload.bits),
                "--exponent", str(workload.exponent), "--seed", str(op.seed),
                "--goods-size", str(op.size), "--out", path]
    verify_argv = ["verify-transcript", path]
    call_run = call_verify = _call
    if tracer is not None:
        tracer.op = op.index
        call_run = tracer.wrap("cli.run", _call)
        call_verify = tracer.wrap("cli.verify", _call)
    result = OpResult(op)
    started = time.perf_counter()
    try:
        code, out, result.run_s = call_run(main, run_argv)
        expected = f"{op.mode}: verdict {EXPECTED_VERDICT[op.mode]} "
        if code != 0 or not out.startswith(expected):
            result.problem = f"run exited {code}: {out.strip()!r}"
            return result
        times = []
        for _ in range(passes):
            code, out, elapsed = call_verify(main, verify_argv)
            if code != 0 or out != VERIFIED:
                result.problem = f"verify exited {code}: {out.strip()[:200]!r}"
                return result
            times.append(elapsed)
        result.verify_s = statistics.median(times)
    except (Exception, SystemExit) as exc:  # any escape is a failed operation
        result.problem = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        result.wall_s = time.perf_counter() - started
    with open(path, "rb") as handle:
        result.digest = hashlib.sha256(handle.read()).hexdigest()
    return result


def closed_loop(workload, seed, seconds, max_ops, step) -> None:
    """Call `step(op)` for operation 0, 1, ... back to back until `seconds`
    have passed and every (mode, size) stratum has had an operation."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < max_ops and (index < workload.period
                               or time.perf_counter() < deadline):
        step(plan(workload, seed, index))
        index += 1


def check_digests(workload, seed, results) -> None:
    """For the default seed, the first recorded operations must reproduce
    their recorded transcript digests byte for byte."""
    if seed != DEFAULT_SEED:
        return
    expected = json.loads(DIGESTS.read_text())["workloads"][workload.name]
    for result in results:
        index = result.op.index
        if result.problem is None and index < len(expected) \
                and result.digest != expected[index]:
            result.problem = f"transcript digest {result.digest} != recorded {expected[index]}"


def combined_digest(results) -> str:
    return hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest()


def weighted_quantile(samples, q: float) -> float:
    """Quantile of (value, weight) pairs, interpolating between the weight
    midpoints; with equal weights the median is the usual one."""
    samples = sorted(samples)
    total = sum(weight for _, weight in samples)
    points, cumulative = [], 0.0
    for value, weight in samples:
        points.append(((cumulative + weight / 2) / total, value))
        cumulative += weight
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]


def stratified(results, attr: str) -> list:
    """(value, weight) pairs that give every (mode, size) stratum equal
    weight, so a partly finished last cycle does not shift the mix."""
    strata = {}
    for result in results:
        strata.setdefault(result.op.stratum, []).append(getattr(result, attr))
    return [(value, 1.0 / (len(strata) * len(values)))
            for values in strata.values() for value in values]


def end_to_end(results, setup_s: float) -> dict:
    run = stratified(results, "run_s")
    verify = stratified(results, "verify_s")
    mean_op_s = sum((r + v) * w for (r, w), (v, _) in zip(run, verify))
    return {
        "ops_per_s": 1.0 / mean_op_s,
        "run_p50_ms": weighted_quantile(run, 0.50) * 1000.0,
        "verify_p50_ms": weighted_quantile(verify, 0.50) * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KIB,
    }


def tails(results) -> dict:
    """p99 of run and verify. Not gated: only a workload with thousands of
    operations (toy-sweep) has ten samples beyond it; elsewhere it is the
    slowest operation of the run and moves with the seed."""
    return {
        "run_p99_ms": {"value": weighted_quantile(stratified(results, "run_s"), 0.99)
                       * 1000.0, "unit": "ms"},
        "verify_p99_ms": {"value": weighted_quantile(stratified(results, "verify_s"),
                                                     0.99) * 1000.0, "unit": "ms"},
        "samples": len(results),
        "samples_beyond_p99": len(results) // 100,
    }


def setup_time(work_dir: str) -> float:
    """Set-up time of one fresh interpreter (see SETUP_CHILD)."""
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), work_dir],
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    try:
        return float(done.stdout.strip())
    except ValueError:
        raise SetupError(f"set-up run failed: {done.stdout}{done.stderr}") from None


def git_commit() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, results) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "operations": len(results),
    }


def traced_run(pkg, workload, seed, path, seconds, max_ops):
    """Run each operation traced and untraced back to back, alternating which
    goes first, so both see the same machine state. Returns all results and
    the per-layer values."""
    from layers import Tracer  # perfbench/layers.py, next to this file

    tracer = Tracer(pkg)
    traced, plain = [], []

    def with_trace(op):
        tracer.install()
        try:
            traced.append(run_op(pkg, workload, op, path, 1, tracer))
        finally:
            tracer.uninstall()

    def without_trace(op):
        plain.append(run_op(pkg, workload, op, path, 1))

    def step(op):
        first, second = (with_trace, without_trace) if op.index % 2 == 0 \
            else (without_trace, with_trace)
        first(op)
        second(op)

    closed_loop(workload, seed, seconds, max_ops, step)
    for with_tracing, without in zip(traced, plain):
        if with_tracing.problem is None and without.problem is None \
                and with_tracing.digest != without.digest:
            with_tracing.problem = "traced transcript differs from the untraced one"
    layers = tracer.layer_metrics(len(traced))
    layers["trace.overhead_ratio"] = (sum(r.wall_s for r in traced)
                                      / sum(r.wall_s for r in plain))
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}.jsonl")
    return traced + plain, {name: layers.get(name, 0.0) for name, _, _ in PER_LAYER}


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
              max_ops: int) -> tuple[dict, dict]:
    pkg = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        setup = [setup_time(str(work_dir))]
        warm = Workload("warm-up", 32, 3, (64,), 1)
        warm_up = run_op(pkg, warm, plan(warm, seed, 0), str(work_dir / "w.jsonl"), 1)
        if warm_up.problem is not None:
            raise SetupError(f"warm-up operation failed: {warm_up.problem}")
        path = str(work_dir / "transcript.jsonl")
        if trace:
            results, values = traced_run(pkg, workload, seed, path, seconds, max_ops)
        else:
            results, values = [], None
            started = time.perf_counter()

            def step(op):
                # Set-up samples are spread over the run, so that their
                # median sees the same host speed drift as the operations.
                done = (time.perf_counter() - started) / seconds if seconds > 0 else 1
                while len(setup) < min(SETUP_SAMPLES, 1 + int(done * SETUP_SAMPLES)):
                    setup.append(setup_time(str(work_dir)))
                results.append(run_op(pkg, workload, op, path, workload.verify_passes))

            closed_loop(workload, seed, seconds, max_ops, step)
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_time(str(work_dir)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    check_digests(workload, seed, results)
    good = [r for r in results if r.problem is None]
    failed = len(results) - len(good)
    if values is None:
        values = end_to_end(good, statistics.median(setup)) if good else {}
    units = {name: unit for name, unit, _ in (PER_LAYER if trace else END_TO_END)}
    result = {
        "correct": failed == 0 and bool(good),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    details = {
        "environment": environment(workload, seed, results),
        "transcript_digest": combined_digest(results),
        "failed_ops": failed / len(results),
        "strata": sorted({f"{r.op.mode}/{r.op.size}" for r in results}),
        "problems": [f"op {r.op.index}: {r.problem}" for r in results if r.problem][:20],
    }
    if good and not trace:
        details["tail"] = tails(good)
    return result, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=10 ** 9,
                        help="stop after this many operations (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        result, details = benchmark(workload, args.seed, args.seconds,
                                    bool(args.trace), args.max_ops)
    except (SetupError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    stem = f"result-{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
