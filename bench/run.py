"""Benchmark of waifi, the exact decision procedure for WAI first integrals.

    python3 bench/run.py --workload {wai,non-wai,pencils} --seed N \\
        --seconds S --trace {0,1} [--write-golden]

All three workloads in one command line:

    for w in wai non-wai pencils; do python3 bench/run.py --workload $w; done

Run it from the root of a checkout: waifi is imported from that checkout's
`src/`, and nothing outside the checkout is read or written.  Scratch files
go to `bench/out/`: the input file and the spans of a traced run.

One process, one thread: a closed loop with one client, each op starting when
the previous one returns.  An op is one `waifi` subcommand, called in-process
through the public entry point `waifi.cli.main([..., "--json"])` on a
`key = value` input file generated from the seed (corpus.py).  The seed
reaches only the generator.

--trace 0, the timed run, issues ops until --seconds have passed and the last
round of the workload is whole (a non-wai round is its pool of 15 cases, so a
non-wai run always measures every case once).  It then checks every op and
prints the end-to-end metrics:
  ops_per_s       ops completed per second spent in cli.main
  latency_p50_s   median op latency
  latency_tail_s  op latency at the highest percentile that still has ten
                  samples beyond it; the percentile and count are printed
  setup_s         median over five fresh interpreters of importing waifi
                  plus the workload's warm-up op
  peak_rss_mb     peak resident memory of this process after the loop
Times are scaled to a reference host speed (hostspeed.py), because a host
with shared cores changes speed by more than the bounds the benchmark keeps;
the unscaled figures are printed too.  Both latencies are Harrell-Davis
quantile estimates (see quantile).  fail_ratio, failed ops over attempted
ops, is printed with its base; it is no metric of the result line because it
is 0 on a healthy workload.

--trace 1, the traced run, runs a fixed list of ops, each once traced and
once untraced, and prints the per-layer metrics of tracing.py, the self-time
share of each traced function and the tracing overhead.  End-to-end metrics
come only from the timed run.

An op fails when an exception escapes cli.main, or when it exits with the
wrong code, verdict or reason, fails its oracle (oracle.py) or differs from
its golden output.  golden/<workload>.json maps a digest of each op's command
and input to the exit code and the SHA-256 of the exact `--json` stdout that
the op printed when the file was written; --write-golden rewrites it from the
ops of the run that passed their oracle.  The result's "correct" is false
when an op printed a wrong answer; an op that raised counts in "failed" only.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
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
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import corpus
import tracing
from hostspeed import REFERENCE_S, HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_waifi():
    """waifi.cli from this checkout's src/, or exit when it is not there."""
    if not (SRC / "waifi" / "cli.py").is_file():
        sys.exit(f"error: no waifi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from waifi import cli

    if Path(cli.__file__).resolve().parent != SRC / "waifi":
        sys.exit(f"error: imported waifi from {cli.__file__}, not {SRC}")
    return cli


def environment():
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


# -- running ops ---------------------------------------------------------------


@dataclass
class Record:
    op: object
    rc: object  # exit code, or None when an exception escaped
    stdout: str
    stderr: str
    error: str  # the escaped exception, or ""
    start: float
    latency: float


def execute(cli, op, path, speed=None):
    """Run one op; its latency leaves out the host-speed samples taken
    while it ran."""
    path.write_text(op.text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    sampled = speed.in_chunks if speed else 0.0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv + [str(path), "--json"])
    except SystemExit as exc:  # argparse rejected the command line
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # the boundary: count it, keep running
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if speed:
        latency -= speed.in_chunks - sampled
    return Record(op, rc, out.getvalue(), err.getvalue(), error, start, latency)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def golden_key(op):
    return digest(json.dumps([op.argv, op.text]))[:16]


def check(records, golden):
    """(failures, wrong): failures maps the index of each failed record to a
    message; wrong is set when an op printed a wrong answer."""
    failures = {}
    wrong = False
    for i, r in enumerate(records):
        if r.error:
            failures[i] = "escaped cli.main: " + r.error
            continue
        try:
            doc = json.loads(r.stdout) if r.stdout.strip() else None
        except json.JSONDecodeError:
            doc = None
        message = r.op.check(r.rc, doc, r.stderr)
        want = golden.get(golden_key(r.op))
        if message is None and want is not None:
            if (want["rc"], want["sha256"]) != (r.rc, digest(r.stdout)):
                message = "exit code or stdout differs from the golden output"
        if message is not None:
            failures[i] = message
            wrong = True
    return failures, wrong


def load_golden(workload):
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def write_golden(workload, records, failures):
    doc = {}
    for i, r in enumerate(records):
        if i not in failures:
            doc[golden_key(r.op)] = {"op": r.op.name, "rc": r.rc, "sha256": digest(r.stdout)}
    GOLDEN.mkdir(exist_ok=True)
    path = GOLDEN / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc)} golden outputs to {path.relative_to(ROOT)}")


# -- the two runs ------------------------------------------------------------


def measure_setup(warmup, path, speed):
    """Set-up times of SETUP_PROBES fresh interpreters: unscaled, and each
    scaled by host-speed samples taken right before and after it."""
    path.write_text(warmup.text, encoding="utf-8")
    times, scaled = [], []
    for _ in range(SETUP_PROBES):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(SRC), str(path)]
            + warmup.argv,
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        end = time.perf_counter()
        speed.sample()
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(times[-1] * speed.scale(start, end))
    return times, scaled


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: an average of all order
    statistics with beta weights.  On a round of 15 ops of very different
    sizes it varies about half as much from run to run as one order
    statistic does."""
    # imported here, after peak RSS is read, so they do not count in it
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if q >= 1:
        return float(ordered[-1])
    cdf = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), ordered))


def tail_percentile(n):
    """The highest percentile with ten samples beyond it (the maximum when
    there are fewer than eleven samples), as a fraction."""
    return (n - 10) / n if n > 10 else 1.0


def timed_run(cli, workload, seed, seconds, path):
    speed = HostSpeed()
    probes, scaled_probes = measure_setup(workload.warmup, path, speed)
    execute(cli, workload.warmup, path)
    records = []
    start = time.perf_counter()
    with speed.sampling():
        for op in workload.stream(seed):
            records.append(execute(cli, op, path, speed))
            if len(records) % workload.round_size == 0:
                if time.perf_counter() - start >= seconds:
                    break
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw = [r.latency for r in records]
    scaled = [r.latency * speed.scale(r.start, r.start + r.latency) for r in records]
    q = tail_percentile(len(records))
    metrics = {
        "ops_per_s": len(records) / sum(scaled),
        "latency_p50_s": quantile(scaled, 0.5),
        "latency_tail_s": quantile(scaled, q),
        "setup_s": statistics.median(scaled_probes),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"ran {len(records)} ops in {elapsed:.2f} s")
    print(
        f"host speed: mean chunk {1000 * REFERENCE_S / speed.scale():.3f} ms over "
        f"{len(speed.durations)} samples, reference {1000 * REFERENCE_S:.3f} ms"
    )
    print(
        f"unscaled: ops_per_s {len(records) / sum(raw):.6g}, latency_p50_s "
        f"{quantile(raw, 0.5):.6g}, latency_tail_s {quantile(raw, q):.6g}, "
        f"setup_s {statistics.median(probes):.6g} (probes "
        f"{', '.join(f'{t:.4f}' for t in probes)})"
    )
    print(
        f"latency_tail_s is p{100 * q:.1f} of {len(records)} ops, "
        f"{round(len(records) * (1 - q))} beyond it"
    )
    return records, metrics


def traced_run(cli, workload, seed, path):
    ops = list(islice(workload.stream(seed), workload.trace_ops))
    execute(cli, workload.warmup, path)
    tracer = tracing.Tracer()

    def traced_op(i, op):
        tracer.op = i
        tracer.install()
        try:
            return execute(cli, op, path)
        finally:
            tracer.uninstall()

    # each op runs traced and untraced back to back, in alternating order, so
    # that caches and the machine's speed favour neither side
    traced, untraced = [], []
    for i, op in enumerate(ops):
        if i % 2 == 0:
            traced.append(traced_op(i, op))
            untraced.append(execute(cli, op, path))
        else:
            untraced.append(execute(cli, op, path))
            traced.append(traced_op(i, op))

    t_traced = sum(r.latency for r in traced)
    t_untraced = sum(r.latency for r in untraced)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = t_traced / t_untraced - 1

    print(f"traced {len(ops)} ops: {t_traced:.3f} s traced, {t_untraced:.3f} s untraced")
    if tracer.absent:
        print("absent (renamed or removed): " + ", ".join(tracer.absent))
    print("self-time share of traced op time:")
    shares = sorted(((v, k) for k, v in tracer.self_s.items() if tracer.calls[k]), reverse=True)
    for value, name in shares:
        print(f"  {name:36s} {value:9.4f} s {100 * value / t_traced:6.2f} %")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload.name}-{seed}.json"
    spans_path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "env": environment(),
                "ops": [op.name for op in ops],
                "fields": ["name", "start", "end", "id", "parent", "op"],
                "spans": tracer.spans,
            }
        ),
        encoding="utf-8",
    )
    print(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)}")

    differ = [
        i
        for i, (a, b) in enumerate(zip(traced, untraced))
        if (a.rc, a.stdout, a.error) != (b.rc, b.stdout, b.error)
    ]
    return traced + untraced, metrics, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of waifi.")
    parser.add_argument("--workload", required=True, choices=("wai", "non-wai", "pencils"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    cli = load_waifi()
    workload = corpus.WORKLOADS[args.workload]
    print("env: " + json.dumps(environment(), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"input-{args.workload}-{os.getpid()}.txt"
    try:
        if args.trace:
            records, metrics, differ = traced_run(cli, workload, args.seed, path)
            units = dict(tracing.metric_units(), **{"trace.overhead_ratio": "ratio"})
        else:
            records, metrics = timed_run(cli, workload, args.seed, args.seconds, path)
            differ = []
            units = END_TO_END_UNITS
    finally:
        path.unlink(missing_ok=True)

    golden = {} if args.write_golden else load_golden(args.workload)
    failures, wrong = check(records, golden)
    if args.write_golden:
        write_golden(args.workload, records, failures)
    for i in differ:
        failures.setdefault(i, "traced and untraced outputs differ")
        wrong = True
    for i, message in sorted(failures.items()):
        op = records[i].op
        print(f"FAILED op {i} {op.name} [{op.source}]: {message}")
    failed = len(failures)
    print(f"fail_ratio = {failed}/{len(records)} = {failed / len(records):.4f}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(records),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
