"""Benchmark of the lyident pipeline through its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N --seconds S --trace 0|1]

Run from the repository root; the library is imported from ./src. With a
workload name, one workload runs in this process: it sets up its inputs
several times (setup_s is the median), runs whole rounds of operations for
S seconds and at least MIN_ROUNDS times (solve_s is the median round),
reads the process's peak RSS, then checks the results. The last line of
standard output is one JSON object: correct (no operation failed and no
check found a problem), attempted, failed and the metrics, which are the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. Without --workload, every workload runs in its own
process, one after another.

BLAS and OpenMP run on one thread (at most the machine's cores), and str
hashing uses a fixed seed; the process restarts itself to apply both. The
thread count is printed with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# str hashing is randomized per process by default; a fixed seed removes
# that source of difference between runs
HASH_SEED = "0"

# Set-up is timed at least SETUP_REPS times and for SETUP_SECONDS before
# the first round, then again for SETUP_GAP_SECONDS (at least once) before
# every later round. The machine's speed drifts over seconds, so set-up is
# sampled across the whole run rather than in one burst at its start.
SETUP_REPS = 5
SETUP_SECONDS = 1.0
SETUP_GAP_SECONDS = 0.5
# solve_s is a median of at least this many rounds; an oracle round takes
# 7-15 s, so a 10 s run would otherwise hold one or two
MIN_ROUNDS = 3
# the traced run alternates which side of an untraced/traced pair runs
# first, so it holds at least one pair in each order
MIN_TRACE_PAIRS = 2


def _import_library():
    """Import lyident from this checkout's src, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import lyident
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import lyident from {SRC}: {exc}") from exc
    if SRC not in Path(lyident.__file__).resolve().parents:
        raise SystemExit(f"bench: lyident came from {lyident.__file__}, not from {SRC}")


def _one_round(wl, inputs):
    """Run one round of operations; returns (results, errors, attempted, seconds)."""
    ops = wl.operations(inputs)
    results, errors = {}, []
    t0 = perf_counter()
    for label, call in ops:
        try:
            results[label] = call()
        except Exception as exc:  # a failed operation is counted, and the run goes on
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
    return results, errors, len(ops), perf_counter() - t0


def _gate(wl, inputs) -> None:
    refused = wl.gate(inputs)
    if refused:
        raise SystemExit(f"bench: set-up refuses the inputs: {'; '.join(refused)}")


def _setup_and_round(wl, seed: int, tracer):
    """Set-up and one round, with tracer's wrappers installed if one is
    given; returns (inputs, results, errors, attempted, seconds)."""
    from spans import install

    uninstall = install(tracer) if tracer is not None else None
    try:
        t0 = perf_counter()
        inputs = wl.setup(seed)
        results, errs, n, _ = _one_round(wl, inputs)
        return inputs, results, errs, n, perf_counter() - t0
    finally:
        if uninstall is not None:
            uninstall()


def _timed_setups(wl, seed: int, times: list[float], reps: int, seconds: float):
    """Time set-up at least reps times and until seconds have passed (at
    most 100 times); appends to times and returns the last inputs built."""
    start = perf_counter()
    for k in range(100):
        if k >= reps and perf_counter() - start >= seconds:
            break
        t0 = perf_counter()
        inputs = wl.setup(seed)
        times.append(perf_counter() - t0)
    return inputs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One workload in this process: (result object, problems found)."""
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    setup_times: list[float] = []
    inputs = _timed_setups(wl, seed, setup_times, SETUP_REPS, SETUP_SECONDS)
    _gate(wl, inputs)

    attempted, errors, problems = 0, [], []
    plain, ratios = [], []
    tracer = Tracer()

    def record(inputs, results, errs, n):
        nonlocal attempted
        attempted += n
        errors.extend(errs)
        problems.extend(wl.check(inputs, results))

    if trace:
        # the first round fills the library's caches; keep it out of the
        # overhead comparison
        results, errs, n, _ = _one_round(wl, inputs)
        record(inputs, results, errs, n)
        # pairs of set-up plus round, untraced and traced, alternating which
        # runs first; the overhead is the median of the pairs' ratios
        start = perf_counter()
        while len(ratios) < MIN_TRACE_PAIRS or perf_counter() - start < seconds:
            sides = (None, tracer) if len(ratios) % 2 == 0 else (tracer, None)
            times = {}
            for t in sides:
                inputs, results, errs, n, times[t is not None] = _setup_and_round(wl, seed, t)
                record(inputs, results, errs, n)
            ratios.append(times[True] / times[False])
    else:
        start = perf_counter()
        while len(plain) < MIN_ROUNDS or perf_counter() - start < seconds:
            if plain:
                inputs = _timed_setups(wl, seed, setup_times, 1, SETUP_GAP_SECONDS)
            results, errs, n, dt = _one_round(wl, inputs)
            plain.append(dt)
            record(inputs, results, errs, n)
    peak = _peak_rss_mb()
    problems += wl.verify(inputs, results)

    if trace:
        out = BENCH / "out" / f"trace-{name}-seed{seed}.json"
        tracer.write(out)
        metrics = layer_metrics(tracer, len(ratios))
        metrics["trace.overhead_pct"] = (100 * (statistics.median(ratios) - 1), "%")
        notes = [f"traced iterations {len(ratios)}, spans {len(tracer)}, written to {out.relative_to(ROOT)}",
                 "overhead per pair (%): " + " ".join(f"{100 * (r - 1):+.1f}" for r in ratios)]
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "solve_s": (statistics.median(plain), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
        notes = [f"setup_s is the median of {len(setup_times)} set-ups, "
                 f"solve_s the median of {len(plain)} rounds"]
    result = {
        "correct": not problems and not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes + [f"FAILED {e}" for e in errors] + [f"WRONG {p}" for p in problems]


def _declared_metrics(trace: bool) -> set[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in doc["per_layer" if trace else "end_to_end"]}


def main_one(args) -> int:
    result, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    mismatch = _declared_metrics(bool(args.trace)) ^ set(result["metrics"])
    if mismatch:
        raise SystemExit(f"bench: metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"BLAS/OpenMP threads {os.environ['OMP_NUM_THREADS']} (nproc {os.cpu_count()})")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main_all(args, names) -> int:
    """Every workload in its own process; the last line maps name -> result."""
    combined, code = {}, 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            combined[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined[name] = None
            code = code or 1
    print(json.dumps(combined))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description="lyident benchmark")
    ap.add_argument("--workload", help="one workload; all of them when left out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    pinned = {var: str(min(THREADS, os.cpu_count() or 1)) for var in THREAD_VARS}
    pinned["PYTHONHASHSEED"] = HASH_SEED
    if any(os.environ.get(k) != v for k, v in pinned.items()):
        # both take effect only at start-up: restart this process with them
        os.environ.update(pinned)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    _import_library()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload is None:
        return main_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
