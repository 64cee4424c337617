"""nctwist benchmark: seeded closed-loop workloads with end-to-end metrics.

    python3 perfbench/run.py --workload tbg_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client in one process runs operations back to back: the next starts when
the previous one returns.  Inputs come in blocks generated from ``--seed``;
the run measures whole blocks until ``--seconds`` have passed, so every run
sees the same mix of input shapes.  Every operation's verdict (or exit code)
is checked against the expected one.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of blocks twice on identical inputs, once plain and once with the
tracer of ``tracer.py`` installed, and prints the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory for the
rationale.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment and provenance


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    import ctypes

    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                return info
    return info


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "nctwist", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def provenance(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# measurement


def timed_import(modules: str) -> float:
    """Wall time of a fresh interpreter that imports ``modules``."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"],
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    return time.perf_counter() - t0


def set_up(wl, seed: int):
    """Import, generate block 0 and warm up, SETUP_REPEATS times.

    Returns the median set-up time and the block-0 operations of the last
    repetition.  Every repetition must generate the same inputs.
    """
    times, digests, ops = [], set(), None
    for _ in range(SETUP_REPEATS):
        t_import = timed_import(wl.imports)
        t0 = time.perf_counter()
        ops = wl.block(seed, 0)
        wl.warm_up()
        t2 = time.perf_counter()
        times.append(t_import + (t2 - t0))
        digests.add(tuple(op.digest for op in ops))
    if len(digests) != 1:
        raise RuntimeError("the same seed generated different inputs")
    return statistics.median(times), ops


def run_blocks(wl, seed: int, ops, seconds=None, nblocks=None, tracer=None):
    """Closed loop over whole blocks.

    Returns one (kind, latency, outcome, input digest, block) per op.
    """
    from workloads import Outcome

    results = []
    b = 0
    t_start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = len(results)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raised op counts as failed
                out = Outcome(False, None, f"raised {type(exc).__name__}: {exc}")
            results.append((op.kind, time.perf_counter() - t0, out, op.digest, b))
        b += 1
        if nblocks is not None:
            if b >= nblocks:
                break
        elif time.perf_counter() - t_start >= seconds:
            break
        ops = wl.block(seed, b)
    return results


def summarize(results) -> dict:
    lat = sorted(r[1] for r in results)
    n = len(lat)
    kinds: dict = {}
    for r in results:
        kinds.setdefault(r[0], []).append(r[1])
    residuals = [r[2].residual for r in results if r[2].residual is not None]
    failed = [r for r in results if not r[2].ok]
    # the highest percentile with at least ten samples beyond it; below
    # eleven samples there is none, and the maximum stands in
    beyond = 10 if n > 10 else 0
    return {
        "attempted": n,
        "failed": len(failed),
        "failures": [f"{r[0]}: {r[2].detail}" for r in failed[:5]],
        "blocks": len({r[4] for r in results}),
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": lat[n - 1 - beyond] * 1e3,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "residual_max": max(residuals, default=0.0),
        "kinds": {
            kind: (len(v), statistics.median(v) * 1e3)
            for kind, v in sorted(kinds.items())
        },
        "inputs_digest": hashlib.sha256(
            "".join(r[3] for r in results).encode()
        ).hexdigest()[:16],
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# runs


def untraced(args, workloads, workdir) -> tuple[dict, dict]:
    wl = workloads.make(args.workload, workdir, SRC)
    setup_s, ops = set_up(wl, args.seed)
    results = run_blocks(wl, args.seed, ops, seconds=args.seconds)
    s = summarize(results)
    s["failed_frac"] = s["failed"] / s["attempted"]
    print(f"workload {args.workload}: {wl.why}")
    print(f"closed loop, 1 client, {s['attempted']} ops in {s['blocks']} whole blocks")
    for kind, (count, med) in s["kinds"].items():
        print(f"  op {kind:<28} x{count:<4} median {med:10.3f} ms")
    print(f"  setup_s          {setup_s:.4f} s  (median of {SETUP_REPEATS})")
    print(f"  ops_per_s        {s['ops_per_s']:.4f} 1/s")
    print(f"  latency_p50_ms   {s['latency_p50_ms']:.4f} ms")
    print(
        f"  latency_tail_ms  {s['latency_tail_ms']:.4f} ms  "
        f"(p{s['tail_percentile']:.1f}, {s['tail_beyond']} of {s['attempted']} beyond)"
    )
    print(f"  failed_frac      {s['failed_frac']:.4f} ratio  ({s['failed']} of {s['attempted']})")
    print(f"  residual_max     {s['residual_max']:.4e} 1")
    rss = peak_rss_mb(children=args.workload == "cli_mix")
    print(f"  peak_rss_mb      {rss:.4f} MB")
    for line in s["failures"]:
        print(f"  FAILED {line}")
    # failed_frac travels as the attempted and failed keys of the result
    # line, residual_max in the traced run's metrics, and latency_tail_ms
    # only in the lines above (see README.md)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "latency_p50_ms": (s["latency_p50_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return s, metrics


def traced(args, workloads, workdir) -> tuple[dict, dict]:
    from tracer import Tracer

    in_process = args.workload == "cli_mix"
    passes = []
    # a discarded warm pass over block 0, then plain and traced passes over
    # the same blocks; each pass generates its inputs afresh
    for with_tracer, warm in ((False, True), (False, False), (True, False)):
        wl = workloads.make(args.workload, workdir, SRC, in_process=in_process)
        nblocks = 1 if warm else wl.trace_blocks
        ops = wl.block(args.seed, 0)
        wl.warm_up()
        tracer = Tracer() if with_tracer else None
        if tracer is not None:
            tracer.install(extra_modules=[workloads])
        try:
            results = run_blocks(wl, args.seed, ops, nblocks=nblocks, tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append(summarize(results))
    _, plain, s = passes
    if plain["inputs_digest"] != s["inputs_digest"]:
        raise RuntimeError("traced and plain passes saw different inputs")
    metrics = tracer.layer_metrics()
    import_ms = statistics.median(timed_import("nctwist.cli") for _ in range(3)) * 1e3
    numpy_ms = statistics.median(timed_import("numpy") for _ in range(3)) * 1e3
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["residual_max"] = (s["residual_max"], "1")
    metrics["trace.overhead_frac"] = (1.0 - s["ops_per_s"] / plain["ops_per_s"], "ratio")
    s["attempted"] += plain["attempted"]
    s["failed"] += plain["failed"]
    print(f"workload {args.workload}: traced pass over {nblocks} block(s), {len(tracer.spans)} spans")
    print(f"  ops {s['attempted'] // 2} per pass, inputs {s['inputs_digest']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(f"  (numpy-only import floor {numpy_ms:.1f} ms)")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    tracer.write(path)
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return s, metrics


def run_all(args) -> None:
    """Run every workload in its own process and print each in turn."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))


WORKLOAD_NAMES = ("tbg_stream", "fluct_chain", "sm_point", "cli_mix")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One BLAS thread, set before numpy loads; subprocesses inherit it.  With
    # the OpenBLAS default of nproc = 2 threads, the pool's hand-off on small
    # matrices competes with the client thread: block times spread 5x wider
    # at the same median.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "nctwist", "__init__.py")):
        fail(f"no nctwist sources under {SRC}")
    if args.workload == "all":
        run_all(args)
        return

    sys.path[:0] = [SRC, HERE]
    import nctwist
    import workloads

    if not os.path.abspath(nctwist.__file__).startswith(SRC):
        fail(f"imported nctwist from {nctwist.__file__}, not from {SRC}")
    prov = provenance(args)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        summary, metrics = (traced if args.trace else untraced)(args, workloads, workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    prov["ops"] = {kind: count for kind, (count, _) in summary["kinds"].items()}
    prov["inputs_digest"] = summary["inputs_digest"]
    if args.workload == "sm_point":
        prov["note"] = workloads.SmPoint.NOTE
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
