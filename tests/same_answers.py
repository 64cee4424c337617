"""Print the fingerprints of the answers the benchmark and the CLI give.

    python3 tests/same_answers.py

A change that claims to alter no answer must print the same lines before
and after.  Two fingerprints are printed, each the first 16 hex digits of a
sha256:

- ``reports``: the ``Report.to_json()`` of every report that
  ``verify_twisted``, ``verify_fluctuated`` and ``compose_fluctuations`` hand
  to the ops of ``perfbench/workloads.py``, concatenated in op order:
  ``tbg_stream`` at seeds 7 then 29, then ``fluct_chain`` at seeds 7 then
  29, blocks 0 to 2 each (258 reports).  The three names are wrapped in the
  workloads module for the run; the module itself is not changed.
- one line per in-process ``cli.main([..., "--report", "json"])`` request:
  the digest of its standard output, and its exit code.

One more line, ``census``, counts what the sparse layer decided over the
258 reports: the ``matlin.pair_max`` calls and how many of them the sparse
evaluator ran, and the ``matlin.built`` calls and how many of their results
are entry-built or dense.  A change to the cost rule shows there.

BLAS runs on one thread, set before numpy is imported, so that the sums of
every product are formed in one order.  pytest does not collect this file;
``tests/test_same_answers.py`` checks that the report fingerprint is
reproducible within one process.
"""

from __future__ import annotations

import os

if __name__ == "__main__":  # before numpy loads; an importer keeps its own
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from nctwist import cli, matlin  # noqa: E402

SEEDS = (7, 29)
BLOCKS = range(3)
REQUESTS = (
    ["gamma", "--m", "2"],
    ["gamma", "--m", "5"],
    ["uniqueness", "--m", "3"],
    ["free-dirac", "--m", "1", "--seed", "3"],
    ["free-dirac", "--m", "2", "--seed", "3"],
    ["free-dirac", "--m", "4"],
    ["sm", "--check", "zero-order"],
    ["sm", "--check", "first-order"],
    ["sm", "--check", "all"],
    ["sm", "--check", "recovery"],
)
VERIFIERS = ("verify_twisted", "verify_fluctuated", "compose_fluctuations")


def report_hash(workload_names=("tbg_stream", "fluct_chain"), seeds=SEEDS, blocks=BLOCKS):
    """``(count, digest)`` of the reports the named workloads' ops return."""
    kinds = {"tbg_stream": workloads.TbgStream, "fluct_chain": workloads.FluctChain}
    seen = []
    originals = {name: getattr(workloads, name) for name in VERIFIERS}

    def capture(verify):
        def run(*args, **kwargs):
            report = verify(*args, **kwargs)
            seen.append(report.to_json())
            return report

        return run

    try:
        for name, verify in originals.items():
            setattr(workloads, name, capture(verify))
        for name in workload_names:
            workload = kinds[name]()
            for seed in seeds:
                for b in blocks:
                    for op in workload.block(seed, b):
                        op.run()
    finally:
        for name, verify in originals.items():
            setattr(workloads, name, verify)
    digest = hashlib.sha256("".join(seen).encode()).hexdigest()[:16]
    return len(seen), digest


@contextlib.contextmanager
def census(counts: Counter):
    """Count the sparse layer's decisions into ``counts`` while in the block.

    ``pair_max`` and ``built`` are wrapped in every ``nctwist`` module that
    holds them, and ``_sparse_pair_max`` in ``matlin``.
    """
    pair_max, built, sparse = matlin.pair_max, matlin.built, matlin._sparse_pair_max

    def counted_pair_max(*args, **kwargs):
        counts["pair_max"] += 1
        return pair_max(*args, **kwargs)

    def counted_built(*args, **kwargs):
        out = built(*args, **kwargs)
        counts["built"] += 1
        counts["dense" if out.dense else "entry"] += 1
        return out

    def counted_sparse(*args, **kwargs):
        counts["sparse"] += 1
        return sparse(*args, **kwargs)

    wrapped = {pair_max: counted_pair_max, built: counted_built}
    patched = [(matlin, "_sparse_pair_max", sparse)]
    for name, module in list(sys.modules.items()):
        if name == "nctwist" or name.startswith("nctwist."):
            for attr, value in list(vars(module).items()):
                if any(value is f for f in wrapped):
                    patched.append((module, attr, value))
    try:
        for module, attr, value in patched:
            setattr(module, attr, counted_sparse if value is sparse else wrapped[value])
        yield counts
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def cli_digest(argv) -> tuple[str, int]:
    """The digest of ``cli.main``'s JSON report for ``argv``, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv) + ["--report", "json"])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], code


def main() -> None:
    with census(Counter()) as counts:
        count, digest = report_hash()
    print(f"reports {count} {digest}")
    print(
        f"census pair_max {counts['pair_max']} sparse {counts['sparse']}"
        f" built {counts['built']} entry {counts['entry']} dense {counts['dense']}"
    )
    for argv in REQUESTS:
        digest, code = cli_digest(argv)
        print(f"{' '.join(argv)} {digest} exit {code}")


if __name__ == "__main__":
    main()
