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
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from nctwist import cli  # noqa: E402

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


def cli_digest(argv) -> tuple[str, int]:
    """The digest of ``cli.main``'s JSON report for ``argv``, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv) + ["--report", "json"])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16], code


def main() -> None:
    count, digest = report_hash()
    print(f"reports {count} {digest}")
    for argv in REQUESTS:
        digest, code = cli_digest(argv)
        print(f"{' '.join(argv)} {digest} exit {code}")


if __name__ == "__main__":
    main()
