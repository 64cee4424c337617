"""Seeded inputs, operations and expected verdicts of the four workloads.

A workload hands out its inputs in blocks.  Block ``b`` of seed ``s`` is a
pure function of ``(s, b)``: the same seed gives the same inputs on every
run, and the package sees only those inputs.  Each block holds a fixed mix
of input shapes, so a run made of whole blocks always measures the same mix.
An operation is one user-visible call (or two, as named per workload); it
returns an ``Outcome`` saying whether its verdict matched the expected one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nctwist import samples
from nctwist.algebra import doubled
from nctwist.fluct import TwistedOneForm, compose_fluctuations, fluctuate, symmetrized, verify_fluctuated
from nctwist.matlin import fro
from nctwist.mintwist import twist_by_grading
from nctwist.samples import random_graded_geometry, random_hermitian, random_matrix_geometry
from nctwist.serialize import (
    geometry_to_json,
    matrix_to_json,
    one_form_to_json,
    twisted_marker_to_json,
)
from nctwist.sm import DEFAULT_YUKAWAS, twisted_sm_geometry, verify_sm_twisted
from nctwist.triple import measure_ko_signs
from nctwist.twist import verify_twisted

ORDER_ONE_RECORDS = frozenset(
    {
        "order one: primary form on generator pairs",
        "order one: symmetric form on generator pairs",
    }
)


@dataclass
class Outcome:
    ok: bool  # verdict (or exit code) equals the expected one
    residual: float | None = None  # largest check residual, for expected passes
    detail: str = ""


@dataclass
class Op:
    kind: str
    run: Callable[[], Outcome]
    digest: str  # fingerprint of the op's inputs


def passed(report) -> Outcome:
    """Outcome of an op expected to pass, with its largest gated residual."""
    gated = [r.residual for r in report.records if math.isfinite(r.tol)]
    failed = ",".join(r.name for r in report.records if not r.passed)
    return Outcome(report.ok, max(gated, default=0.0), failed)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _geometry_digest(g) -> str:
    return _digest(
        np.frombuffer(repr(g.algebra.signature()).encode(), dtype=np.uint8),
        g.dirac,
        g.grading,
        g.real_structure.unitary,
    )


def _block_rng(seed: int, block: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, block, stream]))


# ---------------------------------------------------------------------------
# shape-stratified draws of random_graded_geometry


def _shape(subseed: int) -> tuple:
    """Catalogue entry and algebra signature a sub-seed will draw.

    Replays the first two draws of ``random_graded_geometry``; the drawn
    geometry is checked against this afterwards, so a changed sampler fails
    loudly instead of silently changing the workload.
    """
    rng = np.random.default_rng(subseed)
    entry = int(rng.integers(len(samples._CATALOGUE)))
    alg = samples._random_partition(rng, samples._CATALOGUE[entry][1]["k"])
    return entry, alg.signature()


C, H = ("C", None), ("H", None)
M2, M3 = ("M", 2), ("M", 3)

# The most frequent algebra of each catalogue entry.  Fixing the algebra per
# slot keeps the generator count, and so the cost, of every slot the same
# from seed to seed; matrices, frames and Dirac operators stay random.
SHAPES = {
    0: (C, C),  # M_2 placements, dim 4
    1: (C, C),  # dim 4 with a random frame
    2: (H, C),  # dim 9
    3: (M2, C),  # dim 9 with a random frame
    4: (M3, C),  # dim 16
    5: (M3, C, C),  # dim 25
    6: (C, C),  # Clifford m=1 tensor M_2, dim 8
    7: (H, C),  # Clifford m=1 tensor M_3, dim 18
    8: (C, C),  # Clifford m=2 tensor M_2, dim 16
    9: (C, C),  # Clifford m=3 tensor M_2, dim 32
}


def draw_geometry(rng: np.random.Generator, entry: int):
    """A fresh ``random_graded_geometry`` of the given catalogue shape."""
    target = (entry, SHAPES[entry])
    while True:
        subseed = int(rng.integers(2**63))
        if _shape(subseed) == target:
            g = random_graded_geometry(np.random.default_rng(subseed))
            if g.algebra.signature() != SHAPES[entry]:
                raise RuntimeError("random_graded_geometry no longer draws as replayed")
            return g


def perturb_order_one(g, rng: np.random.Generator, size: float = 0.5):
    """D + P with P self-adjoint, grading-odd and J-compatible.

    Such a P keeps every axiom except order one, which it breaks for a
    generic draw (not at dim 4, where the catalogue's k=2 entries pass).
    """
    gam = g.grading
    p = random_hermitian(rng, g.hilbert_dim)
    p = (p - gam @ p @ gam) / 2.0
    p = (p + measure_ko_signs(g).eps_prime * g.real_structure.conjugate(p)) / 2.0
    p = (p + p.conj().T) / 2.0
    return g.with_dirac(g.dirac + size * p / fro(p))


# ---------------------------------------------------------------------------
# tbg_stream


def _tbg_op(base, negative: bool) -> Callable[[], Outcome]:
    def run() -> Outcome:
        report = verify_twisted(twist_by_grading(base))
        if not negative:
            return passed(report)
        failed = {r.name for r in report.records if not r.passed}
        return Outcome(failed == ORDER_ONE_RECORDS, None, ",".join(sorted(failed)))

    return run


class TbgStream:
    name = "tbg_stream"
    why = (
        "criterion-3 shape: a fresh seeded geometry per op is twisted by grading "
        "and verified, so L1 and L2 call overhead on small matrices dominates"
    )
    imports = "nctwist.mintwist, nctwist.twist, nctwist.samples"
    trace_blocks = 3
    # every catalogue entry once, plus order-one negatives at dims 9 and 25
    SLOTS = [(e, False) for e in range(10)] + [(3, True), (3, True), (5, True)]

    def block(self, seed: int, b: int) -> list[Op]:
        rng = _block_rng(seed, b, 0)
        ops = []
        for entry, negative in self.SLOTS:
            g = draw_geometry(rng, entry)
            if negative:
                g = perturb_order_one(g, rng)
            kind = f"e{entry}{'-neg' if negative else ''}(n={g.hilbert_dim})"
            ops.append(Op(kind, _tbg_op(g, negative), _geometry_digest(g)))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def warm_up(self) -> None:
        verify_twisted(twist_by_grading(samples.toy_triple()))


# ---------------------------------------------------------------------------
# fluct_chain


class _Chain:
    """One base geometry and the element pairs of its successive one-forms."""

    def __init__(self, base, pairs):
        self.base = base
        self.pairs = pairs
        self.tg0 = None
        self.tg = None
        self.forms = []

    def step(self, i: int) -> Outcome:
        if i == 0:
            self.tg0 = self.tg = twist_by_grading(self.base)
        form = symmetrized(TwistedOneForm.of(*self.pairs[i]), self.tg)
        report = verify_fluctuated(self.tg, form)
        self.forms.append(form)
        self.tg = fluctuate(self.tg, form)
        return passed(report)

    def compose(self) -> Outcome:
        return passed(compose_fluctuations(self.tg0, self.forms[0], self.forms[1]))


class FluctChain:
    name = "fluct_chain"
    why = (
        "one representation reused over a chain of fluctuations by generic "
        "one-forms, then a composition: cache-friendly L1, fluct and lstsq"
    )
    imports = "nctwist.mintwist, nctwist.fluct, nctwist.samples"
    trace_blocks = 2
    STEPS = 4
    # The entries whose steps take 35 ms or more (dims 9 to 32); the dim-18
    # chain twice puts the median op in the middle of its step latencies.
    # Steps at dims 4 to 16 take 10 to 30 ms and spread about 10% from op to
    # op on identical inputs; the dim-25 chain alone would take half a block.
    ENTRIES = [2, 3, 7, 7, 9, 4]

    def block(self, seed: int, b: int) -> list[Op]:
        rng = _block_rng(seed, b, 1)
        entries = [self.ENTRIES[i] for i in rng.permutation(len(self.ENTRIES))]
        ops = []
        for entry in entries:
            base = draw_geometry(rng, entry)
            alg2 = doubled(base.algebra)
            pairs = [
                [(alg2.random_element(rng), alg2.random_element(rng)) for _ in range(2)]
                for _ in range(self.STEPS)
            ]
            chain = _Chain(base, pairs)
            flat = [np.asarray(v) for terms in pairs for a, b2 in terms for v in a + b2]
            digest = _digest(_geometry_digest(base).encode(), *flat)
            tag = f"e{entry}(n={base.hilbert_dim})"
            for i in range(self.STEPS):
                kind = f"twist+step {tag}" if i == 0 else f"step {tag}"
                ops.append(Op(kind, lambda c=chain, i=i: c.step(i), digest))
            ops.append(Op(f"compose {tag}", chain.compose, digest))
        return ops

    def warm_up(self) -> None:
        tg = twist_by_grading(samples.toy_triple())
        alg = tg.algebra
        form = symmetrized(TwistedOneForm.of((alg.unit(), alg.unit())), tg)
        verify_fluctuated(tg, form)


# ---------------------------------------------------------------------------
# sm_point


class SmPoint:
    name = "sm_point"
    why = (
        "the 128-dimensional twisted standard model at seeded couplings: few "
        "large dense operators, BLAS- and memory-bound"
    )
    imports = "nctwist.sm"
    trace_blocks = 1
    # verify_sm_twisted gates on the finite triple at the default couplings,
    # whatever couplings its input has, so that part of an op is seed-independent
    NOTE = "verify_sm_twisted gates on sm_finite_geometry() at default couplings"

    def block(self, seed: int, b: int) -> list[Op]:
        rng = _block_rng(seed, b, 2)
        z = rng.standard_normal((5, 2)) @ np.array([1.0, 1j])
        yukawas = {k: complex(v) for k, v in zip(sorted(DEFAULT_YUKAWAS), z[:4])}
        majorana = complex(z[4])

        def run() -> Outcome:
            return passed(verify_sm_twisted(twisted_sm_geometry(yukawas, majorana)))

        return [Op("sm", run, _digest(z))]

    def warm_up(self) -> None:
        measure_ko_signs(twisted_sm_geometry().geometry)


# ---------------------------------------------------------------------------
# cli_mix


class CliMix:
    """Requests to ``python -m nctwist.cli``, one process at a time.

    Files are written once per run into ``workdir``; every block issues the
    same requests.  ``in_process`` replays them through ``nctwist.cli.main``
    instead (the traced run).
    """

    name = "cli_mix"
    why = (
        "one nctwist CLI subprocess per op on seeded JSON files: interpreter "
        "start, import, serialize, report output, exit codes, largest L3 solve"
    )
    imports = "nctwist.cli"
    trace_blocks = 1

    def __init__(self, workdir: str, src: str, in_process: bool = False):
        self.workdir = workdir
        self.src = src
        self.in_process = in_process
        self._requests = None

    def write_files(self, seed: int) -> list[tuple[str, list[str], int]]:
        """Write the seeded input files; return (kind, argv, expected exit)."""
        rng = _block_rng(seed, 0, 3)
        path = lambda name: os.path.join(self.workdir, name)  # noqa: E731
        files = {}
        plain3 = random_matrix_geometry(rng, 3)
        plain4 = random_matrix_geometry(rng, 4)
        files["plain3.json"] = geometry_to_json(plain3)
        files["plain4.json"] = geometry_to_json(plain4)
        files["marker3.json"] = twisted_marker_to_json(plain3)
        tg = twist_by_grading(plain3)
        alg = tg.algebra
        pairs = [(alg.random_element(rng), alg.random_element(rng)) for _ in range(2)]
        form = symmetrized(TwistedOneForm.of(*pairs), tg)
        files["form3.json"] = one_form_to_json(alg, list(form.terms))
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        files["samples2.json"] = matrix_to_json(np.stack([f, -np.conj(f)], axis=1))
        bad = geometry_to_json(plain3)
        bad["D"] = matrix_to_json(plain4.dirac)  # 16x16 Dirac on a dim-9 space
        files["bad_shape.json"] = bad
        nonfinite = geometry_to_json(plain3)
        nonfinite["D"]["data"][1][0] = float("nan")  # D[0, 1]
        files["nonfinite.json"] = nonfinite
        for name, obj in files.items():
            with open(path(name), "w") as fh:
                json.dump(obj, fh, sort_keys=True)
        j = ["--report", "json"]
        return [
            ("verify-plain", ["verify", path("plain3.json")] + j, 0),
            ("verify-plain", ["verify", path("plain4.json")] + j, 0),
            ("verify-marker", ["verify", path("marker3.json")] + j, 0),
            ("twist-by-grading", ["twist-by-grading", path("plain3.json")] + j, 0),
            ("fluctuate", ["fluctuate", path("marker3.json"), "--form", path("form3.json")] + j, 0),
            ("gamma-tilde", ["gamma-tilde", path("marker3.json")] + j, 0),
            ("free-dirac", ["free-dirac", "--m", "2", "--samples", path("samples2.json")] + j, 0),
            ("uniqueness-m4", ["uniqueness", "--m", "4"] + j, 0),
            ("malformed-shape", ["verify", path("bad_shape.json")] + j, 2),
            ("malformed-nonfinite", ["verify", path("nonfinite.json")] + j, 2),
        ]

    def file_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(os.listdir(self.workdir)):
            with open(os.path.join(self.workdir, name), "rb") as fh:
                h.update(name.encode() + fh.read())
        return h.hexdigest()[:16]

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            from nctwist import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue()
        env = dict(os.environ, PYTHONPATH=self.src)
        proc = subprocess.run(
            [sys.executable, "-m", "nctwist.cli"] + argv,
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def _op(self, argv: list[str], expected: int) -> Callable[[], Outcome]:
        def run() -> Outcome:
            code, stdout = self._invoke(argv)
            residual = None
            if expected == 0 and code == 0:
                checks = json.loads(stdout)["checks"]
                gated = [c["residual"] for c in checks if math.isfinite(c["tol"])]
                residual = max(gated, default=0.0)
            return Outcome(code == expected, residual, f"exit {code}, expected {expected}")

        return run

    def block(self, seed: int, b: int) -> list[Op]:
        if b == 0 or self._requests is None:
            self._requests = self.write_files(seed)
            self._digest = self.file_digest()
        return [Op(kind, self._op(argv, code), self._digest) for kind, argv, code in self._requests]

    def warm_up(self) -> None:
        self._invoke(["gamma", "--m", "1", "--report", "json"])


def make(name: str, workdir: str, src: str, in_process: bool = False):
    if name == "tbg_stream":
        return TbgStream()
    if name == "fluct_chain":
        return FluctChain()
    if name == "sm_point":
        return SmPoint()
    if name == "cli_mix":
        return CliMix(workdir, src, in_process)
    raise ValueError(f"unknown workload {name!r}")
