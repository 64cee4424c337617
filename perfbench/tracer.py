"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the ``nctwist`` modules for the length
of one traced pass and restores the originals afterwards.  Nothing under
``src/`` is changed: wrappers replace module attributes (every module that
imported the function by name) and class attributes (methods).

Each wrapped call records a span ``(name, start, end, parent, op)``; spans
stay in memory and are written out once the run ends.  A span's self time is
its duration minus the time covered by its child spans.  Counters are kept
at the same call points.
"""

from __future__ import annotations

import gzip
import importlib
import json
import pkgutil
import time
from collections import defaultdict


def _generator_count(alg) -> int:
    return len(alg.generators())


def _lean_count(tg, gens) -> int:
    if gens is not None:
        return len(gens)
    from nctwist.sm import lean_generators

    return len(lean_generators(tg.algebra))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Pair kernels: the number of generator pairs one call evaluates (G^2).
_PAIRS = {
    "algebra.rep_check": lambda a, k: _generator_count(a[0].algebra) ** 2,
    "twist.check_regular": lambda a, k: _generator_count(_arg(a, k, 1, "g").algebra) ** 2,
    "twist.first_order": lambda a, k: _generator_count(_arg(a, k, 0, "tg").algebra) ** 2,
    "twist.verify": lambda a, k: _generator_count(_arg(a, k, 0, "tg").algebra) ** 2,
    "triple.verify": lambda a, k: _generator_count(_arg(a, k, 0, "g").algebra) ** 2,
    "sm.order_zero": lambda a, k: _lean_count(_arg(a, k, 0, "tg"), _arg(a, k, 1, "gens")) ** 2,
    "sm.first_order": lambda a, k: _lean_count(_arg(a, k, 0, "tg"), _arg(a, k, 2, "gens")) ** 2,
}

# (module, attribute, span name); "Class.method" patches a class attribute.
_SPANS = [
    ("algebra", "Representation.__call__", "algebra.pi"),
    ("algebra", "Representation.check", "algebra.rep_check"),
    ("matlin", "nullspace", "matlin.nullspace"),
    ("matlin", "residual_against_span", "matlin.span"),
    ("twist", "check_regular", "twist.check_regular"),
    ("twist", "verify_twisted_first_order", "twist.first_order"),
    ("twist", "verify_twisted", "twist.verify"),
    ("triple", "verify_spectral_triple", "triple.verify"),
    ("triple", "measure_ko_signs", "triple.signs"),
    ("sm", "sm_first_order_residuals", "sm.first_order"),
    ("sm", "sm_order_zero_residual", "sm.order_zero"),
    ("sm", "twisted_sm_geometry", "sm.build"),
    ("clifford", "charge_conjugation", "clifford.charge_conjugation"),
    ("mintwist", "twist_by_grading", "mintwist.twist_by_grading"),
    ("mintwist", "uniqueness_engine", "mintwist.uniqueness"),
    ("mintwist", "free_dirac_pointwise", "mintwist.free_dirac"),
    ("fluct", "eval_one_form", "fluct.eval_one_form"),
    ("fluct", "verify_fluctuated", "fluct.verify_fluctuated"),
    ("fluct", "compose_fluctuations", "fluct.compose"),
    ("serialize", "load_json", "serialize.load"),
    ("report", "Report.to_json", "report.to_json"),
    ("cli", "main", "cli.main"),
]

# Hot helpers that are only counted: a span each would dominate the trace.
_COUNTS = [
    ("matlin", "kron", "matlin.kron"),
    ("matlin", "AntilinearOperator.conjugate", "matlin.conjugate"),
]


def _element_key(elem) -> tuple:
    return tuple(
        v.tobytes() if hasattr(v, "tobytes") else complex(v).__repr__() for v in elem
    )


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._child: list[float] = []
        self._stack: list[int] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.pairs = 0
        self.nullspace_elems = 0
        self._pi_reps: dict = {}
        self._pi_keys: set = set()
        self.op = -1
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _before(self, name, args, kwargs) -> None:
        pairs = _PAIRS.get(name)
        if pairs is not None:
            self.pairs += pairs(args, kwargs)
        if name == "algebra.pi":
            rep = args[0]
            self._pi_reps[id(rep)] = rep  # keeps ids unique for the pass
            self._pi_keys.add((id(rep), _element_key(args[1])))
        elif name == "matlin.nullspace":
            shape = getattr(args[0], "shape", ())
            if len(shape) == 2:
                self.nullspace_elems += shape[0] * shape[1]

    def _span_wrapper(self, name, fn):
        spans, child, stack = self.spans, self._child, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._before(name, args, kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[idx] = (name, t0, t1, parent, self.op)
                if parent >= 0:
                    child[parent] += dur
                self.total[name] += dur
                self.self_time[name] += dur - child[idx]
                self.counts[name] += 1

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap the functions; ``extra_modules`` also imported them by name."""
        import nctwist

        modules = [nctwist, *extra_modules] + [
            importlib.import_module(f"nctwist.{m.name}")
            for m in pkgutil.iter_modules(nctwist.__path__)
        ]
        for table, make in ((_SPANS, self._span_wrapper), (_COUNTS, self._count_wrapper)):
            for modname, attr, name in table:
                module = importlib.import_module(f"nctwist.{modname}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._patched.append((cls, meth, orig))
                    setattr(cls, meth, make(name, orig))
                    continue
                orig = getattr(module, attr)
                wrapped = make(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, key, orig))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals over the traced pass, keyed by metric name."""
        t, s, c = self.total, self.self_time, self.counts
        pi_calls = c["algebra.pi"]
        return {
            "algebra.pi_calls": (pi_calls, "count"),
            "algebra.pi_self_s": (s["algebra.pi"], "s"),
            "algebra.pi_distinct_frac": (
                len(self._pi_keys) / pi_calls if pi_calls else 0.0,
                "ratio",
            ),
            "algebra.rep_check_s": (t["algebra.rep_check"], "s"),
            "matlin.kron_calls": (c["matlin.kron"], "count"),
            "matlin.conjugate_calls": (c["matlin.conjugate"], "count"),
            "twist.check_regular_s": (t["twist.check_regular"], "s"),
            "twist.first_order_s": (t["twist.first_order"], "s"),
            "twist.verify_self_s": (s["twist.verify"], "s"),
            "twist.pairs": (self.pairs, "count"),
            "triple.verify_s": (t["triple.verify"], "s"),
            "triple.signs_s": (t["triple.signs"], "s"),
            "sm.first_order_s": (t["sm.first_order"], "s"),
            "sm.order_zero_s": (t["sm.order_zero"], "s"),
            "sm.build_s": (t["sm.build"], "s"),
            "matlin.nullspace_calls": (c["matlin.nullspace"], "count"),
            "matlin.nullspace_s": (t["matlin.nullspace"], "s"),
            "matlin.nullspace_elems": (self.nullspace_elems, "count"),
            "matlin.span_s": (t["matlin.span"], "s"),
            "clifford.charge_conjugation_calls": (c["clifford.charge_conjugation"], "count"),
            "clifford.charge_conjugation_s": (t["clifford.charge_conjugation"], "s"),
            "mintwist.twist_by_grading_s": (t["mintwist.twist_by_grading"], "s"),
            "mintwist.uniqueness_s": (t["mintwist.uniqueness"], "s"),
            "mintwist.free_dirac_s": (t["mintwist.free_dirac"], "s"),
            "fluct.eval_one_form_s": (t["fluct.eval_one_form"], "s"),
            "fluct.verify_fluctuated_self_s": (s["fluct.verify_fluctuated"], "s"),
            "fluct.compose_s": (t["fluct.compose"], "s"),
            "serialize.load_s": (t["serialize.load"], "s"),
            "report.to_json_s": (t["report.to_json"], "s"),
            "cli.main_self_s": (s["cli.main"], "s"),
        }

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
