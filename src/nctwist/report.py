"""Pass/fail records shared by every verification routine.

A verifier returns a :class:`Report`: an ordered list of named checks, each
carrying the measured residual and the bound it was judged against.
Reports render to one line per check (text) or to a deterministic JSON
payload.

The verdict is decided here and nowhere else, from the two numbers the
record prints: a check passes when ``residual <= tol``, and a floor record
(:meth:`Report.exceeds`) when ``residual > tol``.  A non-finite residual
fails either kind, and so does a :meth:`Report.check` whose bound overflowed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .matlin import worst


@dataclass
class CheckRecord:
    name: str
    passed: bool
    residual: float
    tol: float
    note: str = ""
    floor: bool = False

    def to_dict(self) -> dict:
        """Strict JSON form: a non-finite residual is null plus a note."""
        residual, note = float(self.residual), self.note
        if not math.isfinite(residual):
            note = "; ".join(filter(None, [note, f"residual is {residual}"]))
        d = {
            "name": self.name,
            "passed": bool(self.passed),
            "residual": _jsonable(residual),
            "tol": float(self.tol),
        }
        if note:
            d["note"] = note
        if self.floor:
            d["floor"] = True
        return d

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        kind = "floor" if self.floor else "tol"
        line = f"{status}  {self.name}  residual={self.residual:.3e} ({kind} {self.tol:.1e})"
        if self.note:
            line += f"  [{self.note}]"
        return line


@dataclass
class Report:
    title: str
    records: list[CheckRecord] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float, note: str = "") -> CheckRecord:
        """Record ``residual`` against the bound ``tol``: it passes when ``residual <= tol``."""
        return self._decide(name, residual, tol, note, floor=False)

    def exceeds(
        self, name: str, residual: float, floor: float, note: str = ""
    ) -> CheckRecord:
        """Record a lower bound: it passes when ``residual > floor``."""
        return self._decide(name, residual, floor, note, floor=True)

    def check(
        self,
        name: str,
        residual: float,
        tol,
        scale: float = 1.0,
        note: str = "",
    ) -> CheckRecord:
        """Record a residual judged by a Tolerance against a scale; a bound
        that is not finite accepts nothing."""
        bound = tol.bound(scale)
        return self._decide(name, residual, bound, note, False, math.isfinite(bound))

    def record(self, name: str, residual: float, note: str = "") -> CheckRecord:
        """Record a measured-only residual (tol inf): it fails only if non-finite."""
        return self.add(name, residual, float("inf"), note)

    def _decide(
        self, name: str, residual: float, bound: float, note: str, floor: bool, bounded=True
    ) -> CheckRecord:
        """The one verdict rule; a non-finite residual, or not ``bounded``, fails."""
        r, bound = float(residual), float(bound)
        passed = bounded and math.isfinite(r) and (r > bound if floor else r <= bound)
        rec = CheckRecord(name, passed, r, bound, note, floor)
        self.records.append(rec)
        return rec

    def merge(self, other: "Report", prefix: str = "") -> None:
        """Append ``other``'s records, each with its name prefixed, and its info."""
        self.records += [
            CheckRecord(f"{prefix}{r.name}", r.passed, r.residual, r.tol, r.note, r.floor)
            for r in other.records
        ]
        for key, val in other.info.items():
            self.info.setdefault(key, val)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def max_residual(self) -> float:
        return worst(r.residual for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_dict(self) -> dict:
        d = {
            "title": self.title,
            "ok": self.ok,
            "checks": [r.to_dict() for r in self.records],
        }
        if self.info:
            d["info"] = _jsonable(self.info)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def format_text(self) -> str:
        lines = [self.title]
        lines += ["  " + r.format_line() for r in self.records]
        verdict = "OK" if self.ok else "FAILED"
        lines.append(f"  => {verdict} ({len(self.records)} checks)")
        return "\n".join(lines)


def _jsonable(value):
    """Recursively coerce numpy values for JSON; a non-finite float is null."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonable(float(value.real)), _jsonable(float(value.imag))]
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    return value
