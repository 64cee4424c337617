"""Pass/fail records shared by every verification routine.

A verifier returns a :class:`Report`: an ordered list of named checks, each
carrying the measured residual and the tolerance it was judged against.
Reports render to one line per check (text) or to a deterministic JSON
payload.
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
        return d

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status}  {self.name}  residual={self.residual:.3e} (tol {self.tol:.1e})"
        if self.note:
            line += f"  [{self.note}]"
        return line


@dataclass
class Report:
    title: str
    records: list[CheckRecord] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def add(
        self,
        name: str,
        passed: bool,
        residual: float = 0.0,
        tol: float = 0.0,
        note: str = "",
    ) -> CheckRecord:
        """Record a verdict; a non-finite residual fails whatever it says."""
        residual = float(residual)
        passed = bool(passed) and math.isfinite(residual)
        rec = CheckRecord(name, passed, residual, float(tol), note)
        self.records.append(rec)
        return rec

    def check(
        self,
        name: str,
        residual: float,
        tol,
        scale: float = 1.0,
        note: str = "",
    ) -> CheckRecord:
        """Record a residual judged by a Tolerance against a scale."""
        bound = tol.bound(scale)
        return self.add(name, residual <= bound, residual, bound, note)

    def record(self, name: str, residual: float, note: str = "") -> CheckRecord:
        """Record a measured-only residual (tol inf): it fails only if non-finite."""
        return self.add(name, True, residual, float("inf"), note)

    def merge(self, other: "Report", prefix: str = "") -> None:
        for rec in other.records:
            name = f"{prefix}{rec.name}" if prefix else rec.name
            self.records.append(
                CheckRecord(name, rec.passed, rec.residual, rec.tol, rec.note)
            )
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
