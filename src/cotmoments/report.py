"""Verification report records shared by the table checks, the identity
suites, and the CLI.

A report is a flat list of check records.  Exact (rational-equality) checks
record a 0/1 difference flag; numeric checks record the absolute difference,
to 3 significant digits, and the tolerance it was compared against.
Serialization is deterministic: identical inputs produce byte-identical JSON,
with any timestamp isolated in an optional metadata block.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from typing import Dict, List, NamedTuple, Optional

from mpmath import mp, mpf

__all__ = ["CheckRecord", "VerificationReport"]


class CheckRecord(NamedTuple):
    """One verified identity instance."""

    id: str
    anchor: str
    lhs: str
    rhs: str
    diff: str
    tol: str
    passed: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "diff": self.diff,
            "tol": self.tol,
            "pass": self.passed,
        }


class VerificationReport(SimpleNamespace):
    """Outcome of one verification suite (or a merge of several)."""

    suite: str
    config: Dict[str, object]
    checks: List[CheckRecord]

    def __init__(self, suite: str, config: Optional[Dict[str, object]] = None,
                 checks: Optional[List[CheckRecord]] = None) -> None:
        super().__init__(suite=suite, config={} if config is None else config,
                         checks=[] if checks is None else checks)

    def add_exact(self, id: str, anchor: str, lhs: object, rhs: object) -> bool:
        """Record an exact-equality check; diff is a 0/1 flag."""
        ok = lhs == rhs
        self.checks.append(
            CheckRecord(
                id=id,
                anchor=anchor,
                lhs=str(lhs),
                rhs=str(rhs),
                diff="0" if ok else "1",
                tol="exact",
                passed=ok,
            )
        )
        return ok

    def add_numeric(self, id: str, anchor: str, lhs, rhs, tol, fmt=None) -> bool:
        """Record a |lhs - rhs| <= tol check on high-precision values.

        `fmt` maps a value to its serialized form; defaults to str().  It
        serializes lhs, rhs and tol; diff is printed to 3 significant digits,
        since its lower digits are rounding noise that would change the body
        when no value, tolerance or verdict moves.
        """
        fmt = fmt or str
        diff = abs(lhs - rhs)
        ok = bool(diff <= tol)
        self.checks.append(
            CheckRecord(
                id=id,
                anchor=anchor,
                lhs=fmt(lhs),
                rhs=fmt(rhs),
                diff=mp.nstr(mpf(diff), 3),
                tol=fmt(tol),
                passed=ok,
            )
        )
        return ok

    def extend(self, other: "VerificationReport", prefix: str = "") -> None:
        """Fold another report's checks (and config) into this one."""
        self.checks.extend(other.checks)
        key = prefix or other.suite
        self.config[key] = dict(other.config)

    @property
    def pass_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def fail_count(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def all_passed(self) -> bool:
        return self.fail_count == 0

    def failing(self) -> List[CheckRecord]:
        return [c for c in self.checks if not c.passed]

    def as_dict(self, meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Schema: {suite, config, checks: [{id, anchor, lhs, rhs, diff, tol,
        pass}], summary: {pass, fail}} — checks sorted by id for order
        stability regardless of execution order."""
        out: Dict[str, object] = {
            "suite": self.suite,
            "config": self.config,
            "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.id)],
            "summary": {"pass": self.pass_count, "fail": self.fail_count},
        }
        if meta is not None:
            out["meta"] = meta
        return out

    def to_json(self, meta: Optional[Dict[str, object]] = None) -> str:
        return json.dumps(self.as_dict(meta), indent=2, sort_keys=True)
