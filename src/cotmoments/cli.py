"""Command-line front end.

Subcommands: ``moments`` (compute C(m) by one or more routes), ``tables``
(dump the exact t/H triangles), ``verify`` (run identity suites, emit a JSON
report), ``constants`` (print pi/log2/eta/zeta values).

Configuration precedence: flags > COTMOMENTS_DIGITS environment variable >
--config JSON file > built-in defaults (50 digits, N = 10^5, tol =
10^-(digits-10)).  A command parses and checks only the settings it reads,
from any source.  Reports go to --out or stdout; progress and failures go
to stderr so stdout stays machine-clean.

Exit codes: 0 all good, 1 identity/route disagreement, 2 usage error
(an --out path that cannot be written is one; it is opened before the
command runs, so that error comes before any work).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from mpmath import mp, mpf

from . import cfn
from .hpreal import (_DEFAULT_DIGITS, _DEFAULT_N, MIN_DIGITS, Evaluation, _closed_form_tolerance,
                     _tolerance, _working, eta, log2, pi, to_digits, zeta)
from .moments import (
    ROUTES,
    SUITES,
    _ROUTE_ALIASES,
    _require_suite_n,
    compute_moment,
    run_suite,
)
from .quadrature import QuadratureError
from .report import VerificationReport

__all__ = ["RunConfig", "main"]

ENV_DIGITS = "COTMOMENTS_DIGITS"

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_USAGE = 2

_ETA_M_MAX = 40
_SERIES_M_MAX = 12
_TABLE_MAX = 200
_FORMATS = ("json", "csv", "text")
_SETTINGS = ("digits", "n", "tol", "format")  # each command checks those it reads


class UsageError(Exception):
    pass


class RunConfig(SimpleNamespace):
    """Effective run configuration after merging all sources."""

    digits: int
    n: int
    tol: Optional[str]     # None -> 10^-(digits-10)
    format: Optional[str]  # per-command default
    out: Optional[str]

    def __init__(self, digits: int = _DEFAULT_DIGITS, n: int = _DEFAULT_N,
                 tol: Optional[str] = None, format: Optional[str] = None,
                 out: Optional[str] = None) -> None:
        super().__init__(digits=digits, n=n, tol=tol, format=format, out=out)

    def validate(self, reads: Sequence[str]) -> None:
        """Refuse a bad value of each setting in reads, those the command
        reads; out is checked by opening it."""
        if "digits" in reads and self.digits < MIN_DIGITS:
            raise UsageError(f"--digits must be >= {MIN_DIGITS}, got {self.digits}")
        if "n" in reads and self.n < 10:
            raise UsageError(f"--n must be >= 10, got {self.n}")
        if "tol" in reads and self.tol is not None:
            try:
                _tolerance(self.digits, self.tol)  # the library's own rule
            except (TypeError, ValueError) as exc:
                raise UsageError(
                    f"--tol must be a positive finite number, got {self.tol!r}") from exc
        if "format" in reads and self.format is not None and self.format not in _FORMATS:
            raise UsageError(f"--format must be one of {', '.join(_FORMATS)},"
                             f" got {self.format!r}")


def _load_config_file(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return data


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        data = _load_config_file(args.config)
        for key in ("digits", "n"):
            if key in data and key in args.reads:
                value = data[key]
                try:
                    # int() would read true as 1 and cut 30.7 to 30; 1e5 loads
                    fractional = isinstance(value, float) and not value.is_integer()
                    if isinstance(value, bool) or fractional:
                        raise TypeError
                    setattr(cfg, key, int(value))
                except (TypeError, ValueError):
                    raise UsageError(f"config key {key!r} must be an integer,"
                                     f" got {data[key]!r}") from None
        for key in ("tol", "format", "out"):
            if key in data and data[key] is not None:
                setattr(cfg, key, str(data[key]))
    env_digits = os.environ.get(ENV_DIGITS)
    if env_digits and "digits" in args.reads:
        try:
            cfg.digits = int(env_digits)
        except ValueError:
            raise UsageError(f"{ENV_DIGITS} must be an integer, got {env_digits!r}")
    for key in ("digits", "n", "tol", "format", "out"):
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    cfg.validate(args.reads)
    return cfg


@contextmanager
def _output(out: Optional[str]) -> Iterator[TextIO]:
    """The stream for a command's output: stdout, or the file out.  Like a
    shell redirection, the file is opened before the command runs, so a path
    that cannot be written fails before any work is done."""
    if not out:
        yield sys.stdout
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _emit(text: str, stream: TextIO) -> None:
    stream.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _parse_m_spec(spec: str) -> List[int]:
    """'3' | '1..4' | '1,2,5' -> list of m values."""
    values: List[int] = []
    for piece in spec.split(","):
        piece = piece.strip()
        match = _RANGE_RE.match(piece)
        if match:
            lo, hi = int(match.group(1)), int(match.group(2))
            if lo > hi:
                raise UsageError(f"empty range {piece!r} in --m")
            if hi > _ETA_M_MAX:  # checked before the range is expanded
                raise UsageError(
                    f"--m values must satisfy 1 <= m <= {_ETA_M_MAX}, got {hi}")
            values.extend(range(lo, hi + 1))
        elif piece.isdigit():
            values.append(int(piece))
        else:
            raise UsageError(f"cannot parse --m piece {piece!r} (use e.g. 3, 1..4, 1,2,5)")
    if not values:
        raise UsageError("--m selected no moments")
    return values


def _parse_routes(spec: str) -> List[str]:
    routes: List[str] = []
    for piece in spec.split(","):
        canonical = _ROUTE_ALIASES.get(piece.strip())
        if canonical is None:
            raise UsageError(f"unknown route {piece.strip()!r}; pick from {ROUTES}")
        if canonical not in routes:
            routes.append(canonical)
    return routes


def _route_bound(mv: Evaluation, P: int) -> mpf:
    if mv.error_bound is not None:
        return mv.error_bound
    return _closed_form_tolerance(P)


def _certified_digits(mv: Evaluation, P: int) -> int:
    """Significant digits that the route's absolute error bound B certifies:
    max(1, floor(log10(|value| / B))), capped at P, so B stays below one
    unit of the last digit shown.  The closed form (no bound, a few ulps
    relative) keeps P."""
    if mv.error_bound is None:
        return P
    return min(P, max(1, int(mp.floor(mp.log10(abs(mv.value) / mv.error_bound)))))


def cmd_moments(args: argparse.Namespace, cfg: RunConfig, stream: TextIO) -> int:
    m_values = _parse_m_spec(args.m)
    routes = _parse_routes(args.route)
    P = cfg.digits
    for m in m_values:
        if m < 1 or m > _ETA_M_MAX:
            raise UsageError(f"--m values must satisfy 1 <= m <= {_ETA_M_MAX}, got {m}")
        if m > _SERIES_M_MAX and any(r in ("cfn-series", "nested-series") for r in routes):
            raise UsageError(
                f"series routes are limited to m <= {_SERIES_M_MAX} (got m={m});"
                " use the eta or quadrature route")
    # deepest first: the series routes' cached sweeps then serve every
    # shallower m instead of sweeping again at each new depth
    computed: Dict[Tuple[int, str], Evaluation] = {}
    for m in sorted(set(m_values), reverse=True):
        for route in routes:
            computed[m, route] = compute_moment(m, P, route, N=cfg.n, tol=cfg.tol)
    rows = [computed[m, route] for m in m_values for route in routes]

    disagreements: List[str] = []
    with _working(P):
        tol_text = mp.nstr(_tolerance(P, cfg.tol), 5)
        shown = [to_digits(mv.value, _certified_digits(mv, P)) for mv in rows]
        by_m: Dict[int, List[Evaluation]] = {}
        for mv in rows:
            by_m.setdefault(mv.index, []).append(mv)
        for m, group in by_m.items():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    a, b = group[i], group[j]
                    gap = abs(a.value - b.value)
                    allowed = _route_bound(a, P) + _route_bound(b, P)
                    if gap > allowed:
                        disagreements.append(
                            f"C({m}): {a.name} vs {b.name} differ by "
                            f"{mp.nstr(gap, 5)} > combined bound {mp.nstr(allowed, 5)}")

    fmt = cfg.format or "text"
    if fmt == "json":
        payload = {
            "command": "moments",
            "config": {"digits": P, "n": cfg.n, "tol": tol_text},
            "rows": [
                {
                    "m": mv.index,
                    "route": mv.name,
                    "value": value,
                    "truncation": mv.truncation,
                    "error_bound": None if mv.error_bound is None
                    else mp.nstr(mv.error_bound, 8),
                }
                for mv, value in zip(rows, shown)
            ],
            "disagreements": disagreements,
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), stream)
    elif fmt == "csv":
        lines = ["m,route,value,truncation,error_bound"]
        for mv, value in zip(rows, shown):
            bound = "" if mv.error_bound is None else mp.nstr(mv.error_bound, 8)
            trunc = "" if mv.truncation is None else str(mv.truncation)
            lines.append(f"{mv.index},{mv.name},{value},{trunc},{bound}")
        _emit("\n".join(lines), stream)
    else:
        lines = []
        for mv, value in zip(rows, shown):
            extras = []
            if mv.truncation is not None:
                extras.append(f"N={mv.truncation}")
            if mv.error_bound is not None:
                extras.append(f"bound={mp.nstr(mv.error_bound, 8)}")
            suffix = f"  ({', '.join(extras)})" if extras else ""
            lines.append(f"C({mv.index})  {mv.name:<16} {value}{suffix}")
        _emit("\n".join(lines), stream)

    if disagreements:
        for line in disagreements:
            print(f"[moments] DISAGREEMENT {line}", file=sys.stderr)
        return _EXIT_FAIL
    return _EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def cmd_tables(args: argparse.Namespace, cfg: RunConfig, stream: TextIO) -> int:
    which = args.which
    kmax, nmax = args.kmax, args.nmax
    if not 0 <= kmax <= nmax <= _TABLE_MAX:
        raise UsageError(
            f"need 0 <= kmax <= nmax <= {_TABLE_MAX}, got kmax={kmax}, nmax={nmax}")
    table = cfn._BUILDERS[which](kmax, nmax)
    fmt = cfg.format or "csv"
    if fmt == "json":
        _emit(cfn.table_to_json(table), stream)
    elif fmt == "csv":
        _emit(cfn.table_to_csv(table), stream)
    else:
        lines = [f"{which}(k, n) for 0 <= k <= {kmax}, 0 <= n <= {nmax}"]
        for k in range(kmax + 1):
            entries = ", ".join(str(v) for v in table.row(k))
            lines.append(f"k={k}: {entries}")
        _emit("\n".join(lines), stream)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace, cfg: RunConfig, stream: TextIO) -> int:
    suite = args.suite
    P, N = cfg.digits, cfg.n
    tol = cfg.tol  # None or a string: the suites take it at their own precision
    try:
        _require_suite_n(suite, N)  # before the first suite, not after five
    except ValueError as exc:
        raise UsageError(f"--n is too small: {exc}") from exc
    if suite == "all":
        report = VerificationReport("all", config={"digits": P, "N": N})
        for sub in SUITES[1:]:  # SUITES[0] is "all"
            print(f"[verify] running {sub} ...", file=sys.stderr)
            part = run_suite(sub, P, N, tol)
            print(f"[verify]   {sub}: {part.pass_count} passed,"
                  f" {part.fail_count} failed", file=sys.stderr)
            report.extend(part, prefix=sub)
    else:
        print(f"[verify] running {suite} ...", file=sys.stderr)
        report = run_suite(suite, P, N, tol)
    meta = {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    _emit(report.to_json(meta=meta), stream)
    print(f"[verify] {report.suite}: {report.pass_count} passed,"
          f" {report.fail_count} failed", file=sys.stderr)
    if not report.all_passed:
        for rec in report.failing():
            print(f"[verify] FAIL {rec.id}: |{rec.lhs} - {rec.rhs}|"
                  f" = {rec.diff} > {rec.tol}", file=sys.stderr)
        return _EXIT_FAIL
    return _EXIT_OK


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

_CONST_RE = re.compile(r"^(eta|zeta)([0-9]+)$")


def _constant_value(name: str, P: int) -> mpf:
    if name == "pi":
        return pi(P)
    if name == "log2":
        return log2(P)
    match = _CONST_RE.match(name)
    if match:
        return (eta if match.group(1) == "eta" else zeta)(int(match.group(2)), P)
    raise UsageError(
        f"unknown constant {name!r}; use pi, log2, eta<s> or zeta<s>")


def cmd_constants(args: argparse.Namespace, cfg: RunConfig, stream: TextIO) -> int:
    lines = []
    for name in args.names:
        value = _constant_value(name, cfg.digits)
        lines.append(f"{name} {to_digits(value, cfg.digits)}")
    _emit("\n".join(lines), stream)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", "-d", type=int, default=None,
                        help=f"working precision in decimal digits (default {_DEFAULT_DIGITS};"
                             f" env {ENV_DIGITS})")
    common.add_argument("--n", type=int, default=None,
                        help=f"series truncation cutoff (default {_DEFAULT_N})")
    common.add_argument("--tol", type=str, default=None,
                        help="quadrature tolerance (default 10^-(digits-10))")
    common.add_argument("--format", choices=_FORMATS, default=None,
                        help="output format (moments/tables default text/csv;"
                             " verify always emits JSON)")
    common.add_argument("--out", type=str, default=None,
                        help="write output to this file instead of stdout")
    common.add_argument("--config", type=str, default=None,
                        help="JSON file with default settings"
                             " (keys: digits, n, tol, format, out)")

    parser = argparse.ArgumentParser(
        prog="cotmoments",
        description="Moments of the half-angle cotangent: multi-route"
                    " computation, exact tables, and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_m = sub.add_parser("moments", parents=[common],
                         help="compute C(m) by one or more routes")
    p_m.add_argument("--m", required=True,
                     help="moment selection: 3, 1..4, or 1,2,5")
    p_m.add_argument("--route", default="eta",
                     help="comma-separated routes: eta, cfn, nested, quadrature")
    p_m.set_defaults(func=cmd_moments, reads=_SETTINGS)

    p_t = sub.add_parser("tables", parents=[common],
                         help="dump an exact triangle as CSV/JSON/text")
    p_t.add_argument("--which", required=True, choices=tuple(cfn._BUILDERS),
                     help="which triangle: t0, t1, h0, h1")
    p_t.add_argument("--kmax", type=int, default=5)
    p_t.add_argument("--nmax", type=int, default=5)
    p_t.set_defaults(func=cmd_tables, reads=("format",))

    p_v = sub.add_parser("verify", parents=[common],
                         help="run a verification suite and emit a JSON report")
    p_v.add_argument("--suite", default="all", choices=SUITES)
    p_v.set_defaults(func=cmd_verify, reads=_SETTINGS)

    p_c = sub.add_parser("constants", parents=[common],
                         help="print constants (pi, log2, eta<s>, zeta<s>)")
    p_c.add_argument("names", nargs="+",
                     help="constant names, e.g. pi log2 eta3 zeta5")
    p_c.set_defaults(func=cmd_constants, reads=("digits",))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        with _output(cfg.out) as stream:
            return args.func(args, cfg, stream)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except QuadratureError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return _EXIT_FAIL
    except ValueError as exc:
        # domain preconditions surface as usage errors at the CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
