"""Benchmark for cotmoments: three workloads, each run in fresh child processes.

Usage (from the repository root):

    python3 bench/run.py --workload verify-cli --seed 1 --seconds 30 --trace 0

Workloads
  verify-cli     ``cotmoments verify --suite all --digits 40`` run cold through
                 ``cli.main``, as every CLI invocation is.  The 2-D consequence
                 integrals dominate it.  Its inputs are fixed; the seed only
                 names the report file.
  series-sweep   ``c_cfn_route`` and ``c_nested_route`` for m = 1..6 at P = 50,
                 N = 2*10^5: fixed-point integer sweeps, no quadrature.  Inputs
                 are fixed.
  session-mixed  one client sends a closed-loop stream of library requests
                 generated from the seed (see session.py).  The only workload
                 whose caches get hits beside fills.

A run repeats the same inputs in fresh children for --seconds, after one
untimed warm-up import and SETUP_PROBES import-only children.  End-to-end
metrics:
  wall_s       time to the checked result after set-up: the sum, over
               units of work (each request; for the CLI, each stretch
               between two of its progress lines), of each unit's median
               time across the run's children.
  setup_s      spawn to ``import cotmoments, cotmoments.cli`` done; median
               of the probes and the children.
  peak_rss_mb  median of the children's own peak RSS.
CPU speed on a shared host drifts by tens of percent within seconds, and
alike for every kernel, so both times are in reference seconds (see
refclock.py): each stretch of work is scaled by how long a fixed reference
kernel, run beside it, took; the traced run's spans use the same clock.
The plain wall times and the host's speed factor (median reference time /
nominal) are printed as well.
Request latency percentiles and the failure ratio are printed as well.
Every output is checked against oracle.py (mpmath and exact arithmetic, no
package code); verify reports must also match the frozen report body in
frozen/.  With --trace 1 every child runs twice on the same inputs, untraced
then traced (spans.py), and the run prints the per-layer metrics and
trace.overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import mpmath
from mpmath import mp, mpf

import session
from oracle import ORACLE_GUARD, Oracle, closed_form_bound, default_tolerance, gap_over_bound
from refclock import REFERENCE_S, reference_sample

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
FROZEN_REPORT = BENCH / "frozen" / "verify-all-d40.json"

WORKLOADS = ("verify-cli", "series-sweep", "session-mixed")
ROUTES = ("eta-closed-form", "cfn-series", "nested-series", "quadrature")
ROUTE_OF = {"eta": "eta-closed-form", "cfn": "cfn-series", "nested": "nested-series",
            "quadrature": "quadrature", "c_cfn_route": "cfn-series",
            "c_nested_route": "nested-series"}
SUITES = ("tables", "closed-forms", "consequences", "gf", "routes", "h-reduction")

VERIFY_DIGITS = 40
SWEEP_P = 50
SWEEP_N = 200000
SWEEP_M = range(1, 7)
SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0



class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit_medians(children: List[dict]) -> Optional[List[float]]:
    """Each unit's median time across children that ran the same units;
    None when their units do not line up (a child's CLI output differed)."""
    if len({json.dumps(o.get("unit_labels")) for o in children}) != 1 or \
            len({len(o["units"]) for o in children}) != 1:
        return None
    return [statistics.median(times) for times in zip(*(o["units"] for o in children))]


def robust_wall(children: List[dict]) -> float:
    units = unit_medians(children)
    return sum(units) if units else statistics.median(o["wall_s"] for o in children)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

def workload_spec(workload: str, seed: int, index: int, tag: str) -> dict:
    if workload == "verify-cli":
        report = OUT / f"verify-{tag}-{index}.json"
        return {"workload": workload, "report": str(report),
                "argv": ["verify", "--suite", "all", "--digits", str(VERIFY_DIGITS),
                         "--out", str(report)]}
    if workload == "series-sweep":
        return {"workload": workload,
                "requests": [{"kind": kind, "m": m, "P": SWEEP_P, "N": SWEEP_N}
                             for kind in ("c_cfn_route", "c_nested_route")
                             for m in SWEEP_M]}
    return {"workload": workload, "requests": session.generate(seed)}


def workload_parameters(workload: str) -> dict:
    if workload == "verify-cli":
        return {"argv": "verify --suite all --digits 40", "checks_frozen": "verify-all-d40"}
    if workload == "series-sweep":
        return {"routes": ["c_cfn_route", "c_nested_route"], "m": [1, 6],
                "P": SWEEP_P, "N": SWEEP_N}
    return {"requests_per_session": len(session.generate(0)),
            "P_choices": list(session.P_CHOICES), "series_N": session.SERIES_N,
            "eta_s_max": session.ETA_M_MAX + 1, "eta_m": session.ETA_M, "cfn_m": session.CFN_M, "nested_m": session.NESTED_M,
            "table_max": session.TABLE_MAX, "table_rows": session.TABLE_ROWS}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def run_child(spec: dict, tag: str, deadline: float) -> dict:
    spec_path = OUT / f"spec-{tag}.json"
    out_path = OUT / f"child-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    if out_path.exists():
        out_path.unlink()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = reference_sample()
    spawned = now()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path),
                               str(out_path)], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired:
        return {"error": "child timed out"}
    finally:
        spec_path.unlink()
    if proc.returncode != 0 or not out_path.exists():
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return {"error": f"child exited {proc.returncode}: {' | '.join(tail)}"}
    out = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    out["raw_setup_s"] = out["ready"] - spawned
    # the child takes its first reference sample right after its imports
    out["setup_s"] = out["raw_setup_s"] * REFERENCE_S / ((before + out["ref_samples"][0]) / 2)
    return out


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

class Checker:
    """Counts operations and failures and tracks each route's worst
    |value - oracle| / claimed bound."""

    def __init__(self) -> None:
        self.oracle = Oracle()
        self.attempted = 0
        self.failed = 0
        self.gap_max = {route: 0.0 for route in ROUTES}
        self.errors: List[str] = []
        self.new_check_ids: set = set()
        self._frozen: Optional[Dict[str, dict]] = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    def _gap(self, route: str, value: str, ref: mpf, bound: Optional[str], P: int) -> bool:
        ratio = gap_over_bound(value, ref, bound, P)
        self.gap_max[route] = max(self.gap_max[route], ratio)
        return ratio <= 1

    def requests(self, spec: dict, out: dict) -> None:
        reqs = spec["requests"]
        results = out.get("results", [])
        for i, req in enumerate(reqs):
            self.attempted += 1
            res = results[i] if i < len(results) else {"error": "missing result"}
            if "error" in res:
                self.fail(f"{req}: {res['error']}")
            elif not self._request_ok(req, res):
                self.fail(f"{req}: result {res} misses the oracle")

    def _request_ok(self, req: dict, res: dict) -> bool:
        kind = req["kind"]
        if kind.startswith("build_"):
            return res["digest"] == self.oracle.table_digest(kind[6:], req["kmax"], req["nmax"])
        P = req["P"]
        if kind in ("eta", "zeta"):
            return gap_over_bound(res["value"], self.oracle.constant(kind, req["s"], P),
                                  None, P) <= 1
        if kind in ("kernel_k0", "kernel_k1"):
            with mp.workdps(P + ORACLE_GUARD):
                tol = mp.nstr(default_tolerance(P), 5)
            return gap_over_bound(res["value"], self.oracle.kernel(kind[7:], req["z"], P),
                                  tol, P) <= 1
        route = ROUTE_OF[req.get("route", kind)]
        return self._gap(route, res["value"], self.oracle.moment(req["m"], P),
                         res["bound"], P)

    def verify_report(self, spec: dict, out: dict) -> None:
        """Body check against the frozen report, plus oracle checks of the
        route and consequence values it contains."""
        if self._frozen is None:
            body = json.loads(FROZEN_REPORT.read_text(encoding="utf-8"))
            self._frozen = {c["id"]: c for c in body["checks"]}
        frozen = self._frozen
        path = Path(spec["report"])
        if not path.exists():
            self.attempted += len(frozen)
            self.fail(f"verify exited {out.get('rc')} without a report", len(frozen))
            return
        checks = {c["id"]: c for c in json.loads(path.read_text(encoding="utf-8"))["checks"]}
        path.unlink()
        failed_before = self.failed
        for cid in frozen.keys() - checks.keys():
            self.attempted += 1
            self.fail(f"{cid}: missing from the report")
        for cid, check in checks.items():
            self.attempted += 1
            ref = frozen.get(cid)
            if ref is None:
                self.new_check_ids.add(cid)
            problem = self._check_problem(check, ref)
            if problem:
                self.fail(f"{cid}: {problem}")
        if out.get("rc") != 0 and self.failed == failed_before:
            self.attempted += 1
            self.fail(f"verify exited {out.get('rc')} although every check passed")

    def _check_problem(self, check: dict, ref: Optional[dict]) -> Optional[str]:
        if not check["pass"]:
            return "fails"
        if ref is None:
            return None
        P = VERIFY_DIGITS
        with mp.workdps(P + ORACLE_GUARD):
            if ref["tol"] == "exact":
                if (check["lhs"], check["rhs"]) != (ref["lhs"], ref["rhs"]):
                    return "exact values changed"
            else:
                tol = mpf(ref["tol"])
                for side in ("lhs", "rhs"):
                    if abs(mpf(check[side]) - mpf(ref[side])) > tol:
                        return f"{side} moved by more than tol {ref['tol']}"
            route = re.fullmatch(r"route-(quadrature|cfn|nested)/m=(\d+)", check["id"])
            if route:
                m = int(route.group(2))
                ref_c = self.oracle.moment(m, P)
                if not self._gap("eta-closed-form", check["rhs"], ref_c, None, P):
                    return "closed form misses the oracle"
                kind = ROUTE_OF[route.group(1)]
                claimed = (mp.nstr(default_tolerance(P), 5) if kind == "quadrature"
                           else check["tol"])
                if not self._gap(kind, check["lhs"], ref_c, claimed, P):
                    return f"{kind} value misses the oracle by more than its bound"
            consequence = re.fullmatch(r"consequence-([1-4])/.*-vs-closed", check["id"])
            if consequence:
                closed = self._consequence(int(consequence.group(1)), P)
                if abs(mpf(check["rhs"]) - closed) > closed_form_bound(P):
                    return "closed form misses the oracle"
        return None

    def _consequence(self, i: int, P: int) -> mpf:
        lg2 = self.oracle.constant("eta", 1, P)
        e3 = self.oracle.constant("eta", 3, P)
        e5 = self.oracle.constant("eta", 5, P)
        pi = mp.pi
        return {1: pi / 2 * lg2,
                2: pi ** 3 / 24 * lg2 + pi / 8 * e3,
                3: pi ** 2 / 2 * lg2 - mpf(7) / 3 * e3,
                4: -pi ** 4 / 24 * lg2 - pi ** 2 / 9 * e3 + mpf(31) / 15 * e5}[i]


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

SERIES_CLOSED = ("r_odd", "r_even", "r_via_partitions", "a0", "a1", "a0_via_recurrence",
                 "a1_via_recurrence", "euler_binomial_vanishing")
REPORT_ADDS = ("report.VerificationReport.add", "report.VerificationReport.add_exact",
               "report.VerificationReport.add_numeric")


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i])
        total_s[name] = total_s.get(name, 0.0) + (end - start)

    def infos(name: str) -> list:
        return [s[4] for s in spans if s[0] == name]

    def self_of(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def self_prefix(prefix: str) -> float:
        return sum(v for n, v in self_s.items() if n.startswith(prefix))

    q1 = infos("quadrature.integrate_1d")
    eta_keys = [tuple(k) for k in infos("hpreal.eta")]
    eta_repeats = len(eta_keys) - len(set(eta_keys))
    q1_self = self_of("quadrature.integrate_1d")
    q1_evals = sum(i[0] for i in q1)
    m = {
        "quadrature.integrate_2d_iterated.self_s": self_of("quadrature.integrate_2d_iterated"),
        "quadrature.integrate_2d_iterated.evals":
            sum(i[0] for i in infos("quadrature.integrate_2d_iterated")),
        "quadrature.integrate_1d.calls": len(q1),
        "quadrature.integrate_1d.self_s": q1_self,
        "quadrature.integrate_1d.evals": q1_evals,
        "quadrature.integrate_1d.levels_max": max((i[1] for i in q1), default=0),
        "quadrature.evals_per_s": q1_evals / q1_self if q1_self else 0.0,
        "moments.c_cfn_route.self_s": self_of("moments.c_cfn_route"),
        "moments.c_cfn_route.terms": sum(infos("moments.c_cfn_route")),
        "series.s_odd.self_s": self_of("series.s_odd"),
        "series.s_even.self_s": self_of("series.s_even"),
        "series.nested_tail_sums.self_s": self_of("series.nested_tail_sums"),
        "moments.c_nested_route.self_s": self_of("moments.c_nested_route"),
        "hpreal.eta.calls": len(eta_keys),
        "hpreal.eta.self_s": self_of("hpreal.eta"),
        "hpreal.eta.key_reuse": eta_repeats / len(eta_keys) if eta_keys else 0.0,
        "moments.c_eta_route.self_s": self_of("moments.c_eta_route"),
        "series.kernel_k0.self_s": self_of("series.kernel_k0"),
        "series.kernel_k1.self_s": self_of("series.kernel_k1"),
        "series.r_truncated_nested.self_s": self_of("series.r_truncated_nested"),
        "series.closed.self_s": self_of(*(f"series.{n}" for n in SERIES_CLOSED)),
        "cfn.build.self_s": self_of(*(f"cfn.build_{k}" for k in ("t0", "t1", "h0", "h1"))),
        "cfn.build.entries": sum(sum(infos(f"cfn.build_{k}")) for k in ("t0", "t1", "h0", "h1")),
        "cfn.check.self_s": self_prefix("cfn.check_"),
        "exact.self_s": self_prefix("exact."),
        "report.add_calls": sum(calls.get(n, 0) for n in REPORT_ADDS),
        "report.self_s": self_prefix("report."),
        "report.to_json.s": total_s.get("report.VerificationReport.to_json", 0.0),
        "cli.main.s": total_s.get("cli.main", 0.0),
    }
    for suite in SUITES:
        m[f"moments.run_suite.{suite}.s"] = sum(
            s[2] - s[1] for s in spans if s[0] == "moments.run_suite" and s[4] == suite)
    return m


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance(args: argparse.Namespace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
        "parameters": workload_parameters(args.workload),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "cotmoments" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {ROOT / 'src'}; run from a checkout")
    OUT.mkdir(exist_ok=True)
    deadline = now() + RUN_DEADLINE_S
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"

    warm = run_child({"workload": "setup"}, f"{tag}-warm", deadline)
    if "error" in warm:
        raise BenchError(f"the package does not import: {warm['error']}")
    setups = []
    for i in range(SETUP_PROBES):
        probe = run_child({"workload": "setup"}, f"{tag}-probe{i}", deadline)
        if "error" in probe:
            raise BenchError(f"setup probe failed: {probe['error']}")
        setups.append(probe["setup_s"])

    checker = Checker()
    plain: List[dict] = []
    traced: List[dict] = []
    started = now()
    durations: List[float] = []
    index = 0
    # start another iteration only if one of median length still ends
    # within --seconds, so a run measures for at most --seconds (at least
    # one iteration)
    while not durations or (now() - started + statistics.median(durations) <= args.seconds
                            and now() < deadline):
        began = now()
        spec = workload_spec(args.workload, args.seed, index, tag)
        for trace in ((False, True) if args.trace else (False,)):
            out = run_child(dict(spec, trace=trace), f"{tag}-{index}-{int(trace)}", deadline)
            if "error" in out:
                checker.attempted += 1
                checker.fail(f"child {index}: {out['error']}")
                continue
            if args.workload == "verify-cli":
                checker.verify_report(spec, out)
            else:
                checker.requests(spec, out)
            (traced if trace else plain).append(out)
            setups.append(out["setup_s"])
        durations.append(now() - began)
        index += 1

    metrics: Dict[str, float] = {}
    latencies: List[float] = []
    if plain:
        metrics = {
            "wall_s": robust_wall(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(o["rss_kb"] / 1024 for o in plain),
        }
        if args.workload == "verify-cli":
            latencies = [o["setup_s"] + o["wall_s"] for o in plain]
        else:
            latencies = [t for o in plain for t in o["units"]]
    layers: Dict[str, float] = {}
    if traced and plain:
        per_child = [layer_metrics(o["spans"]) for o in traced]
        layers = {name: statistics.median(c[name] for c in per_child) for name in per_child[0]}
        for route in ROUTES:
            layers[f"moments.gap_over_bound_max.{route}"] = checker.gap_max[route]
        layers["trace.overhead"] = robust_wall(traced) / metrics["wall_s"]
    return {"checker": checker, "metrics": metrics, "layers": layers, "latencies": latencies,
            "plain": plain, "traced": traced, "setups": setups}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        res = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checker: Checker = res["checker"]
    prov = provenance(args)
    correct = checker.failed == 0 and bool(res["plain"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(res['plain'])} plain + {len(res['traced'])} traced  "
          f"setup samples {len(res['setups'])}")
    if args.workload == "session-mixed":
        desc = session.describe(session.generate(args.seed))
        print(f"session {desc['requests']} requests  repeat_share {desc['repeat_share']:.3f}"
              f"  per_kind {json.dumps(desc['per_kind'], sort_keys=True)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for name, value in res["metrics"].items():
        print(f"  {name:<14} {value:12.6g} {e2e[name]}")
    if res["latencies"]:
        # printed, not gated: the session-mixed p50 falls among cheap
        # requests whose mix the seed picks, and over ten seeds it spread
        # 43 %, more than the largest bound (0.25) allowed
        for q in (0.5, 0.9):
            print(f"  {f'req_p{round(100 * q)}_ms':<14} "
                  f"{1000 * percentile(res['latencies'], q):12.6g} ms"
                  f"  (of {len(res['latencies'])} requests)")
    print(f"  {'fail_ratio':<14} {checker.failed}/{checker.attempted}")
    print("  wall_s per child " + " ".join(f"{o['wall_s']:.3f}" for o in res["plain"]))
    print("  plain wall s per child " + " ".join(f"{o['raw_wall_s']:.3f}" for o in res["plain"]))
    refs = [t for o in res["plain"] + res["traced"] for t in o["ref_samples"]]
    if refs:
        print(f"  host speed factor {statistics.median(refs) / REFERENCE_S:.3f}"
              f"  (median of {len(refs)} reference samples / {REFERENCE_S} s)")
    if checker.new_check_ids:
        print(f"  new check ids (passing, not frozen): {len(checker.new_check_ids)}")
    for message in checker.errors:
        print(f"  FAIL {message}", file=sys.stderr)
    if args.trace:
        section, values = declared["per_layer"], res["layers"]
        for m in section:
            print(f"  {m['name']:<46} {values.get(m['name'], float('nan')):14.6g} {m['unit']}")
    else:
        section, values = declared["end_to_end"], res["metrics"]
    # every declared metric, or none when no child finished
    chosen = ({m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
              if values else {})
    result = {"correct": correct, "attempted": max(checker.attempted, 1),
              "failed": checker.failed, "metrics": chosen}
    record = dict(result, provenance=prov)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if res["traced"]:
        # [name, start, end, parent index, info] of the last traced child
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(res["traced"][-1]["spans"]), encoding="utf-8")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
