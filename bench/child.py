"""One benchmark child: a fresh interpreter that imports the package, runs
the requests named in a spec file and writes what it measured.

Usage: python3 bench/child.py SPEC_JSON OUT_JSON

The spec holds only generated inputs: the workload, its requests or CLI
arguments, and whether to trace.  The child records when its imports
finished on the system-wide monotonic clock (the parent holds the spawn
time), the time of every unit of work (each request; for the CLI, each
stretch between two progress lines on stderr) in reference seconds (see
refclock.py) and its plain wall time, its peak RSS, the results in a form
the parent's oracle can check, and, when tracing, every span.
"""

import sys
import time

import cotmoments
import cotmoments.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402

from mpmath import mp  # noqa: E402

from oracle import table_digest  # noqa: E402
from refclock import RefClock  # noqa: E402
from spans import Tracer  # noqa: E402


def peak_rss_kb() -> int:
    """This process's own peak RSS.  VmHWM belongs to the address space made
    at exec; getrusage's ru_maxrss would also count the parent's RSS at fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class ProgressMarks:
    """Stands in for stderr: forwards every write and records when each
    non-blank one happened, so the parent can time the CLI's progress
    segments (one per suite) without reaching into the package."""

    def __init__(self, stream, clock, start: float) -> None:
        self.stream, self.clock, self.start, self.marks = stream, clock, start, []

    def write(self, text: str) -> int:
        if text.strip():
            self.marks.append([self.clock() - self.start, text.strip()])
        return self.stream.write(text)

    def flush(self) -> None:
        self.stream.flush()


def _number(value, P: int) -> str:
    return mp.nstr(value, P + 10, strip_zeros=False)


def run_request(req: dict):
    """Call the package's public API for one request."""
    kind = req["kind"]
    if kind == "moment":
        return cotmoments.compute_moment(req["m"], req["P"], req["route"], N=req.get("N"))
    if kind in ("c_cfn_route", "c_nested_route"):
        return getattr(cotmoments, kind)(req["m"], req["P"], req["N"])
    if kind in ("eta", "zeta"):
        return getattr(cotmoments, kind)(req["s"], req["P"])
    if kind in ("kernel_k0", "kernel_k1"):
        return getattr(cotmoments, kind)(req["z"], req["P"])
    if kind.startswith("build_"):
        return getattr(cotmoments, kind)(req["kmax"], req["nmax"])
    raise ValueError(f"unknown request kind {kind!r}")


def encode(req: dict, result) -> dict:
    """The result as the parent's oracle checks it: a digest of a table,
    else the value to P + 10 digits and any claimed error bound."""
    kind = req["kind"]
    if kind.startswith("build_"):
        return {"digest": table_digest(result.row(k) for k in range(req["kmax"] + 1))}
    if kind in ("moment", "c_cfn_route", "c_nested_route"):
        return {"value": _number(result.value, req["P"]),
                "bound": None if result.error_bound is None
                else mp.nstr(result.error_bound, 12)}
    return {"value": _number(result, req["P"])}


def main() -> int:
    spec_path, out_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {"ready": READY}
    ref = RefClock()
    ref.start()
    clock = ref.now
    tracer = None
    if spec.get("trace"):
        tracer = Tracer(clock)
        tracer.install()
    began = time.perf_counter()
    if spec["workload"] == "verify-cli":
        start = clock()
        progress = ProgressMarks(sys.stderr, clock, start)
        sys.stderr = progress
        try:
            out["rc"] = cotmoments.cli.main(spec["argv"])
        finally:
            sys.stderr = progress.stream
        out["wall_s"] = clock() - start
        times = [t for t, _ in progress.marks]
        out["units"] = [b - a for a, b in zip([0.0] + times, times + [out["wall_s"]])]
        out["unit_labels"] = [text for _, text in progress.marks]
    elif spec["workload"] != "setup":
        latencies, results = [], []
        for req in spec["requests"]:
            start = clock()
            try:
                result = run_request(req)
            except Exception as exc:  # a failed request is counted, the session goes on
                latencies.append(clock() - start)
                results.append({"error": f"{type(exc).__name__}: {exc}"})
                continue
            latencies.append(clock() - start)
            results.append(encode(req, result))
            del result
        out["units"] = latencies
        out["results"] = results
        out["wall_s"] = sum(latencies)
    out["raw_wall_s"] = time.perf_counter() - began
    ref.stop()
    out["ref_samples"] = ref.samples
    out["rss_kb"] = peak_rss_kb()
    if tracer is not None:
        out["spans"] = tracer.spans
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
