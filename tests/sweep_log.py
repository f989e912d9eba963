"""A sweep counter that sees every process: the series routes may run a
sibling sweep in a forked child (``hpreal._paired_sweep``), whose calls a
list in the test process would miss."""

from __future__ import annotations

import json
import os

from cotmoments import hpreal


def _log_sweeps(monkeypatch, module, name, path):
    """Route module.<name> through a counter on an empty store that appends
    [pid, first two arguments] to the file path, one line per call, so a
    sweep run in a forked child is counted too.  Returns a reader of the
    calls, this process's first, each side in call order."""
    sweep = getattr(module, name)

    def counted(*args):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), *args[:2]]) + "\n")
        return sweep(*args)

    monkeypatch.setattr(hpreal, "_values", {})
    monkeypatch.setattr(module, name, counted)

    def calls():
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        return sorted(rows, key=lambda row: row[0] != os.getpid())  # stable
    return calls
