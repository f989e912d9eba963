"""Seeded request stream for the ``session-mixed`` workload.

One client sends library requests in a closed loop.  Keys span what the
package and its CLI accept (eta/quadrature m <= 40, series m <= 12, tables
up to 200 columns, kernels on (0, 1]), at precisions mixed across 30..300
digits.  Every key is sent twice, so half of the requests or more repeat
an earlier key and the caches keyed by (s, P), (dps, tmax) and
(kind, N, fbits) see hits beside fills.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List

SERIES_N = 20000
P_CHOICES = (30, 45, 60, 90, 150, 300)
ETA_M_MAX = 40
# one moment order per precision level; together they span 1..ETA_M_MAX and
# the series routes' 1..12
ETA_M = (1, 9, 17, 25, 33, 40)
CFN_M = (1, 4, 5, 8, 9, 12)
NESTED_M = (2, 3, 6, 7, 10, 11)
TABLE_MAX = 200
TABLE_ROWS = 12
KERNEL_SERIES_Z = tuple(f"{i / 20:g}" for i in range(1, 16))    # 0.05..0.75
KERNEL_INTEGRAL_Z = tuple(f"{i / 20:g}" for i in range(16, 21))  # 0.8..1


def _fresh_keys(rng: random.Random) -> List[Dict[str, object]]:
    """The session's distinct keys.  The costly dimensions are fixed, so
    that what a session costs does not depend on the seed:

    * every precision gets one request of each P-dependent kind;
    * the moment orders span the routes' whole ranges: eta and quadrature
      take m from ETA_M (1..40, in opposite precision order), and the cfn
      and nested routes split 1..12 between them, each with both parities;
    * one of the two kernel requests per precision (K0 and K1 in turn) takes
      a fixed z from the range the package integrates instead of summing,
      since that cost varies threefold with z at high P;
    * each triangle gets one random shape with up to TABLE_MAX columns but
      only up to TABLE_ROWS rows (the series routes use rows k <= 6), since
      the cost of a full 200 x 200 table would dwarf the rest of a session.

    The seed picks the eta/zeta arguments, the summed kernels' z, the random
    table shapes, the order and which requests repeat which keys."""
    keys: List[Dict[str, object]] = []
    for index, P in enumerate(P_CHOICES):
        keys.append({"kind": "moment", "route": "eta", "P": P, "m": ETA_M[index]})
        keys.append({"kind": "moment", "route": "quadrature", "P": P, "m": ETA_M[-1 - index]})
        for route, ms in (("cfn", CFN_M), ("nested", NESTED_M)):
            keys.append({"kind": "moment", "route": route, "P": P, "N": SERIES_N,
                         "m": ms[index]})
        keys.append({"kind": "eta", "s": rng.randint(1, ETA_M_MAX + 1), "P": P})
        keys.append({"kind": "zeta", "s": rng.randint(2, ETA_M_MAX + 1), "P": P})
        integrated = ("k0", "k1")[index % 2]
        for which in ("k0", "k1"):
            z = (KERNEL_INTEGRAL_Z[-1 - index % len(KERNEL_INTEGRAL_Z)] if which == integrated
                 else rng.choice(KERNEL_SERIES_Z))
            keys.append({"kind": f"kernel_{which}", "z": z, "P": P})
    for table in ("t0", "t1", "h0", "h1"):
        nmax = rng.randint(0, TABLE_MAX)
        keys.append({"kind": f"build_{table}", "nmax": nmax,
                     "kmax": rng.randint(0, min(nmax, TABLE_ROWS))})
    return keys


def request_key(req: Dict[str, object]) -> tuple:
    return tuple(sorted(req.items()))


def generate(seed: int) -> List[Dict[str, object]]:
    """The request stream for one session; the same seed gives the same
    stream.  Every key is sent twice, at random points, so at least half of
    the requests repeat an earlier key."""
    rng = random.Random(seed)
    fresh = _fresh_keys(rng)
    order = list(range(len(fresh))) * 2
    rng.shuffle(order)
    return [dict(fresh[i]) for i in order]


def describe(stream: List[Dict[str, object]]) -> Dict[str, object]:
    """Measured repeat share (requests whose key appeared earlier) and the
    request count per kind."""
    seen = set()
    repeats = 0
    for req in stream:
        key = request_key(req)
        repeats += key in seen
        seen.add(key)
    kinds = Counter(req["kind"] if req["kind"] != "moment" else f"moment/{req['route']}"
                    for req in stream)
    return {"requests": len(stream), "repeat_share": repeats / len(stream),
            "per_kind": dict(sorted(kinds.items()))}


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(description="Describe one session's request stream.")
    parser.add_argument("--seed", type=int, required=True)
    print(json.dumps(describe(generate(parser.parse_args().seed)), sort_keys=True))
