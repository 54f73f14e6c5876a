"""The per-level layer table: public calls timed one at a time on L1/L3/L5 inputs.

Only the traced run builds this table; its calls never enter the end-to-end
runs.  Each call is looked up by name at run time, so a call that a later
refactor removes reports 0 instead of failing the run.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from bikelab import decoder, kem, keycheck, ring
from bikelab.keys import SystemParams

from workloads import derive

REPS = 3
REP_BUDGET_S = 1.5  # stop repeating a call once it has used this much time


def _median_ms(fn, *args):
    times, out = [], None
    while len(times) < REPS and sum(times) < REP_BUDGET_S * 1e3:
        t0 = perf_counter()
        out = fn(*args)
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times), out


def level_table(levels: list[tuple[str, SystemParams]]) -> dict:
    """Median ms per call at each level, plus whether the level's round trip decoded.

    The decoder's default configuration carries level-1 thresholds, so at L3
    and L5 the round trip is reported (``kem.decaps.success``), not required.
    """
    metrics = {}
    for suffix, params in levels:
        row = {}
        row["kem.keygen.ms"], (sk, pk) = _median_ms(kem.keygen, params, derive(0, "level", suffix))
        row["kem.encaps.ms"], (c, k) = _median_ms(kem.encaps, pk, params,
                                                  derive(1, "level", suffix))
        row["kem.decaps.ms"], k2 = _median_ms(kem.decaps, sk, c, params)
        row["kem.decaps.success"] = float(k2 == k)
        s = kem.syndrome(c.c0, sk.h0)
        cfg = decoder.DecoderConfig.for_params(params)
        calls = {
            "ring.invert.ms": (getattr(ring, "invert_counted", None), sk.h0.to_dense()),
            "ring.mul_dense.ms": (getattr(type(pk.h), "__mul__", None), pk.h, c.c0),
            "decoder.upc.ms": (getattr(decoder, "compute_upc", None), s, sk.h0, sk.h1),
            "decoder.decode.ms": (getattr(decoder, "bgf_decode", None), s, sk.h0, sk.h1, cfg),
            "keycheck.key_check.ms": (getattr(keycheck, "key_check", None), sk.h0, sk.h1,
                                      keycheck.KeyCheckConfig()),
        }
        for name, (fn, *args) in calls.items():
            row[name] = _median_ms(fn, *args)[0] if fn is not None else 0.0
        metrics.update({f"{name}.{suffix}": v for name, v in row.items()})
    return metrics
