"""Spans recorded around calls into bikelab's layers, from outside the package.

The tracer replaces a public function at the module attribute its caller
looks up (for example ``bikelab.dfr.bgf_decode``, which ``run_trial`` calls)
with a wrapper that records a span, and restores the original afterwards.
Nothing under ``src/`` is edited.  A name that a later refactor removes is
skipped and listed in ``missing``; its metrics then report 0 calls.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index of
the enclosing span (-1 at the top), ``op`` the operation it belongs to and
``info`` what the wrapper read off the result (ring multiplications, decoder
iterations and success, key-screen verdict).  Spans stay in memory until the
run writes them out.  A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import Counter
from time import perf_counter

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.missing: list[str] = []
        self.decodes: list[tuple] = []  # (syndrome, h0, h1) of each decode
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, module, attr: str, name: str, inspect=None) -> None:
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(rec)
            if inspect is not None:
                rec[INFO] = inspect(out, args)
            return out

        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def unwrap_all(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    @contextlib.contextmanager
    def hooks(self):
        """Install the wrappers for the duration of one traced operation."""
        install_bikelab_hooks(self)
        try:
            yield
        finally:
            self.unwrap_all()


def install_bikelab_hooks(tracer: Tracer) -> None:
    from bikelab import cli, decoder, dfr, files, kem, keycheck, ring, weakkeys

    def decode_info(outcome, args):
        if len(args) >= 3:  # (syndrome, h0, h1), re-timed through compute_upc
            tracer.decodes.append(args[:3])
        return {"iterations": outcome.iterations_run, "success": outcome.success}

    tracer.wrap(ring, "invert_counted", "ring.invert", lambda out, a: {"muls": out[1]})
    for m in (kem, dfr, decoder):
        tracer.wrap(m, "mul_sparse", "ring.mul_sparse")
    for m in (decoder, dfr):
        tracer.wrap(m, "bgf_decode", "decoder.decode", decode_info)
    tracer.wrap(keycheck, "key_check", "keycheck.key_check",
                lambda out, a: {"weak": out.is_weak})
    tracer.wrap(keycheck, "keygen", "kem.keygen")
    tracer.wrap(kem, "sample_private_key", "kem.sample_private_key")
    for m in (kem, dfr):
        tracer.wrap(m, "hash_H", "kem.hash_H")
    tracer.wrap(dfr, "run_trial", "dfr.run_trial")
    tracer.wrap(dfr, "gen_psi_d_error", "weakkeys.gen_psi_d_error")
    tracer.wrap(dfr, "confidence_interval", "dfr.confidence_interval")
    tracer.wrap(weakkeys, "gen_type1", "weakkeys.gen_type1")
    tracer.wrap(cli.dfrlab, "run_dfr", "dfr.run_dfr")
    tracer.wrap(cli, "cmd_dfr", "cli.cmd_dfr")
    tracer.wrap(files, "read_key", "files.read_key")


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the time covered by its direct children, in ms."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - c) * 1e3 for s, c in zip(spans, child)]


def op_counts(spans: list[list]) -> dict:
    """Exact per-operation counts: calls per span name plus the inspected outcomes."""
    per_op: dict = {}
    for s in spans:
        c = per_op.setdefault(s[OP], Counter())
        c[s[NAME]] += 1
        for k, v in (s[INFO] or {}).items():
            c[f"{s[NAME]}.{k}"] += int(v)
    return per_op


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans: list[list], count_ops: int, upc_ms: list[float]) -> dict:
    """Per-layer metrics of a traced run.

    Calls, totals and ratios cover the spans of operations 0..count_ops-1, a
    fixed set of inputs for a given seed, so they repeat exactly and compare
    across runs of different length.  Medians cover every traced operation.
    """
    selfs = self_times(spans)
    dur: dict[str, list[float]] = {}
    self_ms: dict[str, list[float]] = {}
    counted: dict[str, list[list]] = {}
    for s, st in zip(spans, selfs):
        dur.setdefault(s[NAME], []).append((s[END] - s[START]) * 1e3)
        self_ms.setdefault(s[NAME], []).append(st)
        if s[OP] is not None and 0 <= s[OP] < count_ops:
            counted.setdefault(s[NAME], []).append(s)

    def calls(name):
        return len(counted.get(name, ()))

    def total_ms(name):
        return sum((s[END] - s[START]) * 1e3 for s in counted.get(name, ()))

    def info_sum(name, key):
        return sum(int(s[INFO][key]) for s in counted.get(name, ()) if s[INFO])

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "ring.invert.calls": calls("ring.invert"),
        "ring.invert.ms_p50": _median(dur.get("ring.invert")),
        "ring.invert.muls": ratio(info_sum("ring.invert", "muls"), calls("ring.invert")),
        "ring.mul_sparse.calls": calls("ring.mul_sparse"),
        "ring.mul_sparse.ms_total": total_ms("ring.mul_sparse"),
        "decoder.decode.calls": calls("decoder.decode"),
        "decoder.decode.self_ms_p50": _median(self_ms.get("decoder.decode")),
        "decoder.decode.iterations_mean": ratio(info_sum("decoder.decode", "iterations"),
                                                calls("decoder.decode")),
        "decoder.decode.success_ratio": ratio(info_sum("decoder.decode", "success"),
                                              calls("decoder.decode")),
        "decoder.upc.ms_p50": _median(upc_ms),
        "kem.keygen.self_ms_p50": _median(self_ms.get("kem.keygen")),
        "kem.encaps.self_ms_p50": _median(self_ms.get("kem.encaps")),
        "kem.decaps.self_ms_p50": _median(self_ms.get("kem.decaps")),
        "kem.hash_H.calls": calls("kem.hash_H"),
        "kem.hash_H.ms_total": total_ms("kem.hash_H"),
        "kem.sample_private_key.calls": calls("kem.sample_private_key"),
        "kem.sample_private_key.ms_total": total_ms("kem.sample_private_key"),
        "keycheck.key_check.calls": calls("keycheck.key_check"),
        "keycheck.key_check.ms_p50": _median(dur.get("keycheck.key_check")),
        "keycheck.rejected_ratio": ratio(info_sum("keycheck.key_check", "weak"),
                                         calls("keycheck.key_check")),
        "weakkeys.gen_type1.ms_total": total_ms("weakkeys.gen_type1"),
        "weakkeys.gen_psi_d_error.ms_total": total_ms("weakkeys.gen_psi_d_error"),
        "dfr.run_trial.calls": calls("dfr.run_trial"),
        "dfr.run_trial.self_ms_p50": _median(self_ms.get("dfr.run_trial")),
        "dfr.run_dfr.self_ms": _median(self_ms.get("dfr.run_dfr")),
        "dfr.confidence_interval.ms": _median(dur.get("dfr.confidence_interval")),
        "cli.cmd_dfr.self_ms": _median(self_ms.get("cli.cmd_dfr")),
        "files.read_key.ms": _median(dur.get("files.read_key")),
    }


# Metrics that must repeat exactly for a fixed seed.
EXACT_METRICS = ("ring.invert.calls", "ring.invert.muls", "ring.mul_sparse.calls",
                 "decoder.decode.calls", "decoder.decode.iterations_mean",
                 "decoder.decode.success_ratio", "kem.hash_H.calls",
                 "kem.sample_private_key.calls", "keycheck.key_check.calls",
                 "keycheck.rejected_ratio", "dfr.run_trial.calls")
