"""The benchmark's workloads: closed loops with one caller, inputs derived from a seed.

Every workload is a sequence of operations indexed 0, 1, 2, ...; operation i
derives all of its inputs from (seed, i), so the same seed replays the same
inputs whatever the run length.  ``op(i, span)`` runs one operation and
returns an ``OpResult``; ``span(name)`` is a context manager the traced run
uses to mark the benchmark's own calls into a layer (a no-op otherwise).

* ``kem`` - checked key generation, encapsulation and decapsulation through
  the public API (one round trip per operation);
* ``dfr`` - one ``bikelab dfr`` campaign per operation, run in process
  through ``bikelab.cli.main`` with ``--threads 1`` and a trial cap only;
* ``probe`` - a distance-probe sweep: one fixed key written once as a key
  file, one ``fixed:<key>`` / ``psi:D`` campaign per distance, distances
  alternating between inside and outside the spectrum D(h0).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bikelab import cli, files
from bikelab.decoder import DecoderConfig
from bikelab.kem import decaps_with_diagnostics, encaps, keygen
from bikelab.keycheck import KeyCheckConfig, keygen_checked
from bikelab.keys import SystemParams, custom_params, level_params
from bikelab.weakkeys import spectrum

# The DFR campaigns stop on the trial cap alone, so the work done never
# depends on decode outcomes.
NEVER_ENOUGH_FAILURES = "1000000000"
# The key screen's threshold, as in `bikelab keygen --check`.
KEYCHECK_T = 10


def derive(seed: int, *labels) -> bytes:
    """32 bytes that depend only on the benchmark seed and the labels."""
    blob = json.dumps([seed, *labels]).encode()
    return hashlib.sha256(b"perfbench\0" + blob).digest()


def derive_u64(seed: int, *labels) -> int:
    return int.from_bytes(derive(seed, *labels)[:8], "big")


def null_span(name: str):
    return contextlib.nullcontext()


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape.

    ``count_ops`` operations form the exactly repeatable prefix: the output
    digest and the traced run's counts cover them, so they compare across
    runs of any length.  ``golden_ops`` operations of the default seed are
    replayed after every run and checked against the pinned digests.
    """

    name: str
    kind: str  # "kem", "dfr" or "probe"
    why: str
    level: int | None = None
    rwt: tuple[int, int, int] | None = None
    key_class: str = ""
    campaign_trials: int = 0
    count_ops: int = 8
    golden_ops: int = 2
    # the latency tail: the highest percentile that keeps at least 10
    # operations beyond it even when the machine runs 1.7x slower than usual
    tail_pct: int = 90

    def params(self) -> SystemParams:
        if self.level is not None:
            return level_params(self.level)
        r, w, t = self.rwt
        return custom_params(r=r, w=w, t=t)

    def param_args(self) -> list[str]:
        if self.level is not None:
            return ["--level", str(self.level)]
        r, w, t = self.rwt
        return ["--r", str(r), "--w", str(w), "--t", str(t)]


SPECS = {s.name: s for s in (
    Spec("kem-l1", "kem", level=1, count_ops=8, golden_ops=2, tail_pct=85,
         why="L1 keygen --check, encaps, decaps: the only workload running ring inversion "
             "and the key screen; op = 1 round trip, 120-220 per run, tail = p85"),
    Spec("dfr-l1-weak", "dfr", level=1, key_class="weak:type1:f=35,d=1",
         campaign_trials=5, count_ops=8, golden_ops=2, tail_pct=80,
         why="bikelab dfr at L1, weak:type1:f=35 keys, honest errors: new key and decoder "
             "set-up per trial, ~73% of decodes fail; op = 5-trial campaign, 85-120 per "
             "run, tail = p80"),
    Spec("probe-r1259", "probe", rwt=(1259, 42, 30), campaign_trials=100,
         count_ops=16, golden_ops=4, tail_pct=90,
         why="distance probe at r=1259: one fixed key file, psi:D errors in and out of "
             "D(h0), key state reused, per-call overhead; op = 100-trial campaign, 180-310 "
             "per run, tail = p90"),
)}

# Tiny versions of the same code paths for the smoke tests, sized so that the
# output checks of every kind hold for the default seed.
SMOKE_SPECS = {s.name: s for s in (
    Spec("kem-smoke", "kem", rwt=(101, 14, 4), count_ops=2, golden_ops=1,
         why="kem-l1 code path at r=101"),
    Spec("dfr-smoke", "dfr", rwt=(101, 14, 6), key_class="weak:type1:f=4,d=1",
         campaign_trials=5, count_ops=2, golden_ops=1,
         why="dfr-l1-weak code path at r=101"),
    Spec("probe-smoke", "probe", rwt=(101, 14, 6), campaign_trials=20,
         count_ops=2, golden_ops=2, why="probe-r1259 code path at r=101"),
)}


@dataclass
class OpResult:
    digest: str
    ok: bool
    units: int  # round trips or decoding trials completed
    stages_ms: dict = field(default_factory=dict)
    failures: int = 0  # DFR decoding failures (measured outcomes, not errors)
    group: str = ""
    ms: float = 0.0


class KemRoundTrips:
    unit = "round trips"

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.params = spec.params()
        self.check_cfg = KeyCheckConfig(threshold_T=KEYCHECK_T)
        self.decoder_cfg = DecoderConfig.for_params(self.params)

    def op(self, i: int, span=null_span) -> OpResult:
        p = self.params
        t0 = perf_counter()
        with span("keycheck.keygen_checked"):
            sk, pk, rejected = keygen_checked(p, derive(self.seed, "keygen", i), self.check_cfg)
        t1 = perf_counter()
        with span("kem.encaps"):
            c, k = encaps(pk, p, derive(self.seed, "encaps", i))
        t2 = perf_counter()
        with span("kem.decaps"):
            k2, outcome = decaps_with_diagnostics(sk, c, p, self.decoder_cfg)
        t3 = perf_counter()
        h = hashlib.sha256()
        for part in (pk.h.to_bytes_le(), c.c0.to_bytes_le(), c.c1, k.data,
                     rejected.to_bytes(4, "big")):
            h.update(part)
        return OpResult(digest=h.hexdigest(), ok=(k2 == k and outcome.success), units=1,
                        stages_ms={"keygen": (t1 - t0) * 1e3, "encaps": (t2 - t1) * 1e3,
                                   "decaps": (t3 - t2) * 1e3})

    def warmup(self) -> None:
        KemRoundTrips(self.spec, derive_u64(self.seed, "warmup"), Path()).op(0)

    def check_run(self, results: list[OpResult]) -> list[str]:
        return []


class DfrCampaigns:
    unit = "trials"
    # Weak type-1 keys make most honest decodes fail (about 73% at L1, f=35).
    FAILURE_BAND = (0.5, 0.95)

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        self.params = spec.params()

    def campaign_args(self, i: int) -> tuple[list[str], str]:
        return ["--key-class", self.spec.key_class, "--error-source", "honest"], ""

    def argv(self, i: int, trials: int) -> tuple[list[str], str]:
        extra, group = self.campaign_args(i)
        return (["dfr", *self.spec.param_args(), *extra,
                 "--max-trials", str(trials), "--min-failures", NEVER_ENOUGH_FAILURES,
                 "--seed", str(derive_u64(self.seed, "campaign", i)),
                 "--threads", "1", "--no-timestamp"], group)

    def op(self, i: int, span=null_span, trials: int | None = None) -> OpResult:
        trials = trials or self.spec.campaign_trials
        argv, group = self.argv(i, trials)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            return OpResult(digest="", ok=False, units=0, group=group)
        records = json.loads(buf.getvalue())["records"]
        counts = [[rec["params"]["r"], rec["trials"], rec["failures"]] for rec in records]
        digest = hashlib.sha256(json.dumps(counts).encode()).hexdigest()
        ok = (len(records) == 1 and records[0]["params"]["r"] == self.params.r
              and records[0]["trials"] == trials
              and 0 <= records[0]["failures"] <= trials)
        return OpResult(digest=digest, ok=ok, units=sum(c[1] for c in counts),
                        failures=sum(c[2] for c in counts), group=group)

    def warmup(self) -> None:
        self.op(-1, trials=1)

    def check_run(self, results: list[OpResult]) -> list[str]:
        trials = sum(r.units for r in results)
        failures = sum(r.failures for r in results)
        lo, hi = self.FAILURE_BAND
        if trials and not lo <= failures / trials <= hi:
            return [f"failure fraction {failures}/{trials} outside [{lo}, {hi}]"]
        return []


class ProbeSweep(DfrCampaigns):
    """Distance probing with one fixed key; per-key state is built once per campaign."""

    def __init__(self, spec: Spec, seed: int, workdir: Path):
        super().__init__(spec, seed, workdir)
        p = self.params
        sk, pk = keygen(p, derive(seed, "probe-key"))
        workdir.mkdir(parents=True, exist_ok=True)
        self.key_path = workdir / f"probe-key-{spec.name}-{seed}.json"
        files.write_key(str(self.key_path), p, sk, pk)
        t0 = perf_counter()
        inside = spectrum(sk.h0).existing()
        self.spectrum_ms = (perf_counter() - t0) * 1e3
        rng = random.Random(derive(seed, "distances"))
        self.inside = sorted(inside)
        self.outside = [d for d in range(1, p.r // 2 + 1) if d not in inside]
        rng.shuffle(self.inside)
        rng.shuffle(self.outside)

    def campaign_args(self, i: int) -> tuple[list[str], str]:
        group, pool = ("in", self.inside) if i % 2 == 0 else ("out", self.outside)
        d = pool[(i // 2) % len(pool)]
        return ["--key-class", f"fixed:{self.key_path}", "--error-source", f"psi:{d}"], group

    def check_run(self, results: list[OpResult]) -> list[str]:
        rate = {}
        for g in ("in", "out"):
            rs = [r for r in results if r.group == g]
            rate[g] = sum(r.failures for r in rs) / max(1, sum(r.units for r in rs))
        if not rate["in"] < rate["out"]:
            return [f"probe failure rate inside D(h0) {rate['in']:.4f} is not below "
                    f"the rate outside {rate['out']:.4f}"]
        return []


WORKLOAD_TYPES = {"kem": KemRoundTrips, "dfr": DfrCampaigns, "probe": ProbeSweep}


def make_workload(spec: Spec, seed: int, workdir: Path):
    return WORKLOAD_TYPES[spec.kind](spec, seed, workdir)
