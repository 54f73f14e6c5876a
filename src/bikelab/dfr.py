"""Monte-Carlo estimation of the decoding failure rate and the security budget.

Trials are indexed: trial i derives every random choice (key, error) from
(master_seed, i) through the seed stream, so a run's failure count is a pure
function of its configuration and is identical for any degree of parallelism.
Trials execute in fixed-size batches; the stop rule is evaluated only at
batch boundaries, and workers split batches without reordering anything that
matters (failure counts are sums).

The 95% intervals are exact Clopper-Pearson bounds computed from the
regularized incomplete beta function (implemented here with the standard
continued fraction so the statistics need no external dependency).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import __version__
from .decoder import DecoderConfig, bgf_decode
from .errors import ParameterError, SchemaError
from .kem import TAG_ENCAPS_M, TAG_TRIAL, XofStream, hash_H, sample_private_key
from .keys import ErrorPair, PrivateKey, SystemParams
from .ring import mul_sparse
from .weakkeys import WeakKeySpec, gen_psi_d_error

RECORD_SCHEMA_VERSION = 1
DEFAULT_BATCH_SIZE = 256


# -- what to decode ------------------------------------------------------------

@dataclass(frozen=True)
class NormalKeys:
    def sample(self, params: SystemParams, seed: bytes) -> PrivateKey:
        return sample_private_key(params, seed)

    def describe(self) -> dict:
        return {"kind": "normal"}


@dataclass(frozen=True)
class WeakKeys:
    spec: WeakKeySpec

    def sample(self, params: SystemParams, seed: bytes) -> PrivateKey:
        return self.spec.generate(params, seed)

    def describe(self) -> dict:
        return {"kind": "weak", **self.spec.to_json_dict()}


@dataclass(frozen=True)
class FixedKey:
    """Pin one key for every trial (per-key studies such as distance probing)."""

    key: PrivateKey
    label: str = "fixed"

    def sample(self, params: SystemParams, seed: bytes) -> PrivateKey:
        return self.key

    def describe(self) -> dict:
        return {"kind": "fixed", "label": self.label}


@dataclass(frozen=True)
class HonestErrors:
    """The encapsulation path: expand a fresh random message through the error hash."""

    def sample(self, params: SystemParams, seed: bytes) -> ErrorPair:
        m = XofStream(TAG_ENCAPS_M, [seed]).read_bits(params.l)
        return hash_H(m, params)

    def describe(self) -> dict:
        return {"kind": "honest"}


@dataclass(frozen=True)
class PsiErrors:
    """Crafted errors: t/2 disjoint position pairs at one cyclic distance."""

    d: int

    def sample(self, params: SystemParams, seed: bytes) -> ErrorPair:
        return gen_psi_d_error(params, self.d, seed)

    def describe(self) -> dict:
        return {"kind": "psi", "d": self.d}


@dataclass(frozen=True)
class StopRule:
    """Run until (failures and trials minimums met) or the trial cap is hit."""

    min_trials: int = 0
    min_failures: int = 1000
    max_trials: int = 100_000

    def __post_init__(self):
        if self.max_trials <= 0:
            raise ParameterError("max_trials must be positive")
        if self.min_trials < 0 or self.min_failures < 0:
            raise ParameterError("stop-rule minimums must be nonnegative")

    def satisfied(self, trials: int, failures: int) -> bool:
        if trials >= self.max_trials:
            return True
        return failures >= self.min_failures and trials >= self.min_trials

    def to_json_dict(self) -> dict:
        return {"min_trials": self.min_trials, "min_failures": self.min_failures,
                "max_trials": self.max_trials}


@dataclass(frozen=True)
class TrialBatchResult:
    params: SystemParams
    key_class: dict
    error_source: dict
    trials: int
    failures: int
    dfr_point: float
    ci_low: float
    ci_high: float
    master_seed: int
    wall_time_s: float
    met_failure_rule: bool


@dataclass(frozen=True)
class ExtrapolationResult:
    points: tuple[tuple[int, float], tuple[int, float]]
    r_target: int
    log2_dfr_at_target: float
    trend_warning: bool

    def to_json_dict(self) -> dict:
        return {"points": [list(p) for p in self.points], "r_target": self.r_target,
                "log2_dfr_at_target": self.log2_dfr_at_target,
                "trend_warning": self.trend_warning}


def trial_seeds(master_seed: int, index: int) -> tuple[bytes, bytes]:
    """(key seed, error seed) for one trial; the only source of trial randomness."""
    stream = XofStream(TAG_TRIAL, [master_seed.to_bytes(8, "big"),
                                   index.to_bytes(8, "big")])
    return stream.read(32), stream.read(32)


def run_trial(params: SystemParams, key_class, error_source, cfg: DecoderConfig,
              master_seed: int, index: int) -> bool:
    """True when the decoder fails to recover the planted error."""
    key_seed, err_seed = trial_seeds(master_seed, index)
    key = key_class.sample(params, key_seed)
    err = error_source.sample(params, err_seed)
    s = mul_sparse(key.h0, err.e0.to_dense()) + mul_sparse(key.h1, err.e1.to_dense())
    outcome = bgf_decode(s, key.h0, key.h1, cfg)
    return not outcome.success


def _count_failures_range(params, key_class, error_source, cfg, master_seed,
                          start: int, count: int) -> int:
    failures = 0
    for i in range(start, start + count):
        if run_trial(params, key_class, error_source, cfg, master_seed, i):
            failures += 1
    return failures


def _worker(task) -> int:
    params, key_class, error_source, cfg, master_seed, start, count = task
    return _count_failures_range(params, key_class, error_source, cfg,
                                 master_seed, start, count)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_dfr(params: SystemParams, key_class, error_source, stop: StopRule,
            master_seed: int, parallelism: int = 1,
            decoder_cfg: DecoderConfig | None = None,
            batch_size: int = DEFAULT_BATCH_SIZE,
            checkpoint_path: str | None = None,
            checkpoint_every: int = 0,
            progress=None) -> TrialBatchResult:
    """Estimate the failure rate of one key class under one error source.

    ``batch_size`` fixes the granularity at which the stop rule is evaluated
    and must not change between runs that are meant to reproduce each other;
    ``parallelism`` only splits batches across processes, at most one per
    usable CPU, and never affects the outcome.
    """
    if parallelism < 1:
        raise ParameterError("parallelism must be >= 1")
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    if not 0 <= master_seed < 1 << 64:
        raise ParameterError("master_seed must be an unsigned 64-bit integer")
    cfg = decoder_cfg if decoder_cfg is not None else DecoderConfig.for_params(params)

    trials = failures = 0
    tag = _checkpoint_tag(params, key_class, error_source, cfg, master_seed, batch_size)
    if checkpoint_path and os.path.exists(checkpoint_path):
        trials, failures = _load_checkpoint(checkpoint_path, tag, stop.max_trials)
    if trials == 0 and stop.satisfied(0, 0):
        raise ParameterError("stop rule is satisfied before any trial runs")

    started = time.monotonic()
    # under the fork start method the executor starts all max_workers at the
    # first submit, so never ask for more workers than there are CPUs
    workers = min(parallelism, _usable_cpus())
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while not stop.satisfied(trials, failures):
            todo = min(batch_size, stop.max_trials - trials)
            if pool is None:
                failures += _count_failures_range(params, key_class, error_source,
                                                  cfg, master_seed, trials, todo)
            else:
                chunk = (todo + workers - 1) // workers
                tasks = [(params, key_class, error_source, cfg, master_seed,
                          trials + lo, min(chunk, todo - lo))
                         for lo in range(0, todo, chunk)]
                failures += sum(pool.map(_worker, tasks))
            trials += todo
            if progress is not None:
                progress(trials, failures)
            # a batch may step over several multiples of checkpoint_every
            if (checkpoint_path and checkpoint_every
                    and trials // checkpoint_every > (trials - todo) // checkpoint_every):
                _save_checkpoint(checkpoint_path, tag, trials, failures)
    finally:
        if pool is not None:
            pool.shutdown()

    ci_low, ci_high = confidence_interval(failures, trials)
    return TrialBatchResult(
        params=params, key_class=key_class.describe(),
        error_source=error_source.describe(), trials=trials, failures=failures,
        dfr_point=failures / trials, ci_low=ci_low, ci_high=ci_high,
        master_seed=master_seed, wall_time_s=time.monotonic() - started,
        met_failure_rule=failures >= stop.min_failures)


# -- checkpoints ---------------------------------------------------------------

def _checkpoint_tag(params: SystemParams, key_class, error_source, cfg: DecoderConfig,
                    master_seed: int, batch_size: int) -> str:
    """Digest of everything that fixes the trial outcomes; only the stop rule may change.

    A fixed key's label is only a name, so its supports are bound too.
    """
    experiment = {"params": params.to_json_dict(), "key_class": key_class.describe(),
                  "error_source": error_source.describe(), "decoder": cfg.to_json_dict(),
                  "master_seed": master_seed, "batch_size": batch_size}
    if isinstance(key_class, FixedKey):
        experiment["key"] = [key_class.key.h0.support, key_class.key.h1.support]
    return hashlib.sha256(json.dumps(experiment, sort_keys=True).encode()).hexdigest()


def _save_checkpoint(path: str, tag: str, trials: int, failures: int) -> None:
    blob = {"schema_version": RECORD_SCHEMA_VERSION, "tag": tag,
            "trials_done": trials, "failures": failures}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(blob, fh)
    os.replace(tmp, path)


def _load_checkpoint(path: str, tag: str, max_trials: int) -> tuple[int, int]:
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or blob.get("tag") != tag:
        raise SchemaError("checkpoint belongs to a different experiment", field="tag")
    for name in ("trials_done", "failures"):
        if type(blob.get(name)) is not int or blob[name] < 0:
            raise SchemaError(f"checkpoint {name} must be a nonnegative integer", field=name)
    trials, failures = blob["trials_done"], blob["failures"]
    if failures > trials:
        raise SchemaError("checkpoint has more failures than trials", field="failures")
    if trials > max_trials:
        raise ParameterError(f"checkpoint holds {trials} trials, above max_trials={max_trials}")
    return trials, failures


# -- exact binomial confidence interval ----------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta (Lentz's method)
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betainc_inv(a: float, b: float, p: float) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # no double lies strictly between lo and hi, so no later step can
            # move the result off mid
            return mid
        if _betainc(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def confidence_interval(failures: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided binomial interval for failures/trials."""
    if trials <= 0:
        raise ParameterError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ParameterError("failures must lie in [0, trials]")
    alpha = 1.0 - level
    low = 0.0 if failures == 0 else _betainc_inv(failures, trials - failures + 1, alpha / 2)
    high = 1.0 if failures == trials else _betainc_inv(failures + 1, trials - failures,
                                                       1.0 - alpha / 2)
    return low, high


# -- extrapolation and the security budget --------------------------------------

def extrapolate(p1: tuple[int, float], p2: tuple[int, float],
                r_target: int) -> ExtrapolationResult:
    """Extend the line through two (r, log2 DFR) points out to the target r."""
    (r1, v1), (r2, v2) = p1, p2
    if r1 == r2:
        raise ParameterError("extrapolation needs two distinct r values")
    if not r1 < r2 < r_target:
        raise ParameterError("points must satisfy r1 < r2 < r_target")
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise ParameterError("extrapolation needs finite log2 DFR values")
    slope = (v2 - v1) / (r2 - r1)
    return ExtrapolationResult(points=((r1, v1), (r2, v2)), r_target=r_target,
                               log2_dfr_at_target=v2 + slope * (r_target - r2),
                               trend_warning=v2 >= v1)


def pw_check(log2_eta: float, log2_dfr: float, security_bits: int,
             queries: int | None = None) -> dict:
    """Weak-class budget term eta * DFR against 2^-lambda, in log2.

    With ``queries`` set, also reports the adversary-advantage product
    q * (eta * DFR) for an attacker allowed q hash queries.
    """
    log2_pw = log2_eta + log2_dfr
    out = {"log2_pw": log2_pw, "satisfies": log2_pw <= -security_bits}
    if queries is not None:
        if queries < 1:
            raise ParameterError("queries must be >= 1")
        out["log2_q_delta"] = math.log2(queries) + log2_pw
    return out


def avg_dfr_decompose(eta_w: float, dfr_w: float, dfr_s: float) -> float:
    """Average failure rate of the split key space: (1 - eta_w) dfr_s + eta_w dfr_w."""
    if not 0.0 <= eta_w <= 1.0:
        raise ParameterError("eta_w must be a probability")
    return (1.0 - eta_w) * dfr_s + eta_w * dfr_w


# -- the serialized experiment record -------------------------------------------

def make_record(result: TrialBatchResult, decoder_cfg: DecoderConfig,
                stop: StopRule, timestamp: str) -> dict:
    """Frozen-schema JSON dict for one measurement (field order is sorted)."""
    return {
        "schema_version": RECORD_SCHEMA_VERSION,
        "code_version": __version__,
        "params": result.params.to_json_dict(),
        "key_class": result.key_class,
        "error_source": result.error_source,
        "decoder": decoder_cfg.to_json_dict(),
        "stop": stop.to_json_dict(),
        "master_seed": result.master_seed,
        "trials": result.trials,
        "failures": result.failures,
        "dfr_point": result.dfr_point,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "met_failure_rule": result.met_failure_rule,
        "wall_time_s": result.wall_time_s,
        "timestamp": timestamp,
    }


SUMMARY_CSV_HEADER = "r,trials,failures,dfr,ci_low,ci_high"


def summary_csv_row(record: dict) -> str:
    return (f"{record['params']['r']},{record['trials']},{record['failures']},"
            f"{record['dfr_point']:.10g},{record['ci_low']:.10g},{record['ci_high']:.10g}")
