"""Monte-Carlo estimation of the decoding failure rate and the security budget.

Trials are indexed: trial i derives every random choice (key, error) from
(master_seed, i) through the seed stream, so a run's failure count is a pure
function of its configuration and is identical for any degree of parallelism.
Trials execute in batches of BATCH_SIZE = 256: batch k covers trials
[256k, 256(k+1)), cut short at the trial cap.  The stop rule is evaluated only
at batch boundaries, and a run resumed from a checkpoint keeps the same
boundaries, so it stops where a one-shot run would.  Workers split batches
without reordering anything that matters (failure counts are sums).

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
from dataclasses import asdict, dataclass

from . import __version__, files
from .decoder import DecoderConfig, bgf_decode
from .errors import ParameterError, SchemaError
from .kem import TAG_ENCAPS_M, TAG_TRIAL, XofStream, check_u64_seed, hash_H, sample_private_key
from .keys import ErrorPair, PrivateKey, SystemParams
from .ring import mul_sparse
from .weakkeys import _check_psi, gen_psi_d_error

RECORD_SCHEMA_VERSION = 1
# the stop rule's granularity: a different value gives different counts, and
# checkpoint tags bind it
BATCH_SIZE = 256


# -- what to decode ------------------------------------------------------------

@dataclass(frozen=True)
class NormalKeys:
    def sample(self, params: SystemParams, seed: bytes) -> PrivateKey:
        return sample_private_key(params, seed)

    def describe(self) -> dict:
        return {"kind": "normal"}

    def check_params(self, params: SystemParams) -> None:
        """Every valid parameter set has normal keys."""


@dataclass(frozen=True)
class FixedKey:
    """Pin one key for every trial (per-key studies such as distance probing)."""

    key: PrivateKey
    label: str = "fixed"

    def sample(self, params: SystemParams, seed: bytes) -> PrivateKey:
        return self.key

    def describe(self) -> dict:
        return {"kind": "fixed", "label": self.label}

    def check_params(self, params: SystemParams) -> None:
        """ParameterError naming both sides unless the key fits the campaign's parameters."""
        try:
            self.key.check_params(params)
        except ParameterError as exc:
            h0 = self.key.h0
            raise ParameterError(f"fixed key {self.label} has r={h0.ring.r}, w={2 * h0.weight()}; "
                                 f"the campaign has r={params.r}, w={params.w} ({exc})") from exc


@dataclass(frozen=True)
class HonestErrors:
    """The encapsulation path: expand a fresh random message through the error hash."""

    def sample(self, params: SystemParams, seed: bytes) -> ErrorPair:
        m = XofStream(TAG_ENCAPS_M, [seed]).read_bits(params.l)
        return hash_H(m, params)

    def describe(self) -> dict:
        return {"kind": "honest"}

    def check_params(self, params: SystemParams) -> None:
        """Every valid parameter set has honest errors."""


@dataclass(frozen=True)
class PsiErrors:
    """Crafted errors: t/2 disjoint position pairs at one cyclic distance."""

    d: int

    def sample(self, params: SystemParams, seed: bytes) -> ErrorPair:
        return gen_psi_d_error(params, self.d, seed)

    def describe(self) -> dict:
        return {"kind": "psi", "d": self.d}

    def check_params(self, params: SystemParams) -> None:
        """ParameterError unless t/2 disjoint pairs at distance d fit at these parameters."""
        _check_psi(params, self.d)


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

    def expected_stop(self, trials: int, failures: int) -> int:
        """Expected stopping count at the running rate: the earlier of the trial cap
        and the first count >= min_trials whose expected failures reach min_failures."""
        if self.satisfied(trials, failures):
            return trials
        needed = self.min_trials
        if self.min_failures > 0:
            if failures == 0:
                return self.max_trials
            needed = max(needed, -(-self.min_failures * trials // failures))
        return min(self.max_trials, needed)


def trial_seeds(master_seed: int, index: int) -> tuple[bytes, bytes]:
    """(key seed, error seed) for one trial; the only source of trial randomness."""
    stream = XofStream(TAG_TRIAL, [master_seed.to_bytes(8, "big"),
                                   index.to_bytes(8, "big")])
    return stream.read(32), stream.read(32)


def run_trial(params: SystemParams, key_class, error_source, cfg: DecoderConfig,
              master_seed: int, index: int) -> bool:
    """True when the decoder fails to recover the planted error.

    A decode that clears the syndrome with some other error also fails, as
    decapsulation rejects it through its hash_H(m') == e' check.
    """
    key_seed, err_seed = trial_seeds(master_seed, index)
    key = key_class.sample(params, key_seed)
    err = error_source.sample(params, err_seed)
    s = mul_sparse(key.h0, err.e0.to_dense()) + mul_sparse(key.h1, err.e1.to_dense())
    outcome = bgf_decode(s, key.h0, key.h1, cfg)
    return not outcome.success or outcome.error != err


def _worker(task) -> int:
    """Failures among one contiguous range of trial indices (one pool task)."""
    params, key_class, error_source, cfg, master_seed, start, count = task
    return sum(run_trial(params, key_class, error_source, cfg, master_seed, i)
               for i in range(start, start + count))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_dfr(params: SystemParams, key_class, error_source, stop: StopRule,
            master_seed: int, parallelism: int = 1,
            checkpoint_path: str | None = None, progress=None) -> dict:
    """Estimate the failure rate of one key class under one error source.

    A key class (``NormalKeys``, ``FixedKey`` or a ``weakkeys.WeakKeySpec``)
    and an error source (``HonestErrors`` or ``PsiErrors``) each have
    ``sample``, ``describe`` and ``check_params``; both parts check the
    parameters before any trial runs or any pool starts.

    Returns the schema-v1 experiment record: the fields that fix the campaign,
    then its counts, point estimate, 95% interval and wall time.  The
    ``timestamp`` field is left blank, so a record is a pure function of its
    arguments apart from ``wall_time_s``.

    ``parallelism`` only splits batches across processes and never affects the
    outcome.  The campaign starts a pool of min(parallelism, usable CPUs)
    workers after every check passes and shuts it down before returning; when
    that minimum is 1, trials run in this process and :mod:`multiprocessing`
    is never imported.  With ``checkpoint_path`` set, a run resumes from the
    checkpoint there and rewrites it after every batch; a path that
    :func:`files.output_path` refuses raises before any trial.
    """
    if parallelism < 1:
        raise ParameterError("parallelism must be >= 1")
    check_u64_seed(master_seed)
    for part in (key_class, error_source):
        part.check_params(params)
    if checkpoint_path:
        files.output_path(checkpoint_path)
    cfg = DecoderConfig.for_params(params)
    rec = {"schema_version": RECORD_SCHEMA_VERSION, "code_version": __version__,
           "params": params.to_json_dict(), "key_class": key_class.describe(),
           "error_source": error_source.describe(), "decoder": cfg.to_json_dict(),
           "stop": asdict(stop), "master_seed": master_seed}

    trials = failures = 0
    # only a checkpoint reads the tag
    tag = _checkpoint_tag(rec, key_class) if checkpoint_path else None
    if checkpoint_path and os.path.exists(checkpoint_path):
        trials, failures = _load_checkpoint(checkpoint_path, tag, stop.max_trials)
    if trials == 0 and stop.satisfied(0, 0):
        raise ParameterError("stop rule is satisfied before any trial runs")

    started = time.monotonic()
    # a batch splits into one task per worker, and under the fork start method
    # the executor starts all max_workers at the first submit, so never ask
    # for more workers than there are CPUs
    workers = min(parallelism, _usable_cpus())
    pool = None
    if workers > 1:
        # imported here, so a run in this process never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while not stop.satisfied(trials, failures):
            # to the next multiple of BATCH_SIZE, also after a checkpoint at any count
            todo = min(BATCH_SIZE - trials % BATCH_SIZE, stop.max_trials - trials)
            chunk = (todo + workers - 1) // workers
            tasks = [(params, key_class, error_source, cfg, master_seed,
                      trials + lo, min(chunk, todo - lo))
                     for lo in range(0, todo, chunk)]
            failures += sum((pool.map if pool else map)(_worker, tasks))
            trials += todo
            if progress is not None:
                progress(trials, failures)
            if checkpoint_path:
                _save_checkpoint(checkpoint_path, tag, trials, failures)
    finally:
        if pool is not None:
            pool.shutdown()

    ci_low, ci_high = confidence_interval(failures, trials)
    rec.update(trials=trials, failures=failures, dfr_point=failures / trials,
               ci_low=ci_low, ci_high=ci_high, met_failure_rule=failures >= stop.min_failures,
               wall_time_s=time.monotonic() - started, timestamp="")
    return rec


# -- checkpoints ---------------------------------------------------------------

def _checkpoint_tag(rec: dict, key_class) -> str:
    """Digest of everything that fixes the trial outcomes; only the stop rule may change.

    The record's experiment fields are bound, with the batch size; a fixed
    key's label is only a name, so its supports are bound too.
    """
    experiment = {name: rec[name] for name in
                  ("params", "key_class", "error_source", "decoder", "master_seed")}
    experiment["batch_size"] = BATCH_SIZE
    if isinstance(key_class, FixedKey):
        experiment["key"] = [key_class.key.h0.support, key_class.key.h1.support]
    return hashlib.sha256(json.dumps(experiment, sort_keys=True).encode()).hexdigest()


def _save_checkpoint(path: str, tag: str, trials: int, failures: int) -> None:
    tmp = path + ".tmp"
    files.write_json(tmp, {"schema_version": RECORD_SCHEMA_VERSION, "tag": tag,
                           "trials_done": trials, "failures": failures})
    os.replace(tmp, path)


def _load_checkpoint(path: str, tag: str, max_trials: int) -> tuple[int, int]:
    blob = files.load_json(path)
    if blob.get("tag") != tag:
        raise SchemaError("checkpoint belongs to a different experiment")
    for name in ("trials_done", "failures"):
        if type(blob.get(name)) is not int or blob[name] < 0:
            raise SchemaError(f"checkpoint {name} must be a nonnegative integer")
    trials, failures = blob["trials_done"], blob["failures"]
    if failures > trials:
        raise SchemaError("checkpoint has more failures than trials")
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
        # one Lentz update per coefficient: the even one, then the odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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
    """Regularized incomplete beta I_x(a, b) for 0 < x < 1."""
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
            # move the result off mid; _betainc thus only sees 0 < mid < 1
            return mid
        if _betainc(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def confidence_interval(failures: int, trials: int) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided 95% binomial interval for failures/trials."""
    if trials <= 0:
        raise ParameterError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ParameterError("failures must lie in [0, trials]")
    alpha = 1.0 - 0.95  # not the literal 0.05: the bounds depend on its last bit
    low = 0.0 if failures == 0 else _betainc_inv(failures, trials - failures + 1, alpha / 2)
    high = 1.0 if failures == trials else _betainc_inv(failures + 1, trials - failures,
                                                       1.0 - alpha / 2)
    return low, high


# -- extrapolation and the security budget --------------------------------------

def extrapolate(p1: tuple[int, float], p2: tuple[int, float],
                r_target: int) -> dict:
    """Extend the line through two (r, log2 DFR) points out to the target r.

    Returns the record's extrapolation block: the two points, the target r,
    log2 DFR there, and whether the DFR failed to fall from r1 to r2.
    """
    (r1, v1), (r2, v2) = p1, p2
    if not r1 < r2 < r_target:
        raise ParameterError("points must satisfy r1 < r2 < r_target")
    if not (math.isfinite(v1) and math.isfinite(v2)):
        raise ParameterError("extrapolation needs finite log2 DFR values")
    slope = (v2 - v1) / (r2 - r1)
    return {"points": [[r1, v1], [r2, v2]], "r_target": r_target,
            "log2_dfr_at_target": v2 + slope * (r_target - r2), "trend_warning": v2 >= v1}


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


# -- the serialized experiment record -------------------------------------------

SUMMARY_CSV_HEADER = "r,trials,failures,dfr,ci_low,ci_high"


def summary_csv_row(record: dict) -> list:
    """One record's fields under SUMMARY_CSV_HEADER, for :func:`files.csv_text`."""
    return [record["params"]["r"], record["trials"], record["failures"],
            *(format(record[k], ".10g") for k in ("dfr_point", "ci_low", "ci_high"))]
