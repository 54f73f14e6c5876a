"""Black-Gray-Flip decoding for the two-block quasi-cyclic code.

The decoder runs a fixed number of bit-flipping iterations over the 2r
positions.  Each iteration recomputes the residual syndrome, derives an
affine threshold from its weight, and flips every position whose count of
unsatisfied parity checks (upc) reaches the threshold.  The first iteration
additionally keeps a Black list (positions just flipped) and a Gray list
(positions that came within tau of the threshold) and re-examines both
against a fixed mask threshold after refreshing the syndrome.

Position k of block b participates in the parity checks indexed by
{(k + s) mod r : s in support(h_b)}, so its upc is the number of ones the
current syndrome has on that set.  The hot loop gathers these counts for all
positions at once through a precomputed (w/2 x r) index table per block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .keys import ErrorPair, SystemParams
from .ring import DensePoly, SparsePoly, _array_to_bits, _bits_to_array, mul_sparse


# published BGF affine threshold constants (slope, intercept, floor) per level
_LEVEL_THRESHOLDS = {"L1": (0.0069722, 13.530, 36), "L3": (0.005265, 15.2588, 52),
                     "L5": (0.00402312, 17.8785, 69)}


@dataclass(frozen=True)
class DecoderConfig:
    """Iteration count, thresholds, and first-iteration list handling.

    The default affine threshold constants are the published level-1 ones;
    :meth:`for_params` picks each level's.  ``mask_threshold=None`` derives
    the re-check threshold (w/2 + 1)/2 + 1 from the key weight at decode
    time.  ``black_gray=False`` turns every iteration into a plain
    bit-flipping step (regression guard).
    """

    nb_iter: int = 5
    tau: int = 3
    thr_slope: float = 0.0069722
    thr_intercept: float = 13.530
    thr_floor: int = 36
    mask_threshold: int | None = None
    black_gray: bool = True

    def __post_init__(self):
        if self.nb_iter < 1 or self.tau < 0 or self.thr_floor < 1:
            raise ParameterError("invalid decoder configuration")
        if self.mask_threshold is not None and self.mask_threshold < 1:
            raise ParameterError("mask_threshold must be >= 1")

    @classmethod
    def for_params(cls, params: SystemParams) -> "DecoderConfig":
        """Published constants for the standard levels; a majority rule otherwise.

        Reduced experimental parameter sets have syndromes far too short for
        the published affine constants (the floor alone would exceed the
        column weight), so they fall back to a constant majority threshold.
        """
        if params.standard:
            slope, intercept, floor = _LEVEL_THRESHOLDS[params.level]
            return cls(thr_slope=slope, thr_intercept=intercept, thr_floor=floor)
        floor = (params.w2 + 1) // 2 + 1
        return cls(thr_slope=0.0, thr_intercept=0.0, thr_floor=floor)

    def mask_threshold_for(self, w2: int) -> int:
        if self.mask_threshold is not None:
            return self.mask_threshold
        return (w2 + 1) // 2 + 1

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class IterationTrace:
    iteration: int
    syndrome_weight: int
    threshold: int
    flips: int
    black: int
    gray: int

    CSV_HEADER = "iter,syndrome_weight,threshold,flips,black,gray"

    def csv_row(self) -> str:
        return (f"{self.iteration},{self.syndrome_weight},{self.threshold},"
                f"{self.flips},{self.black},{self.gray}")


@dataclass(frozen=True)
class DecodeOutcome:
    success: bool
    error: ErrorPair
    iterations_run: int
    trace: tuple[IterationTrace, ...] | None = None


def threshold(syndrome_weight: int, cfg: DecoderConfig) -> int:
    """Smallest upc that triggers a flip for the given syndrome weight."""
    return math.ceil(max(cfg.thr_slope * syndrome_weight + cfg.thr_intercept,
                         float(cfg.thr_floor)))


class DecoderWorkspace:
    """Per-key gather tables; reusable across sequential decodes of one key."""

    def __init__(self, h0: SparsePoly, h1: SparsePoly):
        if h0.ring.r != h1.ring.r:
            raise ParameterError("key blocks live in different rings")
        self.r = h0.ring.r
        self.h0 = h0
        self.h1 = h1
        self.tables = [self._table(h0), self._table(h1)]

    def _table(self, h: SparsePoly) -> np.ndarray:
        r = self.r
        supp = np.asarray(h.support, dtype=np.int32)
        tbl = supp[:, None] + np.arange(r, dtype=np.int32)[None, :]
        tbl[tbl >= r] -= r
        return tbl

    def upc(self, s_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unsatisfied-check counts per position for each block."""
        return (s_arr[self.tables[0]].sum(axis=0, dtype=np.int32),
                s_arr[self.tables[1]].sum(axis=0, dtype=np.int32))


def compute_upc(s: DensePoly, h0: SparsePoly, h1: SparsePoly,
                workspace: DecoderWorkspace | None = None) -> np.ndarray:
    """upc for all 2r positions (block 0 first) under syndrome s."""
    ws = workspace if workspace is not None else DecoderWorkspace(h0, h1)
    if s.ring.r != ws.r:
        raise ParameterError("syndrome ring does not match the key")
    u0, u1 = ws.upc(_bits_to_array(s.bits, ws.r))
    return np.concatenate([u0, u1])


def verify(e: ErrorPair, h0: SparsePoly, h1: SparsePoly, s: DensePoly) -> bool:
    """True when e0*h0 + e1*h1 reproduces the syndrome s."""
    lhs = mul_sparse(h0, e.e0.to_dense()) + mul_sparse(h1, e.e1.to_dense())
    return lhs.bits == s.bits


def bgf_decode(s: DensePoly, h0: SparsePoly, h1: SparsePoly, cfg: DecoderConfig,
               workspace: DecoderWorkspace | None = None,
               record_trace: bool = False) -> DecodeOutcome:
    """Recover the error pair whose syndrome is s, or report failure.

    Deterministic in all inputs; the workspace only caches index tables and
    never changes the result.
    """
    if h0.weight() != h1.weight():
        raise ParameterError("key blocks must have equal weight")
    if s.ring.r != h0.ring.r:
        raise ParameterError("syndrome ring does not match the key")
    ws = workspace if workspace is not None else DecoderWorkspace(h0, h1)
    r = ws.r
    mask_thr = cfg.mask_threshold_for(h0.weight())
    s_in = s.bits

    e_arr = [np.zeros(r, dtype=np.uint8), np.zeros(r, dtype=np.uint8)]
    trace: list[IterationTrace] = []

    def residual_syndrome() -> int:
        acc = s_in
        for b in (0, 1):
            blk = ws.h0 if b == 0 else ws.h1
            e_bits = _array_to_bits(e_arr[b])
            if e_bits:
                acc ^= mul_sparse(blk, DensePoly(s.ring, e_bits)).bits
        return acc

    iterations = 0
    for it in range(1, cfg.nb_iter + 1):
        s_cur = residual_syndrome()
        if s_cur == 0:
            break
        iterations = it
        s_arr = _bits_to_array(s_cur, r)
        thr = threshold(s_cur.bit_count(), cfg)
        upc = ws.upc(s_arr)

        flips = 0
        black = [None, None]
        gray = [None, None]
        for b in (0, 1):
            flip_mask = upc[b] >= thr
            if it == 1 and cfg.black_gray:
                black[b] = flip_mask
                gray[b] = (upc[b] >= thr - cfg.tau) & ~flip_mask
            e_arr[b] ^= flip_mask
            flips += int(flip_mask.sum())

        n_black = n_gray = 0
        if it == 1 and cfg.black_gray:
            n_black = int(black[0].sum() + black[1].sum())
            n_gray = int(gray[0].sum() + gray[1].sum())
            for masks in (black, gray):
                upc = ws.upc(_bits_to_array(residual_syndrome(), r))
                for b in (0, 1):
                    step_mask = masks[b] & (upc[b] >= mask_thr)
                    e_arr[b] ^= step_mask
                    flips += int(step_mask.sum())

        if record_trace:
            trace.append(IterationTrace(iteration=it, syndrome_weight=s_cur.bit_count(),
                                        threshold=thr, flips=flips,
                                        black=n_black, gray=n_gray))

    success = residual_syndrome() == 0
    err = ErrorPair(
        e0=SparsePoly(s.ring, tuple(int(i) for i in np.nonzero(e_arr[0])[0])),
        e1=SparsePoly(s.ring, tuple(int(i) for i in np.nonzero(e_arr[1])[0])),
    )
    return DecodeOutcome(success=success, error=err, iterations_run=iterations,
                         trace=tuple(trace) if record_trace else None)
