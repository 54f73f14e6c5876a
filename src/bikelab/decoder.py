"""Black-Gray-Flip decoding for the two-block quasi-cyclic code.

The decoder runs a fixed number of bit-flipping iterations over the 2r
positions.  Each iteration recomputes the residual syndrome, derives an
affine threshold from its weight, and flips every position whose count of
unsatisfied parity checks (upc) reaches the threshold.  The first iteration
additionally keeps a Black list (positions just flipped) and a Gray list
(positions that came within tau of the threshold) and re-examines both
against a fixed mask threshold after refreshing the syndrome.

Position k of block b participates in the parity checks indexed by
{(k + p) mod r : p in support(h_b)}, so its upc is the number of ones the
current syndrome s has on that set.  Over the doubled syndrome
s2 = s || s that is entry k of the contiguous slice s2[p : p + r], so a
block's upc vector is the sum of its w/2 slices (the rotate-and-add UPC of
Drucker, Gueron and Kostic), accumulated in the smallest unsigned type that
holds w/2.  No per-key state is built.

The form of a UPC pass depends on its size, the w rows of r bytes it reads.
Up to ``_UPC_GATHER_BYTES`` it is one fancy gather of all w rows of a
strided view of s2 and one sum (reduced sets such as r=523..1523); above it
(L1, L3, L5) it stays w slice adds, which keep the working set in cache.
The Black/Gray re-check needs the upc only where its mask is set.  On the
slice side it reads just the (w/2) x |mask| entries s2[p + k] (black plus
gray is 30-100 of the 24646 positions at L1); on the gather side, where
gray covers a large share of r, one full pass is cheaper.

The error estimate is one (2, r) uint8 array.  The residual syndrome is
still re-computed by multiplying the estimate by the key, one ``mul_sparse``
per non-zero block per evaluation, rather than updated from the flips: the
benchmark pins ``ring.mul_sparse.calls``, so the call pattern stays.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .keys import ErrorPair, SystemParams
from .ring import (DensePoly, SparsePoly, _array_to_bits, _bits_to_array, _check_same_ring,
                   mul_sparse)


# published BGF affine threshold constants (slope, intercept, floor) per level
_LEVEL_THRESHOLDS = {"L1": (0.0069722, 13.530, 36), "L3": (0.005265, 15.2588, 52),
                     "L5": (0.00402312, 17.8785, 69)}

# Up to this many bytes gathered per UPC pass (w rows of r bytes), the pass is
# one fancy gather of all w rows; above it, one slice add per row.  Measured
# (numpy 2.4, 2-vCPU VM with a 2 MiB L2), UPC pass of both blocks, slices ->
# gather: r=523 31 -> 9 us, r=1259 51 -> 11 us, r=1019 w/2=257 853 -> 113 us,
# L1 207 -> 151 us, L3 402 -> 504 us, L5 763 -> 1259 us.  Whole decodes still
# gain from the gather at 1.3 MB (r=9349, w/2=71) but lose at L1 (1.75 MB, 2.0
# -> 2.4 ms), where the rows no longer fit in L2 beside the rest.
_UPC_GATHER_BYTES = 1 << 20


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


def _check_key(s: DensePoly, h0: SparsePoly, h1: SparsePoly) -> None:
    if h0.weight() != h1.weight():
        raise ParameterError("key blocks must have equal weight")
    _check_same_ring(h0, h1)
    if s.ring.r != h0.ring.r:
        raise ParameterError("syndrome ring does not match the key")


def _doubled(s_bits: int, r: int) -> np.ndarray:
    """The syndrome s_bits written twice, s || s, as a uint8 array of length 2r."""
    return _bits_to_array(s_bits | s_bits << r, 2 * r)


def _gathers(supp: np.ndarray, r: int) -> bool:
    """True when a UPC pass over supports supp is one gather (the size rule)."""
    return supp.size * r <= _UPC_GATHER_BYTES


def _upc_blocks(s2: np.ndarray, supp: np.ndarray) -> np.ndarray:
    """(2, r) unsatisfied-check counts of both blocks from the doubled syndrome s2.

    ``supp`` holds the support of h0 and of h1 as the rows of a (2, w/2) array.
    """
    r = s2.size // 2
    dtype = np.min_scalar_type(supp.shape[1])
    if _gathers(supp, r):
        # row p of this (r + 1, r) view of s2 is the slice s2[p : p + r]
        windows = np.ndarray((r + 1, r), np.uint8, s2, 0, (1, 1))
        return windows[supp].sum(axis=1, dtype=dtype)
    out = np.zeros((2, r), dtype=dtype)
    for acc, row in zip(out, supp.tolist()):
        for p in row:
            acc += s2[p:p + r]
    return out


def compute_upc(s: DensePoly, h0: SparsePoly, h1: SparsePoly) -> np.ndarray:
    """upc for all 2r positions (block 0 first) under syndrome s.

    The dtype is the smallest unsigned integer type that holds w/2.  The key
    blocks must have equal weight, as for :func:`bgf_decode`.
    """
    _check_key(s, h0, h1)
    supp = np.array([h0.support, h1.support], dtype=np.intp)
    return _upc_blocks(_doubled(s.bits, s.ring.r), supp).reshape(-1)


def verify(e: ErrorPair, h0: SparsePoly, h1: SparsePoly, s: DensePoly) -> bool:
    """True when e0*h0 + e1*h1 reproduces the syndrome s."""
    lhs = mul_sparse(h0, e.e0.to_dense()) + mul_sparse(h1, e.e1.to_dense())
    return lhs.bits == s.bits


def bgf_decode(s: DensePoly, h0: SparsePoly, h1: SparsePoly, cfg: DecoderConfig,
               record_trace: bool = False) -> DecodeOutcome:
    """Recover the error pair whose syndrome is s, or report failure.

    Deterministic in all inputs.  Each evaluation of the residual syndrome
    re-multiplies the current error estimate by the key, one ``mul_sparse``
    per non-zero block, and each UPC pass reads the doubled residual.
    """
    _check_key(s, h0, h1)
    r = h0.ring.r
    supp = np.array([h0.support, h1.support], dtype=np.intp)
    gather = _gathers(supp, r)
    mask_thr = cfg.mask_threshold_for(h0.weight())
    e = np.zeros((2, r), dtype=np.uint8)
    trace: list[IterationTrace] = []

    def residual_syndrome() -> int:
        acc = s.bits
        for blk, row in zip((h0, h1), e):
            e_bits = _array_to_bits(row)
            if e_bits:
                acc ^= mul_sparse(blk, DensePoly(s.ring, e_bits)).bits
        return acc

    iterations = 0
    for it in range(1, cfg.nb_iter + 1):
        s_cur = residual_syndrome()
        if s_cur == 0:
            break
        iterations = it
        weight = s_cur.bit_count()
        thr = threshold(weight, cfg)
        upc = _upc_blocks(_doubled(s_cur, r), supp)
        black = upc >= thr
        e ^= black
        flips = int(np.count_nonzero(black))
        n_black = n_gray = 0
        if it == 1 and cfg.black_gray:
            n_black = flips
            gray = (upc >= thr - cfg.tau) & ~black
            n_gray = int(np.count_nonzero(gray))
            for mask in (black, gray):
                s2 = _doubled(residual_syndrome(), r)
                if gather:
                    step = mask & (_upc_blocks(s2, supp) >= mask_thr)
                else:
                    # upc only where the mask is set: (w/2) x |mask| entries
                    blk, pos = np.nonzero(mask)
                    step = np.zeros_like(mask)
                    step[blk, pos] = s2[supp[blk].T + pos].sum(axis=0) >= mask_thr
                e ^= step
                flips += int(np.count_nonzero(step))

        if record_trace:
            trace.append(IterationTrace(iteration=it, syndrome_weight=weight,
                                        threshold=thr, flips=flips,
                                        black=n_black, gray=n_gray))

    success = residual_syndrome() == 0
    err = ErrorPair(e0=SparsePoly(s.ring, tuple(np.flatnonzero(e[0]).tolist())),
                    e1=SparsePoly(s.ring, tuple(np.flatnonzero(e[1]).tolist())))
    return DecodeOutcome(success=success, error=err, iterations_run=iterations,
                         trace=tuple(trace) if record_trace else None)
