"""Classify a private key as Weak or Normal before it is ever used.

Both screens read the pair-difference histogram of :mod:`weakkeys` and reject
the key when a count exceeds the threshold T.  The first folds each block's
self-differences into its distance spectrum and reports the largest
multiplicity, ties to the smallest distance (single-block families).  The
second counts h0-minus-h1 differences, |h0 & x^s h1| at shift s, and reports
the first offending shift in (j, k) scan order (cross-block family).
``keygen_checked`` is keygen, then this screen, regenerating while it rejects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, ParameterError
from .kem import TAG_CHECKED_SUBSEED, XofStream, keygen
from .keys import PrivateKey, PublicKey, SystemParams
from .ring import SparsePoly, _check_key_blocks
from .weakkeys import difference_counts, distance_multiplicities, pair_differences

# the screen's defaults, for the API and the CLI alike
DEFAULT_T = 10
DEFAULT_BUDGET = 100


@dataclass(frozen=True)
class KeyCheckConfig:
    """Multiplicity/intersection threshold; keys exceeding it are Weak."""

    threshold_T: int = DEFAULT_T

    def __post_init__(self):
        if self.threshold_T < 1:
            raise ParameterError("threshold must be >= 1")


@dataclass(frozen=True)
class KeyVerdict:
    """A key is Weak exactly when the screen found a reason; Normal otherwise.

    The reason is the dict the verdict JSON prints: {"kind":
    "per_block_multiplicity", "block", "distance", "multiplicity"} or {"kind":
    "cross_block_intersection", "shift", "size"}.
    """

    reason: dict | None = None

    @property
    def is_weak(self) -> bool:
        return self.reason is not None

    def to_json_dict(self, cfg: KeyCheckConfig) -> dict:
        return {"verdict": "Weak" if self.is_weak else "Normal", "reason": self.reason,
                "T": cfg.threshold_T}


def key_check(h0: SparsePoly, h1: SparsePoly, cfg: KeyCheckConfig) -> KeyVerdict:
    """Weak/Normal verdict from supports alone (sigma never matters)."""
    _check_key_blocks(h0, h1)
    r = h0.ring.r
    t = cfg.threshold_T

    for block_index, h in enumerate((h0, h1)):
        mult = distance_multiplicities(h.support, r)
        worst = int(np.argmax(mult))  # first maximum: ties go to the smallest d
        if mult[worst] > t:
            return KeyVerdict({"kind": "per_block_multiplicity", "block": block_index,
                               "distance": worst, "multiplicity": int(mult[worst])})

    overlap = difference_counts(h0.support, h1.support, r)
    if overlap.max() > t:
        shifts = pair_differences(h0.support, h1.support, r)
        shift = int(shifts[np.argmax(overlap[shifts] > t)])
        return KeyVerdict({"kind": "cross_block_intersection", "shift": shift,
                           "size": int(overlap[shift])})
    return KeyVerdict()


def keygen_checked(params: SystemParams, seed: bytes, cfg: KeyCheckConfig,
                   budget: int = DEFAULT_BUDGET) -> tuple[PrivateKey, PublicKey, int]:
    """Generate keys until one passes the check; returns (sk, pk, rejected).

    Candidate i is :func:`keygen` of the i-th sub-seed, screened after its
    inversion, so a rejected candidate pays for one.  An h0 that does not
    invert (an experimental ring) is a parameter error, as in :func:`keygen`.
    """
    if budget < 1:
        raise ParameterError(f"check budget must be >= 1, got {budget}")
    rejected = 0
    for i in range(budget):
        sub_seed = XofStream(TAG_CHECKED_SUBSEED, [seed, i.to_bytes(4, "big")]).read(32)
        sk, pk = keygen(params, sub_seed)
        if not key_check(sk.h0, sk.h1, cfg).is_weak:
            return sk, pk, rejected
        rejected += 1
    raise BudgetExhaustedError(
        f"no key passed the check in {budget} attempts (T={cfg.threshold_T})")
