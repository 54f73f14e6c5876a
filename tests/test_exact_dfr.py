"""Exact decoding failure rates by enumeration: a ground truth for the DFR pipeline.

At small r a fixed key can be decoded against every weight-t error, which
gives the key's exact failure rate (Sendrier and Vasseur, "On the decoding
failure rate of QC-MDPC bit-flipping decoders", PQCrypto 2019).  Four checks
rest on it:

* the exact failure counts of two fixed keys, and of a third over the errors
  through one position, a count that moves with the gray margin ``TAU``;
* the symmetries that keep a key's exact count: rotating each block, swapping
  the blocks, and multiplying both blocks' positions by one unit of Z_r.  A
  type-1 run started at s is its block rotated by s*d, so these are why the
  family has no start parameter;
* ``bgf_decode`` against the ``reference_bgf_decode`` oracle on every
  enumerated error, in outcome, error and iterations;
* ``run_dfr`` with honest errors, a uniform draw of a weight-t error, whose
  Clopper-Pearson intervals must cover the exact rate about as often as their
  95% level promises.

A decode fails as in ``dfr.run_trial``: it does not clear the syndrome, or it
clears it with an error other than the planted one.  Every seed is fixed, so
the outcome is deterministic.
"""

import math
from dataclasses import replace
from itertools import combinations

import pytest

from bikelab import (DecoderConfig, ErrorPair, FixedKey, HonestErrors, SparsePoly, StopRule,
                     bgf_decode, custom_params, run_dfr, sample_private_key)
from bikelab.kem import expand_u64_seed
from bikelab.ring import DensePoly

from test_decoder import reference_bgf_decode

KEY_SEED = 5
# (r, w, t) -> failures among all C(2r, t) weight-t errors, for the key of KEY_SEED
EXACT = {(43, 10, 2): (645, 3655), (31, 10, 2): (558, 1891)}


def fixed_key(r, w, t):
    params = custom_params(r, w, t)
    return params, sample_private_key(params, expand_u64_seed(KEY_SEED))


def every_error(params, key, through_zero=False):
    """(syndrome, planted error) for each weight-t error over the 2r positions, or
    with ``through_zero`` for each one that holds position 0.

    Column k of block b is h_b rotated by k, so a syndrome is the XOR of the
    error's columns; this does not go through ``mul_sparse``.
    """
    r, ring = params.r, params.ring
    columns = []
    for h in (key.h0, key.h1):
        bits = h.to_dense().bits
        columns += [(bits << k | bits >> (r - k)) & ring.mask for k in range(r)]
    supports = combinations(range(2 * r), params.t)
    if through_zero:
        supports = ((0, *rest) for rest in combinations(range(1, 2 * r), params.t - 1))
    for positions in supports:
        s = 0
        for p in positions:
            s ^= columns[p]
        err = ErrorPair(SparsePoly(ring, tuple(p for p in positions if p < r)),
                        SparsePoly(ring, tuple(p - r for p in positions if p >= r)))
        yield DensePoly(ring, s), err


def failed(outcome, err) -> bool:
    return not outcome.success or outcome.error != err


@pytest.fixture(scope="module")
def r43_decodes():
    """(key, config, [(syndrome, planted error, outcome)]) over every error at r=43."""
    params, key = fixed_key(43, 10, 2)
    cfg = DecoderConfig.for_params(params)
    return key, cfg, [(s, err, bgf_decode(s, key.h0, key.h1, cfg))
                      for s, err in every_error(params, key)]


def test_exact_failures_r43(r43_decodes):
    _key, _cfg, decodes = r43_decodes
    assert (sum(failed(out, err) for _s, err, out in decodes), len(decodes)) == EXACT[43, 10, 2]


def exact_count(params, key, through_zero=False) -> tuple[int, int]:
    """(failures, errors) over every weight-t error, or every one through 0."""
    cfg = DecoderConfig.for_params(params)
    outcomes = [failed(bgf_decode(s, key.h0, key.h1, cfg), err)
                for s, err in every_error(params, key, through_zero)]
    return sum(outcomes), len(outcomes)


def test_exact_failures_r31():
    assert exact_count(*fixed_key(31, 10, 2)) == EXACT[31, 10, 2]


def test_exact_failures_move_with_the_gray_margin():
    # the weight-2 counts above are the same under TAU = 2, 3 and 4; over the
    # C(85, 2) weight-3 errors through position 0 at r=43, w=14, the key of seed 1
    # fails on 2713, 2717 and 2720 of them
    params = custom_params(43, 14, 3)
    key = sample_private_key(params, expand_u64_seed(1))
    assert exact_count(params, key, through_zero=True) == (2717, 3570)


# name -> (map of the supports (a, b) of (h0, h1), positions mod r; failures after it)
MOVES = {
    "rotate-h0-by-5-h1-by-11": (lambda a, b: ([p + 5 for p in a], [p + 11 for p in b]), 558),
    "swap-blocks": (lambda a, b: (b, a), 558),
    "both-times-3": (lambda a, b: ([3 * p for p in a], [3 * p for p in b]), 558),
    "both-times-minus-1": (lambda a, b: ([-p for p in a], [-p for p in b]), 558),
    # the control: a unit applied to one block only is no symmetry
    "h0-alone-times-3": (lambda a, b: ([3 * p for p in a], b), 310),
}


@pytest.mark.parametrize("move", MOVES)
def test_exact_failures_under_a_block_map(move):
    params, key = fixed_key(31, 10, 2)
    move_supports, failures = MOVES[move]
    a, b = move_supports(key.h0.support, key.h1.support)
    moved = replace(key, h0=SparsePoly.from_indices(params.ring, (p % params.r for p in a)),
                    h1=SparsePoly.from_indices(params.ring, (p % params.r for p in b)))
    assert exact_count(params, moved) == (failures, EXACT[31, 10, 2][1])


def test_decoder_matches_reference_on_every_error(r43_decodes):
    key, cfg, decodes = r43_decodes
    disagree = []
    for s, err, out in decodes:
        ref = reference_bgf_decode(s, key.h0, key.h1, cfg)
        if (out.success, out.error, out.iterations_run) != (
                ref.success, ref.error, ref.iterations_run):
            disagree.append(err)
    assert disagree == []


def binomial_floor(k: int, p: float, tail: float) -> int:
    """Largest c with P(Binomial(k, p) < c) <= tail."""
    below = 0.0
    for c in range(k + 1):
        below += math.comb(k, c) * p ** c * (1 - p) ** (k - c)
        if below > tail:
            return c
    return k


def test_honest_campaign_intervals_cover_the_exact_rate():
    # Clopper-Pearson intervals cover with probability at least 95%, so fewer
    # covering seeds than the floor would have probability below 1e-3
    params, key = fixed_key(31, 10, 2)
    failures, errors = EXACT[31, 10, 2]
    seeds, trials = 30, 256
    stop = StopRule(min_failures=0, min_trials=trials, max_trials=trials)
    covered = 0
    for seed in range(seeds):
        rec = run_dfr(params, FixedKey(key), HonestErrors(), stop, master_seed=seed)
        assert rec["trials"] == trials
        covered += rec["ci_low"] <= failures / errors <= rec["ci_high"]
    assert covered >= binomial_floor(seeds, 0.95, 1e-3)
