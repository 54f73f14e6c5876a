"""One-word-at-a-time reference draws, for the tests only.

Each reference reads one 32-bit word per step and applies the rejection rule
itself: a word v is accepted when v < floor(2^32 / n) * n and gives v mod n.
The weak-key references are the type-1, type-2 and type-3 generators and the
psi sampler written this way, with the psi sampler's three nested loops:
restart the placement, place each pair, retry one pair.  The package reads
words in rounds through ``XofStream.indices``; these loops share none of that
code, so agreement on outputs and stream positions checks the rounds against
the plain rule.  The budgets are read from ``weakkeys`` at call time, so a
test that monkeypatches ``_RESAMPLE_BUDGET`` changes both sides.

The type-1 reference draws its fill from all r - f positions and draws again
when the position map sends two of them to one place.  ``gen_type1`` fills
only the r/gcd(r, d) - f positions that the map keeps apart, so where
gcd(r, d) = 1 the two draw the same keys, and elsewhere only their law agrees.
The reference also starts its run at ``l_shift``, where ``gen_type1`` starts
at 0; the two structured blocks then differ by a rotation of l_shift*d.

The type-2 reference lays the chain's cycle out in tiles, where ``gen_type2``
shifts the i-th drawn slot by i; the two agree only if both follow the same
stars-and-bars rule.
"""

import math

from bikelab import weakkeys
from bikelab.errors import BudgetExhaustedError
from bikelab.kem import TAG_WEAK, XofStream, sample_sigma
from bikelab.keys import ErrorPair, PrivateKey, SystemParams
from bikelab.ring import SparsePoly
from bikelab.weakkeys import difference_counts


def one_word_index(stream: XofStream, n: int) -> int:
    limit = (1 << 32) // n * n
    while True:
        v = int.from_bytes(stream.read(4), "little")
        if v < limit:
            return v % n


def one_word_fixed_weight(stream: XofStream, n: int, weight: int) -> tuple[int, ...]:
    chosen = set()
    while len(chosen) < weight:
        chosen.add(one_word_index(stream, n))
    return tuple(sorted(chosen))


def type1(params: SystemParams, f: int, d: int, l_shift: int, seed: bytes) -> PrivateKey:
    r, w2, ring = params.r, params.w2, params.ring
    stream = XofStream(TAG_WEAK, [seed, bytes([1])])
    weak_index = stream.read(1)[0] & 1
    for _ in range(weakkeys._RESAMPLE_BUDGET):
        fill = one_word_fixed_weight(stream, r - f, w2 - f)
        support = {((p + l_shift) % r) * d % r for p in [*range(f), *(f + q for q in fill)]}
        if len(support) == w2:
            break
    else:
        raise BudgetExhaustedError("type 1")
    blocks = [SparsePoly.from_indices(ring, support),
              SparsePoly(ring, one_word_fixed_weight(stream, r, w2))]
    if weak_index:
        blocks.reverse()
    return PrivateKey(h0=blocks[0], h1=blocks[1], sigma=sample_sigma(seed, params))


def type2(params: SystemParams, d: int, m: int, seed: bytes) -> PrivateKey:
    """Lays the d-cycle through 0 out cell by cell: the chain, one empty cell,
    then one tile per slot, "occupied, empty" for a chosen slot and "empty" for
    any other, so no two occupied cells outside the chain are neighbours and
    the last cell, next to the chain's start, stays empty."""
    r, w2, ring = params.r, params.w2, params.ring
    cycle = r // math.gcd(r, d)
    stream = XofStream(TAG_WEAK, [seed, bytes([2])])
    weak_index = stream.read(1)[0] & 1
    chosen = one_word_fixed_weight(stream, cycle - w2 - 1, w2 - m - 1)
    cells = [1] * (m + 1) + [0]
    for slot in range(cycle - w2 - 1):
        cells += [1, 0] if slot in chosen else [0]
    assert len(cells) == cycle
    support = {p * d % r for p, cell in enumerate(cells) if cell}
    blocks = [SparsePoly.from_indices(ring, support),
              SparsePoly(ring, one_word_fixed_weight(stream, r, w2))]
    if weak_index:
        blocks.reverse()
    return PrivateKey(h0=blocks[0], h1=blocks[1], sigma=sample_sigma(seed, params))


def type3(params: SystemParams, m: int, seed: bytes) -> PrivateKey:
    r, w2, ring = params.r, params.w2, params.ring
    stream = XofStream(TAG_WEAK, [seed, bytes([3])])
    for _ in range(weakkeys._RESAMPLE_BUDGET):
        h0 = one_word_fixed_weight(stream, r, w2)
        picked = one_word_fixed_weight(stream, w2, m)
        rot = one_word_index(stream, r)
        support = {(h0[i] + rot) % r for i in picked}
        while len(support) < w2:
            cand = one_word_index(stream, r)
            if cand in support:
                continue
            if (cand - rot) % r in h0:
                continue
            support.add(cand)
        if difference_counts(h0, support, r)[(-rot) % r] == m:
            return PrivateKey(h0=SparsePoly(ring, h0), h1=SparsePoly.from_indices(ring, support),
                              sigma=sample_sigma(seed, params))
    raise BudgetExhaustedError("type 3")


def psi_counted(params: SystemParams, d: int, seed: bytes) -> tuple[ErrorPair, int]:
    """The psi:d error and the number of restarts it took."""
    r, t, ring = params.r, params.t, params.ring
    budget = weakkeys._RESAMPLE_BUDGET
    stream = XofStream(TAG_WEAK, [seed, bytes([4]), d.to_bytes(4, "big")])
    for restarts in range(budget):
        used = set()
        for _ in range(t // 2):
            for _ in range(budget):
                p = one_word_index(stream, r)
                q = (p + d) % r
                if p not in used and q not in used and p != q:
                    used |= {p, q}
                    break
            else:
                break  # this pair kept missing: restart the placement
        else:
            return ErrorPair(e0=SparsePoly.from_indices(ring, used),
                             e1=SparsePoly(ring, ())), restarts
    raise BudgetExhaustedError("psi")
