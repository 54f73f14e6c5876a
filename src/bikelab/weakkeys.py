"""Weak-key families, distance spectra, crafted error patterns, and densities.

Three families of dangerous private keys are generated constructively:

  type 1  one block carries a run of f support positions at constant step d
          from position 0 (plus random fill), giving distance d a
          multiplicity of at least f - 1 in that block; the other block is
          uniformly random;
  type 2  one block whose spectrum has multiplicity exactly m at one
          distance d: an (m+1)-term chain at step d from position 0, and a
          fill on the chain's cycle with no two positions d apart and none
          d from the chain; the other block is uniformly random;
  type 3  cross-block structure: m support positions of h1 are a rotation of
          m support positions of h0, so some alignment of the two blocks
          intersects in exactly m positions.

Types 1 and 2 share one draw (:func:`_plant`) and differ only in how they
draw the structured block, as indices on the cycle that the d-steps trace
through position 0.  The structured block's index is a fair coin from the
seed stream: the family's counting formulas carry a factor 2 for exactly this
choice, so sampling the class uniformly requires it (and the measured failure
rates of the family depend on the other block staying random).
Before any draw, each generator refuses parameters whose planted part cannot
fit: type 1's mapped positions; type 2's chain, and a w/2 above the most
positions its cycle holds with exactly m pairs at distance d
(:func:`_type2_capacity`); type 3's fill of h1; the t/2 pairs of a psi error
(:func:`_check_psi`).  No planted family redraws: types 1 and 2 fill their
cycle in one draw, and type 3 re-verifies its planted overlap before
returning.  Only the psi sampler still restarts, within a budget.
A :class:`WeakKeySpec` is itself a DFR campaign's key class: it samples,
describes and checks itself like ``dfr.NormalKeys``.
Spectra and block overlaps both come from :func:`difference_counts`.
Key-space counts for the families are exact integers from big-integer
binomials; only their log2 (:func:`log2_count`, :func:`log2_density`) is a float.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BudgetExhaustedError, ParameterError, parse_int
from .kem import TAG_WEAK, XofStream, sample_fixed_weight, sample_sigma
from .keys import ErrorPair, PrivateKey, SystemParams
from .ring import SparsePoly

_RESAMPLE_BUDGET = 1000


def pair_differences(p, q, r: int) -> np.ndarray:
    """(p_j - q_k) mod r for every pair, flattened in (j, k) scan order."""
    p = np.fromiter(p, dtype=np.int64)
    q = np.fromiter(q, dtype=np.int64)
    return ((p[:, None] - q) % r).ravel()


def difference_counts(p, q, r: int) -> np.ndarray:
    """out[s] = #{(j, k) : p_j - q_k = s (mod r)}, i.e. |a & x^s b| for supports p of a, q of b."""
    return np.bincount(pair_differences(p, q, r), minlength=r)


def distance_multiplicities(supp, r: int) -> np.ndarray:
    """out[d] = number of support pairs at cyclic distance d, for d in [0, r/2] (odd r)."""
    out = difference_counts(supp, supp, r)[: r // 2 + 1]
    out[0] = 0
    return out


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ParameterError(f"{name} must be in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class DistanceSpectrum:
    """Multiplicity of every distance 1..floor(r/2) among a support's position pairs."""

    r: int
    mult: dict[int, int]

    def existing(self) -> set[int]:
        return {d for d, m in self.mult.items() if m > 0}

    CSV_HEADER = "d,multiplicity"


def spectrum(h: SparsePoly) -> DistanceSpectrum:
    """Distance spectrum of a ring element's support, over every distance 1..floor(r/2)."""
    r = h.ring.r
    mult = distance_multiplicities(h.support, r)[1:].tolist()
    return DistanceSpectrum(r=r, mult=dict(enumerate(mult, start=1)))


# the parameters each family reads, by their descriptor names
_FAMILY_PARAMS = {1: ("f", "d"), 2: ("m", "d"), 3: ("m",)}


@dataclass(frozen=True)
class WeakKeySpec:
    """Family selector plus the family-specific parameters; a family takes no others."""

    family: int
    f: int | None = None
    d: int | None = None
    m: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMS:
            raise ParameterError(f"unknown weak-key family {self.family}")
        reads = _FAMILY_PARAMS[self.family]
        given = {"f": self.f, "d": self.d, "m": self.m}
        unread = [k for k, v in given.items() if v is not None and k not in reads]
        if unread:
            raise ParameterError(f"type {self.family} takes no {', '.join(unread)}")
        missing = [k for k in reads if given[k] is None]
        if missing:
            raise ParameterError(f"type {self.family} requires {' and '.join(missing)}")

    def check_params(self, params: SystemParams) -> None:
        """ParameterError unless :meth:`sample` can plant the family at these parameters."""
        if self.family == 1:
            _check_type1(params, self.f, self.d)
        elif self.family == 2:
            _check_type2(params, self.d, self.m)
        else:
            _check_type3(params, self.m)

    def sample(self, params: SystemParams, seed: bytes) -> PrivateKey:
        # through the module globals, where a tracer may wrap the generators
        if self.family == 1:
            return gen_type1(params, self.f, self.d, seed)
        if self.family == 2:
            return gen_type2(params, self.d, self.m, seed)
        return gen_type3(params, self.m, seed)

    def describe(self) -> dict:
        return {"kind": "weak", **asdict(self)}

    def log2_eta(self, params: SystemParams) -> float:
        """log2 density of the family (type 2's count bound also needs a run count s)."""
        if self.family == 1:
            return log2_density(params, count_type1(params, self.f))
        if self.family == 3:
            return log2_density(params, count_type3_upper(params, self.m))
        raise ParameterError("type 2 has no density without a run count; use type1 or type3")

    @classmethod
    def parse(cls, text: str) -> "WeakKeySpec":
        """Parse "type1:f=40,d=1" style descriptors; where the family reads d, it
        defaults to 1."""
        head, _, rest = text.partition(":")
        if not head.startswith("type") or head[4:] not in ("1", "2", "3"):
            raise ParameterError(f"bad weak-key family in {text!r}")
        family = int(head[4:])
        kv: dict[str, int] = {}
        if rest:
            for part in rest.split(","):
                k, _, v = part.partition("=")
                if k not in ("f", "d", "m"):
                    raise ParameterError(f"bad weak-key parameter {part!r}")
                if k in kv:
                    raise ParameterError(f"weak-key parameter {k} given twice in {text!r}")
                kv[k] = parse_int(v, f"bad weak-key parameter {part!r}")
        return cls(family, **{"d": 1 if family in (1, 2) else None, **kv})


def _check_type1(params: SystemParams, f: int, d: int) -> None:
    r, w2 = params.r, params.w2
    _check_range("f", f, 2, w2)
    _check_range("d", d, 1, r // 2)
    if w2 > r // math.gcd(r, d):
        # p -> p*d mod r hits only the r/gcd(r, d) multiples of gcd(r, d)
        raise ParameterError(f"type 1 needs w/2 <= r/gcd(r, d) = {r // math.gcd(r, d)}, "
                             f"got w/2={w2} at d={d}")


def _plant(params: SystemParams, seed: bytes, family: int, d: int, draw) -> PrivateKey:
    """Key with one structured block, at a fair-coin index, and one uniform block.

    ``draw(stream)`` returns the structured block as indices on the d-cycle through
    0, each sent to p*d mod r: p and p' meet exactly when p = p' mod r/gcd(r, d),
    so indices below r/gcd(r, d) give distinct positions.
    """
    r = params.r
    stream = XofStream(TAG_WEAK, [seed, bytes([family])])
    weak_index = stream.read(1)[0] & 1
    # draws give Python ints, so from_indices' int() pass (10 us per L1 key) is skipped;
    # the constructor still refuses a repeated position
    structured = SparsePoly(params.ring, tuple(sorted(p * d % r for p in draw(stream))))
    free = SparsePoly(params.ring, sample_fixed_weight(stream, r, params.w2))
    blocks = (structured, free) if weak_index == 0 else (free, structured)
    return PrivateKey(h0=blocks[0], h1=blocks[1], sigma=sample_sigma(seed, params))


def gen_type1(params: SystemParams, f: int, d: int, seed: bytes) -> PrivateKey:
    """One block with f support positions at constant step d plus random fill.

    The run starts at position 0: a run started at s would be this block rotated
    by s*d, which changes no spectrum, overlap or failure count.
    """
    _check_type1(params, f, d)
    r, w2 = params.r, params.w2

    def draw(stream):
        # run on cycle indices 0..f-1, fill on f..r/g-1
        fill = sample_fixed_weight(stream, r // math.gcd(r, d) - f, w2 - f)
        return [*range(f), *(f + q for q in fill)]
    return _plant(params, seed, 1, d, draw)


def _type2_capacity(r: int, d: int, m: int) -> int:
    """Largest weight of a block on the d-cycle through 0 that holds the (m+1)-term
    chain at step d and has exactly m pairs at distance d, for m + 1 < r/gcd(r, d).

    The cycle has L = r/gcd(r, d) positions.  The chain's two outer neighbours
    stay empty, which leaves a path of L - m - 3 positions for at most
    (L - m - 2)/2 more, none two adjacent: (L + m)/2 in all.
    """
    return (r // math.gcd(r, d) + m) // 2


def _check_type2(params: SystemParams, d: int, m: int) -> None:
    """ParameterError unless type 2's chain closes no cycle and w/2 is within capacity.

    Every accepted parameter set has a family block, and ``gen_type2`` draws
    one in a single pass.
    """
    r, w2 = params.r, params.w2
    _check_range("m", m, 1, w2 - 1)
    _check_range("d", d, 1, r // 2)
    # the chain 0, d, ... runs round a cycle of r/gcd(r, d) positions,
    # and m + 1 terms that fill it close it into m + 1 pairs at distance d
    if m + 1 >= r // math.gcd(r, d):
        raise ParameterError(f"type 2 needs m + 1 < r/gcd(r, d) = {r // math.gcd(r, d)}, "
                             f"got m={m} at d={d}")
    if w2 > _type2_capacity(r, d, m):
        raise ParameterError(f"type 2 fits at most {_type2_capacity(r, d, m)} positions with "
                             f"exactly m={m} pairs at d={d} in r={r}, got w/2={w2}")


def gen_type2(params: SystemParams, d: int, m: int, seed: bytes) -> PrivateKey:
    """One block whose spectrum multiplicity at distance d is exactly m.

    On the d-cycle through 0, of L = r/gcd(r, d) indices, the chain takes 0..m,
    and the fill takes w/2 - m - 1 of the path m+2..L-2, no two adjacent, so
    exactly the chain's m pairs lie d apart.  By stars and bars, such fills
    match the (w/2 - m - 1)-subsets q of L - w/2 - 1 slots, with the i-th
    smallest slot at index m + 2 + q_i + i, so one fixed-weight draw is
    uniform over them.  The chain starts at 0 as type 1's run does.
    """
    _check_type2(params, d, m)
    r, w2 = params.r, params.w2

    def draw(stream):
        fill = sample_fixed_weight(stream, r // math.gcd(r, d) - w2 - 1, w2 - m - 1)
        return [*range(m + 1), *(m + 2 + q + i for i, q in enumerate(fill))]
    return _plant(params, seed, 2, d, draw)


def _check_type3(params: SystemParams, m: int) -> None:
    _check_range("m", m, 1, params.w2)
    if params.r < params.w - m:
        # h1's fill draws w/2 - m positions from the r - w/2 that miss the rotated h0
        raise ParameterError(f"type 3 needs r >= w - m = {params.w - m}, got r={params.r}")


def gen_type3(params: SystemParams, m: int, seed: bytes) -> PrivateKey:
    """Blocks where a rotation of h1 matches h0 in exactly m support positions."""
    _check_type3(params, m)
    r, w2 = params.r, params.w2
    ring = params.ring
    stream = XofStream(TAG_WEAK, [seed, bytes([3])])
    h0 = SparsePoly(ring, sample_fixed_weight(stream, r, w2))
    picked = sample_fixed_weight(stream, w2, m)
    shared = [h0.support[i] for i in picked]
    [rot] = stream.indices(r, 1)
    support = {(p + rot) % r for p in shared}
    while len(support) < w2:
        # a candidate whose pre-image lies in h0 would inflate the planted overlap
        support.update(c for c in stream.indices(r, w2 - len(support))
                       if (c - rot) % r not in h0.support)
    h1 = SparsePoly.from_indices(ring, support)
    # the fill skips every pre-image in h0, so the overlap is the m shared positions
    if difference_counts(h0.support, h1.support, r)[(-rot) % r] != m:
        raise RuntimeError(f"type-3 overlap at the planted alignment is not m={m}")
    return PrivateKey(h0=h0, h1=h1, sigma=sample_sigma(seed, params))


def _check_psi(params: SystemParams, d: int) -> None:
    r, t = params.r, params.t
    if t % 2 != 0:
        raise ParameterError("crafted pair errors need an even t")
    _check_range("d", d, 1, r // 2)
    # the d-pairs of Z_r form gcd(r, d) cycles of odd length r/gcd
    if t > r - math.gcd(r, d):
        raise ParameterError(f"at most {(r - math.gcd(r, d)) // 2} disjoint pairs at "
                             f"distance {d} fit in r={r}; t={t} needs {t // 2}")


def gen_psi_d_error(params: SystemParams, d: int, seed: bytes) -> ErrorPair:
    """Error with all weight in the first half: t/2 disjoint pairs at distance d.

    Each accepted index p proposes the pair (p, p + d); a pair that meets a placed
    one is a miss.  A run of _RESAMPLE_BUDGET misses in a row restarts the
    placement, and _RESAMPLE_BUDGET restarts give up.
    """
    _check_psi(params, d)
    r, t = params.r, params.t
    stream = XofStream(TAG_WEAK, [seed, bytes([4]), d.to_bytes(4, "big")])
    used: set[int] = set()
    misses = restarts = 0
    while len(used) < t:
        for p in stream.indices(r, (t - len(used)) // 2):
            pair = {p, (p + d) % r}
            misses = 0 if used.isdisjoint(pair) else misses + 1
            if not misses:
                used |= pair
            elif misses == _RESAMPLE_BUDGET:
                used, misses, restarts = set(), 0, restarts + 1
                if restarts == _RESAMPLE_BUDGET:
                    raise BudgetExhaustedError("could not place disjoint distance-d pairs")
    return ErrorPair(e0=SparsePoly.from_indices(params.ring, used),
                     e1=SparsePoly(params.ring, ()))


# -- exact key-space counting -------------------------------------------------

def _comb(n: int, k: int) -> int:
    """Binomial with the convention C(n, k) = 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def log2_count(n: int) -> float:
    """log2 of an exact nonnegative count; -inf at 0."""
    return math.log2(n) if n else float("-inf")


def count_type1(params: SystemParams, f: int) -> int:
    """2 r floor(r/2) C(r-f, w/2-f): size bound of the type-1 family."""
    r, w2 = params.r, params.w2
    _check_range("f", f, 0, w2)
    return 2 * r * (r // 2) * _comb(r - f, w2 - f)


def log2_density(params: SystemParams, count: int) -> float:
    """log2 of a family's key fraction, count / C(r, w/2) (single-block normalization)."""
    return log2_count(count) - math.log2(_comb(params.r, params.w2))


def count_type2_upper(params: SystemParams, m: int, s: int) -> int:
    """Run-structure bound for blocks of s zero-runs and s one-runs.

    Sums (o1 + z1) C(w/2 - o1 - 1, s - 2) C(r - w/2 - z1 - 1, s - 2) over
    z1 in [1, r - w + m + 1] and o1 in [1, m + 1], times 2 floor(r/2).
    """
    r, w, w2 = params.r, params.w, params.w2
    if s < 2:
        raise ParameterError(f"s must be >= 2, got {s}")
    _check_range("m", m, 1, w2 - 1)
    ones_total = sum(_comb(w2 - o1 - 1, s - 2) for o1 in range(1, m + 2))
    ones_weighted = sum(o1 * _comb(w2 - o1 - 1, s - 2) for o1 in range(1, m + 2))
    total = 0
    for z1 in range(1, r - w + m + 2):
        zc = _comb(r - w2 - z1 - 1, s - 2)
        if zc:
            total += zc * (ones_weighted + z1 * ones_total)
    return 2 * (r // 2) * total


def count_type3_upper(params: SystemParams, m: int) -> int:
    """r C(w/2, m) C(r-m, w/2-m): size bound of the type-3 family."""
    r, w2 = params.r, params.w2
    _check_range("m", m, 0, w2)
    return r * _comb(w2, m) * _comb(r - m, w2 - m)
