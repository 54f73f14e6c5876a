"""Weak-key families, distance spectra, crafted error patterns, and densities.

Three families of dangerous private keys are generated constructively:

  type 1  one block carries a run of f support positions at constant step d
          (plus random fill), giving distance d a multiplicity of at least
          f - 1 in that block; the other block is uniformly random;
  type 2  one block whose spectrum has multiplicity exactly m at one
          distance, planted as an (m+1)-term arithmetic chain and verified;
          the other block is uniformly random;
  type 3  cross-block structure: m support positions of h1 are a rotation of
          m support positions of h0, so some alignment of the two blocks
          intersects in exactly m positions.

Types 1 and 2 share one draw (:func:`_plant`) and differ only in how they
draw the structured block.  Its index is a fair coin from the seed stream:
the family's counting formulas carry a factor 2 for exactly this choice, so
sampling the class uniformly requires it (and the measured failure rates of
the family depend on the other block staying random).
Before any draw, each generator refuses parameters whose planted part cannot
fit: type 1's mapped positions; type 2's chain, and a w/2 above the most
positions that keep exactly m pairs at distance d (:func:`_type2_capacity`);
type 3's fill of h1; the t/2 pairs of a psi error (:func:`_check_psi`).  Each
generator re-verifies its defining property before returning, and types 1 and
2 resample on the rare collision, so outputs are correct by construction.
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

from .errors import BudgetExhaustedError, ParameterError
from .kem import TAG_WEAK, XofStream, sample_fixed_weight, sample_sigma
from .keys import ErrorPair, PrivateKey, SystemParams
from .ring import RingParams, SparsePoly

_RESAMPLE_BUDGET = 1000


def distance(i: int, j: int, r: int) -> int:
    """Cyclic distance between positions i and j, in [0, r/2]."""
    return min((i - j + r) % r, (j - i + r) % r)


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


# the parameters each family reads, by their descriptor and CLI names
_FAMILY_PARAMS = {1: ("f", "d", "shift"), 2: ("m", "d"), 3: ("m",)}


@dataclass(frozen=True)
class WeakKeySpec:
    """Family selector plus the family-specific parameters; a family takes no others."""

    family: int
    f: int | None = None
    d: int | None = None
    l_shift: int = 0
    m: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMS:
            raise ParameterError(f"unknown weak-key family {self.family}")
        reads = _FAMILY_PARAMS[self.family]
        given = {"f": self.f, "d": self.d, "shift": self.l_shift or None, "m": self.m}
        unread = [k for k, v in given.items() if v is not None and k not in reads]
        if unread:
            raise ParameterError(f"type {self.family} takes no {', '.join(unread)}")
        missing = [k for k in reads if k != "shift" and given[k] is None]
        if missing:
            raise ParameterError(f"type {self.family} requires {' and '.join(missing)}")

    @classmethod
    def of(cls, family: int, given: dict[str, int]) -> "WeakKeySpec":
        """Spec from parameters by name; where the family reads them, d defaults to 1
        and shift to 0."""
        return cls(family, f=given.get("f"), d=given.get("d", 1 if family in (1, 2) else None),
                   l_shift=given.get("shift", 0), m=given.get("m"))

    def check_params(self, params: SystemParams) -> None:
        """ParameterError unless :meth:`sample` can plant the family at these parameters."""
        if self.family == 1:
            _check_type1(params, self.f, self.d, self.l_shift)
        elif self.family == 2:
            _check_type2(params, self.d, self.m)
        else:
            _check_type3(params, self.m)

    def sample(self, params: SystemParams, seed: bytes) -> PrivateKey:
        # through the module globals, where a tracer may wrap the generators
        if self.family == 1:
            return gen_type1(params, self.f, self.d, self.l_shift, seed)
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
        """Parse "type1:f=40,d=1" style descriptors (shift and d may be omitted)."""
        head, _, rest = text.partition(":")
        if not head.startswith("type") or head[4:] not in ("1", "2", "3"):
            raise ParameterError(f"bad weak-key family in {text!r}")
        kv: dict[str, int] = {}
        if rest:
            for part in rest.split(","):
                k, _, v = part.partition("=")
                if k not in ("f", "d", "m", "shift") or not v.lstrip("-").isdigit():
                    raise ParameterError(f"bad weak-key parameter {part!r}")
                if k in kv:
                    raise ParameterError(f"weak-key parameter {k} given twice in {text!r}")
                kv[k] = int(v)
        return cls.of(int(head[4:]), kv)


def _phi_map(positions, d: int, l_shift: int, r: int) -> tuple[int, ...]:
    """Rotate by l_shift, then send position p to p*d mod r."""
    return tuple(sorted(((p + l_shift) % r) * d % r for p in positions))


def _check_type1(params: SystemParams, f: int, d: int, l_shift: int) -> None:
    r, w2 = params.r, params.w2
    _check_range("f", f, 2, w2)
    _check_range("d", d, 1, r // 2)
    if not 0 <= l_shift < r:
        raise ParameterError(f"shift must be in [0, {r}), got {l_shift}")
    if w2 > r // math.gcd(r, d):
        # p -> p*d mod r hits only the r/gcd(r, d) multiples of gcd(r, d)
        raise ParameterError(f"type 1 needs w/2 <= r/gcd(r, d) = {r // math.gcd(r, d)}, "
                             f"got w/2={w2} at d={d}")


def _plant(params: SystemParams, seed: bytes, family: int, draw, exhausted: str) -> PrivateKey:
    """Key with one structured block, at a fair-coin index, and one uniform block.

    ``draw(stream)`` returns the structured block's support, or None to draw
    again; _RESAMPLE_BUDGET draws without a support raise ``exhausted``.
    """
    stream = XofStream(TAG_WEAK, [seed, bytes([family])])
    weak_index = stream.read(1)[0] & 1
    for _ in range(_RESAMPLE_BUDGET):
        support = draw(stream)
        if support is not None:
            break
    else:
        raise BudgetExhaustedError(exhausted)
    # draws give Python ints, so from_indices' int() pass (10 us per L1 key) is skipped
    structured = SparsePoly(params.ring, tuple(sorted(support)))
    free = SparsePoly(params.ring, sample_fixed_weight(stream, params.r, params.w2))
    blocks = (structured, free) if weak_index == 0 else (free, structured)
    return PrivateKey(h0=blocks[0], h1=blocks[1], sigma=sample_sigma(seed, params))


def gen_type1(params: SystemParams, f: int, d: int, l_shift: int, seed: bytes) -> PrivateKey:
    """One block with f support positions at constant step d plus random fill."""
    _check_type1(params, f, d, l_shift)
    r, w2 = params.r, params.w2

    def draw(stream):
        # run on positions 0..f-1; random section disjoint on f..r-1
        fill = sample_fixed_weight(stream, r - f, w2 - f)
        mapped = _phi_map(list(range(f)) + [f + p for p in fill], d, l_shift, r)
        return mapped if len(set(mapped)) == w2 else None
    return _plant(params, seed, 1, draw, "type-1 position map kept colliding")


def _type2_capacity(r: int, d: int, m: int) -> int:
    """Largest weight of a block that holds the (m+1)-term chain at step d and has
    exactly m pairs at distance d, for m + 1 < r/gcd(r, d).

    The d-steps split Z_r into g = gcd(r, d) cycles of odd length L = r/g.  The
    chain's two outer neighbours stay empty, which leaves a path of L - m - 3
    positions on its cycle for at most (L - m - 2)/2 more, and each of the
    other g - 1 cycles holds (L - 1)/2.
    """
    g = math.gcd(r, d)
    return m + 1 + (r // g - m - 2) // 2 + (g - 1) * (r // g - 1) // 2


def _check_type2(params: SystemParams, d: int, m: int) -> None:
    r, w2 = params.r, params.w2
    _check_range("m", m, 1, w2 - 1)
    _check_range("d", d, 1, r // 2)
    # the chain start, start + d, ... runs round a cycle of r/gcd(r, d) positions,
    # and m + 1 terms that fill it close it into m + 1 pairs at distance d
    if m + 1 >= r // math.gcd(r, d):
        raise ParameterError(f"type 2 needs m + 1 < r/gcd(r, d) = {r // math.gcd(r, d)}, "
                             f"got m={m} at d={d}")
    if w2 > _type2_capacity(r, d, m):
        raise ParameterError(f"type 2 fits at most {_type2_capacity(r, d, m)} positions with "
                             f"exactly m={m} pairs at d={d} in r={r}, got w/2={w2}")


def gen_type2(params: SystemParams, d: int, m: int, seed: bytes) -> PrivateKey:
    """One block whose spectrum multiplicity at distance d is exactly m."""
    _check_type2(params, d, m)
    r, w2 = params.r, params.w2

    def draw(stream):
        # m + 1 < r/gcd(r, d), so the chain's terms are distinct
        [start] = stream.indices(r, 1)
        support = {(start + j * d) % r for j in range(m + 1)}
        while len(support) < w2:
            support.update(stream.indices(r, w2 - len(support)))
        return support if distance_multiplicities(support, r)[d] == m else None
    return _plant(params, seed, 2, draw,
                  f"no weight-{w2} block with multiplicity exactly {m} at d={d} "
                  f"within {_RESAMPLE_BUDGET} attempts")


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


# -- spectrum-based reconstruction --------------------------------------------

def reconstruct_from_spectrum(spec: DistanceSpectrum, target_weight: int) -> SparsePoly | None:
    """Search for a support whose spectrum matches, up to rotation/reflection.

    Places the first two positions at 0 and the smallest spectral distance,
    then extends position by position, consuming multiplicities from the
    remaining multiset and backtracking from dead ends.  Returns None when no
    support realizes the spectrum.
    """
    r = spec.r
    total = sum(spec.mult.values())
    if total != target_weight * (target_weight - 1) // 2:
        return None
    if target_weight == 0:
        return SparsePoly(RingParams(r), ())
    if target_weight == 1:
        return SparsePoly(RingParams(r), (0,))
    remaining = dict(spec.mult)
    existing = sorted(d for d, mcount in spec.mult.items() if mcount > 0)
    if not existing:
        return None
    d1 = existing[0]
    remaining[d1] -= 1
    placed = [0, d1]

    # Positions beyond the anchored pair are enumerated in ascending order so
    # every candidate set is visited exactly once (not once per permutation).
    def construct(min_next: int) -> bool:
        if len(placed) == target_weight:
            return True
        for cand in range(min_next, r):
            if cand == d1:
                continue
            consumed = 0
            ok = True
            for p in placed:
                dd = distance(cand, p, r)
                if remaining.get(dd, 0) <= 0:
                    ok = False
                    break
                remaining[dd] -= 1
                consumed += 1
            if ok:
                placed.append(cand)
                if construct(cand + 1):
                    return True
                placed.pop()
            for p in placed[:consumed]:
                remaining[distance(cand, p, r)] += 1
        return False

    if construct(1):
        return SparsePoly.from_indices(RingParams(r), placed)
    return None
