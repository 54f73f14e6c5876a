import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikelab import (BudgetExhaustedError, KeyCheckConfig, ParameterError, count_type1,
                     count_type2_upper, count_type3_upper, custom_params, gen_psi_d_error,
                     gen_type1, gen_type2, gen_type3, key_check, level_params, log2_count,
                     spectrum, weakkeys)
from bikelab.kem import TAG_WEAK, XofStream, expand_u64_seed
from bikelab.ring import RingParams, SparsePoly
from bikelab.weakkeys import WeakKeySpec, difference_counts, log2_density

import draw_oracle
from ring_oracle import shift, star

TOY = custom_params(r=1019, w=42, t=30)
R31 = RingParams(31)


def seed(i: int) -> bytes:
    return expand_u64_seed(i)


def spectrum_of(supp, ring=R31):
    return spectrum(SparsePoly.from_indices(ring, supp))


def rotation_count_spectrum(h: SparsePoly, U: int) -> dict[int, int]:
    """Independent oracle: multiplicity of d as |h & (x^d h)| via dense rotation."""
    dense = h.to_dense()
    return {d: star(dense, shift(dense, d)).weight() for d in range(1, U + 1)}


class TestSpectrum:
    def test_weight_one(self):
        spec = spectrum_of((4,))
        assert all(m == 0 for m in spec.mult.values())

    def test_matches_rotation_oracle_r31(self):
        ring = RingParams(31)
        rng = random.Random(1)
        for _ in range(40):
            h = SparsePoly(ring, tuple(sorted(rng.sample(range(31), 7))))
            spec = spectrum(h)
            assert spec.mult == rotation_count_spectrum(h, 15)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 30), min_size=2, max_size=8), st.integers(0, 30))
    def test_rotation_invariance(self, supp, k):
        rotated = tuple(sorted((p + k) % 31 for p in supp))
        a = spectrum_of(supp)
        b = spectrum_of(rotated)
        assert a.mult == b.mult

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 30), min_size=2, max_size=10))
    def test_total_is_pairs(self, supp):
        spec = spectrum_of(supp)
        n = len(supp)
        assert sum(spec.mult.values()) == n * (n - 1) // 2


class TestDifferenceCounts:
    def test_counts_are_rotation_overlaps_r31(self):
        # out[s] = |a & x^s b| for two unrelated supports
        ring = RingParams(31)
        rng = random.Random(3)
        for _ in range(20):
            a = SparsePoly(ring, tuple(sorted(rng.sample(range(31), 7))))
            b = SparsePoly(ring, tuple(sorted(rng.sample(range(31), 7))))
            counts = difference_counts(a.support, b.support, 31)
            da, db = a.to_dense(), b.to_dense()
            assert counts.tolist() == [star(da, shift(db, s)).weight() for s in range(31)]

    def test_empty_support(self):
        assert difference_counts((), (3, 5), 13).tolist() == [0] * 13


def structured_blocks(key, predicate):
    """Blocks of the key satisfying a predicate (generators structure one)."""
    return [h for h in (key.h0, key.h1) if predicate(h)]


class TestGenType1:
    def test_multiplicity_ladder(self):
        f, d = 9, 4
        key = gen_type1(TOY, f, d, seed(1))
        def has_ladder(h):
            spec = spectrum(h)
            return all(spec.mult[min(j * d % TOY.r, (-j * d) % TOY.r)] >= f - j
                       for j in range(1, f))
        assert len(structured_blocks(key, has_ladder)) >= 1

    def test_defining_predicate_100_seeds(self):
        # one block carries multiplicity >= f-1 at the step distance
        f = 8
        for i in range(100):
            d = 1 + i % 13
            key = gen_type1(TOY, f, d, seed(300 + i))
            dd = min(d, TOY.r - d)
            assert any(spectrum(h).mult[dd] >= f - 1 for h in (key.h0, key.h1))

    def test_weights_exact(self):
        key = gen_type1(TOY, 12, 3, seed(2))
        assert key.h0.weight() == TOY.w2 and key.h1.weight() == TOY.w2

    def test_f_equals_w2_is_pure_progression(self):
        key = gen_type1(TOY, TOY.w2, 5, seed(3))
        expect = tuple(sorted(p * 5 % TOY.r for p in range(TOY.w2)))
        assert expect in (key.h0.support, key.h1.support)

    def test_deterministic(self):
        assert gen_type1(TOY, 10, 2, seed(4)) == gen_type1(TOY, 10, 2, seed(4))

    def test_fill_law_where_the_map_is_not_one_to_one(self):
        # gcd(21, 3) = 3: the run maps to {0, 3} and the fill to one of the five
        # other multiples of 3 that the map reaches, each equally likely
        params, n = custom_params(r=21, w=6, t=4), 5000
        family = [(0, 3, x) if x > 3 else (0, x, 3) for x in (6, 9, 12, 15, 18)]
        family = [tuple(sorted(b)) for b in family]
        counts = dict.fromkeys(family, 0)
        for i in range(n):
            key = gen_type1(params, 2, 3, seed(i))
            counts[planted(key, 1, seed(i)).support] += 1
        assert list(counts) == family   # no structured block outside the family
        chi2 = sum((c - n / 5) ** 2 / (n / 5) for c in counts.values())
        assert chi2 < 18.47, counts     # 4 degrees of freedom, p = 0.001

    def test_one_draw_where_the_earlier_redraws_ran_out(self):
        # w/2 = r/gcd(r, d) = 15, so the block is every multiple of 3; the reference,
        # which fills from all r - f positions and redraws on a collision, runs out
        params = custom_params(r=45, w=30, t=4)
        with pytest.raises(BudgetExhaustedError):
            draw_oracle.type1(params, 2, 3, 0, seed(0))
        key = gen_type1(params, 2, 3, seed(0))
        assert tuple(range(0, 45, 3)) in (key.h0.support, key.h1.support)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_type1(TOY, TOY.w2 + 1, 1, seed(5))
        with pytest.raises(ParameterError):
            gen_type1(TOY, 5, 0, seed(5))
        with pytest.raises(ParameterError, match="w/2 <= r/gcd"):
            # d = 5 maps every position of r = 15 onto the three multiples of 5
            gen_type1(custom_params(r=15, w=10, t=4), 4, 5, seed(5))


class TestGenType2:
    def test_exact_multiplicity_100_seeds(self):
        d, m = 3, 10
        for i in range(100):
            key = gen_type2(TOY, d, m, seed(i))
            mults = [spectrum(h).mult[d] for h in (key.h0, key.h1)]
            assert m in mults

    def test_max_m_is_arithmetic_progression(self):
        m = TOY.w2 - 1
        key = gen_type2(TOY, 1, m, seed(7))
        def is_run(h):
            spec = spectrum(h)
            return spec.mult[1] == m
        runs = structured_blocks(key, is_run)
        assert len(runs) >= 1
        # a mult of w/2-1 at d=1 means w/2 consecutive positions
        h = runs[0]
        start = min(set(h.support) - {(p + 1) % TOY.r for p in h.support},
                    default=h.support[0])
        assert set(h.support) == {(start + j) % TOY.r for j in range(TOY.w2)}

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_type2(TOY, 1, 0, seed(8))
        with pytest.raises(ParameterError):
            gen_type2(TOY, 1, TOY.w2, seed(8))
        # the chain's cycle at r = 21, d = 3 has 7 positions; 7 terms close it
        with pytest.raises(ParameterError, match="m \\+ 1 < r/gcd"):
            gen_type2(custom_params(r=21, w=14, t=4), 3, 6, seed(8))
        # six terms leave one index, next to both ends of the chain, so the block
        # is the chain alone, and w/2 = 7 does not fit
        with pytest.raises(ParameterError, match="fits at most 6 positions"):
            gen_type2(custom_params(r=21, w=14, t=4), 3, 5, seed(8))
        key = gen_type2(custom_params(r=21, w=10, t=4), 3, 4, seed(8))
        assert planted(key, 2, seed(8)).support == (0, 3, 6, 9, 12)
        # at r = 15 the chain's cycle is {0, 5, 10}: its pair takes two positions,
        # and the third is next to both, so 2 positions fit, not 7
        with pytest.raises(ParameterError, match="fits at most 2 positions"):
            gen_type2(custom_params(r=15, w=14, t=4), 5, 1, seed(8))
        # w/2 = 7 is exactly the capacity at r = 13, d = 1, m = 2
        r13 = custom_params(r=13, w=14, t=4)
        for i in range(20):
            key = gen_type2(r13, 1, 2, seed(i))
            assert 2 in [spectrum(h).mult[1] for h in (key.h0, key.h1)]

    def test_capacity_matches_exhaustive_search(self):
        cases = 0
        for r in range(3, 16, 2):
            for d in range(1, r // 2 + 1):
                for m, fill in largest_fills(r, d).items():
                    assert weakkeys._type2_capacity(r, d, m) == fill, (r, d, m)
                    cases += 1
        assert cases == 214

    def test_every_draw_at_capacity_has_exactly_m_pairs(self):
        # each (r, d, m) the check accepts, at the largest odd w/2 within capacity
        draws = 0
        for r in range(11, 32, 2):
            for d in range(1, r // 2 + 1):
                for m in range(1, r // math.gcd(r, d) - 1):
                    fill = weakkeys._type2_capacity(r, d, m)
                    params = custom_params(r=r, w=2 * (fill - 1 + fill % 2), t=4)
                    if m >= params.w2:
                        continue
                    for i in range(3):
                        block = planted(gen_type2(params, d, m, seed(i)), 2, seed(i))
                        assert spectrum(block).mult[d] == m, (r, d, m, i)
                        draws += 1
        assert draws == 5970

    def test_uniform_over_the_family(self):
        # r = 13, w/2 = 5, d = m = 1: the chain {0, 1} and 3 of 3..11, no two
        # adjacent, so C(7, 3) = 35 blocks, each equally likely
        params, n = custom_params(r=13, w=10, t=4), 7000
        family = [b for b in itertools.combinations(range(13), 5)
                  if b[:2] == (0, 1) and spectrum_of(b, RingParams(13)).mult[1] == 1]
        assert len(family) == 35
        counts = dict.fromkeys(family, 0)
        for i in range(n):
            counts[planted(gen_type2(params, 1, 1, seed(i)), 2, seed(i)).support] += 1
        assert sum(counts.values()) == n   # no structured block outside the family
        chi2 = sum((c - n / 35) ** 2 / (n / 35) for c in counts.values())
        assert chi2 < 65.2, counts         # 34 degrees of freedom, p = 0.001


def planted(key, family: int, s: bytes) -> SparsePoly:
    """The structured block of a type-1 or type-2 key, at the index its stream's
    first coin picks."""
    return (key.h0, key.h1)[XofStream(TAG_WEAK, [s, bytes([family])]).read(1)[0] & 1]


def largest_fills(r, d):
    """{m: largest weight of a subset of the d-cycle through 0 that holds the chain
    0, d, ..., m*d and has exactly m pairs at distance d}, for every m with
    m + 1 < r/gcd(r, d), by trying every subset of Z_r that lies on the cycle."""
    cycle = sum(1 << p for p in range(0, r, math.gcd(r, d)))
    masks = np.arange(1 << r)
    masks = masks[(masks & ~cycle) == 0]
    # bit q of masks & rotated is set when q and q - d are both in the subset
    rotated = ((masks << d) | (masks >> (r - d))) & ((1 << r) - 1)
    weight = sum((masks >> k) & 1 for k in range(r))
    pairs = sum(((masks & rotated) >> k) & 1 for k in range(r))
    out = {}
    for m in range(1, r // math.gcd(r, d) - 1):
        chain = sum(1 << (j * d % r) for j in range(m + 1))
        out[m] = int(weight[((masks & chain) == chain) & (pairs == m)].max())
    return out


class TestGenType3:
    def test_exact_overlap_at_some_alignment_100_seeds(self):
        m = 12
        for i in range(100):
            key = gen_type3(TOY, m, seed(i))
            d0 = key.h0.to_dense()
            d1 = key.h1.to_dense()
            best = max(star(d0, shift(d1, k)).weight() for k in range(TOY.r))
            assert best >= m

    def test_full_overlap_is_rotation(self):
        key = gen_type3(TOY, TOY.w2, seed(9))
        d0, d1 = key.h0.to_dense(), key.h1.to_dense()
        assert any(star(d0, shift(d1, k)).weight() == TOY.w2 for k in range(TOY.r))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_type3(TOY, 0, seed(10))
        with pytest.raises(ParameterError):
            gen_type3(TOY, TOY.w2 + 1, seed(10))


def psi_pairs_matchable(support, d, r):
    """Backtracking perfect matching on the distance-d graph of the support."""
    remaining = set(support)

    def match():
        if not remaining:
            return True
        p = min(remaining)
        for q in ((p + d) % r, (p - d) % r):
            if q in remaining and q != p:
                remaining.discard(p)
                remaining.discard(q)
                if match():
                    return True
                remaining.add(p)
                remaining.add(q)
        return False

    return match()


class TestPsiErrors:
    def test_weights(self):
        e = gen_psi_d_error(TOY, 5, seed(11))
        assert e.e0.weight() == TOY.t
        assert e.e1.weight() == 0

    def test_pairs_at_distance_d(self):
        for i in range(20):
            d = 1 + (i % 9)
            e = gen_psi_d_error(TOY, d, seed(i))
            assert psi_pairs_matchable(set(e.e0.support), d, TOY.r)

    def test_odd_t_rejected(self):
        odd_t = custom_params(r=1019, w=42, t=31)
        with pytest.raises(ParameterError):
            gen_psi_d_error(odd_t, 3, seed(12))

    def test_unplaceable_rejected_up_front(self):
        # at r=9 the 3-pairs form three 3-cycles, one pair each: 3 pairs, not 4
        with pytest.raises(ParameterError, match="at most 3 disjoint pairs"):
            gen_psi_d_error(custom_params(r=9, w=2, t=8), 3, seed(13))
        with pytest.raises(ParameterError, match="at most 5 disjoint pairs"):
            gen_psi_d_error(custom_params(r=15, w=2, t=12), 5, seed(13))

    @pytest.mark.parametrize("r,t,d", [(9, 6, 3), (9, 8, 1), (15, 10, 5), (15, 14, 1)])
    def test_largest_placeable_t_placed(self, r, t, d):
        # t = r - gcd(r, d): every cycle carries its maximum of pairs
        e = gen_psi_d_error(custom_params(r=r, w=2, t=t), d, seed(14))
        assert e.e0.weight() == t
        assert psi_pairs_matchable(set(e.e0.support), d, r)


def outcome(generate, *args):
    """The generator's output, or the type of the error it raised."""
    try:
        return generate(*args)
    except BudgetExhaustedError as exc:
        return type(exc)


R43 = custom_params(r=43, w=10, t=36)


class TestOneWordReference:
    """Each generator against its one-word reference loop in ``draw_oracle``."""

    @pytest.mark.parametrize("params,steps", [
        (custom_params(r=101, w=14, t=4), (1, 2, 7)),
        (custom_params(r=1259, w=42, t=30), (1,)),
        (level_params(1), (1,)),
    ], ids=["r101", "r1259", "l1"])
    def test_type1(self, params, steps):
        # gcd(r, d) = 1: the reference never redraws, so it draws the same keys, and
        # its run started at s is the structured block rotated by s*d
        r = params.r
        for i in range(200):
            f, d, s = 2 + i % (params.w2 - 1), steps[i % len(steps)], (37 * i) % r
            key = gen_type1(params, f, d, seed(i))
            block = ("h0", "h1")[XofStream(TAG_WEAK, [seed(i), bytes([1])]).read(1)[0] & 1]
            support = getattr(key, block).support
            rotated = SparsePoly.from_indices(params.ring, ((p + s * d) % r for p in support))
            assert replace(key, **{block: rotated}) == draw_oracle.type1(params, f, d, s, seed(i))

    @pytest.mark.parametrize("params", [TOY, R43], ids=["r1019", "r43"])
    def test_type2(self, params):
        for i in range(100):
            d, m = 1 + i % 7, 1 + i % (params.w2 - 1)
            assert gen_type2(params, d, m, seed(i)) == draw_oracle.type2(params, d, m, seed(i))

    @pytest.mark.parametrize("params", [TOY, R43], ids=["r1019", "r43"])
    def test_type3(self, params):
        for i in range(100):
            m = 1 + i % params.w2
            assert gen_type3(params, m, seed(i)) == draw_oracle.type3(params, m, seed(i))

    def test_psi(self):
        for i in range(100):
            d = 1 + i % 509
            assert gen_psi_d_error(TOY, d, seed(i)) == draw_oracle.psi_counted(TOY, d, seed(i))[0]

    def test_psi_with_restarts(self):
        restarts = 0
        for i in range(100):
            ref, n = draw_oracle.psi_counted(R43, 1, seed(i))
            assert gen_psi_d_error(R43, 1, seed(i)) == ref
            restarts += n
        assert restarts > 0

    @pytest.mark.parametrize("params,paths", [
        (R43, {"restarted", "gave up"}),
        (custom_params(r=101, w=10, t=100), {"gave up"}),   # placeable, but never in budget
    ], ids=["r43", "r101"])
    def test_psi_small_budget(self, params, paths, monkeypatch):
        monkeypatch.setattr(weakkeys, "_RESAMPLE_BUDGET", 4)
        seen = set()
        for i in range(100):
            ref = outcome(draw_oracle.psi_counted, params, 1, seed(i))
            if ref is BudgetExhaustedError:
                assert outcome(gen_psi_d_error, params, 1, seed(i)) is ref
                seen.add("gave up")
            else:
                assert gen_psi_d_error(params, 1, seed(i)) == ref[0]
                seen.add("restarted" if ref[1] else "placed")
        assert seen == paths


class TestCounting:
    def test_table_values_level1(self, l1_params):
        expected = {5: -10.225, 10: -48.168, 15: -86.6952, 20: -125.8586,
                    25: -165.7205, 30: -206.3566, 35: -247.8609, 40: -290.3535}
        for f, val in expected.items():
            eta = log2_density(l1_params, count_type1(l1_params, f))
            assert eta == pytest.approx(val, abs=0.01)

    def test_type1_f_max_degenerate(self, l1_params):
        r = l1_params.r
        assert count_type1(l1_params, l1_params.w2) == 2 * r * (r // 2)

    def test_type2_s2_closed_form(self):
        params = custom_params(r=31, w=10, t=4)
        m = 3
        # s=2 makes both binomials C(., 0) = 1 inside their support
        got = count_type2_upper(params, m, 2)
        total = 0
        for z1 in range(1, params.r - params.w + m + 2):
            for o1 in range(1, m + 2):
                if params.w2 - o1 - 1 >= 0 and params.r - params.w2 - z1 - 1 >= 0:
                    total += o1 + z1
        assert got == 2 * (params.r // 2) * total

    def test_type2_monotone_in_m(self, l1_params):
        values = [count_type2_upper(l1_params, m, 4) for m in range(1, 30)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_type2_matches_composition_enumeration(self):
        # independent oracle: enumerate the run-length tuples the bound counts
        params = custom_params(r=31, w=10, t=4)
        m, s = 3, 3
        w2 = params.w2

        def compositions(total, parts):
            if parts == 0:
                yield ()
                return
            if parts == 1:
                if total >= 1:
                    yield (total,)
                return
            for first in range(1, total - parts + 2):
                for rest in compositions(total - first, parts - 1):
                    yield (first, *rest)

        total = 0
        for o1 in range(1, m + 2):
            for z1 in range(1, params.r - params.w + m + 2):
                n_ones = sum(1 for _ in compositions(w2 - o1, s - 1))
                n_zeros = sum(1 for _ in compositions(params.r - w2 - z1, s - 1))
                total += (o1 + z1) * n_ones * n_zeros
        expected = 2 * (params.r // 2) * total
        assert count_type2_upper(params, m, s) == expected

    def test_type3_m_max(self, l1_params):
        assert count_type3_upper(l1_params, l1_params.w2) == l1_params.r

    def test_type3_m_zero_degenerate(self, l1_params):
        expected = l1_params.r * math.comb(l1_params.r, l1_params.w2)
        assert count_type3_upper(l1_params, 0) == expected

    def test_type3_eta_decreasing_in_m(self, l1_params):
        values = [log2_density(l1_params, count_type3_upper(l1_params, m))
                  for m in range(2, 71)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_log2_count(self, l1_params):
        cnt = count_type1(l1_params, 5)
        # at least 10 significant digits against the exact integer's bit length
        top = cnt >> (cnt.bit_length() - 53)
        assert log2_count(cnt) == pytest.approx(cnt.bit_length() - 53 + math.log2(top),
                                                rel=1e-12)
        assert log2_count(0) == float("-inf")
        assert log2_density(l1_params, 0) == float("-inf")

    def test_validation(self, l1_params):
        with pytest.raises(ParameterError):
            count_type1(l1_params, l1_params.w2 + 1)
        with pytest.raises(ParameterError):
            count_type2_upper(l1_params, 5, 1)


def all_blocks(r: int, w2: int) -> np.ndarray:
    """(N, w2) array of every weight-w2 support in [0, r), N = C(r, w2)."""
    return np.array(list(itertools.combinations(range(r), w2)), dtype=np.int64)


def bitmasks(positions: np.ndarray) -> np.ndarray:
    """Bit i set for each position i along the last axis (r < 63)."""
    return np.bitwise_or.reduce(np.int64(1) << positions, axis=-1)


def type1_members(blocks: np.ndarray, r: int, f: int) -> np.ndarray:
    """Which of the bitmask blocks hold {s, s + d, ..., s + (f-1) d} mod r for some
    start s and step d in [1, r/2]: the type-1 family, block by block."""
    starts, steps, terms = np.ogrid[0:r, 1:r // 2 + 1, 0:f]
    runs = np.unique(bitmasks((starts + terms * steps) % r))
    found = np.zeros(blocks.size, dtype=bool)
    for run in runs:
        found |= (blocks & run) == run
    return found


class TestType1Enumeration:
    """Exact type-1 family sizes at w/2 = 5 against the bound count_type1 / 2.

    The bound counts (start, step, fill) choices, so a block with several runs
    is counted once per run: it is loose at small f and exact at f = w/2.
    """

    # r -> (exact family size, count_type1 // 2) for f = 2, 3, 4, 5
    TABLE = {17: [(6188, 61880), (5916, 12376), (1632, 1768), (136, 136)],
             23: [(33649, 336490), (28083, 48070), (4554, 4807), (253, 253)],
             29: [(118755, 1187550), (87087, 131950), (9744, 10150), (406, 406)]}

    @pytest.fixture(scope="class")
    def members(self):
        """{r: (supports, {f: family membership})} over every weight-5 block."""
        out = {}
        for r in self.TABLE:
            supports = all_blocks(r, 5)
            blocks = bitmasks(supports)
            out[r] = supports, {f: type1_members(blocks, r, f) for f in range(2, 6)}
        return out

    @pytest.mark.parametrize("r", sorted(TABLE))
    def test_family_sizes_pin_the_bound(self, members, r):
        params = custom_params(r=r, w=10, t=4)
        sizes = {f: int(found.sum()) for f, found in members[r][1].items()}
        bounds = {f: count_type1(params, f) // 2 for f in range(2, 6)}
        assert list(zip(sizes.values(), bounds.values())) == self.TABLE[r]
        assert all(bounds[f] >= sizes[f] for f in sizes)
        assert bounds[params.w2] == sizes[params.w2]

    @pytest.mark.parametrize("f", [3, 4, 5])
    def test_key_check_flags_every_family_block_as_h0(self, members, f):
        # an f-term run holds f - 1 pairs at its step, above T = f - 2
        ring, cfg = RingParams(17), KeyCheckConfig(threshold_T=f - 2)
        supports, found = members[17]
        h1 = SparsePoly(ring, (0, 1, 3, 7, 12))
        for supp in supports[found[f]].tolist():
            reason = key_check(SparsePoly(ring, tuple(supp)), h1, cfg).reason
            assert (reason["kind"], reason["block"]) == ("per_block_multiplicity", 0), supp


class TestType3Enumeration:
    """The type-3 bound against every h1 at small r, for three fixed h0 each.

    count_type3_upper counts (rotation, m shared positions, fill) choices, so an
    h1 with several alignments or more than m shared positions is counted more
    than once: the bound is loose below m = w/2 and exact at it, where the
    family is the r distinct rotations of h0.
    """

    @pytest.mark.parametrize("r,w", [(11, 6), (13, 10), (17, 10)])
    def test_bound_covers_the_family(self, r, w):
        params, rng = custom_params(r=r, w=w, t=4), random.Random(r)
        w2, full = params.w2, (1 << r) - 1
        h1s = bitmasks(all_blocks(r, w2))
        for _ in range(3):
            h0 = int(bitmasks(np.array(rng.sample(range(r), w2))))
            rotations = np.array([(h0 << s | h0 >> (r - s)) & full for s in range(r)])
            best = np.bitwise_count(h1s[:, None] & rotations).max(axis=1)
            for m in range(1, w2 + 1):
                family = int((best >= m).sum())
                assert count_type3_upper(params, m) >= family, (r, h0, m)
            assert count_type3_upper(params, w2) == family == r


class TestWeakKeySpecParsing:
    def test_type1(self):
        spec = WeakKeySpec.parse("type1:f=40,d=2")
        assert (spec.family, spec.f, spec.d) == (1, 40, 2)

    def test_type1_defaults(self):
        spec = WeakKeySpec.parse("type1:f=12")
        assert spec.d == 1

    def test_type2_type3(self):
        assert WeakKeySpec.parse("type2:d=3,m=9").m == 9
        assert WeakKeySpec.parse("type3:m=7").family == 3

    def test_bad_inputs(self):
        # a type-1 run started at s is the block rotated by s*d, so shift is no parameter
        for text in ("type4:m=1", "type1:q=3", "type1:f=abc", "type2:d=1", "type1:f=--5",
                     "type1:f=\u00b2", "type1:f=", "type1:f=4,shift=3", "type3:m=3,shift=0"):
            with pytest.raises(ParameterError):
                WeakKeySpec.parse(text)

    def test_values_read_as_int_reads_them(self):
        assert WeakKeySpec.parse("type1:f=+5") == WeakKeySpec.parse("type1:f=5")
        assert WeakKeySpec.parse("type3:m=1_0").m == 10

    def test_parameters_the_family_does_not_read_rejected(self):
        for text in ("type2:m=3,d=5,f=4", "type2:m=3,f=4", "type3:m=3,d=1",
                     "type3:m=3,f=9", "type1:f=4,m=2"):
            with pytest.raises(ParameterError, match="takes no"):
                WeakKeySpec.parse(text)

    def test_repeated_parameter_rejected(self):
        for text in ("type1:f=10,f=20", "type1:f=10,d=1,d=2", "type3:m=3,m=3"):
            with pytest.raises(ParameterError, match="given twice"):
                WeakKeySpec.parse(text)

    def test_type2_and_type3_describe_no_run(self):
        assert WeakKeySpec.parse("type2:m=3").describe() == {
            "kind": "weak", "family": 2, "f": None, "d": 1, "m": 3}
        assert WeakKeySpec.parse("type3:m=3").describe() == {
            "kind": "weak", "family": 3, "f": None, "d": None, "m": 3}

    def test_log2_eta(self):
        params = level_params(1)
        assert (WeakKeySpec.parse("type1:f=10,d=3").log2_eta(params)
                == log2_density(params, count_type1(params, 10)))
        assert (WeakKeySpec.parse("type3:m=6").log2_eta(params)
                == log2_density(params, count_type3_upper(params, 6)))
        with pytest.raises(ParameterError):
            WeakKeySpec.parse("type2:m=3").log2_eta(params)

    def test_json_round_shape(self):
        blob = WeakKeySpec.parse("type1:f=8").describe()
        assert blob == {"kind": "weak", "family": 1, "f": 8, "d": 1, "m": None}
