import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikelab import (BudgetExhaustedError, ParameterError, count_type1,
                     count_type2_upper, count_type3_upper, custom_params, distance,
                     gen_psi_d_error, gen_type1, gen_type2, gen_type3, level_params, log2_count,
                     reconstruct_from_spectrum, spectrum, weakkeys)
from bikelab.kem import expand_u64_seed
from bikelab.ring import RingParams, SparsePoly
from bikelab.weakkeys import DistanceSpectrum, WeakKeySpec, difference_counts, log2_density

import draw_oracle
from ring_oracle import canonical_orbit, shift, star

TOY = custom_params(r=1019, w=42, t=30)
R31 = RingParams(31)


def seed(i: int) -> bytes:
    return expand_u64_seed(i)


def spectrum_of(supp, ring=R31):
    return spectrum(SparsePoly.from_indices(ring, supp))


class TestDistance:
    def test_same_position(self):
        assert distance(7, 7, 13) == 0

    def test_wraparound_r10(self):
        # min((0-9+10) mod 10, (9-0+10) mod 10) = min(1, 9)
        assert distance(0, 9, 10) == 1

    def test_halfway_r10(self):
        assert distance(2, 7, 10) == 5

    def test_symmetry(self):
        for i, j in ((3, 11), (0, 6), (5, 5)):
            assert distance(i, j, 13) == distance(j, i, 13)


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
        key = gen_type1(TOY, f, d, 100, seed(1))
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
            key = gen_type1(TOY, f, d, (37 * i) % TOY.r, seed(300 + i))
            dd = min(d, TOY.r - d)
            assert any(spectrum(h).mult[dd] >= f - 1 for h in (key.h0, key.h1))

    def test_weights_exact(self):
        key = gen_type1(TOY, 12, 3, 0, seed(2))
        assert key.h0.weight() == TOY.w2 and key.h1.weight() == TOY.w2

    def test_f_equals_w2_is_pure_progression(self):
        key = gen_type1(TOY, TOY.w2, 5, 7, seed(3))
        expect = tuple(sorted(((p + 7) % TOY.r) * 5 % TOY.r for p in range(TOY.w2)))
        assert expect in (key.h0.support, key.h1.support)

    def test_deterministic(self):
        assert gen_type1(TOY, 10, 2, 0, seed(4)) == gen_type1(TOY, 10, 2, 0, seed(4))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_type1(TOY, TOY.w2 + 1, 1, 0, seed(5))
        with pytest.raises(ParameterError):
            gen_type1(TOY, 5, 0, 0, seed(5))
        with pytest.raises(ParameterError):
            gen_type1(TOY, 5, 1, TOY.r, seed(5))
        with pytest.raises(ParameterError, match="w/2 <= r/gcd"):
            # d = 5 maps every position of r = 15 onto the three multiples of 5
            gen_type1(custom_params(r=15, w=10, t=4), 4, 5, 0, seed(5))


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
        r21 = custom_params(r=21, w=14, t=4)
        with pytest.raises(ParameterError, match="m \\+ 1 < r/gcd"):
            gen_type2(r21, 3, 6, seed(8))
        key = gen_type2(r21, 3, 5, seed(8))
        assert 5 in [spectrum(h).mult[3] for h in (key.h0, key.h1)]
        # at r = 15 the 5-steps form five 3-cycles: the chain's cycle holds its
        # pair, each other cycle one position, so 6 positions fit, not 7
        with pytest.raises(ParameterError, match="fits at most 6 positions"):
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


def largest_fills(r, d):
    """{m: largest weight of a subset of Z_r that holds the chain 0, d, ..., m*d and has
    exactly m pairs at distance d}, for every m with m + 1 < r/gcd(r, d), by trying
    every subset."""
    masks = np.arange(1 << r)
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

    @pytest.mark.parametrize("params", [TOY, R43], ids=["r1019", "r43"])
    def test_type2(self, params):
        for i in range(100):
            d, m = 1 + i % 7, 1 + i % (params.w2 - 1)
            assert outcome(gen_type2, params, d, m, seed(i)) == \
                outcome(draw_oracle.type2, params, d, m, seed(i))

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

    def test_type2_small_budget(self, monkeypatch):
        # at r=23 an exact multiplicity often needs a redraw, so both paths fire
        monkeypatch.setattr(weakkeys, "_RESAMPLE_BUDGET", 2)
        params = custom_params(r=23, w=14, t=36)
        seen = set()
        for i in range(100):
            d, m = 1 + i % 3, 1 + i % (params.w2 - 1)
            ref = outcome(draw_oracle.type2, params, d, m, seed(i))
            assert outcome(gen_type2, params, d, m, seed(i)) == ref
            seen.add(ref is BudgetExhaustedError)
        assert seen == {True, False}


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


class TestReconstruction:
    def test_weight_two(self):
        spec = spectrum_of((0, 4))
        got = reconstruct_from_spectrum(spec, 2)
        assert got is not None
        assert canonical_orbit(got.support, 31) == canonical_orbit((0, 4), 31)

    def test_round_trip_r31(self):
        ring = RingParams(31)
        rng = random.Random(13)
        for _ in range(20):
            supp = tuple(sorted(rng.sample(range(31), 5)))
            spec = spectrum_of(supp)
            got = reconstruct_from_spectrum(spec, 5)
            assert got is not None
            assert spectrum(got).mult == spec.mult

    @pytest.mark.parametrize("r,w,seeds", [
        (101, 7, (10000, 10001, 10002, 10003)),
        (151, 11, (10000, 10001, 10002, 10003)),
        (199, 15, (10006, 10008, 10009, 10010)),
    ])
    def test_round_trip_orbit_identity(self, r, w, seeds):
        # the recovered support is the original up to rotation/reflection
        for s in seeds:
            rng = random.Random(s)
            supp = tuple(sorted(rng.sample(range(r), w)))
            spec = spectrum_of(supp, RingParams(r))
            got = reconstruct_from_spectrum(spec, w)
            assert got is not None
            assert canonical_orbit(got.support, r) == canonical_orbit(supp, r)

    def test_infeasible_total_fails_fast(self):
        bad = DistanceSpectrum(r=31, mult=dict.fromkeys(range(1, 16), 1))
        assert reconstruct_from_spectrum(bad, 3) is None


class TestWeakKeySpecParsing:
    def test_type1(self):
        spec = WeakKeySpec.parse("type1:f=40,d=2,shift=5")
        assert (spec.family, spec.f, spec.d, spec.l_shift) == (1, 40, 2, 5)

    def test_type1_defaults(self):
        spec = WeakKeySpec.parse("type1:f=12")
        assert (spec.d, spec.l_shift) == (1, 0)

    def test_type2_type3(self):
        assert WeakKeySpec.parse("type2:d=3,m=9").m == 9
        assert WeakKeySpec.parse("type3:m=7").family == 3

    def test_bad_inputs(self):
        for text in ("type4:m=1", "type1:q=3", "type1:f=abc", "type2:d=1"):
            with pytest.raises(ParameterError):
                WeakKeySpec.parse(text)

    def test_parameters_the_family_does_not_read_rejected(self):
        for text in ("type2:m=3,shift=5,f=4", "type3:m=3,d=1", "type3:m=3,f=9",
                     "type1:f=4,m=2"):
            with pytest.raises(ParameterError, match="takes no"):
                WeakKeySpec.parse(text)

    def test_repeated_parameter_rejected(self):
        for text in ("type1:f=10,f=20", "type1:f=10,d=1,d=2", "type3:m=3,m=3"):
            with pytest.raises(ParameterError, match="given twice"):
                WeakKeySpec.parse(text)

    def test_type2_and_type3_describe_no_run(self):
        assert WeakKeySpec.parse("type2:m=3").describe() == {
            "kind": "weak", "family": 2, "f": None, "d": 1, "l_shift": 0, "m": 3}
        assert WeakKeySpec.parse("type3:m=3").describe() == {
            "kind": "weak", "family": 3, "f": None, "d": None, "l_shift": 0, "m": 3}

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
        assert blob == {"kind": "weak", "family": 1, "f": 8, "d": 1, "l_shift": 0, "m": None}
