import math
import random

import pytest

from bikelab import (DecoderConfig, DecoderWorkspace, ParameterError,
                     bgf_decode, compute_upc, custom_params, level_params, threshold,
                     verify)
from bikelab.keys import ErrorPair
from bikelab.ring import DensePoly, RingParams, SparsePoly, mul_sparse


def make_syndrome(h0, h1, e0, e1):
    return mul_sparse(h0, e0.to_dense()) + mul_sparse(h1, e1.to_dense())


def random_instance(params, rng, weight_split):
    ring = params.ring
    h0 = SparsePoly(ring, tuple(sorted(rng.sample(range(params.r), params.w2))))
    h1 = SparsePoly(ring, tuple(sorted(rng.sample(range(params.r), params.w2))))
    w0, w1 = weight_split
    e0 = SparsePoly(ring, tuple(sorted(rng.sample(range(params.r), w0))))
    e1 = SparsePoly(ring, tuple(sorted(rng.sample(range(params.r), w1))))
    return h0, h1, e0, e1, make_syndrome(h0, h1, e0, e1)


class TestThreshold:
    def test_floor_dominates_at_zero(self):
        assert threshold(0, DecoderConfig()) == 36

    def test_affine_value_3223(self):
        cfg = DecoderConfig()
        expected = math.ceil(max(0.0069722 * 3223 + 13.530, 36.0))
        assert threshold(3223, cfg) == expected == 37

    def test_affine_value_10000(self):
        cfg = DecoderConfig()
        expected = math.ceil(max(0.0069722 * 10000 + 13.530, 36.0))
        assert threshold(10000, cfg) == expected == 84

    def test_level_constants(self):
        # published BGF constants per level; L1 keeps the dataclass defaults
        assert DecoderConfig.for_params(level_params(1)) == DecoderConfig()
        l3 = DecoderConfig.for_params(level_params(3))
        assert (l3.thr_slope, l3.thr_intercept, l3.thr_floor) == (0.005265, 15.2588, 52)
        l5 = DecoderConfig.for_params(level_params(5))
        assert (l5.thr_slope, l5.thr_intercept, l5.thr_floor) == (0.00402312, 17.8785, 69)
        assert l3.nb_iter == l5.nb_iter == DecoderConfig().nb_iter
        assert l3.tau == l5.tau == DecoderConfig().tau

    def test_custom_floor(self):
        cfg = DecoderConfig(thr_slope=0.0, thr_intercept=0.0, thr_floor=9)
        assert threshold(0, cfg) == 9
        assert threshold(500, cfg) == 9


class TestComputeUpc:
    def test_zero_syndrome(self, toy_params):
        rng = random.Random(1)
        h0, h1, *_ = random_instance(toy_params, rng, (7, 7))
        upc = compute_upc(DensePoly.zero(toy_params.ring), h0, h1)
        assert upc.shape == (2 * toy_params.r,)
        assert not upc.any()

    def test_all_ones_syndrome(self, toy_params):
        rng = random.Random(2)
        h0, h1, *_ = random_instance(toy_params, rng, (7, 7))
        upc = compute_upc(DensePoly.all_ones(toy_params.ring), h0, h1)
        assert (upc == toy_params.w2).all()

    def test_never_exceeds_w2(self, toy_params):
        rng = random.Random(3)
        h0, h1, e0, e1, s = random_instance(toy_params, rng, (7, 7))
        assert compute_upc(s, h0, h1).max() <= toy_params.w2

    def test_matches_matrix_oracle_r13(self):
        # H's columns are the cyclic shifts of each block; upc_k counts the
        # syndrome's ones on column k, computed with explicit double loops
        params = custom_params(r=13, w=6, t=4)
        ring = params.ring
        rng = random.Random(4)
        for _ in range(25):
            h0 = SparsePoly(ring, tuple(sorted(rng.sample(range(13), 3))))
            h1 = SparsePoly(ring, tuple(sorted(rng.sample(range(13), 3))))
            s = DensePoly(ring, rng.getrandbits(13))
            cols = ([h0.to_dense().shift(k) for k in range(13)] +
                    [h1.to_dense().shift(k) for k in range(13)])
            expected = []
            for col in cols:
                cnt = 0
                for j in range(13):
                    cnt += ((s.bits >> j) & 1) & ((col.bits >> j) & 1)
                expected.append(cnt)
            got = compute_upc(s, h0, h1)
            assert got.tolist() == expected


class TestVerify:
    def test_trivials(self, toy_params):
        ring = toy_params.ring
        rng = random.Random(5)
        h0, h1, *_ = random_instance(toy_params, rng, (7, 7))
        zero_pair = ErrorPair(SparsePoly(ring, ()), SparsePoly(ring, ()))
        assert verify(zero_pair, h0, h1, DensePoly.zero(ring))
        assert not verify(zero_pair, h0, h1, DensePoly.one(ring))

    def test_planted_instance(self):
        params = custom_params(r=13, w=6, t=4)
        rng = random.Random(6)
        h0, h1, e0, e1, s = random_instance(params, rng, (2, 2))
        assert verify(ErrorPair(e0, e1), h0, h1, s)


class TestBgfDecode:
    def test_zero_syndrome_immediate_success(self, toy_params):
        rng = random.Random(7)
        h0, h1, *_ = random_instance(toy_params, rng, (7, 7))
        out = bgf_decode(DensePoly.zero(toy_params.ring), h0, h1,
                         DecoderConfig.for_params(toy_params), record_trace=True)
        assert out.success
        assert out.error.total_weight() == 0
        assert out.iterations_run == 0
        assert out.trace == ()

    def test_recovers_planted_error(self, toy_params):
        cfg = DecoderConfig.for_params(toy_params)
        rng = random.Random(8)
        for _ in range(50):
            h0, h1, e0, e1, s = random_instance(toy_params, rng, (7, 7))
            out = bgf_decode(s, h0, h1, cfg)
            assert out.success
            assert out.error.e0 == e0 and out.error.e1 == e1

    def test_success_iff_verify(self, toy_params):
        cfg = DecoderConfig.for_params(toy_params)
        rng = random.Random(9)
        for split in ((7, 7), (14, 0), (0, 14), (20, 20)):
            h0, h1, e0, e1, s = random_instance(toy_params, rng, split)
            out = bgf_decode(s, h0, h1, cfg)
            assert out.success == verify(out.error, h0, h1, s)

    def test_deterministic(self, toy_params):
        cfg = DecoderConfig.for_params(toy_params)
        rng = random.Random(10)
        h0, h1, e0, e1, s = random_instance(toy_params, rng, (7, 7))
        a = bgf_decode(s, h0, h1, cfg)
        b = bgf_decode(s, h0, h1, cfg, workspace=DecoderWorkspace(h0, h1))
        assert a == b

    def test_rotation_equivariance_r13(self):
        # rotating the syndrome rotates the recovered error, success unchanged
        params = custom_params(r=13, w=6, t=4)
        cfg = DecoderConfig(thr_slope=0, thr_intercept=0, thr_floor=2, tau=1)
        rng = random.Random(11)
        for _ in range(25):
            h0, h1, e0, e1, s = random_instance(params, rng, (2, 2))
            base = bgf_decode(s, h0, h1, cfg)
            for k in (1, 5, 12):
                rot = bgf_decode(s.shift(k), h0, h1, cfg)
                assert rot.success == base.success
                expect0 = tuple(sorted((p + k) % 13 for p in base.error.e0.support))
                expect1 = tuple(sorted((p + k) % 13 for p in base.error.e1.support))
                assert rot.error.e0.support == expect0
                assert rot.error.e1.support == expect1

    def test_tau_zero_no_black_gray_is_plain_bf(self, toy_params):
        """With the list logic disabled the loop is a plain flip iteration."""
        cfg = DecoderConfig.for_params(toy_params)
        plain = DecoderConfig(nb_iter=cfg.nb_iter, tau=0, thr_slope=cfg.thr_slope,
                              thr_intercept=cfg.thr_intercept, thr_floor=cfg.thr_floor,
                              black_gray=False)
        rng = random.Random(12)
        r, w2 = toy_params.r, toy_params.w2
        ring = toy_params.ring

        def reference_bf(s, h0, h1):
            # independent plain bit-flipping oracle
            e0, e1 = 0, 0
            for _ in range(plain.nb_iter):
                cur = (s.bits ^ mul_sparse(h0, DensePoly(ring, e0)).bits
                       ^ mul_sparse(h1, DensePoly(ring, e1)).bits)
                if cur == 0:
                    break
                thr = threshold(bin(cur).count("1"), plain)
                flips0, flips1 = 0, 0
                for k in range(r):
                    cnt0 = sum((cur >> ((k + x) % r)) & 1 for x in h0.support)
                    if cnt0 >= thr:
                        flips0 |= 1 << k
                    cnt1 = sum((cur >> ((k + x) % r)) & 1 for x in h1.support)
                    if cnt1 >= thr:
                        flips1 |= 1 << k
                e0 ^= flips0
                e1 ^= flips1
            final = (s.bits ^ mul_sparse(h0, DensePoly(ring, e0)).bits
                     ^ mul_sparse(h1, DensePoly(ring, e1)).bits)
            return e0, e1, final == 0

        for _ in range(5):
            h0, h1, e0, e1, s = random_instance(toy_params, rng, (7, 7))
            out = bgf_decode(s, h0, h1, plain)
            ref_e0, ref_e1, ref_ok = reference_bf(s, h0, h1)
            assert out.error.e0.to_dense().bits == ref_e0
            assert out.error.e1.to_dense().bits == ref_e1
            assert out.success == ref_ok

    def test_trace_rows(self, toy_params):
        cfg = DecoderConfig.for_params(toy_params)
        rng = random.Random(13)
        h0, h1, e0, e1, s = random_instance(toy_params, rng, (7, 7))
        out = bgf_decode(s, h0, h1, cfg, record_trace=True)
        assert out.trace
        first = out.trace[0]
        assert first.iteration == 1
        assert first.syndrome_weight == s.weight()
        assert first.threshold == threshold(s.weight(), cfg)
        row = first.csv_row()
        assert row.count(",") == 5

    def test_dimension_mismatch(self, toy_params):
        rng = random.Random(14)
        h0, h1, *_ = random_instance(toy_params, rng, (7, 7))
        wrong = DensePoly.zero(RingParams(13))
        with pytest.raises(ParameterError):
            bgf_decode(wrong, h0, h1, DecoderConfig())

    def test_weight_mismatch(self, toy_params):
        ring = toy_params.ring
        h0 = SparsePoly(ring, tuple(range(toy_params.w2)))
        h1 = SparsePoly(ring, tuple(range(toy_params.w2 - 2)))
        with pytest.raises(ParameterError):
            bgf_decode(DensePoly.zero(ring), h0, h1, DecoderConfig())


class TestConfig:
    def test_mask_threshold_default_l1(self, l1_params):
        cfg = DecoderConfig.for_params(l1_params)
        assert cfg.mask_threshold_for(l1_params.w2) == (71 + 1) // 2 + 1 == 37

    def test_standard_params_get_published_constants(self, l1_params):
        cfg = DecoderConfig.for_params(l1_params)
        assert (cfg.thr_slope, cfg.thr_intercept, cfg.thr_floor) == (0.0069722, 13.530, 36)

    def test_custom_params_get_majority_floor(self, toy_params):
        cfg = DecoderConfig.for_params(toy_params)
        assert cfg.thr_slope == 0.0
        assert cfg.thr_floor == (toy_params.w2 + 1) // 2 + 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ParameterError):
            DecoderConfig(nb_iter=0)
        with pytest.raises(ParameterError):
            DecoderConfig(tau=-1)
        with pytest.raises(ParameterError):
            DecoderConfig(mask_threshold=0)
