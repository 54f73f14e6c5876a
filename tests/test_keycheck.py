import pytest

from bikelab import (BudgetExhaustedError, KeyCheckConfig, NotInvertibleError, ParameterError,
                     custom_params, gen_type1, gen_type2, gen_type3, key_check,
                     keygen_checked, sample_private_key)
from bikelab.kem import TAG_CHECKED_SUBSEED, XofStream, expand_u64_seed, keygen
from bikelab.keycheck import KeyVerdict
from bikelab.keys import PrivateKey
from bikelab.ring import RingParams, SparsePoly

from ring_oracle import shift, star

TOY = custom_params(r=1019, w=42, t=30)
T10 = KeyCheckConfig(threshold_T=10)


def seed(i: int) -> bytes:
    return expand_u64_seed(1000 + i)


def reference_verdict(h0: SparsePoly, h1: SparsePoly, t: int) -> KeyVerdict:
    """Independent oracle: every count is an overlap of dense rotations.

    The multiplicity of distance d in a block h is |h & x^d h| (r is odd, so
    no distance is its own mirror); the largest multiplicity wins, ties to
    the smallest d.  The cross-block overlap at shift s is |h0 & x^s h1|,
    tried in (j, k) scan order over the shifts p_j - q_k.
    """
    r = h0.ring.r
    for block, h in enumerate((h0, h1)):
        dense = h.to_dense()
        mult = [star(dense, shift(dense, d)).weight() for d in range(1, r // 2 + 1)]
        best = max(mult)
        if best > t:
            return KeyVerdict({"kind": "per_block_multiplicity", "block": block,
                               "distance": mult.index(best) + 1, "multiplicity": best})
    d0, d1 = h0.to_dense(), h1.to_dense()
    for pj in h0.support:
        for pk in h1.support:
            k = (pj - pk) % r
            size = star(d0, shift(d1, k)).weight()
            if size > t:
                return KeyVerdict({"kind": "cross_block_intersection", "shift": k,
                                   "size": size})
    return KeyVerdict()


class TestVerdictShape:
    def test_json_fields(self):
        reason = {"kind": "per_block_multiplicity", "block": 0, "distance": 4,
                  "multiplicity": 12}
        blob = KeyVerdict(reason).to_json_dict(T10)
        assert blob == {"verdict": "Weak", "reason": reason, "T": 10}
        assert KeyVerdict().to_json_dict(T10) == {"verdict": "Normal", "reason": None, "T": 10}


class TestKeyCheckSoundness:
    def test_type1_weak_when_f_minus_1_exceeds_t(self):
        for i in range(10):
            key = gen_type1(TOY, 12, 1 + i % 7, seed(i))
            verdict = key_check(key.h0, key.h1, T10)
            assert verdict.is_weak

    def test_type2_weak_when_m_exceeds_t(self):
        for i in range(10):
            key = gen_type2(TOY, 2 + i % 5, 12, seed(i))
            assert key_check(key.h0, key.h1, T10).is_weak

    def test_type3_weak_when_m_exceeds_t(self):
        for i in range(10):
            key = gen_type3(TOY, 12, seed(i))
            verdict = key_check(key.h0, key.h1, T10)
            assert verdict.is_weak

    def test_type3_reason_is_cross_block_when_blocks_clean(self):
        # pick a seed whose blocks pass the per-block screen so the
        # intersection screen is the one that fires
        for i in range(50):
            key = gen_type3(TOY, 12, seed(i))
            verdict = key_check(key.h0, key.h1, T10)
            if verdict.reason["kind"] == "cross_block_intersection":
                assert verdict.reason["size"] > 10
                return
        pytest.fail("no type-3 key exercised the intersection screen")

    def test_strictness_at_exact_threshold(self):
        # multiplicity exactly T does not trip the screen (strict >)
        key = gen_type2(TOY, 3, 10, seed(3))
        verdict = key_check(key.h0, key.h1, T10)
        if verdict.is_weak:
            # the planted block has exactly 10; a trip must come from the
            # free block or the cross screen, not the planted multiplicity
            assert not (verdict.reason["kind"] == "per_block_multiplicity"
                        and verdict.reason["multiplicity"] == 10)

    def test_rotation_invariance(self):
        key = gen_type1(TOY, 12, 3, seed(4))
        k = 77
        rot = PrivateKey(
            h0=SparsePoly(TOY.ring, tuple(sorted((p + k) % TOY.r for p in key.h0.support))),
            h1=SparsePoly(TOY.ring, tuple(sorted((p + k) % TOY.r for p in key.h1.support))),
            sigma=key.sigma)
        assert key_check(key.h0, key.h1, T10).is_weak == \
            key_check(rot.h0, rot.h1, T10).is_weak

    def test_per_block_screen_survives_independent_rotations(self):
        # spectra are rotation invariant, so a per-block trip cannot be
        # rotated away even when the blocks rotate by different amounts
        key = gen_type2(TOY, 4, 12, seed(14))
        base = key_check(key.h0, key.h1, T10)
        assert base.reason["kind"] == "per_block_multiplicity"
        rot = lambda h, k: SparsePoly(
            TOY.ring, tuple(sorted((p + k) % TOY.r for p in h.support)))
        moved = key_check(rot(key.h0, 31), rot(key.h1, 250), T10)
        assert moved.is_weak
        assert moved.reason["kind"] == "per_block_multiplicity"
        assert moved.reason["multiplicity"] == base.reason["multiplicity"]

    def test_sigma_never_matters(self):
        key = sample_private_key(TOY, seed(5))
        other = PrivateKey(h0=key.h0, h1=key.h1, sigma=bytes(len(key.sigma)))
        assert key_check(key.h0, key.h1, T10) == key_check(other.h0, other.h1, T10)

    def test_weight_mismatch(self):
        h0 = SparsePoly(TOY.ring, tuple(range(TOY.w2)))
        h1 = SparsePoly(TOY.ring, tuple(range(TOY.w2 - 2)))
        with pytest.raises(ParameterError):
            key_check(h0, h1, T10)

    def test_negative_shift_exponent_reduced(self):
        # support pairs with p_j < p_k exercise the negative shift branch
        ring = TOY.ring
        h0 = SparsePoly(ring, tuple(range(0, 2 * TOY.w2, 2)))
        h1 = SparsePoly(ring, tuple(range(501, 501 + 2 * TOY.w2, 2)))
        verdict = key_check(h0, h1, KeyCheckConfig(threshold_T=TOY.w2 - 1))
        assert isinstance(verdict, KeyVerdict)


class TestRotationOracle:
    def test_full_verdict_matches_oracle(self):
        keys = []
        for i in range(4):
            keys += [sample_private_key(TOY, seed(300 + i)),
                     gen_type1(TOY, 12, 1 + i, seed(300 + i)),
                     gen_type2(TOY, 2 + i, 10 + i % 3, seed(300 + i)),
                     gen_type3(TOY, 10 + i % 3, seed(300 + i))]
        kinds = set()
        for key in keys:
            for t in (3, 10, 11):
                verdict = key_check(key.h0, key.h1, KeyCheckConfig(threshold_T=t))
                assert verdict == reference_verdict(key.h0, key.h1, t)
                kinds.add(verdict.reason and verdict.reason["kind"])
        assert kinds == {"per_block_multiplicity", "cross_block_intersection", None}

    def test_blocks_from_different_rings_rejected(self):
        h0 = SparsePoly(TOY.ring, tuple(range(TOY.w2)))
        h1 = SparsePoly(RingParams(1021), tuple(range(TOY.w2)))
        with pytest.raises(ParameterError):
            key_check(h0, h1, T10)


class TestKeygenChecked:
    def test_maximal_threshold_accepts_first(self, toy_params):
        cfg = KeyCheckConfig(threshold_T=toy_params.w2)
        sk, pk, rejected = keygen_checked(toy_params, seed(6), cfg)
        assert rejected == 0

    def test_t1_exhausts_budget(self, toy_params):
        # nearly every key repeats some distance, so T=1 rejects everything
        with pytest.raises(BudgetExhaustedError):
            keygen_checked(toy_params, seed(7), KeyCheckConfig(threshold_T=1), budget=20)

    def test_t1_exhausts_budget_at_full_parameters(self, l1_params):
        with pytest.raises(BudgetExhaustedError):
            keygen_checked(l1_params, seed(7), KeyCheckConfig(threshold_T=1), budget=5)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, toy_params, budget):
        with pytest.raises(ParameterError, match="check budget must be >= 1"):
            keygen_checked(toy_params, seed(7), T10, budget=budget)

    def test_non_invertible_h0_refused_at_first_sub_seed(self):
        # at r=105 sub-seed 0's key passes T=2, but its h0 is not invertible:
        # keygen_checked raises there, as keygen does, and tries no other sub-seed
        params, cfg = custom_params(r=105, w=14, t=4), KeyCheckConfig(threshold_T=2)
        master = expand_u64_seed(4)
        sub_seed = XofStream(TAG_CHECKED_SUBSEED, [master, bytes(4)]).read(32)
        candidate = sample_private_key(params, sub_seed)
        assert not key_check(candidate.h0, candidate.h1, cfg).is_weak
        with pytest.raises(NotInvertibleError, match="h0 is not invertible at r=105"):
            keygen(params, sub_seed)
        with pytest.raises(NotInvertibleError, match="h0 is not invertible at r=105"):
            keygen_checked(params, master, cfg)

    def test_output_passes_check(self, toy_params):
        cfg = KeyCheckConfig(threshold_T=8)
        sk, pk, _ = keygen_checked(toy_params, seed(8), cfg)
        assert not key_check(sk.h0, sk.h1, cfg).is_weak

    def test_deterministic(self, toy_params):
        cfg = KeyCheckConfig(threshold_T=8)
        assert keygen_checked(toy_params, seed(9), cfg) == \
            keygen_checked(toy_params, seed(9), cfg)

    def test_acceptance_rate_band_100_seeds(self, toy_params):
        # regression band at the default threshold: nearly all first tries pass
        first_try = 0
        for i in range(100):
            _, _, rejected = keygen_checked(toy_params, seed(200 + i), T10)
            if rejected == 0:
                first_try += 1
        assert first_try >= 95

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            KeyCheckConfig(threshold_T=0)
