import hashlib
import random

import pytest

from bikelab import (BudgetExhaustedError, Ciphertext, NotInvertibleError,
                     ParameterError, custom_params, decaps,
                     decaps_with_diagnostics, encaps, hash_H, hash_K, hash_L, keygen,
                     level_params, sample_fixed_weight, sample_private_key, syndrome)
from bikelab.kem import TAG_ENCAPS_M, XofStream, expand_u64_seed
from bikelab.keys import ErrorPair, PrivateKey
from bikelab.ring import DensePoly, SparsePoly, mul_sparse
from bikelab.weakkeys import WeakKeySpec

from draw_oracle import one_word_fixed_weight, one_word_index
from ring_oracle import invert_oracle, shift


def flip_bit(data: bytes, i: int) -> bytes:
    out = bytearray(data)
    out[i // 8] ^= 1 << (i % 8)
    return bytes(out)


class TestSampleFixedWeight:
    def test_weight_zero(self):
        assert sample_fixed_weight(XofStream(0x54, [b"x"]), 13, 0) == ()

    def test_weight_equals_domain(self):
        assert sample_fixed_weight(XofStream(0x54, [b"x"]), 13, 13) == tuple(range(13))

    def test_frozen_golden(self):
        # captured once from the stream construction and frozen
        got = sample_fixed_weight(XofStream(0x54, [b"golden-sample"]), 13, 3)
        assert got == (4, 5, 12)

    def test_rejects_overweight(self):
        with pytest.raises(ParameterError):
            sample_fixed_weight(XofStream(0x54, [b"x"]), 5, 6)

    def test_sorted_distinct(self):
        idx = sample_fixed_weight(XofStream(0x54, [b"y"]), 1019, 40)
        assert len(set(idx)) == 40 and list(idx) == sorted(idx)

    @pytest.mark.parametrize("n_total,weight", [
        (13, 3), (1019, 40), (24646, 134), (12323, 71),
        (2**31 + 1, 6),   # limit = n_total: almost half of all words are rejected
        (5, 5),           # every index taken: duplicates dominate the tail
    ])
    @pytest.mark.parametrize("offset", [0, 1], ids=["aligned", "odd-offset"])
    def test_matches_one_word_reference_and_leaves_stream_in_place(
            self, n_total, weight, offset):
        for seed in range(40):
            fields = [b"ref", seed.to_bytes(4, "big")]
            got_stream, ref_stream = XofStream(0x54, fields), XofStream(0x54, fields)
            got_stream.read(offset)
            ref_stream.read(offset)
            got = sample_fixed_weight(got_stream, n_total, weight)
            assert got == one_word_fixed_weight(ref_stream, n_total, weight)
            assert got_stream.read(16) == ref_stream.read(16)

    @pytest.mark.parametrize("n,k", [
        (13, 5), (1019, 40), (12323, 1), (13, 0),
        (2**31 + 1, 6),   # limit = n: almost half of all words are rejected
        (5, 20),          # more indices than values: repeats are kept, in order
    ])
    @pytest.mark.parametrize("offset", [0, 1], ids=["aligned", "odd-offset"])
    def test_indices_match_one_word_reference_and_leave_stream_in_place(self, n, k, offset):
        for seed in range(40):
            fields = [b"idx", seed.to_bytes(4, "big")]
            got_stream, ref_stream = XofStream(0x54, fields), XofStream(0x54, fields)
            got_stream.read(offset)
            ref_stream.read(offset)
            got = got_stream.indices(n, k)
            assert got == [one_word_index(ref_stream, n) for _ in range(k)]
            assert got_stream.read(16) == ref_stream.read(16)

    def test_read_u32s_equals_repeated_read_u32(self):
        a, b = XofStream(0x54, [b"words"]), XofStream(0x54, [b"words"])
        a.read(3)
        b.read(3)
        assert a.read_u32s(37) == tuple(int.from_bytes(b.read(4), "little") for _ in range(37))
        assert a.read_u32s(0) == ()
        assert a.read(8) == b.read(8)


class TestKeygen:
    def test_l1_weights(self, l1_params):
        sk, pk = keygen(l1_params, bytes(32))
        assert sk.h0.weight() == 71 and sk.h1.weight() == 71
        assert len(sk.sigma) == 32

    def test_public_key_identity(self, toy_params):
        # h * h0 = h1 by definition of h
        sk, pk = keygen(toy_params, expand_u64_seed(5))
        assert mul_sparse(sk.h0, pk.h).bits == sk.h1.to_dense().bits

    def test_distinct_across_seeds(self, toy_params):
        seen = set()
        for i in range(100):
            sk, _ = keygen(toy_params, expand_u64_seed(i))
            seen.add((sk.h0.support, sk.h1.support))
        assert len(seen) == 100

    def test_deterministic(self, toy_params):
        a = keygen(toy_params, expand_u64_seed(9))
        b = keygen(toy_params, expand_u64_seed(9))
        assert a == b

    def test_private_sampler_matches_keygen(self, toy_params):
        seed = expand_u64_seed(11)
        sk, _ = keygen(toy_params, seed)
        assert sample_private_key(toy_params, seed) == sk

    def test_redraws_only_h0_frozen(self):
        # at r=31, 2 has order 5 mod r, so some h0 are not invertible and keygen
        # takes the next h0 of the same seed; the digest predates the shared draw
        params = custom_params(r=31, w=6, t=4)
        digest = hashlib.sha256()
        redrawn = 0
        for i in range(30):
            seed = expand_u64_seed(i)
            sk, pk = keygen(params, seed)
            first = sample_private_key(params, seed)
            assert (sk.h1, sk.sigma) == (first.h1, first.sigma)
            redrawn += sk.h0 != first.h0
            digest.update(repr((sk.h0.support, sk.h1.support, sk.sigma.hex(),
                                pk.h.to_hex())).encode())
        assert redrawn == 9
        assert digest.hexdigest() == (
            "69747c7dd2dc0000cbd2e7cf5b3784d5d5ceb182ca5665db20ec947d438d8a98")

    def test_keeps_every_invertible_h0_at_r105(self):
        # 2 has order 12 mod 105, not a divisor of r - 1: keygen must still keep
        # the first h0 whenever the Euclid oracle inverts it
        params = custom_params(r=105, w=14, t=4)
        kept = 0
        for i in range(30):
            seed = expand_u64_seed(i)
            first = sample_private_key(params, seed)
            try:
                inv = invert_oracle(first.h0.to_dense())
            except NotInvertibleError:
                continue
            sk, pk = keygen(params, seed)
            assert sk == first
            assert pk.h == mul_sparse(sk.h1, inv)
            kept += 1
        assert kept == 19

    @pytest.mark.parametrize("params,seed,digest", [
        (level_params(1), 1, "d589281071fc16edd2c2969a3337681ad4fca20a317dede8a8236ba92a63a2c9"),
        (level_params(1), 2, "b3742f73f7bcb67969834245b2d7b7b7442d0bd69b21db62176791d3de3ad26d"),
        (level_params(3), 1, "d63b12aac29bf17880e4af31c2fde87d0c2af5a8321c1c657304786c48405324"),
        (level_params(3), 2, "5b9f34a7327e43e65a10d6656430a02f62af6c93a287f1dcf57d4ceba987640d"),
        (level_params(5), 1, "8c4614bf505231c2445f72a0c270ecc8711849b400fcc3b0a061f8087fb0b302"),
        (level_params(5), 2, "47911ac3d518aa09bb2b48b7a41008bef79cb3931d4688fb549fe9430967a981"),
        (custom_params(r=1259, w=42, t=30), 1,
         "43273e55925409af7efce1900d4a2d96ca323a1c81b3d76c5700310237ab7009"),
        (custom_params(r=1259, w=42, t=30), 2,
         "d515f2d747f26bb6e0ae493e20f608fec57547b743d6aca18ccaafc999e7deb9"),
    ], ids=["L1-1", "L1-2", "L3-1", "L3-2", "L5-1", "L5-2", "r1259-1", "r1259-2"])
    def test_keygen_frozen_golden(self, params, seed, digest):
        # SHA-256 of the public key bytes, captured once and frozen
        _, pk = keygen(params, expand_u64_seed(seed))
        assert hashlib.sha256(pk.h.to_bytes_le()).hexdigest() == digest

    def test_seed_length_checked(self, toy_params):
        with pytest.raises(ParameterError):
            keygen(toy_params, b"short")
        with pytest.raises(ParameterError):
            sample_private_key(toy_params, b"short")

    def test_retry_is_bounded(self, toy_params, monkeypatch):
        def never_invertible(self):
            raise NotInvertibleError("forced")
        monkeypatch.setattr(DensePoly, "invert", never_invertible)
        with pytest.raises(BudgetExhaustedError):
            keygen(toy_params, expand_u64_seed(5))


class TestHashes:
    def test_hash_h_deterministic(self, l1_params):
        m = bytes(32)
        assert hash_H(m, l1_params) == hash_H(m, l1_params)

    def test_hash_h_weight_is_t(self, l1_params):
        rng = random.Random(1)
        for _ in range(5):
            m = rng.randbytes(32)
            e = hash_H(m, l1_params)
            assert e.e0.weight() + e.e1.weight() == 134

    def test_hash_h_frozen_golden(self, l1_params):
        # all-zero message at level 1; digest of the support lists frozen
        e = hash_H(bytes(32), l1_params)
        assert e.e0.support[:5] == (139, 303, 445, 797, 837)
        assert e.e1.support[:5] == (247, 285, 533, 590, 999)
        blob = (",".join(map(str, e.e0.support)) + "|" +
                ",".join(map(str, e.e1.support))).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "9a62a47f555ba777abc47deeeb2b097f18d33f4d9db5822a432317b29cad27fd")

    def test_hash_l_deterministic_and_length(self, l1_params):
        e = hash_H(bytes(32), l1_params)
        out = hash_L(e, l1_params)
        assert out == hash_L(e, l1_params)
        assert len(out) * 8 == 256

    def test_hash_l_single_bit_sensitivity(self, toy_params):
        rng = random.Random(2)
        ring = toy_params.ring
        for _ in range(100):
            supp0 = tuple(sorted(rng.sample(range(toy_params.r), 9)))
            supp1 = tuple(sorted(rng.sample(range(toy_params.r), 9)))
            e = ErrorPair(SparsePoly(ring, supp0), SparsePoly(ring, supp1))
            base = hash_L(e, toy_params)
            pos = rng.randrange(toy_params.r)
            flipped = ErrorPair(
                SparsePoly(ring, tuple(sorted(set(supp0) ^ {pos}))), e.e1)
            assert hash_L(flipped, toy_params) != base

    def test_hash_k_deterministic_sensitive_256(self, toy_params):
        sk, pk = keygen(toy_params, expand_u64_seed(3))
        c, _ = encaps(pk, toy_params, expand_u64_seed(4))
        m = bytes(toy_params.l_bytes)
        k = hash_K(m, c, toy_params)
        assert k == hash_K(m, c, toy_params)
        assert len(k.data) * 8 == 256
        assert hash_K(flip_bit(m, 0), c, toy_params) != k
        c2 = Ciphertext(c0=c.c0, c1=flip_bit(c.c1, 5))
        assert hash_K(m, c2, toy_params) != k


class TestEncapsDecaps:
    def test_c0_xor_cancellation(self, toy_params):
        sk, pk = keygen(toy_params, expand_u64_seed(6))
        seed = expand_u64_seed(7)
        c, _ = encaps(pk, toy_params, seed)
        m = XofStream(TAG_ENCAPS_M, [seed]).read_bits(toy_params.l)
        e = hash_H(m, toy_params)
        assert (c.c0 + mul_sparse(e.e1, pk.h)).bits == e.e0.to_dense().bits
        # c1 xor L(e) recovers m
        mask = hash_L(e, toy_params)
        assert bytes(x ^ y for x, y in zip(c.c1, mask)) == m

    def test_round_trip_toy(self, toy_params):
        rng = random.Random(8)
        for i in range(50):
            sk, pk = keygen(toy_params, expand_u64_seed(100 + i))
            c, k = encaps(pk, toy_params, rng.randbytes(32))
            k2, outcome = decaps_with_diagnostics(sk, c, toy_params)
            assert outcome.success
            assert k2 == k

    def test_round_trip_l1(self, l1_params):
        sk, pk = keygen(l1_params, expand_u64_seed(9))
        for i in range(3):
            c, k = encaps(pk, l1_params, expand_u64_seed(200 + i))
            assert decaps(sk, c, l1_params) == k

    @pytest.mark.parametrize("level", [3, 5])
    def test_round_trip_l3_l5(self, level):
        # each level decodes with its own published threshold constants
        params = level_params(level)
        sk, pk = keygen(params, expand_u64_seed(20 + level))
        c, k = encaps(pk, params, expand_u64_seed(30 + level))
        k2, outcome = decaps_with_diagnostics(sk, c, params)
        assert outcome.success
        assert k2 == k

    def test_tampered_c1_rejects_to_sigma_key(self, toy_params):
        sk, pk = keygen(toy_params, expand_u64_seed(10))
        c, k = encaps(pk, toy_params, expand_u64_seed(11))
        bad = Ciphertext(c0=c.c0, c1=flip_bit(c.c1, 3))
        k_bad = decaps(sk, bad, toy_params)
        assert k_bad != k
        assert k_bad == hash_K(sk.sigma, bad, toy_params)

    def test_rejection_depends_on_sigma(self, toy_params):
        sk, pk = keygen(toy_params, expand_u64_seed(12))
        c, _ = encaps(pk, toy_params, expand_u64_seed(13))
        bad = Ciphertext(c0=c.c0, c1=flip_bit(c.c1, 0))
        other = PrivateKey(h0=sk.h0, h1=sk.h1, sigma=bytes(len(sk.sigma)))
        assert decaps(sk, bad, toy_params) != decaps(other, bad, toy_params)

    def test_decoder_failure_takes_sigma_path(self, l1_params):
        # an f=40 key with the run in h0 makes honest decoding fail
        sk = WeakKeySpec(1, f=40, d=1).sample(l1_params, expand_u64_seed(2))
        h = mul_sparse(sk.h1, sk.h0.to_dense().invert())
        from bikelab.keys import PublicKey
        pk = PublicKey(h=h)
        c, k = encaps(pk, l1_params, expand_u64_seed(14))
        k2, outcome = decaps_with_diagnostics(sk, c, l1_params)
        assert not outcome.success
        assert k2 != k
        assert k2 == hash_K(sk.sigma, c, l1_params)

    def test_malformed_lengths_rejected_before_processing(self, toy_params):
        sk, pk = keygen(toy_params, expand_u64_seed(15))
        c, _ = encaps(pk, toy_params, expand_u64_seed(16))
        with pytest.raises(ParameterError):
            decaps(sk, Ciphertext(c0=c.c0, c1=c.c1 + b"\x00"), toy_params)
        other_ring_c0 = DensePoly(custom_params(r=13, w=6, t=4).ring, 0)
        with pytest.raises(ParameterError):
            decaps(sk, Ciphertext(c0=other_ring_c0, c1=c.c1), toy_params)

    def test_encaps_deterministic(self, toy_params):
        sk, pk = keygen(toy_params, expand_u64_seed(17))
        seed = expand_u64_seed(18)
        assert encaps(pk, toy_params, seed) == encaps(pk, toy_params, seed)


class TestSyndrome:
    def test_zero(self, toy_params):
        z = DensePoly(toy_params.ring, 0)
        sk, _ = keygen(toy_params, expand_u64_seed(19))
        assert syndrome(z, sk.h0).bits == 0

    def test_equals_error_form(self, toy_params):
        # for c0 = e0 + e1 h:  c0 h0 = e0 h0 + e1 h1
        sk, pk = keygen(toy_params, expand_u64_seed(20))
        seed = expand_u64_seed(21)
        c, _ = encaps(pk, toy_params, seed)
        m = XofStream(TAG_ENCAPS_M, [seed]).read_bits(toy_params.l)
        e = hash_H(m, toy_params)
        direct = (mul_sparse(sk.h0, e.e0.to_dense()) +
                  mul_sparse(sk.h1, e.e1.to_dense()))
        assert syndrome(c.c0, sk.h0).bits == direct.bits

    def test_matches_matrix_oracle_r13(self):
        # brute-force e . H^T with H's columns being the cyclic shifts of the
        # blocks (column k of block b = x^k h_b)
        params = custom_params(r=13, w=6, t=4)
        ring = params.ring
        rng = random.Random(22)
        for _ in range(20):
            h0 = SparsePoly(ring, tuple(sorted(rng.sample(range(13), 3))))
            e0 = tuple(sorted(rng.sample(range(13), 2)))
            e1 = tuple(sorted(rng.sample(range(13), 2)))
            h1 = SparsePoly(ring, tuple(sorted(rng.sample(range(13), 3))))
            cols = [shift(h0.to_dense(), k) for k in range(13)]
            cols += [shift(h1.to_dense(), k) for k in range(13)]
            s_bits = [0] * 13
            for k, col in enumerate(cols):
                ek = 1 if (k < 13 and k in e0) or (k >= 13 and (k - 13) in e1) else 0
                if ek:
                    for j in range(13):
                        s_bits[j] ^= (col.bits >> j) & 1
            expected = sum(b << j for j, b in enumerate(s_bits))
            got = (mul_sparse(h0, SparsePoly(ring, e0).to_dense()) +
                   mul_sparse(h1, SparsePoly(ring, e1).to_dense()))
            assert got.bits == expected
