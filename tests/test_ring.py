import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikelab import (NotInvertibleError, ParameterError, RingParams, custom_params,
                     invert_counted, mul_sparse, sample_private_key)
from bikelab import ring as ring_module
from bikelab.kem import expand_u64_seed
from bikelab.ring import (_SPARSE_MUL_CUTOFF, DensePoly, SparsePoly, _fft_len, _frobenius_int,
                          _mul_int, _mul_int_fft, _support_of)

from conftest import random_dense, random_odd_dense
from ring_oracle import invert_oracle, is_kem_grade, iti_mul_bound, shift, star


def schoolbook_mul(a: DensePoly, b: DensePoly) -> DensePoly:
    """Independent oracle: the double loop over all coefficient products."""
    r = a.ring.r
    out = 0
    for i in range(r):
        acc = 0
        for j in range(r):
            acc ^= ((a.bits >> j) & 1) & ((b.bits >> ((i - j) % r)) & 1)
        out |= acc << i
    return DensePoly(a.ring, out)


def rotate_xor_mul(a: DensePoly, b: DensePoly) -> DensePoly:
    """Second oracle, fast enough for r in the thousands: XOR b rotated by each i in supp(a)."""
    r = a.ring.r
    acc = 0
    for i in _support_of(a.bits, r):
        acc ^= b.bits << int(i)
    return DensePoly(a.ring, (acc >> r) ^ (acc & a.ring.mask))


def poly(ring, *powers) -> DensePoly:
    bits = 0
    for p in powers:
        bits ^= 1 << (p % ring.r)
    return DensePoly(ring, bits)


class TestRingParams:
    def test_rejects_even_and_tiny(self):
        with pytest.raises(ParameterError):
            RingParams(4)
        with pytest.raises(ParameterError):
            RingParams(1)

    def test_kem_grade_detection(self):
        for r in (13, 12323, 24659, 40973):
            assert is_kem_grade(r)
        assert not is_kem_grade(15)   # composite
        assert not is_kem_grade(7)    # 2 has order 3 mod 7


class TestAdd:
    def test_self_inverse(self, ring13):
        a = random_dense(ring13, random.Random(1))
        assert (a + a).bits == 0

    def test_identity(self, ring13):
        a = random_dense(ring13, random.Random(2))
        assert (a + DensePoly(ring13, 0)).bits == a.bits

    def test_hand_example_r7(self):
        # (x + x^3) + (x^3 + x^5) = x + x^5
        ring = RingParams(7)
        assert (poly(ring, 1, 3) + poly(ring, 3, 5)).bits == poly(ring, 1, 5).bits

    def test_ring_mismatch(self, ring13):
        with pytest.raises(ParameterError):
            DensePoly(ring13, 0) + DensePoly(RingParams(7), 0)


class TestMul:
    def test_identity(self, ring13):
        rng = random.Random(3)
        a = random_dense(ring13, rng)
        assert (DensePoly(ring13, 1) * a).bits == a.bits

    def test_x_times_x_r_minus_1(self, ring13):
        x = DensePoly(ring13, 1 << 1)
        xr1 = DensePoly(ring13, 1 << (ring13.r - 1))
        assert (x * xr1).bits == 1

    def test_matches_schoolbook_r7(self):
        ring = RingParams(7)
        rng = random.Random(4)
        for _ in range(500):
            a, b = random_dense(ring, rng), random_dense(ring, rng)
            assert (a * b).bits == schoolbook_mul(a, b).bits

    # r + 1 is a power of two at 127 and 8191; 65521 is the largest prime
    # that still takes the FFT product.  With two rings the products
    # alternate between them, and every result is checked only after the
    # last product: one ring's workspace never leaks into the other's
    # products, and a later product never changes a returned value.
    @pytest.mark.parametrize("rs", [(127,), (1283,), (8191,), (10009,), (12323,), (24659,),
                                    (40973,), (65521,), (1283, 12323)],
                             ids=lambda rs: "+".join(map(str, rs)))
    def test_fft_path_matches_rotate_xor(self, rs):
        # all-ones squared has the largest packed sums, the worst case for
        # rounding, and the product is all-ones again because r is odd
        per_ring = []
        for r in rs:
            ring = RingParams(r)
            rng = random.Random(5)
            ones = DensePoly(ring, ring.mask)
            per_ring.append([(ones, ones)] + [(random_dense(ring, rng), random_dense(ring, rng))
                                              for _ in range(5)])
        products = [(a, b, _mul_int_fft(a.bits, b.bits, a.ring.r))
                    for pairs in zip(*per_ring) for a, b in pairs]
        for a, b, got in products:
            assert got == rotate_xor_mul(a, b).bits
            if min(a.weight(), b.weight()) > _SPARSE_MUL_CUTOFF:
                assert (a * b).bits == rotate_xor_mul(a, b).bits
        for pairs in per_ring:
            ones = pairs[0][0]
            assert _mul_int_fft(ones.bits, ones.bits, ones.ring.r) == ones.ring.mask

    def test_warm_fft_product_allocates_below_trim_threshold(self):
        # 128 KiB is glibc's default trim and mmap threshold.  A product that
        # allocated and freed more, as the one with per-call temporaries did
        # (547 KiB at r=12323), could hand the heap top back to the kernel and
        # fault it in again on the next product.
        r = 12323
        ring = RingParams(r)
        rng = random.Random(7)
        a, b = random_dense(ring, rng), random_dense(ring, rng)
        want = _mul_int_fft(a.bits, b.bits, r)   # builds the workspace and the FFT plan
        tracemalloc.start()
        try:
            got = _mul_int_fft(a.bits, b.bits, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want == rotate_xor_mul(a, b).bits
        assert peak < 128 * 1024

    def test_fft_len_is_5_smooth_and_at_least_n(self):
        for n in [*range(127, 65536, 11), 65536]:
            m = _fft_len(n)
            assert n <= m <= 1 << (n - 1).bit_length()
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            assert m == 1

    # the lengths the FFT products at r=1259 and L1/L3/L5 run at; a change of
    # the rule moves the rounding error measured in the ring docstring
    @pytest.mark.parametrize("r,n", [(1259, 1280), (12323, 12800), (24659, 25600),
                                     (40973, 41472)])
    def test_fft_len_pins(self, r, n):
        assert _fft_len(r) == n

    @pytest.mark.parametrize("weight", [_SPARSE_MUL_CUTOFF - 1, _SPARSE_MUL_CUTOFF,
                                        _SPARSE_MUL_CUTOFF + 1])
    def test_cutoff_sides_match_rotate_xor(self, weight, monkeypatch):
        # the light rotate-XOR branch up to the cutoff, the FFT product above
        # it, whichever operand is the lighter one
        calls = []
        monkeypatch.setattr(ring_module, "_mul_int_fft",
                            lambda *args: calls.append(args) or _mul_int_fft(*args))
        r = 1283
        ring = RingParams(r)
        rng = random.Random(weight)
        light, heavy = (DensePoly(ring, sum(1 << i for i in rng.sample(range(r), k)))
                        for k in (weight, 900))
        want = rotate_xor_mul(light, heavy).bits
        assert _mul_int(light.bits, heavy.bits, r, ring.mask) == want
        assert _mul_int(heavy.bits, light.bits, r, ring.mask) == want
        assert len(calls) == (2 if weight > _SPARSE_MUL_CUTOFF else 0)

    @pytest.mark.parametrize("r,fft", [(65533, True), (65535, False)])
    def test_fft_route_ends_below_r_plus_1_at_2_to_16(self, r, fft, monkeypatch):
        # at r = 65535 the packing base would be 2^17 and the sums could
        # exceed what float64 rounds exactly, so the shift product runs
        calls = []
        monkeypatch.setattr(ring_module, "_mul_int_fft",
                            lambda *args: calls.append(args) or _mul_int_fft(*args))
        ring = RingParams(r)
        rng = random.Random(6)
        a, b = (DensePoly(ring, sum(1 << i for i in rng.sample(range(r), _SPARSE_MUL_CUTOFF + 1)))
                for _ in range(2))
        assert (a * b).bits == rotate_xor_mul(a, b).bits
        assert bool(calls) == fft

    def test_fft_exactness_guard_raises(self, monkeypatch):
        ring = RingParams(1283)
        rng = random.Random(18)
        a, b = random_dense(ring, rng), random_dense(ring, rng)
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
        with pytest.raises(FloatingPointError):
            a * b
        with pytest.raises(FloatingPointError):
            invert_counted(random_odd_dense(ring, rng))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, (1 << 13) - 1), st.integers(0, (1 << 13) - 1),
           st.integers(0, (1 << 13) - 1))
    def test_ring_axioms_r13(self, av, bv, cv):
        ring = RingParams(13)
        a, b, c = DensePoly(ring, av), DensePoly(ring, bv), DensePoly(ring, cv)
        assert (a * b).bits == (b * a).bits
        assert ((a * b) * c).bits == (a * (b * c)).bits
        assert (a * (b + c)).bits == ((a * b) + (a * c)).bits

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, (1 << 13) - 1), st.integers(0, (1 << 13) - 1))
    def test_weight_parity(self, av, bv):
        ring = RingParams(13)
        a, b = DensePoly(ring, av), DensePoly(ring, bv)
        assert (a + b).weight() % 2 == (a.weight() + b.weight()) % 2


class TestMulSparse:
    def test_support_zero_is_identity(self, ring13):
        b = random_dense(ring13, random.Random(6))
        assert mul_sparse(SparsePoly(ring13, (0,)), b).bits == b.bits

    def test_single_shift(self, ring13):
        b = DensePoly(ring13, 1 << (ring13.r - 1))
        assert mul_sparse(SparsePoly(ring13, (1,)), b).bits == 1

    def test_matches_dense_mul_r13(self, ring13):
        rng = random.Random(7)
        for _ in range(100):
            supp = tuple(sorted(rng.sample(range(13), 5)))
            a = SparsePoly(ring13, supp)
            b = random_dense(ring13, rng)
            assert mul_sparse(a, b).bits == (a.to_dense() * b).bits

    @pytest.mark.parametrize("r", [3, 13, 101, 613])
    def test_full_support_times_all_ones(self, r):
        # the largest accumulator: index r - 1 shifts all r bits of b up to bit 2r - 2
        ring = RingParams(r)
        a = SparsePoly(ring, tuple(range(r)))
        b = DensePoly(ring, ring.mask)
        assert mul_sparse(a, b).bits == (a.to_dense() * b).bits == ring.mask


class TestSquareShiftStarWeight:
    def test_square_trivials(self, ring13):
        assert _frobenius_int(1, 13, 1) == 1
        assert _frobenius_int(1 << 1, 13, 1) == 1 << 2

    def test_square_equals_self_mul(self, ring13):
        rng = random.Random(8)
        for _ in range(50):
            a = random_dense(ring13, rng)
            assert _frobenius_int(a.bits, 13, 1) == (a * a).bits

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, (1 << 13) - 1))
    def test_square_permutes_support(self, av):
        ring = RingParams(13)
        a = DensePoly(ring, av)
        expected = {(2 * int(i)) % 13 for i in _support_of(a.bits, 13)}
        assert set(int(i) for i in _support_of(_frobenius_int(a.bits, 13, 1), 13)) == expected

    @pytest.mark.parametrize("r", [13, 105, 1259, 12323])
    def test_gather_matches_scatter_definition(self, r):
        # the definition moves coefficient i to i * 2^e mod r; r=105 = 3*5*7 is
        # composite and 2 has order 12 there, so 2^(-e) is not 2^(r-1-e)
        order = next(k for k in range(1, r) if pow(2, k, r) == 1)
        ring = RingParams(r)
        rng = random.Random(r)
        for e in (1, 2, 3, order - 1, order, 3 * order + 2):
            for _ in range(3):
                v = random_dense(ring, rng).bits
                want = 0
                for i in range(r):
                    if v >> i & 1:
                        want |= 1 << (i * pow(2, e, r) % r)
                assert _frobenius_int(v, r, e) == want
        # the cached index is the smallest unsigned type that holds r - 1
        assert ring_module._frobenius_index(r, 1).dtype == (np.uint8 if r <= 256 else np.uint16)

    def test_shift_trivials(self, ring13):
        a = random_dense(ring13, random.Random(9))
        assert shift(a, 0).bits == a.bits
        assert shift(a, ring13.r).bits == a.bits

    def test_shift_wraps(self):
        ring = RingParams(11)  # index arithmetic (9+1) mod 10 needs even r=10; use 11
        # the documented example uses r=10 which is even; the same identity at
        # odd r: x^(r-1) shifted by 1 is 1
        assert shift(DensePoly(ring, 1 << (ring.r - 1)), 1).bits == 1

    def test_shift_is_monomial_mul(self, ring13):
        rng = random.Random(10)
        a = random_dense(ring13, rng)
        for k in (0, 1, ring13.r - 1, ring13.r, 2 * ring13.r + 3):
            xk = DensePoly(ring13, 1 << (k % ring13.r))
            assert shift(a, k).bits == (a * xk).bits

    def test_negative_shift_reduced(self, ring13):
        a = random_dense(ring13, random.Random(11))
        assert shift(a, -1).bits == shift(a, ring13.r - 1).bits

    def test_star(self, ring13):
        rng = random.Random(12)
        a = random_dense(ring13, rng)
        assert star(a, a).bits == a.bits
        assert star(a, DensePoly(ring13, 0)).bits == 0

    def test_bits_above_r_rejected(self, ring13):
        # a ParameterError, not an assert that vanishes under python -O
        with pytest.raises(ParameterError):
            DensePoly(ring13, 1 << ring13.r)
        with pytest.raises(ParameterError):
            DensePoly(ring13, -1)

    def test_star_hand_example_r7(self):
        ring = RingParams(7)
        assert star(poly(ring, 0, 1), poly(ring, 1, 2)).bits == poly(ring, 1).bits

    def test_weight(self, ring13):
        assert DensePoly(ring13, 0).weight() == 0
        big = RingParams(12323)
        assert DensePoly(big, big.mask).weight() == 12323
        assert SparsePoly(big, tuple(range(71))).weight() == 71


class TestInvert:
    def test_one(self, ring13):
        assert DensePoly(ring13, 1).invert().bits == 1

    def test_x(self, ring13):
        assert DensePoly(ring13, 1 << 1).invert().bits == 1 << (ring13.r - 1)

    def test_matches_euclid_oracle_r13(self, ring13):
        rng = random.Random(13)
        for _ in range(100):
            a = random_odd_dense(ring13, rng)
            assert a.invert().bits == invert_oracle(a).bits

    def test_round_trip_and_involution(self, ring13):
        rng = random.Random(14)
        for _ in range(25):
            a = random_odd_dense(ring13, rng)
            inv = a.invert()
            assert (a * inv).bits == 1
            assert inv.invert().bits == a.bits

    def test_oracle_trivials(self, ring13):
        assert invert_oracle(DensePoly(ring13, 1)).bits == 1
        assert invert_oracle(DensePoly(ring13, 1 << 2)).bits == 1 << (ring13.r - 2)

    def test_matches_euclid_oracle_r105(self):
        # 2 has order 12 mod 105, which does not divide r - 1 = 104: the Fermat
        # exponent 2^104 - 2 inverts none of the 19 units among these keygen h0
        # draws, while the chain's 2^12 - 2 inverts all of them
        params = custom_params(r=105, w=14, t=4)
        units = 0
        for i in range(30):
            a = sample_private_key(params, expand_u64_seed(i)).h0.to_dense()
            try:
                expected = invert_oracle(a)
            except NotInvertibleError:
                with pytest.raises(NotInvertibleError):
                    a.invert()
                continue
            assert a.invert() == expected
            units += 1
        assert units == 19

    def test_not_invertible(self, ring13):
        even = DensePoly(ring13, 0b11)
        with pytest.raises(NotInvertibleError):
            even.invert()
        with pytest.raises(NotInvertibleError):
            invert_oracle(even)
        with pytest.raises(NotInvertibleError):
            DensePoly(ring13, ring13.mask).invert()

    @pytest.mark.parametrize("r", [13, 523, 10009, 12323])
    def test_multiplication_count_matches_bound(self, r):
        ring = RingParams(r)
        rng = random.Random(15)
        a = random_odd_dense(ring, rng)
        _, muls = invert_counted(a)
        assert muls == iti_mul_bound(r)


class TestSerialization:
    def test_hex_round_trip(self, ring13):
        rng = random.Random(16)
        a = random_dense(ring13, rng)
        assert DensePoly.from_hex(ring13, a.to_hex()).bits == a.bits

    def test_hex_bit_order(self):
        # bit i sits at byte i//8, bit i%8 (LSB first): x^0 -> "01", x^8 -> "0001"
        ring = RingParams(13)
        assert DensePoly(ring, 1).to_hex() == "0100"
        assert DensePoly(ring, 1 << 8).to_hex() == "0001"

    def test_hex_rejects_pad_bits(self):
        ring = RingParams(13)
        with pytest.raises(ParameterError):
            DensePoly.from_hex(ring, "00ff")  # bits 13..15 set

    def test_sparse_validation(self, ring13):
        with pytest.raises(ParameterError):
            SparsePoly(ring13, (3, 3))
        with pytest.raises(ParameterError):
            SparsePoly(ring13, (5, 2))
        with pytest.raises(ParameterError):
            SparsePoly(ring13, (13,))

    def test_sparse_dense_round_trip(self, ring13):
        rng = random.Random(17)
        a = random_dense(ring13, rng)
        assert SparsePoly.from_indices(ring13, _support_of(a.bits, 13)).to_dense().bits == a.bits
