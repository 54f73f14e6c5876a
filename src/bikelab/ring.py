"""Arithmetic in the cyclic binary polynomial ring R = F2[x]/(x^r - 1).

Coefficient vectors are stored as nonnegative Python integers: bit i of the
integer is the coefficient of x^i, so addition is XOR and a cyclic shift is a
rotate.  ``DensePoly`` wraps such an integer together with its ring;
``SparsePoly`` stores only the sorted support indices and is the carrier for
low-weight values (private key blocks, error vectors).

Multiplication picks between two exact strategies: shifted-XOR accumulation
over the lighter operand's support, and (for two dense operands) one float64
FFT convolution, rounded to integers and reduced to parities.  One private
rotate-XOR loop, ``acc ^= b << s`` over a support, serves both
``mul_sparse`` and the light branch of the dense product.  The FFT packs
two coefficients per float as x[2i] + B*x[2i+1] with B = 2^s > r + 1, so its
transforms have about r/2 points.  Each packed sum holds three base-B digits,
each a count of at most r + 1 < B, and stays below B^2 * (h + 1) < 2^48 with
h = (r + 1)/2 while r + 1 < 2^16; larger rings use the shift product.  A guard
raises if any value strays from an integer by 0.25 or more.  The transforms
run at the 2^i * 3^j * 5^k length in [r, 1.05 r] with the most factors of two
(12800, 25600 and 41472 at r=12323, 24659 and 40973), since radix-2 passes
are the fastest.  There the worst case, all-ones squared, strays by 7.3e-4 at
r=12323, 5.9e-3 at r=24659 and 7.8e-2 at r=40973, and by at most 0.16 over
every odd r from 513 to 65533 (at r=55191).

The FFT product writes every step, from the packed operands through both
spectra and the inverse transform to the integer digits and the fold, into
one workspace of arrays per ring size, kept by ``_fft_workspace``.  A warm
product then allocates only numpy's casting buffers (64 KiB), the operands'
bytes and the packed result, which leaves as a fresh Python int, so no buffer
escapes: its traced peak is 67 KiB at r=12323, below glibc's 128 KiB trim
threshold.  With per-call temporaries it was 547 KiB, and glibc could return
the heap top to the kernel between products and fault it back in on the
next.  The package runs no threads, and a forked DFR worker gets its own
copy, so one workspace per process is safe; a caller that multiplied from
several threads at once would need one per thread.

Inversion raises to 2^L - 2, where L is the order of 2 mod r, with a
square-and-multiply addition chain; raising to 2^k is a single gather through
a cached index j -> j*2^(-k) mod r.  For odd r the ring splits into fields
F_(2^d) with each d dividing L, so every unit's order divides 2^L - 1 and
a^(2^L - 2) is its inverse.  Where 2 is primitive mod a prime r, L = r - 1 and
this is the Fermat exponent 2^(r-1) - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import NotInvertibleError, ParameterError

# Up to this weight of the lighter operand, rotate-and-XOR is used instead of
# the FFT product.  Measured crossover of the packed FFT (numpy 2.4, 2-vCPU VM,
# three runs): w ~ 290-330 at r=1283, ~180-300 at r=12323, ~375-430 at
# r=24659, ~410-530 at r=40973.  The lighter inversion-chain operand at L1-L5
# weighs w/2 (71-137) or at least 6073, so none falls in between.
_SPARSE_MUL_CUTOFF = 512


@dataclass(frozen=True)
class RingParams:
    """Circulant block size r (odd, >= 3).

    Inversion is exact at every such r.  When r is also prime with 2
    primitive modulo r, every odd-weight element other than the all-ones
    vector is invertible; the standard sets' r are.
    """

    r: int

    def __post_init__(self):
        if self.r < 3 or self.r % 2 == 0:
            raise ParameterError(f"r must be odd and >= 3, got {self.r}")

    @cached_property
    def mask(self) -> int:
        return (1 << self.r) - 1

    @cached_property
    def nbytes(self) -> int:
        return (self.r + 7) // 8


def _check_same_ring(a, b) -> None:
    if a.ring.r != b.ring.r:
        raise ParameterError(f"ring mismatch: r={a.ring.r} vs r={b.ring.r}")


def _check_key_blocks(h0: SparsePoly, h1: SparsePoly) -> None:
    """A key's two blocks lie in one ring and have equal weight."""
    _check_same_ring(h0, h1)
    if h0.weight() != h1.weight():
        raise ParameterError("h0 and h1 must have equal weight")


def _bits_to_array(v: int, r: int) -> np.ndarray:
    """Integer bit vector -> uint8 array of length r (index i = coeff of x^i)."""
    raw = v.to_bytes((r + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:r]


def _array_to_bits(arr: np.ndarray) -> int:
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def _support_of(v: int, r: int) -> np.ndarray:
    # the bool view of the 0/1 array takes numpy's fast nonzero path
    return np.flatnonzero(_bits_to_array(v, r).view(bool))


def _rotate_xor(support, b: int, r: int, mask: int) -> int:
    """Product of b and the element with the given support, reduced mod x^r - 1."""
    acc = 0
    for s in support:
        acc ^= b << s
    # s <= r - 1 and b <= mask, so acc < 2^(2r-1) and one fold mod x^r - 1 reduces it
    return (acc >> r) ^ (acc & mask)


@cache
def _fft_len(n: int) -> int:
    """The 2^i * 3^j * 5^k in [n, 1.05 n] with the most factors of two (the
    least such on a tie), or the least one >= n where that range holds none.

    numpy's FFT runs radix-2 passes fastest, so a length a few percent longer
    with fewer odd-radix passes wins.  Forward plus inverse real transform
    (numpy 2.4, 2-vCPU VM): 134.7 us at 12500 = 2^2 * 5^5 against 125.2 us at
    12800 = 2^9 * 5^2 (r=12323), 462.6 against 435.6 us at 25000 and 25600
    (r=24659), 15.0 us at 1280 against 17.2 at 1296 (r=1259); 41472 = 2^9 *
    3^4 (r=40973) runs in 813 us, against 831 at 43200 and 939 at 49152.
    """
    top = 1 << (n - 1).bit_length()   # a power of two >= n bounds the search
    k = range(top.bit_length())
    odd = [3**b * 5**c for b in k for c in k if 3**b * 5**c <= top]
    smooth = [p << a for p in odd for a in k if n <= p << a <= top]
    near = [m for m in smooth if 20 * m <= 21 * n] or [min(smooth)]
    return max(near, key=lambda m: (m & -m, -m))


class _FftWorkspace:
    """Every array the FFT product at ring size r writes, allocated once."""

    def __init__(self, r: int):
        self.s = (r + 1).bit_length()
        self.n = _fft_len(r)
        self.nbytes = (r + 8) // 8   # bytes of the (r+1)-bit padded vector
        # row v packs the four bit pairs of byte v as x[2j] + B*x[2j+1]
        bit = np.arange(256)[:, None] >> np.arange(8) & 1
        self.pair_table = (bit[:, 0::2] + (bit[:, 1::2] << self.s)).astype(np.float64)
        # 4 * nbytes >= h packed values per operand; those past h are pairs of
        # bits above r, so 0
        self.packed = np.empty((2, 4 * self.nbytes))
        self.spectra = np.empty((2, self.n // 2 + 1), dtype=np.complex128)
        self.inverse = np.empty(self.n)
        self.coeffs = np.empty(r, dtype=np.int64)
        self.even = np.empty(r, dtype=np.int64)
        self.bits = np.zeros(((r + 1) // 2, 2), dtype=np.uint8)   # bit r, the last, stays 0


# One workspace per ring size: 0.6 MB at L1, 2.0 MB at L5.  Four hold L1, L3,
# L5 and one reduced ring at once.
@lru_cache(maxsize=4)
def _fft_workspace(r: int) -> _FftWorkspace:
    return _FftWorkspace(r)


def _mul_int_fft(a: int, b: int, r: int) -> int:
    # Two coefficients per float: with h = (r+1)/2 and B = 2^s, pair i of the
    # (r+1)-bit padded vector becomes x[2i] + B*x[2i+1].  The linear
    # convolution of the h packed values has r terms c_k = E_k + B*M_k +
    # B^2*O_k, whose digits E_k, O_k <= h and M_k <= r+1 are all below B, so
    # bit 2k of the plain product is the parity of E_k + O_(k-1) and bit 2k+1
    # is the parity of M_k.  Each step writes into the ring's workspace.
    ws = _fft_workspace(r)
    s, n, h = ws.s, ws.n, (r + 1) // 2
    for row, v in zip(ws.packed, (a, b)):
        raw = np.frombuffer(v.to_bytes(ws.nbytes, "little"), dtype=np.uint8)
        # clip, not raise: take's default mode buffers its output
        np.take(ws.pair_table, raw, axis=0, out=row.reshape(ws.nbytes, 4), mode="clip")
    np.fft.rfft(ws.packed, n, out=ws.spectra)
    np.multiply(ws.spectra[0], ws.spectra[1], out=ws.spectra[0])
    # irfft's return value, not ws.inverse, is what the guard must check
    p = np.fft.irfft(ws.spectra[0], n, out=ws.inverse)[:r]
    c = np.rint(p, out=ws.coeffs, casting="unsafe")
    if np.abs(np.subtract(p, c, out=p), out=p).max() >= 0.25:
        raise FloatingPointError(f"FFT product is not exact at r={r}")
    even = ws.even
    even[0] = c[0]
    np.add(c[1:], np.right_shift(c[:-1], 2 * s, out=even[1:]), out=even[1:])
    odd = np.right_shift(c, s, out=c)
    # Fold mod x^r - 1: bit m takes bit m + r, which has the other parity as r
    # is odd; the plain product has degree <= 2r - 2, so nothing lies beyond.
    # The uint8 casts keep each value's low bits, and so its parity.
    out = ws.bits
    np.bitwise_xor(even[:h], odd[h - 1 :], out=out[:, 0], casting="unsafe")
    np.bitwise_xor(odd[: h - 1], even[h:], out=out[:-1, 1], casting="unsafe")
    return _array_to_bits(np.bitwise_and(out, 1, out=out))


def _mul_int(a: int, b: int, r: int, mask: int) -> int:
    a, b = sorted((a, b), key=int.bit_count)   # a is the lighter operand
    # The FFT product is shown exact only while r + 1 < 2^16, so B = 2^s <= 2^16:
    # each packed digit is at most r + 1 < B, every packed sum is below
    # B^2 * (h + 1) < 2^48, and all-ones squared, the worst case, rounds within
    # 0.16 of an integer.
    if a.bit_count() <= _SPARSE_MUL_CUTOFF or r + 1 >= 1 << 16:
        return _rotate_xor(_support_of(a, r).tolist(), b, r, mask)
    return _mul_int_fft(a, b, r)


# One chain raises to 2^e for at most bit_length(L - 1) distinct e: 13, 14 and
# 15 at L1/L3/L5, and at most 17 for any r < 2^17.  64 tables hold the chains of
# all three levels at once; each holds r indices, 24.6 KB at L1.
@lru_cache(maxsize=64)
def _frobenius_index(r: int, e: int) -> np.ndarray:
    """Coefficient j of v^(2^e) is coefficient j * 2^(-e) mod r of v."""
    index = (np.arange(r, dtype=np.int64) * pow(2, -e, r) % r).astype(np.min_scalar_type(r - 1))
    index.flags.writeable = False   # every call shares the one cached copy
    return index


def _frobenius_int(v: int, r: int, e: int) -> int:
    """Raise to the power 2^e: moves index i to i * 2^e mod r, as one gather."""
    return _array_to_bits(np.take(_bits_to_array(v, r), _frobenius_index(r, e)))


@cache
def _order_of_two(r: int) -> int:
    """Least L >= 1 with 2^L = 1 mod r (r odd)."""
    order, power = 1, 2 % r
    while power != 1:
        order, power = order + 1, 2 * power % r
    return order


def _invert_int(a: int, r: int, mask: int) -> tuple[int, int]:
    """Inverse via the exponent 2^L - 2, L the order of 2 mod r; returns
    (inverse, multiplications).

    Maintains X = a^(2^e - 1) while consuming the bits of n = L - 1 from the
    most significant end; one final power of two turns a^(2^n - 1) into
    a^(2^L - 2).  The multiplication count is floor(log2(n)) + wt(n) - 1.
    """
    n = _order_of_two(r) - 1
    x = a
    e = 1
    muls = 0
    for bit in bin(n)[3:]:
        x = _mul_int(_frobenius_int(x, r, e), x, r, mask)
        muls += 1
        e *= 2
        if bit == "1":
            x = _mul_int(_frobenius_int(x, r, 1), a, r, mask)
            muls += 1
            e += 1
    return _frobenius_int(x, r, 1), muls


@dataclass(frozen=True)
class SparsePoly:
    """Ring element stored as strictly increasing support indices."""

    ring: RingParams
    support: tuple[int, ...]

    def __post_init__(self):
        r = self.ring.r
        prev = -1
        for i in self.support:
            if not prev < i < r:
                raise ParameterError(f"support must be strictly increasing in [0, {r})")
            prev = i

    @classmethod
    def from_indices(cls, ring: RingParams, indices) -> "SparsePoly":
        return cls(ring, tuple(sorted(int(i) for i in indices)))

    def weight(self) -> int:
        return len(self.support)

    def to_dense(self) -> "DensePoly":
        bits = 0
        for i in self.support:
            bits |= 1 << i
        return DensePoly(self.ring, bits)


@dataclass(frozen=True)
class DensePoly:
    """Ring element stored as an r-bit integer (bit i = coefficient of x^i)."""

    ring: RingParams
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= self.ring.mask:
            raise ParameterError(f"coefficient bits must lie in [0, 2^{self.ring.r})")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_hex(cls, ring: RingParams, s: str) -> "DensePoly":
        raw = bytes.fromhex(s)
        if len(raw) != ring.nbytes:
            raise ParameterError(f"expected {ring.nbytes} bytes, got {len(raw)}")
        # set pad bits beyond r fail the constructor's range check
        return cls(ring, int.from_bytes(raw, "little"))

    # -- serialization ------------------------------------------------------

    def to_bytes_le(self) -> bytes:
        return self.bits.to_bytes(self.ring.nbytes, "little")

    def to_hex(self) -> str:
        return self.to_bytes_le().hex()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "DensePoly") -> "DensePoly":
        _check_same_ring(self, other)
        return DensePoly(self.ring, self.bits ^ other.bits)

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        _check_same_ring(self, other)
        return DensePoly(self.ring, _mul_int(self.bits, other.bits, self.ring.r, self.ring.mask))

    def weight(self) -> int:
        return self.bits.bit_count()

    def invert(self) -> "DensePoly":
        inv, _ = invert_counted(self)
        return inv



def mul_sparse(a: SparsePoly, b: DensePoly) -> DensePoly:
    """Product of a sparse and a dense element (rotate-XOR over a's support)."""
    _check_same_ring(a, b)
    return DensePoly(b.ring, _rotate_xor(a.support, b.bits, b.ring.r, b.ring.mask))


def invert_counted(a: DensePoly) -> tuple[DensePoly, int]:
    """Inverse of a plus the number of ring multiplications the chain used.

    Correctness is established after the fact: the result is accepted only if
    a * result == 1, which also rejects non-invertible inputs.
    """
    r, mask = a.ring.r, a.ring.mask
    inv, muls = _invert_int(a.bits, r, mask)
    if _mul_int(a.bits, inv, r, mask) != 1:
        raise NotInvertibleError(f"element of weight {a.weight()} is not invertible (r={r})")
    return DensePoly(a.ring, inv), muls
