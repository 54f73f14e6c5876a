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
raises if any value strays from an integer by 0.25 or more; the worst case,
all-ones squared, strays by 4.9e-4 at r=12323, 7.8e-3 at r=24659 and 7.8e-2
at r=40973.  Inversion raises to 2^L - 2, where L is the order of 2 mod r,
with a square-and-multiply addition chain; raising to 2^k is a single index
permutation i -> i*2^k mod r.  For odd r the ring splits into fields
F_(2^d) with each d dividing L, so every unit's order divides 2^L - 1 and
a^(2^L - 2) is its inverse.  Where 2 is primitive mod a prime r, L = r - 1
and this is the Fermat exponent 2^(r-1) - 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

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
            raise ParameterError(f"ring size must be odd and >= 3, got {self.r}")

    @cached_property
    def mask(self) -> int:
        return (1 << self.r) - 1

    @cached_property
    def nbytes(self) -> int:
        return (self.r + 7) // 8


def _check_same_ring(a, b) -> None:
    if a.ring.r != b.ring.r:
        raise ParameterError(f"ring mismatch: r={a.ring.r} vs r={b.ring.r}")


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
    """Smallest 2^i * 3^j * 5^k >= n, a length numpy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the least power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _mul_int_fft(a: int, b: int, r: int) -> int:
    # Two coefficients per float: with h = (r+1)/2 and B = 2^s, pair i of the
    # (r+1)-bit padded vector becomes x[2i] + B*x[2i+1].  The linear
    # convolution of the h packed values has r terms c_k = E_k + B*M_k +
    # B^2*O_k, whose digits E_k, O_k <= h and M_k <= r+1 are all below B, so
    # bit 2k of the plain product is the parity of E_k + O_(k-1) and bit 2k+1
    # is the parity of M_k.
    s = (r + 1).bit_length()
    h = (r + 1) // 2
    n = _fft_len(r)
    pa, pb = (_bits_to_array(v, r + 1).reshape(h, 2) @ (1.0, 1 << s) for v in (a, b))
    p = np.fft.irfft(np.fft.rfft(pa, n) * np.fft.rfft(pb, n), n)[:r]
    c = np.rint(p).astype(np.int64)
    if np.abs(p - c).max() >= 0.25:
        raise FloatingPointError(f"FFT product is not exact at r={r}")
    even = c.copy()
    even[1:] += c[:-1] >> 2 * s
    odd = c >> s
    # Fold mod x^r - 1: bit m takes bit m + r, which has the other parity as r
    # is odd; the plain product has degree <= 2r - 2, so nothing lies beyond.
    out = np.empty((h, 2), dtype=np.uint8)
    out[:, 0] = even[:h] ^ odd[h - 1 :]
    out[:-1, 1] = odd[: h - 1] ^ even[h:]
    return _array_to_bits(out.ravel()[:r] & 1)


def _mul_int(a: int, b: int, r: int, mask: int) -> int:
    a, b = sorted((a, b), key=int.bit_count)   # a is the lighter operand
    # The FFT product is shown exact only while r + 1 < 2^16, so B = 2^s <= 2^16:
    # each packed digit is at most r + 1 < B, every packed sum is below
    # B^2 * (h + 1) < 2^48, and all-ones squared, the worst case, rounds within
    # 7.8e-2 of an integer.
    if a.bit_count() <= _SPARSE_MUL_CUTOFF or r + 1 >= 1 << 16:
        return _rotate_xor(_support_of(a, r).tolist(), b, r, mask)
    return _mul_int_fft(a, b, r)


def _frobenius_int(v: int, r: int, e: int) -> int:
    """Raise to the power 2^e: permutes index i to i * 2^e mod r."""
    supp = _support_of(v, r)
    if supp.size == 0:
        return 0
    dest = (supp.astype(np.int64) * pow(2, e, r)) % r
    arr = np.zeros(r, dtype=np.uint8)
    arr[dest] = 1
    return _array_to_bits(arr)


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
        v = int.from_bytes(raw, "little")
        if v > ring.mask:
            raise ParameterError("pad bits beyond r must be zero")
        return cls(ring, v)

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
