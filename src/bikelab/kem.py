"""Key generation, encapsulation, and decapsulation.

All randomness is squeezed from SHAKE256 streams so that every operation is a
deterministic function of its seed and reproduces bit-for-bit across
platforms.  Stream framing: one domain-tag byte, then for each input field a
big-endian 4-byte length followed by the field bytes.  Domain tags:

  0x48 / 0x4C / 0x4B   error hash H / mask hash L / key hash K
  0x30 / 0x31 / 0x32   key generation: h0 block, h1 block, sigma
  0x4D                 encapsulation message
  0x43                 checked-keygen candidate sub-seeds
  0x57                 weak-key and crafted-error generators
  0x54                 per-trial seeds in the failure-rate laboratory
  0x5E                 expansion of a 64-bit command-line seed
"""

from __future__ import annotations

import hashlib
import struct

from . import decoder
from .errors import NotInvertibleError, ParameterError
from .keys import Ciphertext, ErrorPair, PrivateKey, PublicKey, SharedKey, SystemParams
from .ring import DensePoly, SparsePoly, mul_sparse

TAG_H = 0x48
TAG_L = 0x4C
TAG_K = 0x4B
TAG_KEYGEN_H0 = 0x30
TAG_KEYGEN_H1 = 0x31
TAG_KEYGEN_SIGMA = 0x32
TAG_ENCAPS_M = 0x4D
TAG_CHECKED_SUBSEED = 0x43
TAG_WEAK = 0x57
TAG_TRIAL = 0x54
TAG_CLI_SEED = 0x5E


class XofStream:
    """An extendable byte stream squeezed from SHAKE256.

    hashlib squeezes the first n bytes of the output stream on every
    ``digest(n)`` call, so re-digesting with a doubled length yields a
    consistent prefix; the buffer grows geometrically and reads are served
    from it.
    """

    def __init__(self, tag: int, fields: list[bytes] | tuple[bytes, ...]):
        h = hashlib.shake_256()
        h.update(bytes([tag]))
        for f in fields:
            h.update(len(f).to_bytes(4, "big"))
            h.update(f)
        self._h = h
        self._buf = b""
        self._pos = 0

    def read(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            size = max(64, len(self._buf))
            while size < end:
                size *= 2
            self._buf = self._h.digest(size)
        out = self._buf[self._pos : end]
        self._pos = end
        return out

    def read_u32s(self, k: int) -> tuple[int, ...]:
        """The next k little-endian 32-bit words."""
        return struct.unpack(f"<{k}I", self.read(4 * k))

    def indices(self, n: int, k: int) -> list[int]:
        """The next k accepted indices in [0, n), in stream order.

        A word v is accepted when it lies below the largest multiple of n that is
        at most 2^32 (no modulo bias), and gives v mod n.  Each round reads as many
        words as indices are missing: a word gives at most one index, so the
        stream ends right after the k-th accepted word, where a one-word-at-a-time
        loop would leave it.  n lies in [1, 2^32], where the limit is positive.
        """
        if not 1 <= n <= 1 << 32:
            raise ParameterError(f"index range must lie in [1, 2^32], got {n}")
        limit = (1 << 32) // n * n
        out: list[int] = []
        while len(out) < k:
            out += [v % n for v in self.read_u32s(k - len(out)) if v < limit]
        return out

    def read_bits(self, nbits: int) -> bytes:
        """ceil(nbits/8) bytes with bits above nbits cleared in the last byte."""
        raw = bytearray(self.read((nbits + 7) // 8))
        if nbits % 8:
            raw[-1] &= (1 << (nbits % 8)) - 1
        return bytes(raw)


def check_u64_seed(seed: int) -> None:
    """ParameterError unless ``seed`` is an unsigned 64-bit integer, as the CLI's --seed."""
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")


def expand_u64_seed(seed: int) -> bytes:
    """32-byte seed derived from a 64-bit integer (the CLI's --seed)."""
    check_u64_seed(seed)
    return XofStream(TAG_CLI_SEED, [seed.to_bytes(8, "big")]).read(32)


def sample_fixed_weight(stream: XofStream, n_total: int, weight: int) -> tuple[int, ...]:
    """Exactly ``weight`` distinct indices in [0, n_total), uniform and unbiased.

    The first ``weight`` distinct values of :meth:`XofStream.indices`; each round
    asks for as many indices as are missing, so the stream ends right after the
    index that completes the set.
    """
    if weight > n_total:
        raise ParameterError(f"weight {weight} exceeds domain size {n_total}")
    chosen: set[int] = set()
    while len(chosen) < weight:
        chosen.update(stream.indices(n_total, weight - len(chosen)))
    return tuple(sorted(chosen))


def sample_sigma(seed: bytes, params: SystemParams) -> bytes:
    return XofStream(TAG_KEYGEN_SIGMA, [seed]).read_bits(params.l)


def sample_private_key(params: SystemParams, seed: bytes) -> PrivateKey:
    """(h0, h1, sigma) of the seed, each from its own stream; no inversion.

    This is what the failure-rate laboratory samples per trial: decoding only
    needs the private key.  :func:`keygen` publishes the same key.
    """
    if len(seed) != 32:
        raise ParameterError("keygen seed must be 32 bytes")
    ring, r, w2 = params.ring, params.r, params.w2
    h0 = SparsePoly(ring, sample_fixed_weight(XofStream(TAG_KEYGEN_H0, [seed]), r, w2))
    h1 = SparsePoly(ring, sample_fixed_weight(XofStream(TAG_KEYGEN_H1, [seed]), r, w2))
    return PrivateKey(h0=h0, h1=h1, sigma=sample_sigma(seed, params))


def public_key(h0: SparsePoly, h1: SparsePoly) -> PublicKey:
    """h = h1 * h0^-1, or NotInvertibleError naming h0, r and the remedy."""
    try:
        return PublicKey(h=mul_sparse(h1, h0.to_dense().invert()))
    except NotInvertibleError as exc:
        raise NotInvertibleError(f"h0 is not invertible at r={h0.ring.r}; try another --seed, "
                                 "or a KEM-grade r (prime, with 2 primitive mod r)") from exc


def keygen(params: SystemParams, seed: bytes) -> tuple[PrivateKey, PublicKey]:
    """The seed's private key and h = h1 * h0^-1; NotInvertibleError if h0 has no inverse.

    At a KEM-grade r (prime, with 2 primitive mod r) every odd-weight h0
    inverts, so only an experimental ring can refuse a seed.
    """
    sk = sample_private_key(params, seed)
    return sk, public_key(sk.h0, sk.h1)


def hash_H(m: bytes, params: SystemParams) -> ErrorPair:
    """Expand a message into the weight-t error pair over 2r positions."""
    if len(m) != params.l_bytes:
        raise ParameterError(f"message must be {params.l_bytes} bytes")
    idx = sample_fixed_weight(XofStream(TAG_H, [m]), 2 * params.r, params.t)
    ring = params.ring
    e0 = SparsePoly(ring, tuple(i for i in idx if i < params.r))
    e1 = SparsePoly(ring, tuple(i - params.r for i in idx if i >= params.r))
    return ErrorPair(e0=e0, e1=e1)


def _error_pair_bytes(e: ErrorPair, params: SystemParams) -> bytes:
    # 2r-bit concatenation e0 || e1, little-endian bit order within bytes
    v = e.e0.to_dense().bits | (e.e1.to_dense().bits << params.r)
    return v.to_bytes((2 * params.r + 7) // 8, "little")


def hash_L(e: ErrorPair, params: SystemParams) -> bytes:
    return XofStream(TAG_L, [_error_pair_bytes(e, params)]).read_bits(params.l)


def hash_K(m: bytes, c: Ciphertext, params: SystemParams) -> SharedKey:
    stream = XofStream(TAG_K, [m, c.c0.to_bytes_le(), c.c1])
    return SharedKey(stream.read_bits(params.l))


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def encaps(pk: PublicKey, params: SystemParams, seed: bytes) -> tuple[Ciphertext, SharedKey]:
    """Encapsulate under h: C = (e0 + e1*h, m xor L(e0, e1)), K = K(m, C)."""
    if pk.h.ring.r != params.r:
        raise ParameterError("public key does not match parameters")
    if len(seed) != 32:
        raise ParameterError("encaps seed must be 32 bytes")
    m = XofStream(TAG_ENCAPS_M, [seed]).read_bits(params.l)
    e = hash_H(m, params)
    c0 = e.e0.to_dense() + mul_sparse(e.e1, pk.h)
    c1 = _xor_bytes(m, hash_L(e, params))
    c = Ciphertext(c0=c0, c1=c1)
    return c, hash_K(m, c, params)


def syndrome(c0: DensePoly, h0: SparsePoly) -> DensePoly:
    """Decoder input S = c0 * h0."""
    return mul_sparse(h0, c0)


def decaps(sk: PrivateKey, c: Ciphertext, params: SystemParams) -> SharedKey:
    """Decapsulate; never signals failure (implicit rejection via sigma)."""
    key, _ = decaps_with_diagnostics(sk, c, params)
    return key


def decaps_with_diagnostics(sk: PrivateKey, c: Ciphertext, params: SystemParams,
                            decoder_cfg=None):
    """Decapsulate and also return the decoder outcome.

    The outcome is measurement-only (for the failure-rate laboratory and the
    CLI diagnostics flag) and carries the per-iteration trace; the returned
    shared key is exactly what :func:`decaps` produces.
    """
    sk.check_params(params)
    c.check_params(params)
    cfg = decoder_cfg if decoder_cfg is not None else decoder.DecoderConfig.for_params(params)
    s = syndrome(c.c0, sk.h0)
    outcome = decoder.bgf_decode(s, sk.h0, sk.h1, cfg, record_trace=True)
    e_prime = outcome.error
    m_prime = _xor_bytes(c.c1, hash_L(e_prime, params))
    if hash_H(m_prime, params) != e_prime:
        m_prime = sk.sigma
    return hash_K(m_prime, c, params), outcome
