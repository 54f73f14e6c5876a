"""Key material, parameter sets, and the other KEM data carriers.

The three standard parameter sets (security levels 1/3/5) are frozen here;
any other (r, w, t) combination is accepted for experiments but is marked
non-standard, and that marker follows the parameters into every experiment
record and serialized file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ParameterError
from .ring import DensePoly, RingParams, SparsePoly, _check_key_blocks


@dataclass(frozen=True)
class SystemParams:
    """(r, w, t, l, lambda) bundle; ``level`` is "L1"/"L3"/"L5" or "custom"."""

    level: str
    r: int
    w: int
    t: int
    l: int
    security_bits: int

    def __post_init__(self):
        self.ring   # RingParams refuses an even r or one below 3
        if self.r >= 1 << 31:  # hash_H draws from 2r positions, one 32-bit word each
            raise ParameterError(f"r must be below 2^31, got {self.r}")
        if self.w % 2 != 0 or (self.w // 2) % 2 != 1:
            raise ParameterError(f"w must be even with w/2 odd, got {self.w}")
        if self.w // 2 > self.r:
            raise ParameterError(f"w/2 must be at most r, got w={self.w} and r={self.r}")
        if not 0 < self.t <= 2 * self.r:
            raise ParameterError(f"t out of range: {self.t}")
        if self.l <= 0 or self.security_bits <= 0:
            raise ParameterError("l and lambda must be positive")

    @property
    def standard(self) -> bool:
        return self.level != "custom"

    @property
    def w2(self) -> int:
        return self.w // 2

    @property
    def l_bytes(self) -> int:
        return (self.l + 7) // 8

    @cached_property
    def ring(self) -> RingParams:
        return RingParams(self.r)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "r": self.r,
            "w": self.w,
            "t": self.t,
            "l": self.l,
            "lambda": self.security_bits,
            "standard": self.standard,
        }


_PRESETS = {
    "L1": dict(r=12323, w=142, t=134, l=256, security_bits=128),
    "L3": dict(r=24659, w=206, t=199, l=256, security_bits=192),
    "L5": dict(r=40973, w=274, t=264, l=256, security_bits=256),
}


def level_params(level: int | str) -> SystemParams:
    """The frozen parameter set for security level 1, 3, or 5."""
    name = level if isinstance(level, str) else f"L{level}"
    if name not in _PRESETS:
        raise ParameterError(f"unknown level {level!r}; expected 1, 3, or 5")
    return SystemParams(level=name, **_PRESETS[name])


def custom_params(r: int, w: int, t: int, l: int = 256, security_bits: int = 128) -> SystemParams:
    """A reduced/experimental parameter set, marked non-standard."""
    for name, preset in _PRESETS.items():
        if (r, w, t, l, security_bits) == (
            preset["r"], preset["w"], preset["t"], preset["l"], preset["security_bits"],
        ):
            return level_params(name)
    return SystemParams(level="custom", r=r, w=w, t=t, l=l, security_bits=security_bits)


def params_with_r(base: SystemParams, r: int) -> SystemParams:
    """Same code family as ``base`` with the block size replaced (DFR sweeps)."""
    return custom_params(r=r, w=base.w, t=base.t, l=base.l,
                         security_bits=base.security_bits)


@dataclass(frozen=True)
class PrivateKey:
    h0: SparsePoly
    h1: SparsePoly
    sigma: bytes

    def __post_init__(self):
        _check_key_blocks(self.h0, self.h1)

    def check_params(self, params: SystemParams) -> None:
        if self.h0.ring.r != params.r or self.h0.weight() != params.w2:
            raise ParameterError("private key does not match parameters")
        if len(self.sigma) != params.l_bytes:
            raise ParameterError("sigma length does not match parameters")


@dataclass(frozen=True)
class PublicKey:
    h: DensePoly


@dataclass(frozen=True)
class Ciphertext:
    c0: DensePoly
    c1: bytes

    def check_params(self, params: SystemParams) -> None:
        if self.c0.ring.r != params.r:
            raise ParameterError("c0 does not match the parameter ring")
        if len(self.c1) != params.l_bytes:
            raise ParameterError(f"c1 must be {params.l_bytes} bytes, got {len(self.c1)}")


@dataclass(frozen=True)
class SharedKey:
    data: bytes


@dataclass(frozen=True)
class ErrorPair:
    """The two error-vector halves.

    Honest pairs produced by the error hash always satisfy
    weight(e0) + weight(e1) = t; decoder output reuses this container for its
    final estimate, which after a failure need not satisfy that equation, so
    the weight rule is enforced at the producers and not here.
    """

    e0: SparsePoly
    e1: SparsePoly
