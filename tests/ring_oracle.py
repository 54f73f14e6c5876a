"""Independent routes to ring and key-space answers, for the tests only.

The extended-Euclid inverse in F2[x]/(x^r - 1) is deliberately simple: plain
(non-cyclic) F2[x] products and divisions on Python integers, sharing no code
with the ring's inversion chain or its products.  ``shift`` and
``star`` give the rotation x^k * a and the coefficient-wise product a & b on
the bit vectors, the two steps of the |a & x^k b| overlap counts that the
spectrum and key-check tests compare against.
"""

import math

from bikelab.errors import NotInvertibleError
from bikelab.ring import DensePoly, _check_same_ring


def shift(a: DensePoly, k: int) -> DensePoly:
    """x^k * a, as a rotation of the coefficient bits (k may be negative or >= r)."""
    r, mask = a.ring.r, a.ring.mask
    k %= r
    return DensePoly(a.ring, ((a.bits << k) | (a.bits >> (r - k))) & mask)


def star(a: DensePoly, b: DensePoly) -> DensePoly:
    """Coefficient-wise product a & b."""
    _check_same_ring(a, b)
    return DensePoly(a.ring, a.bits & b.bits)


def _small_factors(n: int) -> list[int]:
    """Prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_kem_grade(r: int) -> bool:
    """True when r is an odd prime and 2 generates the multiplicative group mod r."""
    if r < 3 or r % 2 == 0:
        return False
    if any(r % d == 0 for d in range(3, math.isqrt(r) + 1, 2)):
        return False
    return all(pow(2, (r - 1) // p, r) != 1 for p in _small_factors(r - 1))


def iti_mul_bound(r: int) -> int:
    """Multiplication budget of the inversion chain: floor(log2(L-1)) + wt(L-1) - 1,
    where L is the order of 2 mod r (L = r - 1 where 2 is primitive)."""
    order = next(k for k in range(1, r) if pow(2, k, r) == 1)
    return (order - 1).bit_length() - 1 + (order - 1).bit_count() - 1


def _deg(v: int) -> int:
    return v.bit_length() - 1


def _poly_mul_nc(a: int, b: int) -> int:
    # plain (non-cyclic) F2[x] product: shift-and-XOR over the support of a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def _poly_divmod_nc(a: int, b: int) -> tuple[int, int]:
    # plain (non-cyclic) F2[x] division
    q = 0
    db = _deg(b)
    while a and _deg(a) >= db:
        sh = _deg(a) - db
        q |= 1 << sh
        a ^= b << sh
    return q, a


def invert_oracle(a: DensePoly) -> DensePoly:
    """Inverse by the extended Euclidean algorithm modulo x^r - 1."""
    r = a.ring.r
    modulus = (1 << r) | 1
    r0, r1 = modulus, a.bits
    s0, s1 = 0, 1
    while r1:
        q, rem = _poly_divmod_nc(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 ^ _poly_mul_nc(q, s1)
    if r0 != 1:
        raise NotInvertibleError(f"gcd(a, x^{r}-1) != 1")
    _, rem = _poly_divmod_nc(s0, modulus)
    return DensePoly(a.ring, rem)
