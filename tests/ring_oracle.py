"""Extended-Euclid inverse in F2[x]/(x^r - 1), an independent route for the tests.

Deliberately simple: plain (non-cyclic) F2[x] products and divisions on
Python integers, sharing no code with the ring's Fermat inversion chain or
its products.
"""

from bikelab.errors import NotInvertibleError
from bikelab.ring import DensePoly


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
