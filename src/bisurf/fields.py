"""Exact coefficient fields, QQ and GF(p): each coerces a number into its
representation (a Fraction, or an int residue); and the primality test."""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The rationals; elements are fully reduced fractions.Fraction values."""

    name = "QQ"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ: only int and Fraction are exact")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """GF(p) for a user-supplied prime p below 2^62; elements are plain int
    residues in [0, p)."""

    __slots__ = ("p", "characteristic")

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"{p!r} is not a prime number")
        if p >= 1 << 62:
            raise ValueError("prime moduli must be below 2^62")
        self.p = self.characteristic = p

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ValueError(f"denominator of {x} vanishes modulo {self.p}")
            return x.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name
