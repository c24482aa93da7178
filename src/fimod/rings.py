"""Coefficient rings: the rationals, prime fields F_p and the integers.

Scalars are plain Python values in the ring's canonical form: a Fraction in
lowest terms for Q, an arbitrary-precision int for Z, an int in [0, p) for
F_p. A ring object owns only that form and its modulus: `coerce` brings
outside values into canonical form, and `p` is the prime for F_p and 0 for
Q and Z. Arithmetic is Python's on the canonical values, reduced mod `p`
when `p` is nonzero, which keeps every result canonical; `str` prints a
scalar.
"""
from __future__ import annotations

from fractions import Fraction


def is_prime(p: int) -> bool:
    """Deterministic primality test (trial division; F_p takes p < 2^31)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RingSpec:
    """Base class for the three supported coefficient rings.

    `p` is the modulus scalar arithmetic reduces by: the prime for F_p,
    0 for Q and Z.
    """

    is_field = False
    name = "?"
    p = 0
    zero = 0
    one = 1

    def coerce(self, x):
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(self) is type(other) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class RationalField(RingSpec):
    is_field = True
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        return Fraction(x)


class IntegerRing(RingSpec):
    name = "Z"

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return int(x)
        return int(x)


class PrimeField(RingSpec):
    """F_p for a prime p, elements stored as ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if p >= 2 ** 31:
            raise ValueError(f"F_p needs p < 2^31, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p


QQ = RationalField()
ZZ = IntegerRing()

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Shared PrimeField instances, one per prime."""
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def ring_to_token(ring: RingSpec):
    """Serialize a ring for presentation documents: "Q", "Z" or {"Fp": p}."""
    if isinstance(ring, RationalField):
        return "Q"
    if isinstance(ring, IntegerRing):
        return "Z"
    if isinstance(ring, PrimeField):
        return {"Fp": ring.p}
    raise TypeError(f"unknown ring {ring!r}")


def ring_from_token(tok) -> RingSpec:
    if tok == "Q":
        return QQ
    if tok == "Z":
        return ZZ
    if isinstance(tok, dict) and set(tok) == {"Fp"}:
        p = tok["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"Fp modulus must be a JSON integer, got {p!r}")
        return GF(p)
    raise ValueError(f"unrecognized ring token {tok!r}")


def parse_ring(text: str) -> RingSpec:
    """Parse command-line ring names: Q, Z, F2 / F_2 / GF(7)."""
    t = text.strip()
    if t in ("Q", "QQ"):
        return QQ
    if t in ("Z", "ZZ"):
        return ZZ
    if t.startswith("GF(") and t.endswith(")"):
        digits = t[3:-1]
    elif t.startswith("F_"):
        digits = t[2:]
    elif t.startswith("F"):
        digits = t[1:]
    else:
        digits = ""
    if digits.isascii() and digits.isdigit():
        return GF(int(digits))
    raise ValueError(f"unrecognized ring {text!r} (expected Q, Z or Fp)")
