from fractions import Fraction

import pytest

from fimod.rings import (GF, QQ, ZZ, PrimeField, is_prime, parse_ring,
                         ring_from_token, ring_to_token)


def test_is_prime_small():
    def reference(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(-3, 200):
        assert is_prime(n) == reference(n), n
    assert not is_prime(91)       # 7 * 13
    assert is_prime(7919)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_arithmetic():
    f7 = GF(7)
    assert f7.coerce(10) == 3
    assert f7.coerce(-1) == 6
    assert (5 + 4) % f7.p == 2
    assert 3 * 5 % f7.p == 1
    assert f7.coerce(Fraction(1, 3)) == 5      # 3 * 5 = 1 mod 7
    assert f7.coerce(Fraction(1, 2)) == 4      # 2 * 4 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        f7.coerce(Fraction(1, 7))


def test_rational_and_integer_rings():
    assert QQ.coerce("2/4") == Fraction(1, 2)
    assert ZZ.coerce(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        ZZ.coerce(Fraction(1, 2))


def test_modulus_is_zero_except_over_prime_fields():
    assert QQ.p == 0 and ZZ.p == 0
    for p in (2, 3, 7, 2 ** 31 - 1):
        assert GF(p).p == p
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction
    for ring in (ZZ, GF(5)):
        assert type(ring.zero) is int and type(ring.one) is int


def test_rings_keep_no_per_operation_methods():
    # scalars combine with Python arithmetic, reduced mod ring.p
    for ring in (QQ, ZZ, GF(5)):
        for name in ("add", "sub", "mul", "neg", "is_zero", "inv", "parse",
                     "to_str"):
            assert not hasattr(ring, name), (ring, name)


def test_ring_tokens_round_trip():
    for ring in (QQ, ZZ, GF(5)):
        assert ring_from_token(ring_to_token(ring)) == ring
    with pytest.raises(ValueError):
        ring_from_token("R")


def test_parse_ring_names():
    assert parse_ring("Q") == QQ
    assert parse_ring("Z") == ZZ
    assert parse_ring("F5") == GF(5)
    assert parse_ring("F_7") == GF(7)
    assert parse_ring("GF(11)") == GF(11)
    assert parse_ring(" F_7 ") == GF(7)
    with pytest.raises(ValueError):
        parse_ring("octonions")


@pytest.mark.parametrize("text", ["F7)))", "GF(7", "F_7)", "GF(7))", "F7)",
                                  "GF7", "GF()", "F", "F_", "F-7", "F٣"])
def test_parse_ring_refuses_stray_parentheses_and_non_digits(text):
    with pytest.raises(ValueError, match="unrecognized ring"):
        parse_ring(text)


@pytest.mark.parametrize("p", [2.5, 7.0, "7", True, None, [7]])
def test_ring_token_modulus_must_be_an_integer(p):
    with pytest.raises(ValueError):
        ring_from_token({"Fp": p})


def test_prime_field_refuses_large_moduli():
    assert GF(2 ** 31 - 1).p == 2 ** 31 - 1
    for p in (2 ** 31, 2 ** 31 + 11, 10 ** 16 + 61):
        with pytest.raises(ValueError, match="2\\^31"):
            PrimeField(p)
    with pytest.raises(ValueError, match="2\\^31"):
        parse_ring("F10000000000000061")
