import math
import random

import pytest

from fimod.injections import (Injection, count_injections,
                              enumerate_injections, identity_injection,
                              standard_inclusion)


def test_enumeration_counts_and_order():
    assert len(enumerate_injections(0, 5)) == 1
    assert [f.images for f in enumerate_injections(1, 3)] == [(1,), (2,), (3,)]
    injs = enumerate_injections(2, 4)
    assert len(injs) == 12
    assert injs[0].images == (1, 2) and injs[-1].images == (4, 3)
    # lexicographic order of image tuples
    assert [f.images for f in injs] == sorted(f.images for f in injs)


@pytest.mark.parametrize("d,n", [(d, n) for d in range(5) for n in range(6)])
def test_count_formula(d, n):
    injs = enumerate_injections(d, n)
    if d > n:
        assert injs == []
    else:
        assert len(injs) == math.factorial(n) // math.factorial(n - d)
    assert count_injections(d, n) == len(injs)


def test_validation():
    with pytest.raises(ValueError):
        Injection(2, 3, (1, 1))
    with pytest.raises(ValueError):
        Injection(2, 3, (0, 1))
    with pytest.raises(ValueError):
        Injection(2, 3, (1,))


def test_composition():
    f = Injection(2, 3, (3, 1))
    g = Injection(3, 5, (2, 5, 4))
    assert g.after(f).images == (4, 2)
    with pytest.raises(ValueError):
        f.after(g)
    assert identity_injection(3).after(f).images == f.images


def test_composition_associativity():
    rng = random.Random(1)
    for _ in range(20):
        a = rng.randint(0, 3)
        b = rng.randint(a, 4)
        c = rng.randint(b, 5)
        d = rng.randint(c, 6)
        f = Injection(a, b, tuple(rng.sample(range(1, b + 1), a)))
        g = Injection(b, c, tuple(rng.sample(range(1, c + 1), b)))
        h = Injection(c, d, tuple(rng.sample(range(1, d + 1), c)))
        assert h.after(g.after(f)) == h.after(g).after(f)


def test_helpers():
    assert standard_inclusion(2, 4).images == (1, 2)
    assert identity_injection(0).images == ()
