"""Injections between standard finite sets [n] = {1, ..., n}."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations


@dataclass(frozen=True)
class Injection:
    """An injection [source] -> [target], stored by its image tuple.

    images[k] is the value of k+1; entries are pairwise distinct and lie
    in 1..target.
    """

    source: int
    target: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.source < 0 or self.target < 0:
            raise ValueError("negative set size")
        if len(self.images) != self.source:
            raise ValueError("image tuple length differs from source size")
        seen = set()
        for v in self.images:
            if not 1 <= v <= self.target:
                raise ValueError(f"image value {v} outside [{self.target}]")
            if v in seen:
                raise ValueError("images are not pairwise distinct")
            seen.add(v)

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def after(self, other: "Injection") -> "Injection":
        """self . other, defined when other.target == self.source."""
        if other.target != self.source:
            raise ValueError(
                f"cannot compose [{other.source}]->[{other.target}] "
                f"with [{self.source}]->[{self.target}]")
        return Injection(other.source, self.target,
                         tuple(self.images[v - 1] for v in other.images))


def identity_injection(n: int) -> Injection:
    return Injection(n, n, tuple(range(1, n + 1)))


def standard_inclusion(m: int, n: int) -> Injection:
    """[m] -> [n] fixing every element."""
    if m > n:
        raise ValueError("standard inclusion needs m <= n")
    return Injection(m, n, tuple(range(1, m + 1)))


def enumerate_injections(d: int, n: int) -> list[Injection]:
    """All injections [d] -> [n] in lexicographic order of image tuples.

    Exactly n!/(n-d)! of them; empty when d > n. The empty map is the
    single injection for d = 0.
    """
    if d < 0 or n < 0:
        raise ValueError("negative set size")
    return [Injection(d, n, imgs) for imgs in permutations(range(1, n + 1), d)]


def count_injections(d: int, n: int) -> int:
    if d > n:
        return 0
    c = 1
    for k in range(n - d + 1, n + 1):
        c *= k
    return c
