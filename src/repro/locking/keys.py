"""Key-vector utilities shared by schemes, attacks, and experiments."""

from __future__ import annotations

import random
from typing import Dict, Iterable, Sequence

__all__ = [
    "random_key",
    "hamming_distance",
    "flip_bits",
    "enumerate_keys",
    "format_key",
]


def random_key(key_nets: Sequence[str], rng: random.Random) -> Dict[str, int]:
    """A uniformly random assignment for *key_nets*."""
    return {net: rng.randint(0, 1) for net in key_nets}


def hamming_distance(a: Dict[str, int], b: Dict[str, int]) -> int:
    """Number of key bits on which *a* and *b* disagree."""
    if set(a) != set(b):
        raise ValueError("key assignments cover different nets")
    return sum(1 for net in a if a[net] != b[net])


def flip_bits(
    key: Dict[str, int], nets: Iterable[str]
) -> Dict[str, int]:
    """Copy of *key* with the given bits flipped."""
    flipped = dict(key)
    for net in nets:
        flipped[net] = 1 - flipped[net]
    return flipped


def enumerate_keys(key_nets: Sequence[str]) -> Iterable[Dict[str, int]]:
    """All 2^n assignments, in binary counting order (small n only)."""
    n = len(key_nets)
    if n > 20:
        raise ValueError(f"refusing to enumerate 2^{n} keys")
    for value in range(1 << n):
        yield {net: (value >> i) & 1 for i, net in enumerate(key_nets)}


def format_key(key: Dict[str, int], key_nets: Sequence[str]) -> str:
    """Bit-string rendering in *key_nets* order, e.g. ``"0110"``."""
    return "".join(str(key[net]) for net in key_nets)
