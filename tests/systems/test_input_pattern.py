"""The tiled input pattern equals its per-byte definition."""

import random

import pytest

from repro.systems.base import input_pattern


def reference_pattern(address: int, size: int) -> bytes:
    """The pattern's definition, one expression per byte."""
    return bytes(((address + i) * 31 + 7) % 251 + 1 for i in range(size))


@pytest.mark.parametrize("size", [0, 1, 250, 251, 252, 502, 503, 4096])
@pytest.mark.parametrize("address", [0, 1, 250, 251, 0x1000, 123_457])
def test_period_edges(address, size):
    assert input_pattern(address, size) == reference_pattern(address, size)


def test_random_regions():
    rng = random.Random(20)
    for _ in range(200):
        address = rng.randrange(1 << 32)
        size = rng.randrange(2_000)
        assert input_pattern(address, size) == reference_pattern(
            address, size)
