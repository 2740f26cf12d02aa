"""Deterministic synthetic input data.

MediaBench ships real speech/image/video inputs; we generate stand-ins
with the same coarse statistics (bounded dynamic range, local smoothness)
from a seeded linear congruential generator, so every run of every
workload is bit-reproducible without data files.
"""

from __future__ import annotations


class LCG:
    """Numerical Recipes LCG — small, deterministic, dependency-free."""

    def __init__(self, seed: int) -> None:
        self.state = seed & 0xFFFF_FFFF

    def next_u32(self) -> int:
        self.state = (1664525 * self.state + 1013904223) & 0xFFFF_FFFF
        return self.state

    def next_range(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        span = hi - lo + 1
        return lo + self.next_u32() % span


def speech_samples(n: int, seed: int = 0x5EED) -> list[int]:
    """Smooth, zero-mean "speech-like" samples in [-127, 127].

    A decaying random-walk keeps neighbouring samples correlated, which
    matters for the prediction-based kernels (GSM, ADPCM): residuals must
    be small relative to the signal, as with real speech.
    """
    rng = LCG(seed)
    out: list[int] = []
    value = 0
    for _ in range(n):
        value += rng.next_range(-24, 24)
        value -= value >> 3  # pull toward zero
        value = max(-127, min(127, value))
        out.append(value)
    return out


def image_tile(width: int, height: int, seed: int = 0x1316) -> list[int]:
    """A smooth 8-bit "image" tile (row-major), values in [0, 255]."""
    rng = LCG(seed)
    rows: list[list[int]] = []
    prev_row = [128] * width
    for _y in range(height):
        row: list[int] = []
        left = prev_row[0] + rng.next_range(-9, 9)
        for x in range(width):
            above = prev_row[x]
            pred = (left + above + 1) >> 1
            pixel = max(0, min(255, pred + rng.next_range(-12, 12)))
            row.append(pixel)
            left = pixel
        rows.append(row)
        prev_row = row
    return [pixel for row in rows for pixel in row]
