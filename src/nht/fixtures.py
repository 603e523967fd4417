"""Bundled reference sequences and calibration pair expectations.

Six verified self-orthogonal rows (example1..example6), the four raw
doubling chains that regenerate examples 3..6 (chain2, chain3, chain11,
chain13), and the reference cross-correlation expectations used to
calibrate the residue convention. Everything here is data; the test
suite re-derives all of it from the construction pipeline.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ResidueSequence
from .search import doubling_chain

_ROWS = (
    ("example1", 7283,
     (911, 1821, 3642, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)),
    ("example2", 21851,
     (12747, 3642, 7284, 14568, 7285, 14570, 7289, 14578,
      7305, 14610, 7369, 14738, 7625, 15250, 8649, 17298)),
    ("example3", 3121,
     (3, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 975, 1950, 779, 1558)),
    ("example4", 331,
     (2, 2, 4, 8, 16, 32, 64, 128, 256, 181, 31, 62, 124, 248, 165, 330)),
    ("example5", 47,
     (11, 2, 4, 8, 16, 32, 17, 34, 21, 42, 37, 27, 7, 14, 28, 9)),
    ("example6", 1987,
     (13, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 61, 122, 244, 488, 976)),
)

_CHAIN_SEEDS = (2, 3, 11, 13)

BUNDLED: dict[str, ResidueSequence] = {
    name: ResidueSequence(values, q, name) for name, q, values in _ROWS
}
for _seed in _CHAIN_SEEDS:
    BUNDLED[f"chain{_seed}"] = ResidueSequence(
        doubling_chain(_seed, 16).values, name=f"chain{_seed}"
    )

# Reference expectations for ordered pairs of example1..example4, the
# calibration targets for convention resolution. Keys are 1-based and
# row (i, j) is measured with example i's modulus.
REFERENCE_EXPECTATIONS: dict[tuple[int, int], Fraction] = {
    (1, 2): Fraction(87, 100),
    (2, 1): Fraction(45, 100),
    (1, 3): Fraction(73, 100),
    (3, 1): Fraction(27, 100),
    (1, 4): Fraction(49, 100),
    (4, 1): Fraction(25, 100),
    (2, 3): Fraction(47, 100),
    (3, 2): Fraction(50, 100),
    (2, 4): Fraction(37, 100),
    (4, 2): Fraction(74, 100),
    (3, 4): Fraction(31, 100),
    (4, 3): Fraction(28, 100),
}


def example_rows(count: int = 6) -> list[ResidueSequence]:
    """The first `count` example rows, in index order."""
    return [BUNDLED[f"example{i}"] for i in range(1, count + 1)]
