"""Number-theoretic Hilbert transform sequences.

Exact-integer construction and verification of self-orthogonal circulant
transforms, modular correlation with an expectation measure, and a
deterministic seed-chain search that regenerates the bundled reference
rows. See the README for the command-line interface.

The package root holds only the names of the README's library example.
Everything else lives in its module: nht.core, nht.correlation,
nht.search, nht.modmath, nht.seqio, nht.fixtures, nht.errors and nht.cli.
"""

from .core import forward_transform, inverse_transform
from .correlation import circular_autocorr
from .errors import NHTError
from .search import doubling_chain, evaluate_candidate

__version__ = "0.1.0"

__all__ = [
    "NHTError",
    "circular_autocorr",
    "doubling_chain",
    "evaluate_candidate",
    "forward_transform",
    "inverse_transform",
]
