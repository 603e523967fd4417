"""Number-theoretic Hilbert transform sequences.

Exact-integer construction and verification of self-orthogonal circulant
transforms, modular correlation with an expectation measure, and a
deterministic seed-chain search that regenerates the bundled reference
rows. See the README for the command-line interface.
"""

from .core import (
    CirculantNHT,
    GeneratorSequence,
    GramSummary,
    OrthogonalityReport,
    ResidueSequence,
    build_circulant,
    diagonal_residue,
    discover_modulus,
    forward_transform,
    gram_lag_sums,
    inverse_transform,
    normalizer,
    orthogonality_report,
    reduce_mod,
)
from .correlation import (
    Convention,
    ConventionReport,
    CorrelationSeries,
    PairTableRow,
    circular_autocorr,
    circular_crosscorr,
    expectation_measure,
    expectation_string,
    pair_table,
    resolve_convention,
)
from .errors import (
    CompositeModulusError,
    ConventionError,
    InvalidGeneratorError,
    InvalidModulusError,
    NHTError,
    NonInvertibleError,
    SequenceFileError,
    ShapeError,
)
from .modmath import factorize, is_prime, largest_prime_factor, mod_inverse, sqrt_mod_prime
from .search import (
    SearchCandidate,
    SearchReport,
    doubling_chain,
    evaluate_candidate,
    search_seeds,
)
from .seqio import (
    SequenceFile,
    emit_correlation_csv,
    emit_pair_table_csv,
    emit_sequence_file,
    load_sequence_file,
    parse_sequence_file,
    write_text_atomic,
)

__version__ = "0.1.0"

__all__ = [
    "CirculantNHT",
    "CompositeModulusError",
    "Convention",
    "ConventionError",
    "ConventionReport",
    "CorrelationSeries",
    "GeneratorSequence",
    "GramSummary",
    "InvalidGeneratorError",
    "InvalidModulusError",
    "NHTError",
    "NonInvertibleError",
    "OrthogonalityReport",
    "PairTableRow",
    "ResidueSequence",
    "SearchCandidate",
    "SearchReport",
    "SequenceFile",
    "SequenceFileError",
    "ShapeError",
    "build_circulant",
    "circular_autocorr",
    "circular_crosscorr",
    "diagonal_residue",
    "discover_modulus",
    "doubling_chain",
    "emit_correlation_csv",
    "emit_pair_table_csv",
    "emit_sequence_file",
    "evaluate_candidate",
    "expectation_measure",
    "expectation_string",
    "factorize",
    "forward_transform",
    "gram_lag_sums",
    "inverse_transform",
    "is_prime",
    "largest_prime_factor",
    "load_sequence_file",
    "mod_inverse",
    "normalizer",
    "orthogonality_report",
    "pair_table",
    "parse_sequence_file",
    "reduce_mod",
    "resolve_convention",
    "search_seeds",
    "sqrt_mod_prime",
    "write_text_atomic",
]
