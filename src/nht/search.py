"""Deterministic seed-chain search for self-orthogonal rows.

A doubling chain is the generator [seed, start, 2*start, 4*start, ...]
of length n. Evaluating a chain means discovering its modulus (the gcd
of all lag sums), optionally narrowing to the largest prime factor, and
reducing the chain by it. This module only chooses the modulus: the
verdict on it (every lag sum zero, diagonal residue r, normalizer w) is
core's orthogonality reduction, the one `verify` also reports. Every
bundled example row is reproduced by this pipeline; the chain gcds
themselves are composite, so prime-only selection is what recovers the
bundled (prime) moduli.

evaluate_candidate is the one evaluator: it takes any generator, and
search_seeds calls it on each prime seed's chain. This module holds no
Gram math: core's gram_lag_sums takes the closed form for a chain and
the correlation kernel for any other row, and the verdict re-checks
every lag sum against the chosen modulus.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .core import (
    ResidueSequence,
    _generator,
    _verdict,
    discover_modulus,
    gram_lag_sums,
    reduce_mod,
)
from .errors import InvalidGeneratorError
from .modmath import is_prime, largest_prime_factor


class SearchCandidate(NamedTuple):
    """One evaluated generator; valid means a usable modulus was found."""

    seed: int
    n: int
    raw: ResidueSequence
    gcd: int
    modulus: int
    modulus_is_prime: bool = False
    diagonal_residue: int | None = None
    normalizer: int | None = None
    reduced: ResidueSequence | None = None
    valid: bool = False
    diagnostic: str = ""


class SearchReport(NamedTuple):
    """Candidates in ascending seed order plus rejected-seed diagnostics."""

    candidates: tuple[SearchCandidate, ...]
    rejected: tuple[tuple[int, str], ...]


def _check_chain(n: int, start: int) -> None:
    """The rule on a chain's length and start, which every seed shares."""
    if n < 2:
        raise InvalidGeneratorError(f"chain length must be >= 2, got {n}")
    if start < 1:
        raise InvalidGeneratorError(f"chain start must be >= 1, got {start}")


def doubling_chain(seed: int, n: int, start: int = 2) -> ResidueSequence:
    """[seed, start, 2*start, ..., start * 2^(n-2)]."""
    _check_chain(n, start)
    if seed < 2:
        raise InvalidGeneratorError(f"chain seed must be >= 2, got {seed}")
    return ResidueSequence([seed] + [start << i for i in range(n - 1)])


def evaluate_candidate(
    raw: ResidueSequence | Sequence[int], prime_only: bool = False
) -> SearchCandidate:
    """Discover, verify, and apply a modulus for one generator.

    A gcd of 0 (orthogonal over the integers as-is) or 1 (no modulus
    exists) yields valid=False with a diagnostic. Otherwise core's
    orthogonality reduction re-checks the lag sums against the selected
    modulus rather than trusting the discovery step, and supplies r and w.
    """
    raw = _generator(raw)
    gram = gram_lag_sums(raw)
    seed = raw.values[0]
    g = discover_modulus(gram)
    if g < 2:
        return SearchCandidate(
            seed=seed, n=raw.n, raw=raw, gcd=g, modulus=g,
            diagnostic="lag sums have gcd 1: no modulus >= 2 works" if g
            else "every lag sum is 0: already orthogonal over the integers",
        )
    modulus = largest_prime_factor(g) if prime_only else g
    # A prime-only modulus is a factor from factorize, so it is prime.
    prime = prime_only or is_prime(modulus)
    report = _verdict(gram, modulus, prime)
    if not report.is_self_orthogonal:
        bad = [k for k, _ in report.offending_lags()]
        return SearchCandidate(
            seed=seed, n=raw.n, raw=raw, gcd=g, modulus=modulus,
            modulus_is_prime=prime,
            diagnostic=f"lag sums {bad} not divisible by {modulus}",
        )
    return SearchCandidate(
        seed=seed, n=raw.n, raw=raw, gcd=g, modulus=modulus,
        modulus_is_prime=prime,
        diagonal_residue=report.diagonal_residue, normalizer=report.normalizer,
        reduced=reduce_mod(raw, modulus), valid=True,
    )


def search_seeds(
    seeds: Iterable[int],
    n: int,
    prime_only: bool = False,
    start: int = 2,
    include_invalid: bool = True,
) -> SearchReport:
    """Evaluate the doubling chain of every prime seed, ascending.

    Each chain is evaluated by evaluate_candidate, whose Gram summary
    takes core's closed form for a chain. Non-prime seeds are rejected
    with a diagnostic and processing continues; n and start are checked
    first, so a bad one raises InvalidGeneratorError whichever seeds are
    given. Results depend only on the argument values, never on
    evaluation order.
    """
    _check_chain(n, start)
    candidates = []
    rejected = []
    for seed in sorted(set(seeds)):
        if not is_prime(seed):
            rejected.append((seed, f"seed {seed} is not prime"))
            continue
        cand = evaluate_candidate(doubling_chain(seed, n, start), prime_only)
        if cand.valid or include_invalid:
            candidates.append(cand)
    return SearchReport(candidates=tuple(candidates), rejected=tuple(rejected))
