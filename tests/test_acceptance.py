"""Acceptance suite: one check per shipped claim, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
Every expected value here was computed independently (brute-force lag
sums, square enumeration, exact rational arithmetic) before being
frozen into the assertions.
"""

import random
import time
from fractions import Fraction

from nht import fixtures
from nht.cli import run_command
from nht.core import (
    forward_transform,
    gram_lag_sums,
    inverse_transform,
    normalizer,
    orthogonality_report,
)
from nht.correlation import (
    Convention,
    circular_autocorr,
    circular_crosscorr,
    expectation_measure,
    resolve_convention,
)
from nht.modmath import factorize
from nht.search import doubling_chain, evaluate_candidate
from nht.seqio import SequenceFile, emit_sequence_file
from oracles import diagonal_residue, matrix_gram

TOLERANCE = Fraction(1, 100)

# Hand-expanded products for the sixteen-element case, grouped exactly
# as the off-diagonal conditions are usually written out. Variables
# a..p are generator values 0..15; entry k is the lag-k sum.
LITERAL_LAG_FORMS = {
    1: lambda a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p:
        a*b + b*c + c*d + d*e + e*f + f*g + g*h + h*i
        + i*j + j*k + k*l + l*m + m*n + n*o + o*p + p*a,
    2: lambda a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p:
        a*(c+o) + b*(d+p) + e*(c+g) + f*(d+h)
        + i*(g+k) + j*(h+l) + m*(k+o) + n*(l+p),
    3: lambda a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p:
        a*(d+n) + b*(e+o) + c*(f+p) + g*(d+j)
        + h*(e+k) + i*(f+l) + m*(j+p) + k*n + l*o,
    4: lambda a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p:
        a*(e+m) + b*(f+n) + c*(g+o) + d*(h+p)
        + i*(e+m) + j*(f+n) + k*(g+o) + l*(h+p),
    5: lambda a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p:
        a*(f+l) + b*(g+m) + c*(h+n) + d*(i+o)
        + e*(j+p) + k*(f+p) + g*l + h*m + i*n + j*o,
    6: lambda a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p:
        a*(g+k) + b*(h+l) + c*(i+m) + d*(j+n)
        + e*(k+o) + f*(l+p) + g*m + h*n + i*o + j*p,
    7: lambda a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p:
        a*(h+j) + b*(i+k) + c*(j+l) + d*(k+m)
        + e*(l+n) + f*(m+o) + g*(n+p) + p*i + o*h,
    8: lambda a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p:
        2*(a*i + b*j + c*k + d*l + e*m + f*n + g*o + h*p),
}


def _check(ok: bool, label: str):
    print(("PASS" if ok else "FAIL") + " " + label)
    assert ok, label


def _rows():
    return [fixtures.fixture(f"example{i}") for i in range(1, 7)]


def _example_seqs(count=4):
    return [fixtures.fixture(f"example{i}").residue_sequence()
            for i in range(1, count + 1)]


def test_criterion_01_row_orthogonality():
    """All bundled rows have every lag sum divisible by their modulus."""
    start = time.perf_counter()
    ok = True
    for sf in _rows():
        gram = gram_lag_sums(sf.values)
        for k in range(1, sf.n):
            ok = ok and gram.lag_sums[k - 1] % sf.modulus == 0
    elapsed = time.perf_counter() - start
    _check(ok and elapsed < 1.0,
           f"criterion 1: 6 rows x lags 1..15 all zero mod q ({elapsed:.3f}s)")


def test_criterion_02_zero_autocorrelation_both_conventions():
    """Nonzero-lag autocorrelation residues vanish under both conventions."""
    ok = True
    for sf in _rows():
        s = sf.residue_sequence()
        for convention in (Convention.RAW, Convention.SCALED):
            series = circular_autocorr(s, convention)
            ok = ok and all(r == 0 for r in series.residues[1:])
        ok = ok and circular_autocorr(s).residues[0] == diagonal_residue(
            sf.values, sf.modulus
        )
    _check(ok, "criterion 2: autocorrelation zero at lags 1..15, raw and scaled")


def test_criterion_03_diagonal_residues_and_normalizers():
    """Row 1 is exactly the identity; all others carry a working normalizer."""
    expected_r = {1: 1, 2: 1, 3: 16, 4: 4, 5: 24, 6: 576}
    ok = True
    for i, sf in enumerate(_rows(), start=1):
        report_r = orthogonality_report(sf.residue_sequence()).diagonal_residue
        ok = ok and report_r == expected_r[i]
        w = normalizer(report_r, sf.modulus)
        ok = ok and w is not None and w * w * report_r % sf.modulus == 1
    ok = ok and diagonal_residue(_rows()[0].values, 7283) == 1
    _check(ok, "criterion 3: r values 1,1,16,4,24,576 with w^2*r = 1 mod q each")


def test_criterion_04_round_trips():
    """600 random blocks pass forward then inverse unchanged."""
    rng = random.Random(0xA5A5)
    start = time.perf_counter()
    ok = True
    for sf in _rows():
        s = sf.residue_sequence()
        r = orthogonality_report(s).diagonal_residue
        for _ in range(100):
            block = [rng.randrange(s.modulus) for _ in range(2 * s.n)]
            restored = inverse_transform(s, forward_transform(s, block), r)
            ok = ok and list(restored) == block
    elapsed = time.perf_counter() - start
    _check(ok and elapsed < 2.0,
           f"criterion 4: 600 exact round trips across 6 rows ({elapsed:.3f}s)")


def test_criterion_05_convention_resolution(tmp_path):
    """The chosen convention reproduces all reference expectations."""
    start = time.perf_counter()
    seqs = _example_seqs()
    report = resolve_convention(seqs, fixtures.REFERENCE_EXPECTATIONS)
    chosen = report.profile(report.chosen)
    within = all(row.deviation <= TOLERANCE for row in chosen.rows)
    elapsed = time.perf_counter() - start

    from nht.cli import _convention_csv

    archive = tmp_path / "convention_profiles.csv"
    archive.write_text(_convention_csv(report))
    rejected = report.rejected()
    archived = (
        rejected is not None
        and rejected.convention.value in archive.read_text()
        and archive.stat().st_size > 0
    )
    _check(
        within and len(chosen.rows) == 12 and archived and elapsed < 1.0,
        f"criterion 5: {report.chosen.value} matches 12/12 targets within "
        f"0.01, rejected profile archived ({elapsed:.3f}s)",
    )


def test_criterion_06_complementary_sums():
    """The three complementary pairs sum into [0.95, 1.11] exactly."""
    seqs = _example_seqs()

    def measure(i, j):
        q = seqs[i - 1].modulus
        return expectation_measure(
            circular_crosscorr(seqs[i - 1], seqs[j - 1], q)
        )

    lo, hi = Fraction(95, 100), Fraction(111, 100)
    sums = {
        (1, 3): measure(1, 3) + measure(3, 1),
        (2, 3): measure(2, 3) + measure(3, 2),
        (2, 4): measure(2, 4) + measure(4, 2),
    }
    ok = all(lo <= s <= hi for s in sums.values())
    shown = ", ".join(f"{k}: {float(v):.4f}" for k, v in sums.items())
    _check(ok, f"criterion 6: complementary sums in [0.95, 1.11] ({shown})")


def test_criterion_07_seed_search_reproduces_bundled_rows(tmp_path):
    """The search command regenerates the bundled rows byte for byte."""
    out_path = str(tmp_path / "search.csv")
    start = time.perf_counter()
    report = run_command(
        ["search", "--seeds", "2,3,11,13", "--n", "16", "--prime-only",
         "--out", out_path]
    )
    elapsed = time.perf_counter() - start
    lines = open(out_path).read().splitlines()[1:]
    moduli = [int(line.split(",")[3]) for line in lines]
    targets = {2: "example4", 3: "example3", 11: "example5", 13: "example6"}
    byte_equal = True
    for line in lines:
        cells = line.split(",")
        target = fixtures.fixture(targets[int(cells[0])])
        regenerated = SequenceFile(
            name=target.name,
            n=16,
            values=tuple(int(v) for v in cells[8].split()),
            modulus=int(cells[3]),
        )
        byte_equal = byte_equal and (
            emit_sequence_file(regenerated).encode()
            == emit_sequence_file(target).encode()
        )
    _check(
        report.exit_status == 0
        and moduli == [331, 3121, 47, 1987]
        and byte_equal
        and elapsed < 1.0,
        f"criterion 7: seeds 2,3,11,13 give moduli 331,3121,47,1987 and "
        f"byte-equal rows ({elapsed:.3f}s)",
    )


def test_criterion_08_gram_equivalence_and_literal_forms():
    """Matrix Gram and lag-sum forms agree; 16-point sums match the
    written-out expressions."""
    rng = random.Random(0xC0FFEE)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 16)
        values = [rng.randrange(2**16) for _ in range(n)]
        if not any(values):
            values[0] = 1
        gram = gram_lag_sums(values)
        full = matrix_gram(values)
        # Direction 1: every matrix entry is predicted by the lag sums.
        for i in range(2 * n):
            for j in range(2 * n):
                shift = (i - j) % (2 * n)
                predicted = (
                    gram.diagonal if i == j
                    else 0 if shift % 2 else gram.lag_sums[shift // 2 - 1]
                )
                ok = ok and full[i][j] == predicted
        # Direction 2: the lag sums are recoverable from the matrix.
        ok = ok and gram.diagonal == full[0][0]
        for k in range(1, n):
            ok = ok and gram.lag_sums[k - 1] == full[2 * k][0]
    for _ in range(50):
        values = [rng.randrange(2**16) for _ in range(16)]
        gram = gram_lag_sums(values)
        for k, form in LITERAL_LAG_FORMS.items():
            ok = ok and gram.lag_sums[k - 1] == form(*values)
            ok = ok and gram.lag_sums[15 - k] == form(*values)
    _check(ok, "criterion 8: 200 random Gram equivalences plus 16-point "
               "literal lag expressions")


def test_criterion_09_direction_symmetry():
    """Swapping operands never changes the expectation at fixed modulus."""
    seqs = _example_seqs()
    ok = True
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            for q in (seqs[i - 1].modulus, seqs[j - 1].modulus):
                forward = expectation_measure(
                    circular_crosscorr(seqs[i - 1], seqs[j - 1], q)
                )
                backward = expectation_measure(
                    circular_crosscorr(seqs[j - 1], seqs[i - 1], q)
                )
                ok = ok and forward == backward
    _check(ok, "criterion 9: expectation swap-invariant for all 12 pairs, "
               "both modulus choices, exactly")


def test_criterion_10_twelve_point_walkthrough():
    """The full pipeline runs on the 12-point chain and finds gcd 54."""
    cand = evaluate_candidate(doubling_chain(7, 6))
    ok = (
        cand.valid
        and cand.gcd == 54
        and factorize(54) == {2: 1, 3: 3}
        and cand.diagonal_residue == 9
        and cand.reduced.values == (7, 2, 4, 8, 16, 32)
    )
    narrowed = evaluate_candidate(doubling_chain(7, 6), prime_only=True)
    ok = ok and narrowed.modulus == 3 and narrowed.reduced.values == (
        1, 2, 1, 2, 1, 2
    )
    _check(ok, "criterion 10: 12-point chain seed 7 gives gcd 54 = 2*3^3, "
               "diagonal residue 9")
