"""Slow, obviously-correct reference forms that the tests compare against.

The package computes every correlation with one big-integer kernel and
never builds the circulant; these plain loops and full matrix products
are what it is checked against.
"""


def circulant_rows(values):
    """Every row of the 2n x 2n circulant: the generator interleaved with
    zeros, rotated right by the row index, built one row at a time."""
    first = [x for v in values for x in (v, 0)]
    d = len(first)
    return [tuple(first[(j - i) % d] for j in range(d)) for i in range(d)]


def matrix_gram(values):
    """Full N * N^T as exact integers: O(n^3) products."""
    rows = circulant_rows(values)
    d = len(rows)
    return [
        [sum(rows[i][t] * rows[j][t] for t in range(d)) for j in range(d)]
        for i in range(d)
    ]


def naive_correlate(a, b):
    """c[k] = sum_m a[m] * b[(m + k) mod n], one lag at a time."""
    n = len(a)
    return [sum(a[m] * b[(m + k) % n] for m in range(n)) for k in range(n)]


def diagonal_residue(values, q):
    """r = the sum of squared values mod q."""
    return sum(v * v for v in values) % q
