"""Slow, obviously-correct reference forms that the tests compare against.

The package computes every correlation with one big-integer kernel;
these plain loops and full matrix products are what it is checked against.
"""

from nht.core import build_circulant


def circulant_rows(values):
    """Every row of the 2n x 2n circulant, built one row at a time."""
    nht_matrix = build_circulant(values)
    return [nht_matrix.row(i) for i in range(nht_matrix.dimension)]


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
