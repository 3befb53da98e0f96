"""Reference values computed apart from tailbounds.

Binomial tails are summed exactly in integer arithmetic: the double ``p`` is
taken at its exact rational value ``P/D``, so ``P{Bin(n, p) >= k}`` is
``A_k P^k / D^n`` for an integer ``A_k`` built by one Horner pass, and the
single rounding happens in Python's correctly rounded integer division. Small
martingale laws are enumerated path by path in floating point.
"""

import itertools
from fractions import Fraction

__all__ = [
    "binomial_upper_tails",
    "binomial_cdf_at_most",
    "two_point_paths",
    "two_point_sum_tail",
    "leaf_paths",
    "plus_square",
]


def _horner(n, p, ks):
    """``{k: A_k}`` with ``sum_{i >= k} C(n,i) P^i Q^(n-i) = A_k P^k``, and ``P, D``."""
    P, D = Fraction(p).as_integer_ratio()
    Q = D - P
    want = {k for k in ks if 0 < k <= n}
    acc = 0
    qpow = 1
    coef = 1  # C(n, j), walked down from j = n
    out = {}
    for j in range(n, 0, -1):
        acc = acc * P + coef * qpow
        qpow *= Q
        coef = coef * j // (n - j + 1)
        if j in want:
            out[j] = acc
    return out, P, D


def binomial_upper_tails(n, p, ks):
    """Exact ``P{Bin(n, p) >= k}`` for each ``k`` in ``ks``, as floats."""
    acc, P, D = _horner(n, p, ks)
    dn = D**n
    out = {}
    for k in ks:
        if k <= 0:
            out[k] = 1.0
        elif k > n:
            out[k] = 0.0
        else:
            out[k] = acc[k] * P**k / dn
    return out


def binomial_cdf_at_most(n, p, k):
    """Exact ``P{Bin(n, p) <= k}`` as a Fraction."""
    if k >= n:
        return Fraction(1)
    if k < 0:
        return Fraction(0)
    acc, P, D = _horner(n, p, [k + 1])
    dn = D**n
    return Fraction(dn - acc[k + 1] * P ** (k + 1), dn)


def two_point_paths(atoms):
    """``(sum, prob)`` of every outcome of independent atoms ``(v_lo, v_hi, p_hi)``."""
    paths = []
    for choice in itertools.product((0, 1), repeat=len(atoms)):
        s = 0.0
        prob = 1.0
        for (v_lo, v_hi, p_hi), c in zip(atoms, choice):
            s += v_hi if c else v_lo
            prob *= p_hi if c else 1.0 - p_hi
        paths.append((s, prob))
    return paths


def two_point_sum_tail(atoms, x):
    """``P{sum >= x}`` for independent two-point atoms ``(v_lo, v_hi, p_hi)``."""
    return sum(prob for s, prob in two_point_paths(atoms) if s >= x)


def leaf_paths(levels):
    """Leaf sums and probabilities of a binary tree given level by level.

    ``levels[0]`` is the root ``(values, probs)``; ``levels[1]``, if present,
    holds the two children's ``(values, probs)`` in the root's atom order.
    Sums are accumulated root first, as a path is walked.
    """
    (v0, p0) = levels[0]
    if len(levels) == 1:
        return list(zip(v0, p0))
    leaves = []
    for j in range(2):
        v1, p1 = levels[1][j]
        for i in range(2):
            leaves.append((v0[j] + v1[i], p0[j] * p1[i]))
    return leaves


def plus_square(paths, t):
    """``E (S - t)_+^2`` over ``(sum, prob)`` paths."""
    return sum(prob * max(s - t, 0.0) ** 2 for s, prob in paths)
