"""Shared test oracles."""

import pytest


@pytest.fixture(scope="session")
def mp_poisson_log_survival():
    """log P{Poisson(lam) >= k} by a 50-digit mpmath direct sum.

    The smaller side of the law is summed term by term from its end next to
    the mean, P{eta >= k} for k > lam and 1 - P{eta <= k - 1} otherwise,
    until a term falls below 1e-55 of the sum (or after j = 0).
    """
    mpmath = pytest.importorskip("mpmath")

    def log_survival(lam, k):
        if k <= 0:
            return 0.0
        with mpmath.workdps(50):
            lam_mp = mpmath.mpf(lam)
            upper = k > lam
            j = k if upper else k - 1
            term = mpmath.exp(j * mpmath.log(lam_mp) - lam_mp - mpmath.loggamma(j + 1))
            total = mpmath.mpf(0)
            floor = mpmath.mpf(10) ** -55
            while term > total * floor:
                total += term
                if upper:
                    j += 1
                    term = term * lam_mp / j
                elif j == 0:
                    break
                else:
                    term = term * j / lam_mp
                    j -= 1
            return float(mpmath.log(total) if upper else mpmath.log1p(-total))

    return log_survival
