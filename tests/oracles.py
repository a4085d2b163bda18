"""Direct-summation reference implementations.

Deliberately independent of the package: plain Python floats, ``**`` powers,
left-to-right ``sum`` accumulation, no log-space rewriting. Tests compare the
engine (log-space products, exactly rounded summation) against these.
"""

import math


def tv(t):
    return abs(t - 1.0)


def klp(t):
    v = t * math.log(t)
    return v if v > 0.0 else 0.0


def power(alpha):
    return lambda t: t**alpha


def linear(a, b):
    return lambda t: a * t + b


def adjoint_of(f):
    return lambda t: t * f(1.0 / t)


def direct_integral(mu, values):
    return sum(values[j] * mu[j] for j in range(len(mu)))


def direct_f_divergence(f, p, q, mu):
    return sum(f(p[j] / q[j]) * q[j] * mu[j] for j in range(len(mu)))


def direct_mixed(fs, ps, qs, mu):
    n = len(fs)
    total = 0.0
    for j in range(len(mu)):
        prod = 1.0
        for i in range(n):
            prod *= (fs[i](ps[i][j] / qs[i][j]) * qs[i][j]) ** (1.0 / n)
        total += prod * mu[j]
    return total


def direct_mixed_k(fs, ps, qs, mu, k):
    n = len(fs)
    total = 0.0
    for j in range(len(mu)):
        prod = 1.0
        for i in range(n):
            if i < k:
                w = fs[i](ps[i][j] / qs[i][j]) * qs[i][j]
            else:
                w = adjoint_of(fs[i])(qs[i][j] / ps[i][j]) * ps[i][j]
            prod *= w ** (1.0 / n)
        total += prod * mu[j]
    return total


def direct_ith(f1, p1, q1, f2, p2, q2, i, n, mu):
    total = 0.0
    for j in range(len(mu)):
        w1 = f1(p1[j] / q1[j]) * q1[j]
        w2 = f2(p2[j] / q2[j]) * q2[j]
        total += (w1 ** (i / n)) * (w2 ** ((n - i) / n)) * mu[j]
    return total


def direct_affinity(exponents, ps, mu):
    """-sum_j mu_j * prod_i p_i[j]**a_i: the Matusita (a_i = 1/l) and
    Toussaint dissimilarities."""
    total = 0.0
    for j in range(len(mu)):
        prod = 1.0
        for a, p in zip(exponents, ps):
            prod *= p[j] ** a
        total += prod * mu[j]
    return -total


def direct_ith_reference(f1, p1, q1, i, n, f2_at_one, mu):
    body = sum(
        (f1(p1[j] / q1[j]) * q1[j]) ** (i / n) * mu[j] for j in range(len(mu))
    )
    return f2_at_one ** (1.0 - i / n) * body
