"""The tests' high-precision ``mpmath`` references, each written once.

Every function works at the caller's precision (``with mpmath.workdps(d):``)
and takes floats exactly as given.  Each sum over the unbounded jump count m
goes through ``walk_out``, which stops on a bound on the terms it leaves
out, not at a window."""

import math

import mpmath


def poisson(m, x):
    """Pois(x; m) = e^{-x} x^m / m!, with Pois(0; 0) = 1: within a few ulps,
    where exp(m log x - x - log m!) loses the digits of m log x."""
    x = mpmath.mpf(x)
    return mpmath.exp(-x) * x**m / mpmath.factorial(m)


def poisson_upper(i, x):
    """P{Poisson(x) >= i}, the regularized lower incomplete gamma P(i, x)."""
    return mpmath.gammainc(i, 0, x, regularized=True) if i > 0 else mpmath.mpf(1)


def poisson_below(i, x):
    """P{Poisson(x) < i}, the regularized upper incomplete gamma Q(i, x)."""
    return mpmath.gammainc(i, x, regularized=True) if i > 0 else mpmath.mpf(0)


def walk_out(term, start):
    """The componentwise sum over m >= 0 of term(m), a list of mpf whose
    components are log-concave in m and positive for m >= 1.  It climbs from
    m = start to the largest total term and adds terms in each direction.
    Past a component's peak its term ratio r only falls, so the terms not
    yet added are at most a r / (1 - r), with a the latest term; each
    direction stops once that bound is below 2^-prec of the sum so far, for
    every component."""
    eps, terms = mpmath.eps / 2, {}

    def at(m):
        if m not in terms:
            terms[m] = term(m)
        return terms[m]

    peak = max(0, int(start))
    while mpmath.fsum(at(peak + 1)) > mpmath.fsum(at(peak)):
        peak += 1
    while peak > 0 and mpmath.fsum(at(peak - 1)) > mpmath.fsum(at(peak)):
        peak -= 1
    totals = list(at(peak))
    for step in (1, -1):
        m = peak
        while m + step >= 0:
            prev, m = at(m), m + step
            totals = [s + a for s, a in zip(totals, at(m))]
            # a r / (1 - r) = a^2 / (p - a), with p the term before a
            if all(a <= p and a * a <= eps * s * (p - a) for a, p, s in zip(at(m), prev, totals)):
                break
    return [mpmath.fsum(c) for c in zip(*terms.values())]


def weights(lam, mu, t, n, first=0):
    """[p_first(t), .., p_n(t)] with p_j(t) = sum_m Pois(lam t; m) Pois(m mu; j):
    given N(t) = m, Z(t) is Poisson(m mu).  Each component is log-concave in
    m, a product of Pois(lam t; m) and e^{-m mu} (m mu)^j / j!, whose logs are
    concave in m.  At small lam t the terms peak late, near
    m = n / log(n / (lam t))."""
    x, mu = mpmath.mpf(lam) * t, mpmath.mpf(mu)

    def term(m):
        y = m * mu
        out = [poisson(m, x) * poisson(first, y)]
        for j in range(first + 1, n + 1):
            out.append(out[-1] * y / j)
        return out
    return walk_out(term, x)


def cdf_below(level, t, lam, mu):
    """P{Z(t) <= level} = sum_m Pois(lam t; m) P{Poisson(m mu) <= level}.  The
    second factor is the survival of a Gamma(level + 1) law at m mu, which is
    log-concave, so each term is.  Far below the mean of Z(t) the terms peak
    near m = level / mu."""
    x, mu = lam * mpmath.mpf(t), mpmath.mpf(mu)
    return walk_out(lambda m: [poisson(m, x) * poisson_below(level + 1, m * mu)],
                    min(x, (level + 1) / mu))[0]


def flux(w, k, lam, mu, hit):
    """lam sum_{j<k} w_j Pois(mu; k - j) (hit), or with P{Poisson(mu) >= k - j}:
    the rate of jumps from the states j < k, of weights w, onto k or past k - 1."""
    kern = poisson if hit else poisson_upper
    return lam * mpmath.fsum(w[j] * kern(k - j, mu) for j in range(k))


def renewal(mu, top):
    """pi_0..pi_top, pi_n = P{state n is ever visited}, from the renewal
    equation pi_n = sum_j q_j pi_{n-j}, pi_0 = 1, of the jump chain with
    zero-truncated Poisson(mu) steps of law q; steps past the mode below
    10^-(dps + 5) are dropped."""
    nonzero, tiny, q = -mpmath.expm1(-mpmath.mpf(mu)), mpmath.mpf(10) ** -(mpmath.mp.dps + 5), []
    for j in range(1, top + 1):
        qj = poisson(j, mu) / nonzero
        if j > mu and qj < tiny:
            break
        q.append(qj)
    pi = [mpmath.mpf(1)]
    for n in range(1, top + 1):
        m = min(n, len(q))
        pi.append(mpmath.fdot(q[:m], pi[-1:-m - 1:-1]))
    return pi


def stirling_row(n):
    """Exact S2(n, j), j = 0..n, from the additive recurrence."""
    row = [1]
    for i in range(1, n + 1):
        row = [0] + [j * (row[j] if j < i else 0) + row[j - 1] for j in range(1, i + 1)]
    return row


def hitting_probability(k, mu):
    """The paper's form mu^k/k! sum_j S2(k, j) j! / (e^mu - 1)^j, exactly."""
    mu, s2 = mpmath.mpf(mu), stirling_row(k)
    em1 = mpmath.expm1(mu)
    return mu**k / mpmath.factorial(k) * mpmath.fsum(
        s2[j] * mpmath.factorial(j) / em1**j for j in range(1, k + 1))


def mean_crossing_time(k, lam, mu):
    """The paper's form (1 + sum_i i!/(e^mu - 1)^i C_i) / rate with
    C_i = sum_{j=i}^{k-1} S2(j, i) mu^j / j!."""
    mu, rows = mpmath.mpf(mu), [stirling_row(j) for j in range(k)]
    em1 = mpmath.expm1(mu)
    inner = mpmath.fsum(
        mpmath.factorial(i) / em1**i
        * mpmath.fsum(rows[j][i] * mu**j / mpmath.factorial(j) for j in range(i, k))
        for i in range(1, k))
    return (1 + inner) / (lam * -mpmath.expm1(-mu))


def hitting_cdf(k, t, lam, mu):
    """The paper's form mu^k/k! [e^{-a t} B_k(c t)
    + sum_j S2(k, j) gamma(j + 1, a t) / (e^mu - 1)^j]."""
    mu, s2 = mpmath.mpf(mu), stirling_row(k)
    a, ct, em1 = lam * -mpmath.expm1(-mu), lam * mpmath.exp(-mu) * t, mpmath.expm1(mu)
    bell = mpmath.fsum(s2[j] * ct**j for j in range(k + 1))
    gam = mpmath.fsum(s2[j] * mpmath.gammainc(j + 1, 0, a * t) / em1**j
                      for j in range(1, k + 1))
    return mu**k / mpmath.factorial(k) * (mpmath.exp(-a * t) * bell + gam)


def mixture_cdf(w, x):
    """w_0 + sum_{n>=1} w_n P{Poisson(x) >= n} for x > 0: the CDF at z of the
    mixture of Gamma(n, zeta) laws with float weights w, at x = zeta z.  The
    tails are summed down from the last order,
    P{Poisson(x) >= n} = P{Poisson(x) >= n + 1} + Pois(x; n), each step an
    addition of positive terms."""
    top = len(w) - 1
    tail, pois = poisson_upper(top, x), poisson(top, x)
    total = w[top] * tail
    for n in range(top - 1, 0, -1):
        pois = pois * (n + 1) / x
        tail += pois
        total += w[n] * tail
    return total + w[0]


def mixture_density(w, x, zeta):
    """zeta sum_{n>=1} w_n Pois(x; n - 1) for x > 0: the density at z of the
    mixture of Gamma(n, zeta) laws with float weights w, at x = zeta z.  The
    sum is finite, over the given weights, so it needs no stopping rule; the
    terms are summed down from the last order,
    Pois(x; n - 1) = Pois(x; n) n / x, as ``mixture_cdf`` sums its tails."""
    top = len(w) - 1
    pois = poisson(top - 1, x)
    total = w[top] * pois
    for n in range(top - 1, 0, -1):
        pois = pois * n / x
        total += w[n] * pois
    return mpmath.mpf(zeta) * total


def rel(got, want):
    """|got - want| / |want| in floats, for a finite float got."""
    assert math.isfinite(got)
    return abs(got - float(want)) / abs(float(want))
