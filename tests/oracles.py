"""Reference implementations the tests trust instead of the library.

Everything here recomputes a library quantity through a different route:
exact Fraction enumeration instead of vectorized accumulation, mpmath at 50
digits instead of float formulas, np.linalg.pinv instead of the downdate
path, O(n^2) pair counting instead of rank statistics. A test that compares
the library against this module is comparing two codepaths that share no
arithmetic.

Frozen constants at the bottom were produced by these functions and are
pinned so a regression in the reference itself cannot slip through silently.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import mpmath
import numpy as np

mpmath.mp.dps = 50


# exact sampling-indicator moments ------------------------------------------


def enum_indicator_moments(n, nt, b, scheme, j=0):
    """Exact moments of the products T_n * M_in by brute-force enumeration.

    Walks every training-set pattern t and every batch pattern m compatible
    with it, weighting by exact Fraction probabilities. scheme is the string
    "wor" or "bernoulli". Returns a dict of Fractions:
      var[n], var_out[n], var_in[n]  marginal variances (unconditional and
                                     conditional on T_j = 0 / T_j = 1)
      cov[(n, m)]                    Cov[T_n M_n, T_m M_m] for n != m
    Only usable for tiny n (cost ~ C(n, nt) * 2^nt or 2^n * 2^n).
    """
    pb = Fraction(b, nt)
    if scheme == "wor":
        t_patterns = [
            (tuple(1 if i in chosen else 0 for i in range(n)), Fraction(1))
            for chosen in combinations(range(n), nt)
        ]
        norm = Fraction(1, len(t_patterns))
        t_patterns = [(t, norm) for t, _ in t_patterns]
    elif scheme == "bernoulli":
        p_in = Fraction(nt, n)
        t_patterns = []
        for t in product((0, 1), repeat=n):
            w = Fraction(1)
            for bit in t:
                w *= p_in if bit else 1 - p_in
            t_patterns.append((t, w))
    else:
        raise ValueError(scheme)

    # E[x], E[x^2], E[x_n x_m] under the full joint, plus the same sums
    # restricted to T_j = 0 and T_j = 1 events.
    zero = Fraction(0)
    sums = {key: [zero] * n for key in ("e", "e_out", "e_in")}
    pair = {key: {} for key in ("e",)}
    mass_out = zero
    mass_in = zero
    for t, wt in t_patterns:
        members = [i for i in range(n) if t[i]]
        for m_bits in product((0, 1), repeat=len(members)):
            wm = Fraction(1)
            for bit in m_bits:
                wm *= pb if bit else 1 - pb
            w = wt * wm
            x = [0] * n
            for i, bit in zip(members, m_bits):
                x[i] = bit
            for i in range(n):
                sums["e"][i] += w * x[i]
                if t[j]:
                    sums["e_in"][i] += w * x[i]
                else:
                    sums["e_out"][i] += w * x[i]
            for a in range(n):
                if x[a]:
                    for c in range(a + 1, n):
                        if x[c]:
                            pair["e"][(a, c)] = pair["e"].get((a, c), zero) + w
            if t[j]:
                mass_in += w
            else:
                mass_out += w

    out = {"var": [], "var_out": [], "var_in": [], "cov": {}}
    for i in range(n):
        e = sums["e"][i]  # x is 0/1 so E[x^2] = E[x]
        out["var"].append(e - e * e)
        e_out = sums["e_out"][i] / mass_out if mass_out else None
        e_in = sums["e_in"][i] / mass_in if mass_in else None
        out["var_out"].append(None if e_out is None else e_out - e_out * e_out)
        out["var_in"].append(None if e_in is None else e_in - e_in * e_in)
    for (a, c), e_ac in pair["e"].items():
        out["cov"][(a, c)] = e_ac - sums["e"][a] * sums["e"][c]
    for a in range(n):
        for c in range(a + 1, n):
            out["cov"].setdefault((a, c), zero - sums["e"][a] * sums["e"][c])
    return out


def enum_update_covariances(vectors, nt, b, scheme, j=0):
    """Exact covariances of the normalized update u = sum_n T_n M_n g_n / B.

    Walks every training pattern t and every batch pattern inside it with
    exact Fraction probabilities, as enum_indicator_moments does, and sums
    the moments of u over the events T_j = 0 and T_j = 1 separately. scheme
    is "wor" or "bernoulli". Returns three dim x dim lists of Fractions: the
    covariance of u unconditionally, given T_j = 0 (the unconditional one
    when that event is null) and given T_j = 1.
    """
    n, dim = len(vectors), len(vectors[0])
    g = [[Fraction(float(x)) for x in row] for row in vectors]
    pb, p_in = Fraction(b, nt), Fraction(nt, n)
    zero = Fraction(0)
    # per T_j outcome: [mass, E-sums of u, E-sums of u u^T]
    acc = {tau: [zero, [zero] * dim, [[zero] * dim for _ in range(dim)]] for tau in (0, 1)}
    for t in product((0, 1), repeat=n):
        if scheme == "wor":
            if sum(t) != nt:
                continue
            wt = Fraction(1, len(list(combinations(range(n), nt))))
        elif scheme == "bernoulli":
            wt = Fraction(1)
            for bit in t:
                wt *= p_in if bit else 1 - p_in
        else:
            raise ValueError(scheme)
        members = [i for i in range(n) if t[i]]
        for m_bits in product((0, 1), repeat=len(members)):
            w = wt
            for bit in m_bits:
                w *= pb if bit else 1 - pb
            batched = [i for i, bit in zip(members, m_bits) if bit]
            u = [sum((g[i][p] for i in batched), zero) / b for p in range(dim)]
            mass, first, second = acc[t[j]]
            acc[t[j]][0] = mass + w
            for p in range(dim):
                first[p] += w * u[p]
                for q in range(dim):
                    second[p][q] += w * u[p] * u[q]

    def cov(mass, first, second):
        return [
            [second[p][q] / mass - (first[p] / mass) * (first[q] / mass) for q in range(dim)]
            for p in range(dim)
        ]

    total = [
        acc[0][0] + acc[1][0],
        [acc[0][1][p] + acc[1][1][p] for p in range(dim)],
        [[acc[0][2][p][q] + acc[1][2][p][q] for q in range(dim)] for p in range(dim)],
    ]
    unconditional = cov(*total)
    given_out = cov(*acc[0]) if acc[0][0] else unconditional
    return unconditional, given_out, cov(*acc[1])


def ref_discrete_mi(vectors, nt, b, scheme, j):
    """Exact I[T_j ; batched gradient sum] in bits, by brute-force enumeration.

    Walks every training pattern t as enum_indicator_moments does
    (combinations for "wor", products for "bernoulli") and every batch m
    inside it, with exact Fraction probabilities. Atoms are keyed by the
    exact Fraction sums of the batched gradients, so equal sums from
    different batches merge; dividing by B would merge the same atoms. Only
    the final logarithms are float.
    """
    n, dim = len(vectors), len(vectors[0])
    g = [[Fraction(float(x)) for x in row] for row in vectors]
    pb = Fraction(b, nt)
    if scheme == "wor":
        wt = Fraction(1, len(list(combinations(range(n), nt))))
        t_patterns = [
            (tuple(1 if i in chosen else 0 for i in range(n)), wt)
            for chosen in combinations(range(n), nt)
        ]
    elif scheme == "bernoulli":
        p_in = Fraction(nt, n)
        t_patterns = []
        for t in product((0, 1), repeat=n):
            w = Fraction(1)
            for bit in t:
                w *= p_in if bit else 1 - p_in
            t_patterns.append((t, w))
    else:
        raise ValueError(scheme)

    zero = Fraction(0)
    atoms = {}  # exact gradient sum -> [P[atom, T_j = 0], P[atom, T_j = 1]]
    for t, wt in t_patterns:
        members = [i for i in range(n) if t[i]]
        for m_bits in product((0, 1), repeat=len(members)):
            w = wt
            for bit in m_bits:
                w *= pb if bit else 1 - pb
            batched = [i for i, bit in zip(members, m_bits) if bit]
            key = tuple(sum((g[i][p] for i in batched), zero) for p in range(dim))
            atoms.setdefault(key, [zero, zero])[t[j]] += w
    prior = [sum(a[tau] for a in atoms.values()) for tau in (0, 1)]
    mi = 0.0
    for joint in atoms.values():
        for tau in (0, 1):
            if joint[tau] > 0:
                ratio = joint[tau] / ((joint[0] + joint[1]) * prior[tau])
                mi += float(joint[tau]) * math.log2(float(ratio))
    return mi


# gradient geometry -----------------------------------------------------------


def ref_gnq(vectors, j, tol=1e-10):
    """g_j^T S^+ g_j via np.linalg.pinv; S re-summed from scratch."""
    vectors = np.asarray(vectors, dtype=float)
    g = vectors[j]
    others = np.concatenate([vectors[:j], vectors[j + 1 :]], axis=0)
    s = sum(np.outer(v, v) for v in others)
    s_pinv = np.linalg.pinv(s, rcond=tol, hermitian=True)
    return float(g @ s_pinv @ g)


def ref_in_range(vectors, j, tol=1e-10):
    """||g_j - P g_j||^2 <= tol * lambda_max(S), P = S S^+ with S^+ from pinv.

    The residual energy may be at most what the eigenvalue cutoff discards.
    """
    vectors = np.asarray(vectors, dtype=float)
    g = vectors[j]
    others = np.concatenate([vectors[:j], vectors[j + 1 :]], axis=0)
    s = sum(np.outer(v, v) for v in others)
    proj = s @ np.linalg.pinv(s, rcond=tol, hermitian=True)
    resid = g - proj @ g
    lam_max = max(float(np.linalg.eigvalsh(s)[-1]), 0.0)
    return float(resid @ resid) <= tol * lam_max


def ref_kept_count(vectors, j, tol=1e-10):
    """How many eigenvalues of S = sum_{k != j} g_k g_k^T eigvalsh puts above tol * lambda_max."""
    vectors = np.asarray(vectors, dtype=float)
    others = np.concatenate([vectors[:j], vectors[j + 1 :]], axis=0)
    w = np.linalg.eigvalsh(others.T @ others)
    return int(np.sum(w > tol * max(float(w[-1]), 0.0)))


def ref_pdet(a, tol=1e-10):
    """Product of eigenvalues above the relative cutoff."""
    w = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    cutoff = tol * max(float(w[-1]), 0.0)
    kept = w[w > cutoff]
    return float(np.prod(kept)) if kept.size else 1.0


def central_diff_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


# entropy and leakage ---------------------------------------------------------


def ref_binary_entropy(p):
    p = mpmath.mpf(p)
    if p == 0 or p == 1:
        return mpmath.mpf(0)
    return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)


def ref_inverse_binary_entropy(h):
    """Bisection on [0, 1/2] at 50 digits."""
    h = mpmath.mpf(h)
    lo, hi = mpmath.mpf(0), mpmath.mpf("0.5")
    for _ in range(200):
        mid = (lo + hi) / 2
        if ref_binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def ref_leakage_bits(gnq, n, nt, b):
    """1/2 [log2(1 + g) - (Nt/N) log2(1 + kappa g)] at 50 digits."""
    g = mpmath.mpf(gnq)
    n, nt, b = mpmath.mpf(n), mpmath.mpf(nt), mpmath.mpf(b)
    kappa = (n / nt) * (1 - b / nt) / (1 - b / n)
    return (mpmath.log(1 + g, 2) - (nt / n) * mpmath.log(1 + kappa * g, 2)) / 2


# attack statistics -----------------------------------------------------------


def ref_auc(scores, labels):
    """Pairwise P[score_member > score_nonmember], ties counting 1/2."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# frozen values produced by the functions above -------------------------------

FROZEN = {
    # ref_leakage_bits(1, 100, 50, 10)
    "leakage_n100_nt50_b10_gnq1": 0.13151720291689695,
    # ref_inverse_binary_entropy(0.5)
    "inv_entropy_half": 0.11002786443835955,
    # ref_binary_entropy(0.25)
    "entropy_quarter": 0.8112781244591328,
    # (100/50) * (1 - 10/50) / (1 - 10/100)
    "kappa_n100_nt50_b10": 16.0 / 9.0,
}
