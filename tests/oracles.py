"""Independent oracles for the test suite.

Nothing here touches the Littlewood-Richardson tableau enumeration: products
go through Jacobi-Trudi determinants and iterated Pieri strip additions in
the untruncated symmetric-function ring, partitions are enumerated by brute
force over raw sequences, and strips are checked on explicit cell sets.
Euler characteristics of line bundles come from Borel-Weil and the
hook-content formula, and those of homogeneous bundles from Borel-Weil-Bott
and the Weyl dimension formula, with no Chern classes, Todd class or ring
products.  The Todd log series comes from truncated power-series
arithmetic, with no Bernoulli or tangent numbers.

One helper is not an oracle: ``twist`` runs the engine's own power-sum
twist, so that the tests twist bundles of any rank along one path.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod


def brute_force_box_partitions(rows: int, cols: int, degree: int) -> list[tuple[int, ...]]:
    """All partitions of ``degree`` in a rows x cols box, by filtering every
    raw sequence; returned in the canonical lexicographic-descending order."""
    found = set()
    for seq in product(range(cols + 1), repeat=rows):
        if sum(seq) != degree:
            continue
        if any(seq[i] < seq[i + 1] for i in range(rows - 1)):
            continue
        t = seq
        while t and t[-1] == 0:
            t = t[:-1]
        found.add(tuple(t))
    return sorted(found, reverse=True)


def partitions_of(n: int, max_rows: int, max_cols: int) -> list[tuple[int, ...]]:
    """Recursive enumeration of partitions of ``n`` with bounded shape,
    for ranges where the raw-sequence filter above would be too slow."""
    out = []

    def rec(remaining: int, cap: int, rows_left: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if rows_left == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, rows_left - 1, acc)
            acc.pop()

    rec(n, max_cols, max_rows, [])
    return out


def cells(la) -> set[tuple[int, int]]:
    return {(r, c) for r in range(len(la)) for c in range(la[r])}


def conjugate(la) -> tuple[int, ...]:
    """Transpose of the Young diagram."""
    if not la:
        return ()
    return tuple(sum(1 for part in la if part > i) for i in range(la[0]))


def is_horizontal_strip_cells(mu, la) -> bool:
    cm, cl = cells(mu), cells(la)
    if not cl <= cm:
        return False
    columns = [c for _, c in cm - cl]
    return len(columns) == len(set(columns))


def is_vertical_strip_cells(mu, la) -> bool:
    cm, cl = cells(mu), cells(la)
    if not cl <= cm:
        return False
    rows = [r for r, _ in cm - cl]
    return len(rows) == len(set(rows))


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def jacobi_trudi_terms(mu) -> list[tuple[int, tuple[int, ...]]]:
    """s_mu = det(h_{mu_i - i + j}) expanded over permutations: a list of
    (sign, row lengths) with h_0 factors dropped and h_{<0} terms skipped."""
    size = len(mu)
    if size == 0:
        return [(1, ())]
    terms = []
    for pi in permutations(range(size)):
        rows = tuple(mu[i] - i + pi[i] for i in range(size))
        if any(r < 0 for r in rows):
            continue
        terms.append((_perm_sign(pi), tuple(r for r in rows if r > 0)))
    return terms


def add_horizontal_strips(la, r: int) -> list[tuple[int, ...]]:
    """Partitions obtained from ``la`` by adding a horizontal r-strip, with
    no box truncation: nu_i >= la_i >= nu_{i+1} and |nu| = |la| + r."""
    la = tuple(la)
    padded = la + (0,)
    results = []

    def rec(i: int, cap: int, remaining: int, acc: list[int]) -> None:
        if i == len(padded):
            if remaining == 0:
                t = tuple(acc)
                while t and t[-1] == 0:
                    t = t[:-1]
                results.append(t)
            return
        for v in range(padded[i], min(cap, padded[i] + remaining) + 1):
            acc.append(v)
            rec(i + 1, padded[i], remaining - (v - padded[i]), acc)
            acc.pop()

    rec(0, la[0] + r if la else r, r, [])
    return results


def pieri_product(ring, la, mu) -> dict[tuple[int, ...], int]:
    """sigma_la * sigma_mu through Jacobi-Trudi plus iterated Pieri, computed
    in the full symmetric-function ring and truncated to the box at the end."""
    total: dict[tuple[int, ...], int] = defaultdict(int)
    for sign, hrows in jacobi_trudi_terms(tuple(mu)):
        acc = {tuple(la): 1}
        for r in hrows:
            nxt: dict[tuple[int, ...], int] = defaultdict(int)
            for nu, c in acc.items():
                for rho in add_horizontal_strips(nu, r):
                    nxt[rho] += c
            acc = nxt
        for nu, c in acc.items():
            total[nu] += sign * c
    box = ring.box
    return {
        nu: c
        for nu, c in total.items()
        if c and len(nu) <= box.rows and (not nu or nu[0] <= box.cols)
    }


def line_bundle_chi(k: int, n: int, t: int) -> int:
    """chi(O(t)) on G(k, n), without Riemann-Roch.

    For t >= 0, Borel-Weil identifies it with the dimension of the GL_{n+1}
    representation of the (k+1) x t rectangle, given by the hook-content
    formula.  O(t) has no cohomology for -(n+1) < t < 0, and Serre duality
    with K = O(-(n+1)) covers t <= -(n+1).
    """
    if t < 0:
        if t > -(n + 1):
            return 0
        return (-1) ** ((k + 1) * (n - k)) * line_bundle_chi(k, n, -t - (n + 1))
    rows = k + 1
    rectangle = [(r, c) for r in range(rows) for c in range(t)]
    contents = prod(n + 1 + c - r for r, c in rectangle)
    hooks = prod((t - c) + (rows - r) - 1 for r, c in rectangle)
    assert contents % hooks == 0
    return contents // hooks


def bott_chi(k: int, n: int, alpha, beta) -> int:
    """chi(Sigma^alpha S* (x) Sigma^beta Q) on G(k, n), by Borel-Weil-Bott.

    ``alpha`` (k+1 parts) and ``beta`` (n-k parts) are weakly decreasing,
    negative parts allowed; O(1) = det S*, so twisting by O(t) adds t to
    every part of ``alpha``.  Since Sigma^beta Q = Sigma^beta' Q* with beta'
    the negated reversal of beta, the bundle is the GL_{n+1} weight
    w = (alpha | beta'), read so that Sigma^alpha S* has H^0 = Sigma^alpha V*.
    Bott: with rho = (n, n-1, ..., 0), if w + rho has a repeated entry every
    cohomology group vanishes; otherwise the only one is in degree l, the
    number of inversions of w + rho, and its dimension is the Weyl dimension
    of w + rho sorted, prod_{i<j} (v_i - v_j) / (j - i).
    """
    assert len(alpha) == k + 1 and len(beta) == n - k
    weight = [*alpha, *(-b for b in reversed(beta))]
    size = n + 1
    shifted = [w + size - 1 - i for i, w in enumerate(weight)]
    if len(set(shifted)) < size:
        return 0
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    inversions = sum(shifted[i] < shifted[j] for i, j in pairs)
    v = sorted(shifted, reverse=True)
    num = prod(v[i] - v[j] for i, j in pairs)
    den = prod(j - i for i, j in pairs)
    assert num % den == 0
    return (-1) ** inversions * (num // den)


def todd_log_series(n: int) -> tuple[Fraction, ...]:
    """Coefficients a_1..a_n of log(x / (1 - exp(-x))) by exact truncated
    series arithmetic: the log of q(x) = (1 - exp(-x))/x is built from the
    recurrence m*l_m = m*q_m - sum_{j<m} j*l_j*q_{m-j}, then negated."""
    q = [Fraction((-1) ** i, factorial(i + 1)) for i in range(n + 1)]
    log_q = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        acc = m * q[m]
        for j in range(1, m):
            acc -= j * log_q[j] * q[m - j]
        log_q[m] = acc / m
    return tuple(-c for c in log_q[1:])


def lower_set(top: int) -> list[tuple[int, int, int]]:
    """The exponents (i, l, r) of the monomials e^i * a^l * b^r with
    i + 2(l + r) <= top, which span the polynomials in (e, a, b) of weighted
    degree at most top.  The set is a lower set, so, read as points
    (e, a, b), it is unisolvent for that span (Dyn and Floater,
    "Multivariate polynomial interpolation on lower sets", J. Approx. Theory
    2014): two such polynomials equal on it are equal everywhere."""
    return [
        (i, l, r)
        for l in range(top // 2 + 1)
        for r in range(top // 2 + 1 - l)
        for i in range(top - 2 * (l + r) + 1)
    ]


def twist(v, t):
    """The Chern vector of v tensored with O(t), for a bundle of any rank:
    its power sums twisted by t (``PowerSumVector.twisted``) and turned back
    into Chern classes."""
    return v.power_sums().twisted(t).to_chern()
