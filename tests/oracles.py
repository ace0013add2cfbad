"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own algorithms: the determinant is a
bitmask Laplace expansion rather than Bareiss, invariant factors come from
minor gcds rather than elimination, and homomorphisms are counted by brute
vectorized enumeration with no propagation at all.
"""

import math
from itertools import combinations

import numpy as np


def det_laplace(rows):
    """Exact determinant by expansion along rows, cached on column subsets."""
    k = len(rows)
    if k == 0:
        return 1
    full = (1 << k) - 1
    cache = {0: 1}

    def expand(mask):
        hit = cache.get(mask)
        if hit is not None:
            return hit
        depth = k - bin(mask).count("1")
        total = 0
        sign = 1
        for j in range(k):
            bit = 1 << j
            if mask & bit:
                a = rows[depth][j]
                if a:
                    total += sign * a * expand(mask & ~bit)
                sign = -sign
        cache[mask] = total
        return total

    return expand(full)


def minor_gcd_invariant_factors(rows, cols):
    """Nonzero invariant factors via gcds of k-by-k minors.

    d_k is the gcd of all k-minors (d_0 = 1); the k-th invariant factor is
    d_k / d_{k-1} for k up to the rank.  Once the gcd at some level hits 1 the
    remaining minors of that level cannot change it and are skipped.
    """
    m = len(rows)
    factors = []
    prev = 1
    for k in range(1, min(m, cols) + 1):
        g = 0
        for rsel in combinations(range(m), k):
            for csel in combinations(range(cols), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, det_laplace(sub))
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def group_arrays(group):
    mul, inv, e = group.tables()
    n = group.order
    return (np.array(mul, dtype=np.int64).reshape(n, n),
            np.array(inv, dtype=np.int64), e, n)


def naive_hom_counts(presentation, group):
    """(total, surjective) by checking every tuple of generator images."""
    MUL, INV, e, n = group_arrays(group)
    index = {g: i for i, g in enumerate(presentation.generators)}
    m = len(index)
    if m == 0:
        return 1, (1 if n == 1 else 0)
    size = n ** m
    vals = []
    for s in range(m):
        period = n ** (m - 1 - s)
        vals.append((np.arange(size) // period) % n)
    ok = np.ones(size, dtype=bool)
    for r in presentation.relators:
        x = np.full(size, e, dtype=np.int64)
        for name, exp in r.word.letters:
            y = vals[index[name]]
            if exp < 0:
                y = INV[y]
            x = MUL[x, y]
        ok &= x == e
    total = int(ok.sum())
    images = np.stack([v[ok] for v in vals], axis=1)
    surjective = 0
    for lo in range(0, total, 4096):
        surjective += int(generates_group(images[lo:lo + 4096], MUL, INV, e, n).sum())
    return total, surjective


def generates_group(images, MUL, INV, e, n):
    """Per row of generator images: do they generate the whole group?

    Grows a boolean reachability row from the identity by right multiplication
    with every image until no row changes.  In a finite group the elements so
    reached form the generated subgroup.
    """
    reach = np.zeros((len(images), n), dtype=bool)
    reach[:, e] = True
    # y lies in reach * g exactly when y * g^-1 lies in reach; the indexes
    # are flat, so each row reads only its own reach row
    offsets = (np.arange(len(images)) * n)[:, None]
    steps = [MUL[:, INV[images[:, s]]].T + offsets for s in range(images.shape[1])]
    while True:
        before = reach
        for step in steps:
            reach = reach | reach.ravel().take(step)
        if (reach == before).all():
            return reach.all(axis=1)
