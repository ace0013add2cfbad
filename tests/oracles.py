"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own algorithms: the determinant is a
bitmask Laplace expansion rather than Bareiss, invariant factors come from
minor gcds rather than elimination, homomorphisms are counted by brute
vectorized enumeration with no propagation at all, and low-index subgroups
are counted by a coset-table search rather than as actions on points.
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


def coset_table_low_index(presentation, kmax):
    """{index: (classes, total)} for 2..kmax by canonical coset-table search.

    Coset tables rooted at coset 0 grow up to kmax cosets; generator i acts
    through columns 2i and 2i+1 (its inverse).  Every complete table is a
    subgroup of index equal to its coset count, counted once per conjugacy
    class: when it is lexicographically least among its rebasings at each
    coset, and then with the number of distinct rebasings as the class size.
    """
    index = {g: i for i, g in enumerate(presentation.generators)}
    relators = []
    for r in presentation.relators:
        w = r.word.cyclic_reduce()
        if w.letters:
            relators.append(tuple(2 * index[n] + (e < 0) for n, e in w.letters))
    ncols = 2 * len(index)
    counts = {k: [0, 0] for k in range(2, kmax + 1)}
    if ncols == 0 or kmax < 2:
        return {k: tuple(v) for k, v in counts.items()}
    table = [-1] * (kmax * ncols)
    anchors = [[] for _ in range(ncols)]
    for w in relators:
        for m in range(len(w)):
            anchors[w[m]].append(w[m:] + w[:m])
    undo = []
    nact = 1

    def scan(w, alpha, queue):
        # trace relator w from coset alpha both ways; deduce across a gap of one
        f, i, n = alpha, 0, len(w)
        while i < n and table[f * ncols + w[i]] >= 0:
            f = table[f * ncols + w[i]]
            i += 1
        if i == n:
            return f == alpha
        b, j = alpha, n
        while j > i + 1 and table[b * ncols + (w[j - 1] ^ 1)] >= 0:
            b = table[b * ncols + (w[j - 1] ^ 1)]
            j -= 1
        if j == i + 1:
            fc, bc = f * ncols + w[i], b * ncols + (w[i] ^ 1)
            if table[fc] < 0 and table[bc] < 0:
                table[fc], table[bc] = b, f
                undo.extend((fc, bc))
                queue.extend(((f, w[i]), (b, w[i] ^ 1)))
            elif table[fc] != b:
                return False
        return True

    def propagate(queue):
        while queue:
            alpha, c = queue.pop()
            for rotation in anchors[c]:
                if not scan(rotation, alpha, queue):
                    return False
        return True

    def rebased(beta):
        """The table renumbered from coset beta, in breadth-first order.

        A partial table stops at its first undefined cell, so a prefix of it
        can still be compared with another table's.
        """
        nu = {beta: 0}
        mu = [beta]
        flat = []
        for x in mu:
            for c in range(ncols):
                y = table[x * ncols + c]
                if y < 0:
                    return flat
                if y not in nu:
                    nu[y] = len(mu)
                    mu.append(y)
                flat.append(nu[y])
        return flat

    def dfs(start):
        nonlocal nact
        gap = next((cell for cell in range(start, nact * ncols) if table[cell] < 0), -1)
        if gap < 0:
            if nact >= 2:
                reps = {tuple(rebased(beta)) for beta in range(nact)}
                if min(reps) == tuple(rebased(0)):
                    counts[nact][0] += 1
                    counts[nact][1] += len(reps)
            return
        alpha, c = divmod(gap, ncols)
        candidates = [tau for tau in range(nact) if table[tau * ncols + (c ^ 1)] < 0]
        if nact < kmax:
            candidates.append(nact)
        for tau in candidates:
            mark = len(undo)
            grew = int(tau == nact)
            nact += grew
            table[gap] = tau
            table[tau * ncols + (c ^ 1)] = alpha
            undo.extend((gap, tau * ncols + (c ^ 1)))
            if propagate([(alpha, c), (tau, c ^ 1)]) and all(
                    not _prefix_less(rebased(beta), rebased(0)) for beta in range(1, nact)):
                dfs(gap + 1)
            while len(undo) > mark:
                table[undo.pop()] = -1
            nact -= grew

    dfs(0)
    return {k: tuple(v) for k, v in counts.items()}


def _prefix_less(a, b):
    """Whether a is less than b on their common prefix."""
    n = min(len(a), len(b))
    return a[:n] < b[:n]
