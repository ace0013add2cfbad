"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own algorithms: the determinant is a
bitmask Laplace expansion rather than Bareiss, invariant factors come from
minor gcds rather than elimination, homomorphisms are counted by brute
vectorized enumeration with no propagation at all, and low-index subgroups
are counted by a coset-table search rather than as actions on points.
The Tietze simplifier, the generator reduction behind the search compiler,
the search compiler itself, the search it compiles to (before and after
centraliser orbits, both walking relators letter by letter), the subgroup
closure, the Smith normal form with its certificate, the surgery
presentation of a diagram, the gem report and the presentation text parser
are checked against verbatim copies of their earlier implementations, at the
end of this file.  The search compiler's oracle reads relators with its own
reducer, not the package's.
"""

import functools
import itertools
import math
import re
from itertools import combinations

import numpy as np

from linkgroup.gems import is_bipartite, residues
from linkgroup.homology import IntegerMatrix
from linkgroup.presentations import (GEN_NAME, MAX_LETTERS, GroupPresentation,
                                     PresentationSyntaxError, Relator, transition_name,
                                     wirtinger)
from linkgroup.quotients import BudgetExceeded
from linkgroup.words import Word


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


# --- reference copies of the simplifier and the search compiler ---------------
#
# The flag-driven tietze_simplify loop, the non-incremental _reduce_generators
# and the two-pass search compiler as they stood before their rewrites, kept
# verbatim (renamed) so the tests can check that the rewrites give
# byte-identical presentations and equal programs.

def _ref_definition_candidates(generators, relators):
    """Relators of the form g = w with g a generator not occurring in w."""
    out = []
    for idx, r in enumerate(relators):
        if len(r.lhs) == 1 and r.lhs.letters[0][1] == 1:
            g = r.lhs.letters[0][0]
            if g not in r.rhs.generators():
                out.append((len(r.lhs) + len(r.rhs), g, idx))
    return out


def _ref_substitute_relator(r, name, replacement):
    return Relator(r.lhs.substitute(name, replacement).free_reduce(),
                   r.rhs.substitute(name, replacement).free_reduce())


def _ref_reduce_relator(r):
    if not r.rhs.letters:
        return Relator(r.lhs.cyclic_reduce())
    return Relator(r.lhs.free_reduce(), r.rhs.free_reduce())


def _ref_cyclic_match(target, source):
    """Find the longest overlap of source (or its inverse) with cyclic target.

    Returns (new_letters,) when replacing the overlap by the inverse of the
    source remainder shortens the target, else None.
    """
    t = target.letters
    if len(t) < 2:
        return None
    doubled = t + t
    best = None
    for s in (source.letters, source.inverse().letters):
        m = len(s)
        top = min(m, len(t))
        for rot in range(m):
            srot = s[rot:] + s[:rot]
            for length in range(top, m // 2, -1):
                if best is not None and length <= best[0]:
                    break
                pattern = srot[:length]
                for start in range(len(t)):
                    if doubled[start:start + length] == pattern:
                        remainder = Word(srot[length:])
                        rest = Word(doubled[start + length:start + len(t)])
                        candidate = (remainder.inverse() * rest).cyclic_reduce()
                        if len(candidate) < len(t):
                            best = (length, candidate)
                        break
    return None if best is None else best[1]


def reference_tietze_simplify(presentation, budget=10000, phases=(1, 2, 3)):
    """Simplify a presentation without changing the group it defines.

    Phase 1 eliminates generators with defining relators g = w (shortest
    definition first, ties by generator name), substituting w for g everywhere.
    Phase 2 freely reduces both sides of every relator, cyclically reduces bare
    relators, and drops relators that become trivial.  Phase 3 greedily
    replaces a cyclic subword of one relator by the shorter complement from
    another relator whenever that shortens it.  Each rewrite costs one unit of
    budget; the result is returned as-is when the budget runs out.
    """
    gens = list(presentation.generators)
    rels = list(presentation.relators)
    steps = 0

    def spend():
        nonlocal steps
        steps += 1
        return steps <= budget

    progress = True
    while progress and steps <= budget:
        progress = False

        if 1 in phases:
            candidates = _ref_definition_candidates(gens, rels)
            if candidates:
                candidates.sort(key=lambda c: (c[0], c[1]))
                _, g, idx = candidates[0]
                w = rels[idx].rhs
                if spend():
                    del rels[idx]
                    gens.remove(g)
                    rels = [_ref_substitute_relator(r, g, w) for r in rels]
                    progress = True
                continue

        if 2 in phases:
            reduced = [_ref_reduce_relator(r) for r in rels]
            kept = [r for r in reduced if r.word.free_reduce().letters]
            if kept != rels:
                if spend():
                    rels = kept
                    progress = True
                continue

        if 3 in phases:
            order = sorted(range(len(rels)), key=lambda i: (len(rels[i].word), i))
            done = False
            for si in order:
                source = rels[si].word.cyclic_reduce()
                if not source.letters:
                    continue
                for ti in order:
                    if ti == si:
                        continue
                    target = rels[ti].word.cyclic_reduce()
                    if len(target) < len(source):
                        continue
                    replacement = _ref_cyclic_match(target, source)
                    if replacement is not None and spend():
                        rels[ti] = Relator(replacement)
                        progress = True
                        done = True
                        break
                if done:
                    break

    return GroupPresentation(tuple(gens), tuple(rels))


def reference_reduce_generators(presentation, length_cap=4, budget=1000):
    """Eliminate generators that occur exactly once in some relator.

    This is the classical Tietze elimination: rotate the relator so the single
    occurrence leads, solve for the generator, and substitute everywhere.  The
    presented group is unchanged; the candidate with the least total-length
    growth is eliminated first (ties by relator length, then generator name).
    Used internally to compile presentations for search; the result has bare
    cyclically reduced relators.
    """
    gens = list(presentation.generators)
    rels = [r.word.cyclic_reduce() for r in presentation.relators]
    rels = [w for w in rels if w.letters]
    original = max(sum(len(w) for w in rels), 50)
    for _ in range(budget):
        counts = {g: [] for g in gens}
        for ri, w in enumerate(rels):
            per = {}
            for name, _ in w.letters:
                per[name] = per.get(name, 0) + 1
            for name, cnt in per.items():
                counts[name].append((ri, cnt))
        best = None
        for g in gens:
            total = sum(cnt for _, cnt in counts[g])
            for ri, cnt in counts[g]:
                if cnt != 1:
                    continue
                growth = (total - 1) * (len(rels[ri]) - 2) - len(rels[ri])
                key = (growth, len(rels[ri]), g, ri)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        growth, _, g, ri = best
        current = sum(len(w) for w in rels)
        if current + growth > length_cap * original:
            break
        w = rels[ri]
        pos = next(i for i, (name, _) in enumerate(w.letters) if name == g)
        exp = w.letters[pos][1]
        rest = Word(w.letters[pos + 1:] + w.letters[:pos])
        replacement = rest.inverse() if exp == 1 else rest
        del rels[ri]
        gens.remove(g)
        rels = [v.substitute(g, replacement).cyclic_reduce() for v in rels]
        rels = [v for v in rels if v.letters]
    return GroupPresentation(tuple(gens), tuple(Relator(w) for w in rels))


def _ref_closure_schedule(seqs, n_gens, seeds):
    """Static schedule of assign/branch/deduce/check ops for a given seed order.

    A relator with every generator assigned becomes a check; a relator in which
    exactly one occurrence of exactly one unassigned generator remains forces
    that generator's image and needs no separate check.  A relator whose only
    unassigned generator occurs exactly twice with opposite exponents is a
    conjugation equation in that generator; its solutions come from a
    precomputed table, which is far cheaper than a full assignment loop.
    """
    known = set()
    handled = [False] * len(seqs)
    ops = []

    def saturate():
        progress = True
        while progress:
            progress = False
            for ri, seq in enumerate(seqs):
                if handled[ri]:
                    continue
                unknown = [(pos, g, e) for pos, (g, e) in enumerate(seq) if g not in known]
                if not unknown:
                    ops.append(("check", seq))
                    handled[ri] = True
                    progress = True
                elif len(unknown) == 1:
                    pos, g, e = unknown[0]
                    ops.append(("deduce", g, seq[:pos], seq[pos + 1:], e))
                    known.add(g)
                    handled[ri] = True
                    progress = True

    def branch():
        for ri, seq in enumerate(seqs):
            if handled[ri]:
                continue
            unknown = [(pos, g, e) for pos, (g, e) in enumerate(seq) if g not in known]
            if len(unknown) != 2:
                continue
            (p1, g1, e1), (p2, g2, e2) = unknown
            if g1 != g2 or e1 != -e2:
                continue
            ops.append(("branch", g1, seq[:p1], seq[p1 + 1:p2], seq[p2 + 1:], e1))
            known.add(g1)
            handled[ri] = True
            return True
        return False

    saturate()
    while branch():
        saturate()
    for s in seeds:
        if s in known:
            continue
        ops.append(("assign", s))
        known.add(s)
        saturate()
        while branch():
            saturate()
    return ops, known


def _ref_choose_seeds(seqs, n_gens):
    """A small seed set from which every generator image can be deduced.

    Seeds are tried in order of decreasing relator occurrence count (name order
    on ties); all subsets of size up to 4 are tried before falling back to a
    greedy cover, so the schedule is a pure function of the presentation.
    """
    occurrences = [0] * n_gens
    for seq in seqs:
        for g, _ in seq:
            occurrences[g] += 1
    candidates = sorted(range(n_gens), key=lambda g: (-occurrences[g], g))

    def coverage(seeds):
        _, known = _ref_closure_schedule(seqs, n_gens, seeds)
        return known

    for k in range(0, min(n_gens, 4) + 1):
        for combo in combinations(candidates, k):
            if len(coverage(combo)) == n_gens:
                return combo
    seeds = []
    while len(coverage(seeds)) < n_gens:
        best = None
        for g in candidates:
            if g in seeds:
                continue
            reach = len(coverage(seeds + [g]))
            if best is None or reach > best[1]:
                best = (g, reach)
        seeds.append(best[0])
    return tuple(seeds)


def _ref_relator_sequences(presentation):
    """Each relator lhs * rhs^-1, freely reduced, as (generator index, exponent)
    letters; relators that reduce to the empty word are dropped."""
    index = {g: i for i, g in enumerate(presentation.generators)}
    seqs = []
    for r in presentation.relators:
        letters = []
        for name, exp in r.lhs.letters + tuple((n, -e) for n, e in reversed(r.rhs.letters)):
            if letters and letters[-1] == (index[name], -exp):
                letters.pop()
            else:
                letters.append((index[name], exp))
        if letters:
            seqs.append(tuple(letters))
    return seqs


def reference_compile_hom_search(presentation):
    """The deterministic search program: leading ops plus enumeration segments.

    Each segment opens with an assign (loop over the whole group) or a branch
    (loop over the solutions of a conjugation equation) and carries the ops
    that follow it.
    """
    seqs = _ref_relator_sequences(presentation)
    n_gens = len(presentation.generators)
    seeds = _ref_choose_seeds(seqs, n_gens)
    ops, known = _ref_closure_schedule(seqs, n_gens, seeds)
    if len(known) != n_gens:
        raise RuntimeError("seed selection failed to cover all generators")
    head = []
    segments = []
    current = None
    for op in ops:
        if op[0] == "assign":
            if current is not None:
                segments.append(current)
            current = ["assign", op[1], None, []]
        elif op[0] == "branch":
            if current is not None:
                segments.append(current)
            current = ["branch", op[1], (op[2], op[3], op[4], op[5]), []]
        elif current is None:
            head.append(op)
        else:
            current[3].append(op)
    if current is not None:
        segments.append(current)
    return (tuple(head),
            tuple((k, g, data, tuple(post)) for k, g, data, post in segments),
            n_gens)


@functools.lru_cache(maxsize=None)
def _ref_conjugacy_classes(group):
    """((smallest element index, class size), ...) by conjugating by every element."""
    mul, inv, _ = group.tables()
    n = group.order
    classes = []
    seen = set()
    for v in range(n):
        if v not in seen:
            members = {mul[mul[g][v]][inv[g]] for g in range(n)}
            seen |= members
            classes.append((v, len(members)))
    return tuple(classes)


def reference_search(program, group, classify, node_budget):
    """Run a compiled search into group and return {classify(key): summed weight}.

    The search before the second assign took C(r)-orbits: only the first
    assign takes one representative per conjugacy class, and every later
    candidate weighs 1.  The class list comes from _ref_conjugacy_classes.
    """
    head, segments, n_gens = program
    mul, inv, e = group.tables()
    order = group.order
    images = [e] * n_gens
    if not _run_ops(head, images, mul, inv, e, order):
        return {}
    found = {}      # key -> summed weight
    solve = None
    if any(kind == "branch" for kind, _, _, _ in segments):
        solve = group.conjugacy_solutions()
    depth = len(segments)
    nodes = 0

    def walk(d, weight, roots=None):
        nonlocal nodes
        kind, gen, data, post = segments[d]
        if roots is not None:
            candidates = roots
        elif kind == "assign":
            candidates = range(order)
        else:
            pre, mid, suf, eps = data
            q = _eval_seq(mid, images, mul, inv, e, order)
            a = _eval_seq(pre, images, mul, inv, e, order)
            c = _eval_seq(suf, images, mul, inv, e, order)
            t = inv[mul[c][a]]
            candidates = solve(q, t) if eps == 1 else solve(t, q)
        for v in candidates:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded
            images[gen] = v
            if not _run_ops(post, images, mul, inv, e, order):
                continue
            if d + 1 == depth:
                key = tuple(sorted(set(images)))
                found[key] = found.get(key, 0) + weight
            else:
                walk(d + 1, weight)

    if not segments:
        # every generator deduced from relators: a single candidate to try
        found[tuple(sorted(set(images)))] = 1
    elif segments[0][0] == "assign":
        for rep, size in _ref_conjugacy_classes(group):
            walk(0, size, (rep,))
    else:
        walk(0, 1)
    tally = {}
    for key, weight in found.items():
        value = classify(key)
        tally[value] = tally.get(value, 0) + weight
    return tally


# --- the search before slot form ----------------------------------------------
# Verbatim copies of the search that walked the compiled program letter by
# letter, with a sign test and an inverse lookup per negative letter, and of
# the subgroup closure that ran to the end.  reference_search above runs on
# the same sequence evaluation.

def _eval_seq(seq, images, mul, inv, e, order):
    x = e
    for g, s in seq:
        y = images[g]
        if s < 0:
            y = inv[y]
        x = mul[x][y]
    return x


def _run_ops(ops, images, mul, inv, e, order):
    for op in ops:
        if op[0] == "deduce":
            _, g, pre, suf, eps = op
            p = _eval_seq(pre, images, mul, inv, e, order)
            s = _eval_seq(suf, images, mul, inv, e, order)
            v = inv[mul[s][p]]
            images[g] = v if eps == 1 else inv[v]
        else:
            if _eval_seq(op[1], images, mul, inv, e, order) != e:
                return False
    return True


def reference_subgroup_order(key, mul, e, order):
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in key:
                y = mul[x][g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def reference_orbit_search(program, group, classify, node_budget):
    """Run a compiled search into group and return {classify(key): summed weight}.

    A homomorphism's key is the sorted tuple of its distinct generator
    images; classify runs once per distinct key, after the walk, and may
    depend only on what conjugation in group leaves unchanged, since the
    search lets one homomorphism stand for its conjugates.  When the search
    opens with an assign, its generator takes one representative r per
    conjugacy class, weighted by the class size.  When the second segment is
    an assign as well, its generator takes one representative v per orbit of
    the centraliser C(r) acting by conjugation, weighted by the orbit size:
    conjugating by c in C(r) fixes r and everything deduced from it and
    sends v to c * v * c^-1.  Every other candidate weighs 1.  Every
    candidate tried at any depth, roots and orbit representatives included,
    is one node charged to node_budget; the search raises BudgetExceeded
    past it.
    """
    head, segments, n_gens = program
    mul, inv, e = group.tables()
    order = group.order
    images = [e] * n_gens
    if not _run_ops(head, images, mul, inv, e, order):
        return {}
    found = {}      # key -> summed weight
    solve = None
    if any(kind == "branch" for kind, _, _, _ in segments):
        solve = group.conjugacy_solutions()
    depth = len(segments)
    unit = itertools.repeat(1)
    nodes = 0

    def walk(d, weight):
        nonlocal nodes
        kind, gen, data, post = segments[d]
        if kind == "branch":
            pre, mid, suf, eps = data
            q = _eval_seq(mid, images, mul, inv, e, order)
            a = _eval_seq(pre, images, mul, inv, e, order)
            c = _eval_seq(suf, images, mul, inv, e, order)
            t = inv[mul[c][a]]
            candidates = zip(solve(q, t) if eps == 1 else solve(t, q), unit)
        elif d == 0:
            candidates = group.centraliser_orbits(e)
        elif d == 1 and segments[0][0] == "assign":
            # C(r) fixes the root r and every image deduced from it
            candidates = group.centraliser_orbits(images[segments[0][1]])
        else:
            candidates = zip(range(order), unit)
        for v, size in candidates:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded
            images[gen] = v
            if not _run_ops(post, images, mul, inv, e, order):
                continue
            if d + 1 == depth:
                key = tuple(sorted(set(images)))
                found[key] = found.get(key, 0) + weight * size
            else:
                walk(d + 1, weight * size)

    if segments:
        walk(0, 1)
    else:
        # every generator deduced from relators: a single candidate to try
        found[tuple(sorted(set(images)))] = 1
    tally = {}
    for key, weight in found.items():
        value = classify(key)
        tally[value] = tally.get(value, 0) + weight
    return tally


# --- Smith normal form before the sparse certificate ---------------------------
# Verbatim copies of the dense elimination and of its certificate: the product
# (U @ A) @ V compared with D, and U and V unimodular by Bareiss determinants.

def reference_matmul(left, right):
    if left.cols != right.rows:
        raise ValueError("shape mismatch")
    ot = list(zip(*right.entries)) if right.entries else [()] * right.cols
    out = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in left.entries)
    return IntegerMatrix(out, right.cols)


def reference_det(matrix):
    """Exact determinant by Bareiss fraction-free elimination."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    if n == 0:
        return 1
    a = [list(r) for r in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def reference_smith_verify(d, u, v, matrix):
    """Re-check the decomposition U @ A @ V == D exactly against the original matrix."""
    if reference_matmul(reference_matmul(u, matrix), v) != d:
        return False
    if abs(reference_det(u)) != 1 or abs(reference_det(v)) != 1:
        return False
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    # nonnegative, each entry dividing the next (zeros last), nothing off it
    if any(x < 0 for x in diag) or any(y if x == 0 else y % x
                                       for x, y in zip(diag, diag[1:])):
        return False
    return not any(d.entries[i][j] for i in range(d.rows)
                   for j in range(d.cols) if i != j)


def _ref_swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _ref_swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _ref_add_row(a, u, dst, src, factor):
    a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + factor * y for x, y in zip(u[dst], u[src])]


def _ref_add_col(a, v, dst, src, factor):
    for row in a:
        row[dst] += factor * row[src]
    for row in v:
        row[dst] += factor * row[src]


def reference_smith_normal_form(matrix):
    """(D, U, V) with U @ A @ V == D, by the dense elimination.

    The pivot is always a minimal-absolute-value nonzero entry of the remaining
    block, which keeps intermediate entries small.  Every returned
    decomposition is re-verified exactly before being handed back.
    """
    m, n = matrix.rows, matrix.cols
    a = [list(row) for row in matrix.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            _ref_swap_rows(a, u, t, best[0])
        if best[1] != t:
            _ref_swap_cols(a, v, t, best[1])

        while True:
            dirty = False
            for i in range(m):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        _ref_add_row(a, u, i, t, -q)
                    if a[i][t] != 0:
                        _ref_swap_rows(a, u, i, t)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(n):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        _ref_add_col(a, v, j, t, -q)
                    if a[t][j] != 0:
                        _ref_swap_cols(a, v, j, t)
                        dirty = True
                        break
            if not dirty:
                break

        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _ref_add_row(a, u, t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    d, u, v = (IntegerMatrix.from_rows(a, n), IntegerMatrix.from_rows(u, m),
               IntegerMatrix.from_rows(v, n))
    if not reference_smith_verify(d, u, v, matrix):
        raise RuntimeError("Smith normal form self-check failed")
    return d, u, v


def reference_log_transforms(ops, m, n):
    """(U, V) of a Smith operation log for an m x n matrix, or None for a malformed op.

    An op (axis, i, j, factor) acts on rows (axis 0) or columns (axis 1): it
    swaps lines i != j (factor None), adds factor times line j to line i != j,
    or negates line i (i == j, factor -1).  Row ops build U from the identity
    and column ops build V, so replaying the log on A gives U @ A @ V.
    """
    # V is built transposed, so a column op on it rewrites one row
    built = ([[int(r == c) for c in range(m)] for r in range(m)],
             [[int(r == c) for c in range(n)] for r in range(n)])
    for op in ops:
        if not isinstance(op, tuple) or len(op) != 4:
            return None
        axis, i, j, factor = op
        if type(axis) is not int or axis not in (0, 1):
            return None
        size = (m, n)[axis]
        if any(type(k) is not int or k < 0 or k >= size for k in (i, j)):
            return None
        lines = built[axis]
        if factor is None and i != j:
            lines[i], lines[j] = lines[j], lines[i]
        elif type(factor) is int and i != j:
            lines[i] = [x + factor * y for x, y in zip(lines[i], lines[j])]
        elif type(factor) is int and factor == -1:
            lines[i] = [-x for x in lines[i]]
        else:
            return None
    u, v_t = built
    return IntegerMatrix.from_rows(u, m), IntegerMatrix.from_rows(list(zip(*v_t)), n)


# --- surgery presentation and gem report before computing each fact once ------
# Verbatim copies: one walk of every component for the transition generators
# and another for the filling relators, and each two-colour residue computed
# once for every dropped colour that leaves it.

def _ref_under_walk(diagram, component_index):
    """The crossings under which a component passes, in the component's cyclic arc order."""
    comp = diagram.components[component_index]
    by_pair = {(c.under_in, c.under_out): c for c in diagram.crossings}
    m = len(comp)
    if m == 1 and (comp[0], comp[0]) not in by_pair:
        return []
    return [by_pair[(comp[j], comp[(j + 1) % m])] for j in range(m)]


def _ref_transition_generators(diagram):
    """Transition generator names and their defining equations, in walk order.

    At a crossing with overstrand o, the transition generator is o for sign +1
    and o^-1 for sign -1; conjugation by it carries the incoming understrand
    arc to the outgoing one.
    """
    names, definitions = [], []
    for i in range(len(diagram.components)):
        for c in _ref_under_walk(diagram, i):
            t = transition_name(c.under_in, c.under_out)
            names.append(t)
            definitions.append(Relator(Word(((t, 1),)), Word(((c.over, c.sign),))))
    return names, definitions


def _ref_filling_relators(diagram):
    """One relator per component: the product of its transition generators.

    Components that never pass under a crossing contribute no relator.
    """
    out = []
    for i in range(len(diagram.components)):
        walk = _ref_under_walk(diagram, i)
        if not walk:
            continue
        letters = tuple((transition_name(c.under_in, c.under_out), 1) for c in walk)
        out.append(Relator(Word(letters)))
    return out


def reference_fundamental_group(diagram):
    """Presentation of the fundamental group of the surgered manifold.

    Generators are the transition generators then the arc generators; relators
    are the transition definitions, the per-component filling products, and the
    Wirtinger conjugations, in that order.
    """
    t_names, t_defs = _ref_transition_generators(diagram)
    w = wirtinger(diagram)
    generators = tuple(t_names) + w.generators
    relators = tuple(t_defs) + tuple(_ref_filling_relators(diagram)) + w.relators
    return GroupPresentation(generators, relators)


def reference_gem_report(graph):
    """Check the sphere condition on every 3-residue and report the numbers.

    For each dropped color, each component K of the remaining 3-colored graph
    has V vertices, E = 3V/2 edges, and B bicolored cycles; K encodes a sphere
    exactly when V - E + B == 2.
    """
    spheres = []
    all_spherical = True
    for dropped in range(4):
        kept = [c for c in range(4) if c != dropped]
        components = residues(graph, kept)
        pair_cycles = {}
        for a in range(3):
            for b in range(a + 1, 3):
                pair_cycles[(kept[a], kept[b])] = residues(graph, (kept[a], kept[b]))
        for component in components:
            members = set(component)
            v = len(component)
            e = 3 * v // 2
            bigons = 0
            for pair, cycles in sorted(pair_cycles.items()):
                bigons += sum(1 for cyc in cycles if cyc[0] in members)
            euler = v - e + bigons
            if euler != 2:
                all_spherical = False
            spheres.append({
                "dropped_color": dropped,
                "component_min_vertex": component[0],
                "vertices": v,
                "edges": e,
                "bigons": bigons,
                "euler": euler,
            })
    bipartite = is_bipartite(graph)
    return {
        "vertices": graph.vertices,
        "bipartite": bipartite,
        "residues_spherical": all_spherical,
        "is_gem": bipartite and all_spherical,
        "spheres": spheres,
    }


# --- the presentation text parser before its tokenizer became one regex -------

_REF_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|-?\d+|[\^*=;:,]")


def _ref_tokenize(line, lineno):
    tokens = []
    pos = 0
    while pos < len(line):
        if line[pos].isspace():
            pos += 1
            continue
        m = _REF_TOKEN.match(line, pos)
        if not m:
            raise PresentationSyntaxError(
                "line %d, column %d: unexpected character %r" % (lineno, pos + 1, line[pos]))
        tokens.append((m.group(), lineno, pos + 1))
        pos = m.end()
    return tokens


class _RefWordParser:
    """Parses relators over the known generators, counting the letters of
    their expansion so far."""

    def __init__(self, known):
        self.known = known
        self.letters = 0

    def relator(self, tokens):
        self.tokens, self.i = tokens, 0
        lhs, rhs = self.word(), Word()
        if self.peek() == "=":
            self.take()
            rhs = self.word()
        if self.peek() is not None:
            self.fail("unexpected token")
        return Relator(lhs, rhs)

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def fail(self, message):
        at_end = self.i >= len(self.tokens)
        _, lineno, col = self.tokens[-1 if at_end else self.i]
        raise PresentationSyntaxError("line %d, column %d: %s%s" % (
            lineno, col, message, " after this" if at_end else ""))

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def word(self):
        if self.peek() == "1":
            self.take()
            return Word()
        syllables = [self.term()]
        while self.peek() == "*":
            self.take()
            syllables.append(self.term())
        return Word.from_syllables(syllables)

    def term(self):
        tok = self.peek()
        if tok is None or not GEN_NAME.match(tok):
            self.fail("expected a generator name")
        name, lineno, col = self.take()
        if name not in self.known:
            raise PresentationSyntaxError(
                "line %d, column %d: unknown generator %r" % (lineno, col, name))
        exp = 1
        if self.peek() == "^":
            self.take()
            tok = self.peek()
            if tok is None or not re.fullmatch(r"-?\d+", tok):
                self.fail("expected an integer exponent")
            _, lineno, col = self.take()
            # int() reads at most one digit more than MAX_LETTERS has: enough to pass it
            digits = tok.lstrip("-").lstrip("0")[:len(str(MAX_LETTERS)) + 1] or "0"
            exp = -int(digits) if tok[0] == "-" else int(digits)
            if exp == 0:
                self.fail("zero exponent")
        self.letters += abs(exp)
        if self.letters > MAX_LETTERS:
            raise PresentationSyntaxError("line %d, column %d: the relators expand to more "
                                          "than %d letters" % (lineno, col, MAX_LETTERS))
        return (name, exp)


def reference_parse_presentation(text):
    """Parse presentation text: a gens: line plus rels: lines of ;-separated
    relators, whose powers may expand to at most MAX_LETTERS letters in all."""
    gens = None
    relator_token_groups = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _ref_tokenize(line, lineno)
        head = tokens[0][0] if tokens else ""
        if head == "gens":
            if len(tokens) < 2 or tokens[1][0] != ":":
                raise PresentationSyntaxError("line %d: expected 'gens:'" % lineno)
            if gens is not None:
                raise PresentationSyntaxError("line %d: duplicate gens: line" % lineno)
            rest = tokens[2:]
            for k, (tok, ln, col) in enumerate(rest):
                if k % 2 == 0 and not GEN_NAME.match(tok):
                    raise PresentationSyntaxError(
                        "line %d, column %d: bad generator name %r" % (ln, col, tok))
                if k % 2 and tok != ",":
                    raise PresentationSyntaxError(
                        "line %d, column %d: expected ',' between generator names" % (ln, col))
            if rest and len(rest) % 2 == 0:
                raise PresentationSyntaxError("line %d: trailing comma in gens: line" % lineno)
            gens = [tok for tok, _, _ in rest[::2]]
        elif head == "rels":
            if len(tokens) < 2 or tokens[1][0] != ":":
                raise PresentationSyntaxError("line %d: expected 'rels:'" % lineno)
            relator_token_groups.append([])
            for tok in tokens[2:]:
                if tok[0] == ";":
                    relator_token_groups.append([])
                else:
                    relator_token_groups[-1].append(tok)
        else:
            raise PresentationSyntaxError(
                "line %d: expected a 'gens:' or 'rels:' line" % lineno)
    if gens is None:
        raise PresentationSyntaxError("missing gens: line")

    parser = _RefWordParser(set(gens))
    relators = tuple(parser.relator(group) for group in relator_token_groups if group)
    return GroupPresentation(tuple(gens), relators)
