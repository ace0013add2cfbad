"""Output checks that share no code with the package under test.

First homology of a surgery on a framed link is the cokernel of its framed
linking matrix, whose invariant factors come from determinantal divisors:
d_k is the gcd of all k x k minors and the k-th factor is d_k / d_{k-1}.
"""

import itertools
import json
import math


def linking_matrix(text, framings=None):
    """Framed linking matrix of a PD-JSON diagram.

    Off the diagonal, half the signed count of crossings between two
    components; on it, the given framings, or each component's self-writhe
    (its blackboard framing) when none are given.
    """
    doc = json.loads(text)
    comp = {arc: i for i, arc_list in enumerate(doc["components"]) for arc in arc_list}
    m = len(doc["components"])
    twice = [[0] * m for _ in range(m)]
    for c in doc["crossings"]:
        a, b = comp[c["over"]], comp[c["under_in"]]
        twice[a][b] += c["sign"]
        twice[b][a] += c["sign"]
    for i in range(m):
        for j in range(m):
            if i != j and twice[i][j] % 2:
                raise ValueError("odd crossing sum between components %d and %d" % (i, j))
    out = [[twice[i][j] // 2 for j in range(m)] for i in range(m)]
    if framings is not None:
        if len(framings) != m:
            raise ValueError("expected %d framings, got %d" % (m, len(framings)))
        for i, f in enumerate(framings):
            out[i][i] = f
    return out


def determinant(rows):
    """Exact determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    total = 0
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * x * determinant(minor)
    return total


def invariant_factors(matrix):
    """Cokernel invariants in first-homology form: factors > 1, then a 0 per free rank."""
    n = len(matrix)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, determinant([[matrix[r][c] for c in cols] for r in rows]))
        if g == 0:
            break
        divisors.append(g)
    rank = len(divisors) - 1
    factors = [divisors[k] // divisors[k - 1] for k in range(1, rank + 1)]
    return [f for f in factors if f > 1] + [0] * (n - rank)


def expected_homology(text, framings=None):
    return invariant_factors(linking_matrix(text, framings))


def profile_mismatches(profile_dict, pinned):
    """Entries of a profile that differ from the pinned values, as strings."""
    bad = []
    if profile_dict["homology"] != pinned["homology"]:
        bad.append("homology %r != %r" % (profile_dict["homology"], pinned["homology"]))
    for name, (total, surjective) in sorted(pinned["hom_counts"].items()):
        got = profile_dict["hom_counts"].get(name)
        if got != {"total": total, "surjective": surjective}:
            bad.append("hom_count %s %r != %r" % (name, got, [total, surjective]))
    for k, (classes, total) in sorted(pinned["low_index"].items()):
        got = profile_dict["low_index"].get(k)
        if got != {"classes": classes, "total": total}:
            bad.append("low_index %s %r != %r" % (k, got, [classes, total]))
    return bad


def budget_flagged(profile_dict):
    entries = list(profile_dict["hom_counts"].values()) + list(profile_dict["low_index"].values())
    return any(e.get("budget_exceeded") for e in entries)


def decisive_entries(verdict_dict):
    """(decisive, computed) profile entries of a verdict, over both sides.

    Entries are taken in comparison order: homology, hom counts in catalog
    order, then low-index counts by index.  An entry is decisive when it lies
    at or before the witnessing entry; without a witness all are.
    """
    left = verdict_dict["left"]
    order = (["homology"]
             + ["hom_count:%s" % g for g in left["config"]["catalog"]]
             + ["low_index:%s" % k for k in sorted(left["low_index"], key=int)])
    computed = 2 * len(order)
    witness = verdict_dict.get("witness")
    if not witness:
        return computed, computed
    return 2 * (order.index(witness["invariant"]) + 1), computed
