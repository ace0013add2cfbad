"""Generate the bundled target-group catalog.

Builds each group from explicit permutation generators, verifies its order and
a few structural facts by brute force, and writes src/linkgroup/data/catalog.json.
Run from the repository root:  python tools/make_catalog.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from linkgroup.permgroups import FiniteGroup, mult


def cycle_perm(degree, *cycles):
    out = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def center_size(elements):
    return sum(1 for z in elements if all(mult(z, g) == mult(g, z) for g in elements))


def is_abelian(elements):
    return all(mult(a, b) == mult(b, a) for a in elements for b in elements)


def psl27_generators():
    # Projective line over the 7-element field: points 0..6 and 7 for infinity.
    # z -> z+1 and z -> -1/z generate the simple group of order 168.
    shift = cycle_perm(8, (0, 1, 2, 3, 4, 5, 6))
    neg_inv = [0] * 8
    for z in range(7):
        if z == 0:
            neg_inv[z] = 7
        else:
            neg_inv[z] = (-pow(z, 5, 7)) % 7  # inverse mod 7 via z^(p-2)
    neg_inv[7] = 0
    return [shift, tuple(neg_inv)]


def binary_icosahedral_generators():
    # 2x2 matrices over the 5-element field acting on the 24 nonzero vectors;
    # the determinant-1 group here is the 120-element double cover of the
    # 60-element alternating group, with a 2-element center.
    vectors = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def action(matrix):
        (a, b), (c, d) = matrix
        assert (a * d - b * c) % 5 == 1
        images = []
        for (x, y) in vectors:
            images.append(index[((a * x + b * y) % 5, (c * x + d * y) % 5)])
        return tuple(images)

    return [action(((1, 1), (0, 1))), action(((0, 4), (1, 0)))]


def build():
    groups = []

    def add(name, degree, generators, order, checks=()):
        # raises CatalogError unless the generators close to exactly `order` elements
        elements = FiniteGroup(name, degree, generators, order).elements()
        for check in checks:
            assert check(elements), name
        groups.append({
            "name": name,
            "degree": degree,
            "order": order,
            "generators": [list(g) for g in generators],
        })

    for n in range(2, 7):
        add("C%d" % n, n, [cycle_perm(n, tuple(range(n)))], n, [is_abelian])
    add("S3", 3, [cycle_perm(3, (0, 1)), cycle_perm(3, (0, 1, 2))], 6,
        [lambda e: not is_abelian(e)])
    add("D4", 4, [cycle_perm(4, (0, 1, 2, 3)), cycle_perm(4, (1, 3))], 8,
        [lambda e: not is_abelian(e), lambda e: center_size(e) == 2])
    add("A4", 4, [cycle_perm(4, (0, 1, 2)), cycle_perm(4, (0, 1), (2, 3))], 12)
    add("A5", 5, [cycle_perm(5, (0, 1, 2)), cycle_perm(5, (0, 1, 2, 3, 4))], 60,
        [lambda e: center_size(e) == 1])
    add("S4", 4, [cycle_perm(4, (0, 1)), cycle_perm(4, (0, 1, 2, 3))], 24)
    add("S5", 5, [cycle_perm(5, (0, 1)), cycle_perm(5, (0, 1, 2, 3, 4))], 120,
        [lambda e: center_size(e) == 1])
    add("PSL(2,7)", 8, psl27_generators(), 168, [lambda e: center_size(e) == 1])
    add("A6", 6, [cycle_perm(6, (0, 1, 2)), cycle_perm(6, (1, 2, 3, 4, 5))], 360,
        [lambda e: center_size(e) == 1])
    add("2I", 24, binary_icosahedral_generators(), 120,
        [lambda e: center_size(e) == 2])

    return {"version": 1, "groups": groups}


def main():
    catalog = build()
    out = os.path.join(os.path.dirname(__file__), "..", "src", "linkgroup", "data", "catalog.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(catalog, f, indent=2)
        f.write("\n")
    print("wrote %s with %d groups" % (out, len(catalog["groups"])))


if __name__ == "__main__":
    main()
