"""Inputs of the width-scan workload and the invariants every output must match.

Each item is a base body under a seeded unimodular change of coordinates
and of lattice basis.  Lattice width, the number of width-attaining
directions and hollowness do not change under such a map, so every item is
checked exactly whatever the seed.

The seed draws signed permutations of the coordinates and of the basis
vectors, and an integer shift of the lattice origin; the fixed shear of each
item sets the size of the coefficient box that `lattice_width` sweeps.
Signed permutations only relabel that box, so an item's cost does not
depend on the seed and the latency percentiles stay comparable between
seeds.  Item costs are heavy-tailed on purpose: most items sweep small
boxes, a few sweep thousands of candidates, so the median follows the common
case and the 95th percentile follows the large boxes.
"""

from __future__ import annotations

import random

# Invariants pinned from the unmodified package: width as `format_scalar`
# prints it, number of minimizing directions (one per +/- pair), hollowness.
# The needles are conv{0, (N, N, N+1), e1, e2} over the integer lattice.
EXPECTED = {
    "delta": ("2 + 1*sqrt2", 7, True),
    "needle1": ("1", 3, True),
    "needle2": ("1", 1, True),
    "needle3": ("2", 9, False),
    "needle4": ("2", 6, False),
    "needle5": ("2", 4, False),
    "needle6": ("2", 3, False),
}

SHEARS = {
    "I": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "s1": ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    "s2": ((1, 1, 1), (0, 1, 1), (0, 0, 1)),
    "s3": ((1, 2, 0), (0, 1, 1), (0, 0, 1)),
    "s4": ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
    "s5": ((1, 1, 0), (1, 2, 1), (0, 1, 2)),
}

# (base body, shear); per-item cost on a 2-core Xeon VM, width plus hollowness:
# small 40-200 ms, medium 0.2-0.4 s, large 1.0-1.9 s.
ITEMS = (
    # small boxes: the common case
    ("delta", "I"), ("delta", "s1"),
    ("needle1", "I"), ("needle1", "s1"), ("needle1", "s2"), ("needle1", "s3"),
    ("needle2", "I"), ("needle2", "s2"),
    ("needle3", "s1"), ("needle3", "s2"),
    ("needle4", "s1"), ("needle4", "s2"),
    ("needle5", "s1"), ("needle5", "s2"),
    ("needle6", "s1"), ("needle6", "s2"),
    # medium boxes
    ("delta", "s2"), ("delta", "s4"), ("needle2", "s1"), ("needle3", "I"),
    # large boxes: skewed rebasings and long needles
    ("needle5", "I"), ("needle1", "s5"), ("needle6", "I"), ("delta", "s5"),
)


def _signed_permutation(rng: random.Random) -> list[list[int]]:
    perm = list(range(3))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(3)]
            for i in range(3)]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def item_spec(seed: int) -> list[dict]:
    """The seeded transforms of `ITEMS`, as plain integers (no widthcert)."""
    rng = random.Random(seed)
    specs = []
    for base, shear in ITEMS:
        specs.append({
            "base": base,
            "shear": shear,
            "coords": _signed_permutation(rng),
            "basis": _matmul(_signed_permutation(rng), [list(r) for r in SHEARS[shear]]),
            "shift": [rng.randint(-3, 3) for _ in range(3)],
        })
    return specs


def _base_body(base: str, delta_model):
    from widthcert.widthlab import AffineLattice, Polytope

    if base == "delta":
        return delta_model.polytope, delta_model.lattice
    n = int(base[len("needle"):])
    return (Polytope([(0, 0, 0), (n, n, n + 1), (1, 0, 0), (0, 1, 0)]),
            AffineLattice.standard())


def build_items(seed: int, delta_model) -> list[tuple[str, object, object]]:
    """(base name, polytope, lattice) for each item, in `ITEMS` order."""
    from widthcert.exactnum import QS2_ZERO
    from widthcert.widthlab import AffineLattice, Polytope

    def apply(m, v):
        return tuple(sum((v[j] * m[i][j] for j in range(3)), QS2_ZERO) for i in range(3))

    out = []
    for spec in item_spec(seed):
        K, L = _base_body(spec["base"], delta_model)
        q, u = spec["coords"], spec["basis"]
        basis = [tuple(sum((L.basis[j][r] * u[i][j] for j in range(3)), QS2_ZERO)
                       for r in range(3)) for i in range(3)]
        origin = tuple(L.origin[r] + sum((L.basis[j][r] * spec["shift"][j] for j in range(3)),
                                         QS2_ZERO) for r in range(3))
        polytope = Polytope([apply(q, v) for v in K.vertices])
        lattice = AffineLattice(apply(q, origin), [apply(q, b) for b in basis])
        out.append((spec["base"], polytope, lattice))
    return out


def check_item(base: str, result: dict) -> str | None:
    """None when `result` matches the base body's invariants, else why not."""
    width, count, hollow = EXPECTED[base]
    got = (result.get("width"), result.get("minimizers"), result.get("hollow"))
    if got != (width, count, hollow):
        return f"{base}: expected {(width, count, hollow)}, got {got}"
    return None
