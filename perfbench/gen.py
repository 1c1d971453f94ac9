"""Seeded inputs for the benchmark, built from rules written here.

Nothing is downloaded and nothing is read from the program under test:

- E8: the 240 roots of E8 scaled by 2, one ray per +-pair.  That is
  (+-2, +-2, 0^6) in every coordinate placement (56 rays) plus (+-1)^8 with
  an even number of minus signs (64 rays): 120 rays.
- {0,+-1}^d: every nonzero vector with entries in {0, 1, -1} whose first
  nonzero entry is +1: (3^d - 1) / 2 rays.
- a relabeling permutes the rays, flips the sign of each ray and applies one
  signed permutation of the coordinates (an isometry, so orthogonality and
  verdicts are kept);
- a planted instance keeps every ray, picks a random maximal set of mutually
  non-orthogonal rays and supplies a fixed number of the bases holding
  exactly one of them, so that set, valued 1, colors the instance.  The
  fixed number keeps the cost of one instance close to the next;
- oracle specs cover the four built-in families with seeded parameters and
  rotation seeds.

Every function takes its randomness from a ``random.Random`` the caller
seeds, so one workload seed gives the same inputs every time.
"""

from __future__ import annotations

import itertools
import random


def e8_rays() -> list[tuple[int, ...]]:
    rays = []
    for i, j in itertools.combinations(range(8), 2):
        for s in (2, -2):
            v = [0] * 8
            v[i], v[j] = 2, s
            rays.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=7):
        if signs.count(-1) % 2 == 0:
            rays.append((1,) + signs)
    return rays


def ternary_rays(d: int) -> list[tuple[int, ...]]:
    rays = []
    for v in itertools.product((0, 1, -1), repeat=d):
        lead = next((x for x in v if x != 0), 0)
        if lead == 1:
            rays.append(v)
    return rays


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def adjacency_bits(rays) -> list[int]:
    """Orthogonality graph as one int bitset of neighbours per ray."""
    n = len(rays)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dot(rays[i], rays[j]) == 0:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def edge_count(adj: list[int]) -> int:
    return sum(a.bit_count() for a in adj) // 2


def cliques(adj: list[int], size: int) -> list[tuple[int, ...]]:
    """Every ``size``-clique of the bitset graph, each as sorted indices."""
    out: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], cand: int) -> None:
        if len(clique) == size:
            out.append(clique)
            return
        while cand:
            if len(clique) + cand.bit_count() < size:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            extend(clique + (v,), cand & adj[v])

    extend((), (1 << len(adj)) - 1)
    return out


def relabel(rays, rng: random.Random) -> list[tuple[int, ...]]:
    d = len(rays[0])
    perm = list(range(d))
    rng.shuffle(perm)
    coord_signs = [rng.choice((1, -1)) for _ in range(d)]
    out = []
    for v in rays:
        s = rng.choice((1, -1))
        out.append(tuple(s * coord_signs[k] * v[perm[k]] for k in range(d)))
    rng.shuffle(out)
    return out


def planted(rays, adj, bases, rng: random.Random, keep: int):
    """(chosen, kept_bases): a random maximal independent set of the
    orthogonality graph and ``keep`` of the bases holding exactly one of its
    rays, in enumeration order.  A set with fewer such bases is drawn again."""
    while True:
        order = list(range(len(rays)))
        rng.shuffle(order)
        chosen = 0
        for v in order:
            if not adj[v] & chosen:
                chosen |= 1 << v
        kept = [b for b in bases if sum((chosen >> i) & 1 for i in b) == 1]
        if len(kept) >= keep:
            picked = set(rng.sample(range(len(kept)), keep))
            return chosen, [b for k, b in enumerate(kept) if k in picked]


def ray_set_doc(name: str, rays, bases=None) -> dict:
    doc = {"schema": 1, "name": name, "dimension": len(rays[0]),
           "vectors": [list(v) for v in rays], "provenance": "perfbench generator"}
    if bases is not None:
        doc["bases"] = [list(b) for b in bases]
    return doc


# --- oracle specs -------------------------------------------------------------

ORACLE_KINDS = ("four_segment", "step_meridian", "polar_cap", "valuation2d_rotated")


def oracle_spec(kind: str, rng: random.Random) -> dict:
    """One seeded spec of ``kind`` with a rotation seed.

    Parameters stay away from the ends of their ranges, where the analytic
    areas the grid check uses would need a wider lattice tolerance.
    """
    if kind == "four_segment":
        spec = {"kind": kind, "pole_value": 1}
    elif kind == "step_meridian":
        spec = {"kind": kind, "theta_star": round(rng.uniform(0.2, 1.35), 6)}
    elif kind == "polar_cap":
        spec = {"kind": kind, "cap_latitude": round(rng.uniform(0.25, 1.3), 6)}
    else:
        cuts = sorted(k / 1000 for k in rng.sample(range(50, 1521), 4))
        spec = {"kind": kind, "intervals": [cuts[0:2], cuts[2:4]]}
    spec["rotation_seed"] = rng.randrange(1_000_000)
    return spec
