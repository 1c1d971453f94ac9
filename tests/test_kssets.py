"""Exact ray-set machinery and the classic non-colorability results.

The production solver is cross-checked by two independent test-local
oracles: full 2^n enumeration for small sets and a plain recursive
enumerator with no propagation for the larger ones.  It must also match,
node for node, a test-local copy of the original solver that rescans every
basis, and the check-set reports are pinned by golden files.
"""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from kswitness import cli
from kswitness.kssets import (
    DuplicateRay,
    RaySet,
    RaySetFormatError,
    build_ortho_graph,
    bundled_data_dir,
    enumerate_bases,
    exact_dot,
    find_valuation,
    is_orthogonal,
    load_bundled,
    load_ray_set,
    ray_set_from_dict,
    verify_assignment,
)


def ints(*vals):
    return tuple((v, 0) for v in vals)


def neighbors(graph, i):
    """Decoded bitset row: the rays orthogonal to ray ``i``."""
    return [j for j in range(graph.vertex_count) if graph.adjacency[i] >> j & 1]


def brute_force_assignments(graph, bases):
    """Independent oracle: enumerate all 2^n assignments (n <= 20)."""
    n = graph.vertex_count
    found = []
    for mask in range(1 << n):
        assignment = [(mask >> i) & 1 for i in range(n)]
        if verify_assignment(graph, bases, assignment):
            found.append(tuple(assignment))
    return found


def recursive_enumerator(graph, bases):
    """Independent oracle: plain depth-first assignment, ray by ray, with no
    propagation beyond constraint rejection."""
    n = graph.vertex_count
    values = [-1] * n

    def consistent(idx):
        for j in neighbors(graph, idx):
            if values[j] == 1 and values[idx] == 1:
                return False
        for basis in bases:
            ones = opens = 0
            for i in basis:
                if values[i] == 1:
                    ones += 1
                elif values[i] == -1:
                    opens += 1
            if ones > 1 or (opens == 0 and ones != 1):
                return False
        return True

    def walk(idx):
        if idx == n:
            return list(values)
        for bit in (0, 1):
            values[idx] = bit
            if consistent(idx):
                got = walk(idx + 1)
                if got is not None:
                    return got
            values[idx] = -1
        return None

    return walk(0)


class TestExactArithmetic:
    def test_sqrt2_orthogonality(self):
        # (0, 1, sqrt2) . (0, sqrt2, -1) = sqrt2 - sqrt2 = 0
        r = ((0, 0), (1, 0), (0, 1))
        s = ((0, 0), (0, 1), (-1, 0))
        assert exact_dot(r, s) == (0, 0)
        assert is_orthogonal(r, s)

    def test_sqrt2_non_orthogonality(self):
        # (0, 1, sqrt2) . (1, sqrt2, 0) = sqrt2: zero rational part only
        r = ((0, 0), (1, 0), (0, 1))
        s = ((1, 0), (0, 1), (0, 0))
        assert exact_dot(r, s) == (0, 1)
        assert not is_orthogonal(r, s)

    def test_duplicate_plain_multiple(self):
        with pytest.raises(DuplicateRay):
            RaySet("dup", 3, (ints(1, 0, 0), ints(2, 0, 0), ints(0, 1, 0)))

    def test_duplicate_sqrt2_multiple(self):
        # (1,0,0) and (sqrt2,0,0) are the same ray
        with pytest.raises(DuplicateRay):
            RaySet("dup", 3, (ints(1, 0, 0), ((0, 1), (0, 0), (0, 0))))

    def test_duplicate_unit_multiple(self):
        # (1+sqrt2) e1 is e1 scaled by a unit of Z[sqrt2]: no integer content
        # divides out, so the two rays keep different canonical forms.
        with pytest.raises(DuplicateRay, match="rays 0 and 1"):
            ray_set_from_dict({
                "name": "dup",
                "dimension": 3,
                "vectors": [[1, 0, 0], [[1, 1], 0, 0], [0, 1, 0]],
            })


class TestGraphAndBases:
    def test_axes_make_a_triangle(self):
        rs = RaySet("axes", 3, (ints(1, 0, 0), ints(0, 1, 0), ints(0, 0, 1)))
        g = build_ortho_graph(rs)
        assert g.edge_count == 3
        assert enumerate_bases(g, 3) == ((0, 1, 2),)

    def test_single_edge(self):
        rs = RaySet("pair", 3, (ints(1, 1, 0), ints(1, -1, 0)))
        g = build_ortho_graph(rs)
        assert g.edges == frozenset({(0, 1)})

    def test_cabello_edge_count_against_brute_force(self):
        rs = load_bundled("cabello18")
        g = build_ortho_graph(rs)
        # independent recomputation over all pairs
        expected = sum(
            1
            for i, j in itertools.combinations(range(len(rs.rays)), 2)
            if sum(a[0] * b[0] for a, b in zip(rs.rays[i], rs.rays[j])) == 0
        )
        assert g.edge_count == expected == 63

    def test_cabello_bases_enumerated_exhaustively(self):
        rs = load_bundled("cabello18")
        g = build_ortho_graph(rs)
        enumerated = enumerate_bases(g, 4)
        # independent 4-clique check over all C(18, 4) subsets
        cliques = [
            combo
            for combo in itertools.combinations(range(18), 4)
            if all(tuple(sorted(p)) in g.edges for p in itertools.combinations(combo, 2))
        ]
        assert sorted(enumerated) == sorted(cliques)
        assert len(enumerated) == 9
        counts = {}
        for basis in enumerated:
            for i in basis:
                counts[i] = counts.get(i, 0) + 1
        assert all(c == 2 for c in counts.values())

    def test_disjoint_triads_give_two_bases(self):
        rs = load_bundled("disjoint_bases3")
        g = build_ortho_graph(rs)
        assert len(enumerate_bases(g, 3)) == 2


class TestVerifyAssignment:
    def test_all_zeros_fails_on_any_basis(self):
        rs = load_bundled("single_basis3")
        g = build_ortho_graph(rs)
        bases = enumerate_bases(g, 3)
        assert not verify_assignment(g, bases, [0, 0, 0])

    def test_single_one_passes(self):
        rs = load_bundled("single_basis3")
        g = build_ortho_graph(rs)
        bases = enumerate_bases(g, 3)
        assert verify_assignment(g, bases, [1, 0, 0])

    def test_two_ones_in_a_basis_fail(self):
        rs = load_bundled("single_basis3")
        g = build_ortho_graph(rs)
        bases = enumerate_bases(g, 3)
        assert not verify_assignment(g, bases, [1, 1, 0])


class TestSolver:
    def test_single_basis_has_exactly_three_colorings(self):
        rs = load_bundled("single_basis3")
        g = build_ortho_graph(rs)
        bases = enumerate_bases(g, 3)
        result = find_valuation(g, bases)
        assert result.colorable
        assert verify_assignment(g, bases, result.assignment)
        assert len(brute_force_assignments(g, bases)) == 3

    def test_disjoint_bases_colorable(self):
        rs = load_bundled("disjoint_bases3")
        g = build_ortho_graph(rs)
        bases = enumerate_bases(g, 3)
        result = find_valuation(g, bases)
        assert result.colorable
        assert verify_assignment(g, bases, result.assignment)

    def test_cabello18_uncolorable(self):
        rs = load_bundled("cabello18")
        g = build_ortho_graph(rs)
        assert not find_valuation(g, rs.bases).colorable

    def test_peres33_uncolorable_and_enumerator_agrees(self):
        rs = load_bundled("peres33")
        g = build_ortho_graph(rs)
        bases = enumerate_bases(g, 3)
        assert len(bases) == 16
        assert not find_valuation(g, bases).colorable
        assert recursive_enumerator(g, bases) is None

    def test_peres24_uncolorable(self):
        rs = load_bundled("peres24")
        g = build_ortho_graph(rs)
        bases = enumerate_bases(g, 4)
        assert len(bases) == 24
        assert not find_valuation(g, bases).colorable

    def test_kernaghan20_uncolorable_with_supplied_bases(self):
        rs = load_bundled("kernaghan20")
        assert rs.bases is not None and len(rs.bases) == 11
        g = build_ortho_graph(rs)
        assert not find_valuation(g, rs.bases).colorable
        assert recursive_enumerator(g, rs.bases) is None
        # parity structure: odd basis count, every ray in an even number
        counts = {}
        for basis in rs.bases:
            for i in basis:
                counts[i] = counts.get(i, 0) + 1
        assert len(counts) == 20
        assert all(c % 2 == 0 for c in counts.values())

    def test_solver_agrees_with_brute_force_on_random_sets(self):
        rng = np.random.default_rng(55)
        for trial in range(25):
            n = int(rng.integers(3, 9))
            rays = []
            while len(rays) < n:
                cand = tuple((int(c), 0) for c in rng.integers(-2, 3, 3))
                if all(v == (0, 0) for v in cand):
                    continue
                try:
                    RaySet("probe", 3, tuple(rays) + (cand,))
                except (DuplicateRay, RaySetFormatError):
                    continue
                rays.append(cand)
            rs = RaySet(f"random_{trial}", 3, tuple(rays))
            g = build_ortho_graph(rs)
            bases = enumerate_bases(g, 3)
            result = find_valuation(g, bases)
            brute = brute_force_assignments(g, bases)
            assert result.colorable == bool(brute)
            if result.colorable:
                assert tuple(result.assignment) in brute


class TestIngestion:
    def test_rational_entries_cleared(self):
        rs = ray_set_from_dict({
            "name": "halves",
            "dimension": 3,
            "vectors": [["1/2", 0, 0], [0, "2/3", "1/3"], [0, 1, -2]],
        })
        assert rs.rays[0] == ints(1, 0, 0)
        assert rs.rays[1] == ints(0, 2, 1)

    def test_non_integral_float_rejected(self):
        with pytest.raises(RaySetFormatError):
            ray_set_from_dict({"name": "x", "dimension": 2, "vectors": [[0.5, 1]]})

    def test_supplied_bases_must_be_cliques(self):
        with pytest.raises(RaySetFormatError):
            ray_set_from_dict({
                "name": "bad",
                "dimension": 3,
                "vectors": [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
                "bases": [[0, 1, 2]],
            })

    def test_supplied_basis_with_one_oblique_pair_rejected(self):
        # Rays 1 and 2 are the only non-orthogonal pair; every order of the
        # basis puts that pair at a different place among its pairs.
        for basis in itertools.permutations(range(3)):
            with pytest.raises(RaySetFormatError, match="not a mutually orthogonal 3-tuple"):
                ray_set_from_dict({
                    "name": "oblique",
                    "dimension": 3,
                    "vectors": [[1, 0, 0], [0, 1, 0], [0, 1, 1]],
                    "bases": [list(basis)],
                })

    def test_missing_fields_rejected(self):
        with pytest.raises(RaySetFormatError):
            ray_set_from_dict({"name": "x", "vectors": [[1, 0]]})

    def test_zero_vector_rejected(self):
        with pytest.raises(RaySetFormatError):
            ray_set_from_dict({"name": "x", "dimension": 2, "vectors": [[0, 0]]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(RaySetFormatError):
            ray_set_from_dict({"name": "x", "dimension": 3, "vectors": [[1, 0]]})

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RaySetFormatError):
            load_ray_set(path)

    def test_data_dir_override(self, tmp_path, monkeypatch):
        doc = {"name": "tiny", "dimension": 2, "vectors": [[1, 0], [0, 1]]}
        (tmp_path / "tiny.json").write_text(json.dumps(doc))
        monkeypatch.setenv("KS_DATA_DIR", str(tmp_path))
        rs = load_bundled("tiny")
        assert rs.name == "tiny"

    def test_provenance_is_carried(self):
        for name in ("cabello18", "peres33", "peres24", "kernaghan20"):
            assert load_bundled(name).provenance


# --- fast paths against brute force -------------------------------------------

def ternary_pool(dimension):
    """The nonzero vectors of {0, +-1}^d: rich in orthogonal pairs and bases."""
    return [tuple((a, 0) for a in v) for v in itertools.product((0, 1, -1), repeat=dimension)
            if any(v)]


def sqrt2_pool(dimension):
    """The ternary pool under (x..., y, z) -> (sqrt2 x..., y + z, y - z).  The
    map scales every inner product by 2, so the pool keeps its bases while
    rays with a sqrt2 part meet rays without."""
    pool = []
    for v in ternary_pool(dimension):
        *head, (y, _), (z, _) = v
        pool.append((*((0, x) for x, _ in head), (y + z, 0), (y - z, 0)))
    return pool


def random_ray_set(rng, dimension, pool, size):
    """Up to ``size`` distinct rays from ``pool``, drawn a random basis at a
    time so that bases occur at this size."""
    rays = []
    for _ in range(4 * size):
        basis = []
        for _ in range(dimension):
            fits = [v for v in pool if all(exact_dot(v, u) == (0, 0) for u in basis)]
            if not fits:
                break
            basis.append(rng.choice(fits))
        for cand in basis:
            if len(rays) == size:
                return RaySet("random", dimension, tuple(rays))
            try:
                RaySet("probe", dimension, tuple(rays) + (cand,))
            except DuplicateRay:
                continue
            rays.append(cand)
    return RaySet("random", dimension, tuple(rays))


def brute_force_colorable(n, edges, bases):
    """Independent 2^n search over bitmask assignments."""
    basis_masks = [sum(1 << i for i in b) for b in bases]
    edge_masks = [(1 << i) | (1 << j) for i, j in edges]
    return any(
        all((m & b).bit_count() == 1 for b in basis_masks)
        and all(m & e != e for e in edge_masks)
        for m in range(1 << n)
    )


def reference_find_valuation(graph, bases):
    """The solver as first written: every propagation pass rescans every
    basis and every branch rescans them all to choose one.  Kept as the
    reference the indexed solver must match node for node."""
    n = graph.vertex_count
    bases = [tuple(b) for b in bases]
    values = [-1] * n
    stats = {"nodes": 0, "backtracks": 0}

    def propagate(assignments, trail):
        queue = list(assignments)
        while queue:
            ray, val = queue.pop()
            if values[ray] != -1:
                if values[ray] != val:
                    return False
                continue
            values[ray] = val
            trail.append(ray)
            if val == 1:
                for other in neighbors(graph, ray):
                    if values[other] == 1:
                        return False
                    if values[other] == -1:
                        queue.append((other, 0))
        changed = True
        while changed:
            changed = False
            for basis in bases:
                ones = sum(1 for i in basis if values[i] == 1)
                if ones > 1:
                    return False
                open_rays = [i for i in basis if values[i] == -1]
                if ones == 1:
                    for i in open_rays:
                        values[i] = 0
                        trail.append(i)
                        changed = True
                elif not open_rays:
                    return False
                elif len(open_rays) == 1:
                    forced = open_rays[0]
                    values[forced] = 1
                    trail.append(forced)
                    changed = True
                    for other in neighbors(graph, forced):
                        if values[other] == 1:
                            return False
                        if values[other] == -1:
                            values[other] = 0
                            trail.append(other)
        return True

    def choose_basis():
        best = best_open = None
        for basis in bases:
            if any(values[i] == 1 for i in basis):
                continue
            open_rays = [i for i in basis if values[i] == -1]
            if best is None or len(open_rays) < len(best_open):
                best, best_open = basis, open_rays
        return best

    def search():
        stats["nodes"] += 1
        basis = choose_basis()
        if basis is None:
            return True
        for candidate in basis:
            if values[candidate] != -1:
                continue
            trail = []
            if propagate([(candidate, 1)], trail) and search():
                return True
            for ray in trail:
                values[ray] = -1
            stats["backtracks"] += 1
        return False

    if propagate([], []) and search():
        assignment = tuple(v if v != -1 else 0 for v in values)
        return (True, assignment, stats["nodes"], stats["backtracks"])
    return (False, None, stats["nodes"], stats["backtracks"])


def as_tuple(result):
    return (result.colorable, result.assignment, result.nodes_explored, result.backtracks)


@pytest.mark.parametrize("dimension", [3, 4])
@pytest.mark.parametrize("pool", [ternary_pool, sqrt2_pool])
def test_fast_paths_match_brute_force(dimension, pool):
    rng = random.Random(f"kssets-differential:{dimension}:{pool.__name__}")
    verdicts = set()
    for _ in range(20):
        rs = random_ray_set(rng, dimension, pool(dimension), rng.randint(6, 14))
        n = len(rs)
        g = build_ortho_graph(rs)
        pairs = {(i, j) for i, j in itertools.combinations(range(n), 2)
                 if exact_dot(rs.rays[i], rs.rays[j]) == (0, 0)}
        assert g.edges == pairs
        assert all((g.adjacency[i] >> j & 1) == ((min(i, j), max(i, j)) in pairs)
                   for i in range(n) for j in range(n))
        cliques = tuple(c for c in itertools.combinations(range(n), dimension)
                        if all(p in pairs for p in itertools.combinations(c, 2)))
        assert enumerate_bases(g, dimension) == cliques
        # Enumerated bases, then arbitrary index tuples as extra constraints,
        # which also make uncolorable instances at this size.
        extra = [tuple(rng.sample(range(n), dimension)) for _ in range(rng.randint(2, 10))]
        for bases in (cliques, cliques + tuple(extra)):
            result = find_valuation(g, bases)
            assert result.colorable == brute_force_colorable(n, pairs, bases)
            assert as_tuple(result) == reference_find_valuation(g, bases)
            verdicts.add(result.colorable)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["cabello18", "kernaghan20", "peres24", "peres33"])
def test_indexed_solver_matches_reference_on_bundled_families(name):
    # The full families are uncolorable; dropping bases gives colorable
    # ones with deeper searches.
    rs = load_bundled(name)
    g = build_ortho_graph(rs)
    bases = rs.bases or enumerate_bases(g, rs.dimension)
    rng = random.Random(f"kssets-reference:{name}")
    families = [bases] + [rng.sample(bases, len(bases) - rng.randint(1, 4)) for _ in range(10)]
    for family in families:
        assert as_tuple(find_valuation(g, family)) == reference_find_valuation(g, family)


# --- golden check-set reports -------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def e8_document():
    """E8: its 240 roots scaled by 2, one ray per +-pair.  (+-2, +-2, 0^6) in
    every placement gives 56 rays and (+-1)^8 with an even number of minus
    signs gives 64."""
    rays = []
    for i, j in itertools.combinations(range(8), 2):
        for second in (2, -2):
            v = [0] * 8
            v[i], v[j] = 2, second
            rays.append(v)
    for signs in itertools.product((1, -1), repeat=7):
        if signs.count(-1) % 2 == 0:
            rays.append([1, *signs])
    return {"name": "e8", "dimension": 8, "vectors": rays}


def check_set_report(path, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["check-set", str(path), "--out", str(out)])
    return code, out.read_bytes()


@pytest.mark.parametrize("name", ["cabello18", "disjoint_bases3", "kernaghan20",
                                  "peres24", "peres33", "single_basis3"])
def test_bundled_report_matches_golden(name, tmp_path):
    _, report = check_set_report(bundled_data_dir() / f"{name}.json", tmp_path)
    assert report == (GOLDEN / f"{name}.json").read_bytes()


def test_e8_report_matches_golden(tmp_path):
    path = tmp_path / "e8.json"
    path.write_text(json.dumps(e8_document()))
    code, report = check_set_report(path, tmp_path)
    assert report == (GOLDEN / "e8.json").read_bytes()
    doc = json.loads(report)
    assert code == 10
    assert doc["rays"] == 120
    assert doc["graph"] == {"vertices": 120, "edges": 3780}
    assert doc["bases"] == {"count": 2025, "source": "enumerated"}
    assert doc["coloring"] == {"colorable": False, "assignment": None,
                               "nodes_explored": 41, "backtracks": 104}
