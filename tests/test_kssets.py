"""Exact ray-set machinery and the classic non-colorability results.

The production solver is cross-checked by two independent test-local
oracles: full 2^n enumeration for small sets and a plain recursive
enumerator with no propagation for the larger ones.  It must also match,
node for node, two test-local copies of earlier solvers: the original one
that rescans every basis, and the indexed one that undoes its counts from a
trail.  Basis enumeration is checked against brute-force cliques and a
test-local copy of the earlier ascending walk, and its degree-order
renumbering against the graph rebuilt from the reordered rays.  The
packed-lane graph construction is checked bit for bit against a pairwise
exact inner product, the duplicate-ray check against pairwise 2x2 minors,
and the check-set reports are pinned by golden files.
"""

import itertools
import json
import math
import os
import random
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kswitness import cli, kssets
from kswitness.kssets import (
    DuplicateRay,
    OrthoGraph,
    RaySet,
    RaySetFormatError,
    _degree_order,
    _normal_form,
    _parse_entry,
    _parse_ray,
    available_sets,
    build_ortho_graph,
    bundled_data_dir,
    enumerate_bases,
    find_valuation,
    load_bundled,
    load_ray_set,
    ray_set_from_dict,
    validate_supplied_bases,
    verify_assignment,
)


def ints(*vals):
    return tuple((v, 0) for v in vals)


def exact_dot(r, s):
    """Exact inner product of two rays over Z[sqrt(2)], one pair of rays at
    a time: the reference for the packed-lane graph construction."""
    a = b = 0
    for (p, q), (u, v) in zip(r, s):
        a += p * u + 2 * q * v
        b += p * v + q * u
    return (a, b)


def z2_mul(u, v):
    return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def are_parallel(r, s):
    """Exact scalar-multiple test via vanishing 2x2 minors, one pair of rays
    at a time: the reference for RaySet's duplicate check."""
    return all(z2_mul(r[i], s[j]) == z2_mul(r[j], s[i])
               for i, j in itertools.combinations(range(len(r)), 2))


def is_orthogonal(r, s):
    """True iff the real inner product is exactly zero (sqrt(2) is irrational,
    so a + b*sqrt(2) = 0 forces a = b = 0)."""
    return exact_dot(r, s) == (0, 0)


def neighbors(graph, i):
    """Decoded bitset row: the rays orthogonal to ray ``i``."""
    return [j for j in range(graph.vertex_count) if graph.adjacency[i] >> j & 1]


def edge_pairs(graph):
    """Decoded bitset rows: the edges as ``(i, j)`` pairs with ``i < j``."""
    return {(i, j) for i in range(graph.vertex_count) for j in neighbors(graph, i) if i < j}


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
        # (1+sqrt2) e1 is e1 scaled by a unit of Z[sqrt2], which no integer
        # content divides out; scaling by the lead's conjugate does.
        with pytest.raises(DuplicateRay, match="rays 0 and 1"):
            ray_set_from_dict({
                "name": "dup",
                "dimension": 3,
                "vectors": [[1, 0, 0], [[1, 1], 0, 0], [0, 1, 0]],
            })

    def test_least_clashing_pair_is_reported(self):
        # Classes {0, 5} and {1, 2}: the pair found first in index order,
        # (1, 2), is not the least.
        rays = (ints(1, 0, 0), ints(0, 1, 0), ((0, 0), (-1, -1), (0, 0)), ints(0, 0, 1),
                ints(1, 1, 0), ints(2, 0, 0))
        with pytest.raises(DuplicateRay, match="rays 0 and 5 of"):
            RaySet("classes", 3, rays)

    def test_duplicates_match_pairwise_minors(self):
        # Random Z[sqrt2] rays, some repeated under a multiplier: signs,
        # rationals, sqrt2 multiples and units of Z[sqrt2].
        multipliers = [(1, 0), (2, 0), (0, 1), (0, 3), (1, 1), (1, -1), (3, 2), (3, -2)]
        rng = random.Random("kssets-normal-form")
        verdicts = set()
        for _ in range(400):
            dimension = rng.randint(2, 4)
            rays = []
            for _ in range(rng.randint(1, 10)):
                if rays and rng.random() < 0.3:
                    a, b = rng.choice(multipliers)
                    sign = rng.choice((1, -1))
                    ray = tuple(z2_mul((sign * a, sign * b), e) for e in rng.choice(rays))
                else:
                    ray = tuple((rng.randint(-3, 3), rng.randint(-2, 2) if rng.random() < 0.4 else 0)
                                if rng.random() < 0.8 else (0, 0) for _ in range(dimension))
                if any(e != (0, 0) for e in ray):
                    rays.append(ray)
            if not rays:
                continue
            rng.shuffle(rays)
            clash = min(((i, j) for i, j in itertools.combinations(range(len(rays)), 2)
                         if are_parallel(rays[i], rays[j])), default=None)
            verdicts.add(clash is None)
            if clash is None:
                rs = RaySet("random", dimension, tuple(rays))
                assert all(are_parallel(r, s) for r, s in zip(rs.rays, rays))
            else:
                with pytest.raises(DuplicateRay, match=f"rays {clash[0]} and {clash[1]} of"):
                    RaySet("random", dimension, tuple(rays))
        assert verdicts == {True, False}


class TestGraphAndBases:
    def test_axes_make_a_triangle(self):
        rs = RaySet("axes", 3, (ints(1, 0, 0), ints(0, 1, 0), ints(0, 0, 1)))
        g = build_ortho_graph(rs)
        assert g.edge_count == 3
        assert enumerate_bases(g, 3) == ((0, 1, 2),)

    def test_single_edge(self):
        rs = RaySet("pair", 3, (ints(1, 1, 0), ints(1, -1, 0)))
        g = build_ortho_graph(rs)
        assert edge_pairs(g) == {(0, 1)}

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
        edges = edge_pairs(g)
        cliques = [
            combo
            for combo in itertools.combinations(range(18), 4)
            if all(p in edges for p in itertools.combinations(combo, 2))
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

    @pytest.mark.parametrize("assignment", [[1, 0], [2, 0, 0]], ids=["short", "not-a-bit"])
    def test_malformed_assignment_fails(self, assignment):
        rs = load_bundled("single_basis3")
        g = build_ortho_graph(rs)
        assert not verify_assignment(g, enumerate_bases(g, 3), assignment)


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

    def test_signed_and_unreduced_rational_strings(self):
        rs = ray_set_from_dict({
            "name": "signs",
            "dimension": 3,
            "vectors": [["-2/4", "+1", "3"], ["0", "-0/7", [1, 1]]],
        })
        # (1 + sqrt2) e3 is e3 up to a unit, so it is stored as e3.
        assert rs.rays == (ints(1, -2, -6), ints(0, 0, 1))

    @pytest.mark.parametrize("raw", ["1/0", "1/-2", " 1", "1_000", "0x10", "", "/2", "1/"])
    def test_malformed_rational_strings_rejected(self, raw):
        with pytest.raises(RaySetFormatError, match="bad rational coordinate"):
            ray_set_from_dict({"name": "x", "dimension": 2, "vectors": [[raw, 1]]})

    def test_parse_ray_matches_per_entry_path(self):
        # Plain-int vectors take their own pass; every vector must come out
        # as the per-entry path makes it, or fail with its message.
        pool = {
            "int": [0, 1, -1, 2, -3, 7, 10**30, -10**30],
            "bool": [True, False],
            "float": [0.0, -0.0, 2.0, -5.0, 1e20, 0.5, float("inf"), float("nan")],
            "str": ["0", "1/2", "-3/4", "+5", "-0/7", "6/4", "1/0", "x", "10" * 20],
            "pair": [[1, 1], [0, -2], [10**30, 3], [True, 1], [1.0, 2], [1, 2, 3]],
        }
        rng = random.Random("kssets-parse-ray")
        outcomes = set()
        for _ in range(600):
            kinds = rng.choice([["int"], ["int"], ["bool"], ["float"], ["str"], ["pair"],
                                ["int", "bool"], ["int", "float"], ["int", "str"],
                                ["int", "pair"], list(pool)])
            vector = [rng.choice(pool[rng.choice(kinds)]) for _ in range(rng.randint(0, 6))]
            try:
                want = per_entry_parse_ray(vector)
            except RaySetFormatError as exc:
                with pytest.raises(RaySetFormatError) as got:
                    _parse_ray(vector)
                assert str(got.value) == str(exc)
                outcomes.add("error")
            else:
                got = _parse_ray(vector)
                assert got == want and all(type(e) is tuple for e in got)
                outcomes.add("plain" if all(type(e) is int for e in vector) else "per-entry")
        assert outcomes == {"plain", "per-entry", "error"}

    def test_normal_form_matches_dividing_formula(self):
        # Seeded integer and Z[sqrt2] rays, scaled by a content and a sign,
        # some with leading zeros: primitive ones with a positive lead take
        # the early return, the rest the division.
        rng = random.Random("kssets-normal-form-formula")
        paths = set()
        for _ in range(600):
            sqrt2 = rng.random() < 0.4
            ray = [(rng.randint(-4, 4), rng.randint(-3, 3) if sqrt2 else 0)
                   for _ in range(rng.randint(2, 6))]
            lead = rng.randrange(len(ray))
            ray[:lead] = [(0, 0)] * lead
            ray[lead] = (rng.choice((1, -1, 2, -3)), ray[lead][1])
            scale = rng.choice((1, 1, -1, 2, -2, 6, 10**20))
            ray = tuple((scale * a, scale * b) for a, b in ray)
            want = reference_normal_form(ray)
            got = _normal_form(ray)
            assert got == want and type(got) is tuple
            paths.add(got == ray)
        assert paths == {True, False}

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
        # A repeated ray is no edge of the graph, so no clique member.
        graph = ray_set_from_dict({"name": "axes", "dimension": 3,
                                   "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}).graph
        with pytest.raises(RaySetFormatError, match="not a mutually orthogonal 3-tuple"):
            validate_supplied_bases(graph, 3, ((0, 0, 1),))

    @pytest.mark.parametrize("bases,message", [
        ([[0, 1]], "basis (0, 1) must hold 3 distinct rays"),
        ([[0, 1, 2, 0]], "basis (0, 1, 2, 0) must hold 3 distinct rays"),
        ([[0, 1, 2], [0, 3, 1]], "basis index 3 out of range"),
        ([[0, -1, 2]], "basis index -1 out of range"),
        # A repeated ray is not orthogonal to itself.
        ([[0, 0, 1]], "supplied basis (0, 0, 1) is not a mutually orthogonal 3-tuple"),
        ([[0, 1, 2], [0, 1, True]], "basis (0, 1, True) must hold integer indices"),
        ([[0, 1, 2.0]], "basis (0, 1, 2.0) must hold integer indices"),
    ], ids=["short", "long", "past-the-end", "negative", "repeated", "bool", "float"])
    def test_supplied_basis_errors_name_the_basis(self, bases, message):
        with pytest.raises(RaySetFormatError) as info:
            ray_set_from_dict({"name": "axes", "dimension": 3, "bases": bases,
                               "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        assert str(info.value) == message

    def test_supplied_bases_checked_when_built_in_code(self):
        with pytest.raises(RaySetFormatError, match="not a mutually orthogonal 3-tuple"):
            RaySet("oblique", 3, (ints(1, 0, 0), ints(0, 1, 0), ints(1, 1, 0)),
                   bases=((0, 1, 2),))

    def test_supplied_basis_with_one_oblique_pair_rejected(self):
        # Rays 1 and 2 are the only non-orthogonal pair; every order of the
        # basis puts that pair at a different place among its pairs.  In the
        # 4-D set, rays 2 and 3 are, the last pair of the basis; the first
        # basis is a valid one, so the second is the one rejected.
        cases = [([[1, 0, 0], [0, 1, 0], [0, 1, 1]], [list(basis)])
                 for basis in itertools.permutations(range(3))]
        cases.append(([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
                      [[0, 1, 2, 4], [0, 1, 2, 3]]))
        for vectors, bases in cases:
            d = len(vectors[0])
            with pytest.raises(RaySetFormatError, match=re.escape(
                    f"supplied basis {tuple(bases[-1])!r} is not a mutually orthogonal {d}-tuple")):
                ray_set_from_dict({"name": "oblique", "dimension": d, "vectors": vectors,
                                   "bases": bases})

    def test_missing_fields_rejected(self):
        with pytest.raises(RaySetFormatError):
            ray_set_from_dict({"name": "x", "vectors": [[1, 0]]})

    def test_zero_vector_rejected(self):
        with pytest.raises(RaySetFormatError, match="ray 1 is the zero vector"):
            ray_set_from_dict({"name": "x", "dimension": 2, "vectors": [[1, 0], [0, 0]]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(RaySetFormatError, match="ray 1 has length 2, expected 3"):
            ray_set_from_dict({"name": "x", "dimension": 3, "vectors": [[1, 0, 0], [1, 0]]})

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(RaySetFormatError):
            load_ray_set(path)

    def test_provenance_is_carried(self):
        for name in ("cabello18", "peres33", "peres24", "kernaghan20"):
            assert load_bundled(name).provenance

    def test_load_bundled_reads_no_file_outside_the_data_directory(self, tmp_path):
        # A valid ray-set file elsewhere, named by an absolute path or by a
        # path that climbs out of the data directory, or a bundled set
        # reached through another.
        (tmp_path / "outside.json").write_text(json.dumps(
            {"name": "outside", "dimension": 2, "vectors": [[1, 0], [0, 1]]}))
        outside = tmp_path / "outside"
        for name in (str(outside), os.path.relpath(outside, bundled_data_dir()),
                     "cabello18/../peres33", "", "peres33.json"):
            with pytest.raises(RaySetFormatError, match=re.escape(
                    f"no bundled ray set {name!r}; available: {', '.join(available_sets())}")):
                load_bundled(name)


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


def trail_find_valuation(graph, bases):
    """The indexed solver as it stood before snapshot backtracking: it
    expands every ray's exclusion list up front, records each assignment on
    a trail, updates every count before any return, and undoes the counts
    from the trail.  Kept as the reference the snapshot solver must match
    node for node."""
    n = graph.vertex_count
    bases = [tuple(b) for b in bases]
    holding = [[] for _ in range(n)]
    excluded = list(graph.adjacency)
    for k, basis in enumerate(bases):
        members = 0
        for i in basis:
            holding[i].append(k)
            members |= 1 << i
        for i in basis:
            excluded[i] |= members
    exclusive = [[j for j in range(n) if j != i and mask >> j & 1]
                 for i, mask in enumerate(excluded)]
    values = [-1] * n
    full = max(map(len, bases), default=0) + 1
    score = [len(b) for b in bases]
    stats = {"nodes": 0, "backtracks": 0}

    def propagate(pending, trail):
        while pending:
            ray, val = pending.pop()
            if values[ray] != -1:
                if values[ray] != val:
                    return False
                continue
            values[ray] = val
            trail.append(ray)
            dead = False
            if val == 1:
                for k in holding[ray]:
                    c = score[k] + full - 1
                    score[k] = c
                    if c >= 2 * full:
                        dead = True
            else:
                for k in holding[ray]:
                    c = score[k] - 1
                    score[k] = c
                    if c == 1:
                        for i in bases[k]:
                            if values[i] == -1:
                                pending.append((i, 1))
                                break
                    elif c == 0:
                        dead = True
            if dead:
                return False
            if val == 1:
                for other in exclusive[ray]:
                    if values[other] == 1:
                        return False
                    if values[other] == -1:
                        pending.append((other, 0))
        return True

    def undo(trail):
        for ray in trail:
            step = full - 1 if values[ray] == 1 else -1
            values[ray] = -1
            for k in holding[ray]:
                score[k] -= step

    def search():
        stats["nodes"] += 1
        best = min(score, default=full)
        if best >= full:
            return True
        for candidate in bases[score.index(best)]:
            if values[candidate] != -1:
                continue
            trail = []
            if propagate([(candidate, 1)], trail) and search():
                return True
            undo(trail)
            stats["backtracks"] += 1
        return False

    ok = all(bases) and propagate([(b[0], 1) for b in bases if len(b) == 1], [])
    if ok and search():
        assignment = tuple(v if v != -1 else 0 for v in values)
        return (True, assignment, stats["nodes"], stats["backtracks"])
    return (False, None, stats["nodes"], stats["backtracks"])


def per_entry_parse_ray(raw_vector):
    """The ray parser as it stood before its plain-int pass: every entry
    through ``_parse_entry``.  The reference for vectors of any entry type."""
    if not isinstance(raw_vector, list):
        raise RaySetFormatError(f"vector {raw_vector!r} must be a list of coordinates")
    parsed = [_parse_entry(e) for e in raw_vector]
    denom = math.lcm(*(den for _, den in parsed))
    if denom == 1:
        return tuple(e for e, _ in parsed)
    return tuple((a * (denom // den), b * (denom // den)) for (a, b), den in parsed)


def reference_normal_form(ray):
    """The normal form as it stood before its early return: the content is
    always divided out."""
    a, b = next(e for e in ray if e != (0, 0))
    if b:
        ray = tuple((x * a - 2 * y * b, y * a - x * b) for x, y in ray)
        a = a * a - 2 * b * b
    g = math.gcd(*(c for e in ray for c in e))
    if a < 0:
        g = -g
    return tuple((x // g, y // g) for x, y in ray)


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
            assert as_tuple(result) == trail_find_valuation(g, bases)
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
        result = as_tuple(find_valuation(g, family))
        assert result == reference_find_valuation(g, family)
        assert result == trail_find_valuation(g, family)


@pytest.mark.parametrize("family", ["e8", "ternary5"])
def test_snapshot_solver_matches_trail_solver_on_large_families(family):
    # Too many bases for the rescanning reference; the trail solver is the
    # reference here.  Dropping bases gives colorable families.
    rs = e8_ray_set() if family == "e8" else RaySet("ternary5", 5, tuple(ternary_rays(5)))
    g = build_ortho_graph(rs)
    bases = enumerate_bases(g, rs.dimension)
    rng = random.Random(f"kssets-trail:{family}")
    families = [bases] + [rng.sample(bases, rng.randint(4, 40)) for _ in range(8)]
    verdicts = set()
    for family in families:
        result = as_tuple(find_valuation(g, family))
        assert result == trail_find_valuation(g, family)
        verdicts.add(result[0])
    assert verdicts == {True, False}


def planted(rng, graph, bases, keep):
    """A random maximal set of mutually non-orthogonal rays, and ``keep``
    of the bases holding exactly one of them, in their order: that set,
    valued 1, colors those bases."""
    chosen = []
    for v in rng.sample(range(graph.vertex_count), graph.vertex_count):
        if not any(graph.adjacency[v] >> c & 1 for c in chosen):
            chosen.append(v)
    held = [b for b in bases if len(set(b) & set(chosen)) == 1]
    picked = set(rng.sample(range(len(held)), min(keep, len(held))))
    return chosen, [b for k, b in enumerate(held) if k in picked]


@pytest.mark.parametrize("kind", ["relabel-e8", "relabel-t6", "planted-e8", "planted-t6"])
def test_packed_solver_matches_trail_solver_on_scale_kinds(kind):
    # E8 and {0,+-1}^6 relabeled (a seeded signed coordinate permutation,
    # ray signs and a shuffled ray order), and planted sub-families of each:
    # both verdicts, on both the enumerated and the supplied basis path.
    style, family = kind.split("-")
    rays = e8_ray_set().rays if family == "e8" else ternary_rays(6)
    rng = random.Random(f"kssets-scale:{kind}")
    for _ in range(2):
        if style == "relabel":
            rs = RaySet(family, len(rays[0]), tuple(relabeled(rng, list(rays))))
            g = build_ortho_graph(rs)
            bases = enumerate_bases(g, rs.dimension)
        else:
            g = build_ortho_graph(RaySet(family, len(rays[0]), tuple(rays)))
            _, bases = planted(rng, g, enumerate_bases(g, len(rays[0])),
                               {"e8": 900, "t6": 360}[family])
        result = as_tuple(find_valuation(g, bases))
        assert result == trail_find_valuation(g, bases)
        assert result[0] == (style == "planted")


def chain_family(rng, size, colorable):
    """An edgeless graph, a wide basis of ``size`` members and pair bases
    ``(x, w)``, each ``w`` a member of the wide basis and each ``x`` in no
    other basis.  The first pair comes first, the wide basis second.  The
    search branches on the pairs in order and values each ``x`` 1, zeroing
    its ``w``, so the wide lane reads one less at each node, down from
    ``size``.  Uncolorable families end in three pairs that close an odd
    cycle, which fails only once every pair is valued, so the search then
    backtracks through each pair."""
    wide = rng.sample(range(size), size)
    pairs = [(size + i, w) for i, w in enumerate(wide[:rng.randint(size // 2, size - 2)])]
    bases = [pairs[0], tuple(wide), *pairs[1:]]
    n = size + len(pairs)
    if not colorable:
        bases += [(n, n + 1), (n + 1, n + 2), (n + 2, n)]
        n += 3
    return OrthoGraph(n, (0,) * n), bases


@pytest.mark.parametrize("size", [10, 11, 64, 200, 256, 300])
def test_packed_solver_matches_trail_solver_on_wide_bases(size):
    # A lane holds up to full * (full - 1), full being one more than the
    # largest basis: one byte takes bases of up to 10 members, 11 and 64
    # need two bytes and 200 up need four.  From 256 on, lane values pass
    # 255, so the bytes of a lane value can also occur across a lane
    # boundary, before the first lane that holds it: at 256 the root's wide
    # lanes read 256, whose low byte 0 ends a zero pattern begun in the
    # lane before, and the branch pick must skip that hit.  Each family is a planted sample
    # of the {0,+-1}^6 bases plus wide bases of random rays: in odd trials
    # each holds one planted ray, so the family stays colorable.
    g = build_ortho_graph(RaySet("ternary6", 6, tuple(ternary_rays(6))))
    family = enumerate_bases(g, 6)
    rng = random.Random(f"kssets-wide:{size}")
    verdicts = set()
    for trial in range(8):
        chosen, bases = planted(rng, g, family, rng.randint(20, 300))
        others = sorted(set(range(g.vertex_count)) - set(chosen))
        for _ in range(rng.randint(1, 3)):
            if trial % 2:
                wide = [rng.choice(chosen)] + rng.sample(others, size - 1)
            else:
                wide = rng.sample(range(g.vertex_count), size)
            bases.append(tuple(rng.sample(wide, size)))
        rng.shuffle(bases)
        result = as_tuple(find_valuation(g, bases))
        assert result == trail_find_valuation(g, bases)
        verdicts.add(result[0])
    assert verdicts == {True, False}
    # These families solve in a few nodes, and at 300 no node sees a wide
    # lane at 256.  A chain family walks its wide lane down from size, one
    # value a node.  At 300, where it reads 256, the lane before it reads
    # 301, a pair holding its 1: that lane's upper bytes 1 0 0 and the low
    # byte 0 of 256 read as the value 1 across the boundary, a hit the
    # branch pick must skip.
    for trial in range(4):
        chain_graph, bases = chain_family(rng, size, colorable=trial % 2 == 0)
        result = as_tuple(find_valuation(chain_graph, bases))
        assert result == trail_find_valuation(chain_graph, bases)
        assert result[0] == (trial % 2 == 0)


@pytest.mark.parametrize("bases", [
    pytest.param([], id="no-bases"),
    pytest.param([()], id="empty"),
    pytest.param([(0, 1, 2), ()], id="empty-beside-a-triad"),
    pytest.param([(0,)], id="singleton"),
    pytest.param([(0,), (1,)], id="adjacent-singletons"),
    pytest.param([(2,), (0, 2, 4), (1, 3, 4), (3,)], id="singletons-force-a-chain"),
    pytest.param([(0, 0, 1)], id="repeated-member"),
    pytest.param([(0, 0)], id="repeated-member-only"),
    pytest.param([(0,), (0, 0, 1)], id="singleton-repeated"),
    pytest.param([(1, 1, 1, 2), (0, 2, 3), (2, 3, 4)], id="triple-member"),
])
def test_packed_solver_matches_trail_solver_on_degenerate_bases(bases):
    # Rays 0 and 1 are orthogonal; no other pair is.
    g = OrthoGraph(5, (0b10, 0b01, 0, 0, 0))
    result = find_valuation(g, bases)
    assert as_tuple(result) == trail_find_valuation(g, bases)
    # A member listed twice counts twice, as in verify_assignment.
    assert result.colorable == any(verify_assignment(g, bases, values)
                                   for values in itertools.product((0, 1), repeat=5))


@pytest.mark.parametrize("size", [10, 11, 256])
def test_packed_solver_matches_trail_solver_in_big_endian_order(monkeypatch, size):
    # The lanes follow sys.byteorder, and each count of H goes into its
    # lane's low byte: the last byte of the lane on a big-endian machine.
    # Run in that order, on lanes of one, two and four bytes, with the
    # first pair's lone member also listed twice in a basis of its own,
    # the search must still match the trail solver node for node.
    monkeypatch.setattr(kssets, "sys", SimpleNamespace(byteorder="big"))
    rng = random.Random(f"kssets-big-endian:{size}")
    for trial in range(4):
        graph, bases = chain_family(rng, size, colorable=trial % 2 == 0)
        x, w = bases[0]
        bases.append((x, x, w))
        result = as_tuple(find_valuation(graph, bases))
        assert result == trail_find_valuation(graph, bases)


# --- basis enumeration against brute force and the ascending walk -------------

def reference_enumerate_bases(graph, dimension):
    """The ascending walk that ``enumerate_bases`` replaced: each clique
    grows from its least member up, so the bases come out in lexicographic
    order with no sort.  It needs ``dimension >= 1``."""
    adjacency = graph.adjacency
    bases = []

    def extend(clique, candidates, left, need):
        if need == 1:
            bases.extend(clique + (v,) for v in range(candidates.bit_length())
                         if candidates >> v & 1)
            return
        while left >= need:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            left -= 1
            common = candidates & adjacency[v]
            count = common.bit_count()
            if count >= need - 1:
                extend(clique + (v,), common, count, need - 1)

    extend((), (1 << graph.vertex_count) - 1, graph.vertex_count, dimension)
    return tuple(bases)


def brute_force_cliques(graph, size):
    """Every ``size``-subset of the vertices whose pairs are all edges."""
    return tuple(c for c in itertools.combinations(range(graph.vertex_count), size)
                 if all(graph.adjacency[i] >> j & 1 for i, j in itertools.combinations(c, 2)))


def small_graphs():
    """Hand-made graphs, including the empty one, and small ray sets."""
    graphs = {"empty": OrthoGraph(0, ()), "triangle": OrthoGraph(3, (0b110, 0b101, 0b011)),
              "edgeless": OrthoGraph(3, (0, 0, 0)),
              "k4-minus-edge": OrthoGraph(4, (0b1110, 0b0101, 0b1011, 0b0101))}
    graphs |= {name: load_bundled(name).graph for name in ("disjoint_bases3", "single_basis3")}
    rng = random.Random("kssets-enumerate-small")
    graphs |= {f"random{d}": random_ray_set(rng, d, ternary_pool(d), 9).graph for d in (3, 4, 5)}
    return [pytest.param(graph, id=name) for name, graph in graphs.items()]


@pytest.mark.parametrize("graph", small_graphs())
def test_enumerate_bases_matches_combinations_at_every_dimension(graph):
    for dimension in range(graph.vertex_count + 2):
        assert enumerate_bases(graph, dimension) == brute_force_cliques(graph, dimension)
    with pytest.raises(ValueError, match="negative"):
        enumerate_bases(graph, -1)


@pytest.mark.parametrize("family", ["e8", "ternary4", "ternary5", "ternary6"])
def test_enumerate_bases_matches_ascending_walk_on_large_families(family):
    # Each family as generated and relabeled with two seeds: the same
    # bases under new indices, found in another order.
    rays = e8_ray_set().rays if family == "e8" else tuple(ternary_rays(int(family[-1])))
    count = {"e8": 2025, "ternary4": 32, "ternary5": 136, "ternary6": 1408}[family]
    variants = [rays] + [tuple(relabeled(random.Random(f"kssets-enumerate:{family}:{seed}"),
                                         list(rays))) for seed in (1, 2)]
    for rays in variants:
        rs = RaySet(family, len(rays[0]), rays)
        bases = reference_enumerate_bases(rs.graph, rs.dimension)
        assert len(bases) == count
        assert enumerate_bases(rs.graph, rs.dimension) == bases


@pytest.mark.parametrize("name", available_sets())
def test_enumerate_bases_matches_ascending_walk_on_bundled_sets(name):
    rs = load_bundled(name)
    for dimension in range(1, rs.dimension + 2):
        assert enumerate_bases(rs.graph, dimension) == reference_enumerate_bases(
            rs.graph, dimension)


def test_enumerate_bases_matches_brute_force_on_random_ray_sets():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def primitive(v):
        g = math.gcd(*v)
        v = tuple(x // g for x in v)
        return v if next(x for x in v if x) > 0 else tuple(-x for x in v)

    @st.composite
    def ray_sets(draw):
        """Up to 14 rays from {0, +-1, +-2}^d, d = 2..5, one per parallel
        class.  Up to two are planted bases, so that d-cliques occur: the
        unit vectors, each disjoint pair of coordinates (i, j) rotated by
        e_i -> a e_i + b e_j, e_j -> a e_j - b e_i; the rest are random."""
        d = draw(st.integers(2, 5))
        vectors = []
        for _ in range(draw(st.integers(0, 2))):
            basis = [[int(i == k) for i in range(d)] for k in range(d)]
            order = draw(st.permutations(range(d)))
            for i, j in zip(order[::2], order[1::2]):
                a, b = draw(st.sampled_from(((1, 0), (1, 1), (1, 2), (2, 1))))
                basis[i][j], basis[j][i] = b, -b
                basis[i][i] = basis[j][j] = a
            vectors += map(tuple, basis)
        vectors += draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d).filter(any),
                                 min_size=0 if vectors else 1, max_size=14 - len(vectors)))
        rays = dict.fromkeys(map(primitive, vectors))
        return RaySet("random", d, tuple(ints(*v) for v in rays))

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=120, database=None)
    @hypothesis.given(ray_sets())
    def check(rs):
        for dimension in (rs.dimension - 1, rs.dimension, rs.dimension + 1):
            assert enumerate_bases(rs.graph, dimension) == brute_force_cliques(rs.graph, dimension)

    check()


def ray_set_path(tmp_path, name, rays=None):
    """A bundled set's file, or ``rays`` written to a new schema-1 file."""
    if rays is None:
        return bundled_data_dir() / f"{name}.json"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "dimension": len(rays[0]),
                                "vectors": [[[a, b] if b else a for a, b in ray]
                                            for ray in rays]}))
    return path


def degree_order_rays(name):
    """Rays for the sets named ``<family>-relabeled``, shuffled under an
    isometry; None for a bundled set, read as it ships."""
    family, _, relabel = name.partition("-")
    if not relabel:
        return None
    if family.startswith("ternary"):
        rays = ternary_rays(int(family[len("ternary"):]))
    elif family == "e8":
        rays = e8_ray_set().rays
    else:
        rays = load_bundled(family).rays
    return tuple(relabeled(random.Random(f"kssets-degree-order:{family}"), list(rays)))


# Enumerated sets, and whether their walk runs on the graph's own rows: E8
# and peres24 are regular, peres33 lists its rays in degree order already,
# and the rest are out of degree order, so their rows are renumbered.
DEGREE_ORDER_CASES = {"e8-relabeled": True, "peres24": True, "peres33": True,
                      "disjoint_bases3": False, "peres33-relabeled": False,
                      "ternary5-relabeled": False}


@pytest.mark.parametrize("name, same", DEGREE_ORDER_CASES.items(), ids=DEGREE_ORDER_CASES)
def test_check_set_walks_a_copy_only_out_of_degree_order(name, same, monkeypatch, tmp_path):
    from kswitness import kssets

    path = ray_set_path(tmp_path, name, degree_order_rays(name))
    # The ray set check-set loads, the graphs it hands to enumerate_bases,
    # and the rows the walk runs on.
    loaded, walked, renumbered = [], [], []

    def load(source, _load=kssets.load_ray_set):
        loaded.append(_load(source))
        return loaded[-1]

    def walk(graph, dimension, _walk=kssets.enumerate_bases):
        walked.append(graph)
        return _walk(graph, dimension)

    def order(adjacency, _order=kssets._degree_order):
        renumbered.append(_order(adjacency))
        return renumbered[-1]

    monkeypatch.setattr(kssets, "load_ray_set", load)
    monkeypatch.setattr(kssets, "enumerate_bases", walk)
    monkeypatch.setattr(kssets, "_degree_order", order)
    _, report = check_set_report(path, tmp_path)
    assert json.loads(report)["bases"]["source"] == "enumerated"
    [rs], [graph], [(_, rows)] = loaded, walked, renumbered
    assert graph is rs.graph
    assert (rows is rs.graph.adjacency) == same
    degrees = [row.bit_count() for row in rows]
    assert degrees == sorted(degrees, reverse=True)


@pytest.mark.parametrize("name", ["ternary4-relabeled", "ternary5-relabeled",
                                  "ternary6-relabeled", "peres33-relabeled", "disjoint_bases3"])
def test_degree_order_transpose_matches_the_rebuilt_graph(name):
    # Ray sets out of degree order, against their rows rebuilt from the
    # rays in degree order.
    rays = degree_order_rays(name) or load_bundled(name).rays
    rs = RaySet(name, len(rays[0]), rays)
    adjacency = rs.graph.adjacency
    order, rows = _degree_order(adjacency)
    assert sorted(order) == list(range(len(rs))) and order != sorted(order)
    rebuilt = build_ortho_graph(RaySet(name, rs.dimension, tuple(rs.rays[i] for i in order)))
    assert rows == rebuilt.adjacency
    degrees = [row.bit_count() for row in rows]
    assert degrees == sorted(degrees, reverse=True)
    assert degrees == [adjacency[v].bit_count() for v in order]


def test_degree_order_leaves_relabeled_e8_as_built():
    rs = RaySet("e8", 8, degree_order_rays("e8-relabeled"))
    order, rows = _degree_order(rs.graph.adjacency)
    assert order == list(range(120)) and rows is rs.graph.adjacency


def random_symmetric_graph(rng, n, density):
    """A graph on ``n`` vertices with each pair an edge with probability
    ``density``, built from its edges, not from rays."""
    rows = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return OrthoGraph(n, tuple(rows))


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
def test_enumerate_bases_on_random_symmetric_graphs(density):
    rng = random.Random(f"kssets-symmetric:{density}")
    for trial in range(24):
        graph = random_symmetric_graph(rng, rng.randint(0, 40) if trial % 2 else
                                       rng.randint(0, 14), density)
        for dimension in range(2, 6):
            bases = enumerate_bases(graph, dimension)
            assert bases == reference_enumerate_bases(graph, dimension)
            if graph.vertex_count <= 14:
                assert bases == brute_force_cliques(graph, dimension)


def test_check_set_on_relabeled_ternary7(tmp_path):
    # {0,+-1}^7 is Kochen-Specker in d = 7: 1 093 rays, 9 936 bases.
    rays = relabeled(random.Random("kssets-ternary7"), ternary_rays(7))
    code, report = check_set_report(ray_set_path(tmp_path, "ternary7", rays), tmp_path)
    report = json.loads(report)
    assert code == 10 and not report["coloring"]["colorable"]
    assert report["rays"] == 1093
    assert report["bases"] == {"count": 9936, "source": "enumerated"}


# --- packed-lane graphs against pairwise exact inner products ----------------

def reference_rows(rays, rows):
    """Adjacency rows from one exact inner product per pair of rays."""
    return [sum(1 << j for j, s in enumerate(rays) if is_orthogonal(rays[i], s)) for i in rows]


def ternary_rays(dimension):
    """{0,+-1}^d, one ray per +-pair: the first nonzero entry is +1."""
    return [v for v in ternary_pool(dimension) if next(a for a, _ in v if a) == 1]


def e8_ray_set():
    return RaySet("e8", 8, tuple(ints(*v) for v in e8_document()["vectors"]))


def relabeled(rng, rays):
    """The rays shuffled, each scaled by a random sign, under one signed
    permutation of the coordinates: an isometry, so the edges move with the
    rays."""
    d = len(rays[0])
    perm = rng.sample(range(d), d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    out = []
    for ray in rng.sample(rays, len(rays)):
        flip = rng.choice((1, -1))
        out.append(tuple((flip * signs[k] * ray[perm[k]][0], flip * signs[k] * ray[perm[k]][1])
                         for k in range(d)))
    return out


def wide_ray_set(rng, dimension, size, scale, sqrt2):
    """Up to ``size`` rays, half of them orthogonal to an earlier ray by
    construction, so that edges occur.

    A ray orthogonal to u is the sum over pairs j < k of c_jk (u_j e_k -
    u_k e_j), in Z[sqrt2] when ``sqrt2`` is set, with each |c_jk| up to
    ``scale``, so its entries outgrow ``scale``.  Other rays are random with
    entries up to ``scale`` (some zero), have every entry of magnitude
    ``scale`` (inner products near the lane bound), or, with ``sqrt2``, have
    only a sqrt(2) part."""
    def entry():
        a = rng.randint(-scale, scale) if rng.random() < 0.8 else 0
        b = rng.randint(-scale, scale) if sqrt2 and rng.random() < 0.5 else 0
        return (a, b)

    rays = []
    for _ in range(3 * size):
        if len(rays) == size:
            break
        kind = rng.random()
        if rays and kind < 0.5:
            u = rng.choice(rays)
            ray = [(0, 0)] * dimension
            for j, k in itertools.combinations(range(dimension), 2):
                c = entry()
                pj, pk = z2_mul(c, u[j]), z2_mul(c, u[k])
                ray[k] = (ray[k][0] + pj[0], ray[k][1] + pj[1])
                ray[j] = (ray[j][0] - pk[0], ray[j][1] - pk[1])
        elif kind < 0.65:
            ray = [(rng.choice((scale, -scale)), rng.choice((scale, -scale)) if sqrt2 else 0)
                   for _ in range(dimension)]
        elif sqrt2 and kind < 0.8:
            ray = [(0, rng.randint(-scale, scale)) for _ in range(dimension)]
        else:
            ray = [entry() for _ in range(dimension)]
        ray = tuple(ray)
        if any(e != (0, 0) for e in ray) and not any(are_parallel(ray, r) for r in rays):
            rays.append(ray)
    return RaySet("wide", dimension, tuple(rays))


@pytest.mark.parametrize("dimension", range(2, 9))
@pytest.mark.parametrize("sqrt2", [False, True], ids=["integer", "sqrt2"])
def test_packed_lanes_match_pairwise_dot(dimension, sqrt2):
    rng = random.Random(f"kssets-lanes:{dimension}:{sqrt2}")
    edges = 0
    for trial in range(24):
        scale = (1, 3, 2**31, 10**15, 10**30)[trial % 5]
        size = 1 if trial % 8 == 0 else rng.randint(2, 24)
        rs = wide_ray_set(rng, dimension, size, scale, sqrt2)
        g = build_ortho_graph(rs)
        n = len(rs)
        assert g.vertex_count == n
        assert list(g.adjacency) == reference_rows(rs.rays, range(n))
        edges += g.edge_count
    assert edges > 0


def sign_rays(dimension):
    """The 64 rows of the Sylvester-Hadamard matrix of order 64, cut to
    their first ``dimension`` entries, and (1, -1, ..., -1): primitive +-1
    rays with first entry +1, so each is its own normal form.  A ray's
    square is the lane bound; at dimension 64 the rows are a basis."""
    rows = [ints(*((-1) ** (i & j).bit_count() for j in range(dimension))) for i in range(64)]
    return rows + [ints(1, *[-1] * (dimension - 1))]


@pytest.mark.parametrize("rays", [
    pytest.param([ints(5, -7)], id="single-ray"),
    # A normal form's lead is an integer; past it these rays have sqrt(2)
    # parts only.
    pytest.param([((1, 0), (0, 1)), ((2, 0), (0, -1)), ((1, 0), (0, -1))], id="sqrt2-part-only"),
    # 63 * 1^2 = 63, so 2 * bound + 1 = 127 just fits one-byte lanes.
    pytest.param(sign_rays(63), id="one-byte-lanes-full"),
    # 64 * 1^2 = 64 needs two-byte lanes.
    pytest.param(sign_rays(64), id="two-byte-lanes"),
])
def test_packed_lanes_edge_cases(rays):
    rs = RaySet("edge", len(rays[0]), tuple(rays))
    assert rs.rays == tuple(rays)  # already normal forms: the lanes see them as written
    g = build_ortho_graph(rs)
    assert list(g.adjacency) == reference_rows(rays, range(len(rays)))


@pytest.mark.parametrize("family", ["e8", "ternary5"])
def test_packed_lanes_on_relabeled_families(family):
    rays = e8_ray_set().rays if family == "e8" else ternary_rays(5)
    edges = {"e8": 3780, "ternary5": None}[family]
    rng = random.Random(f"kssets-relabel:{family}")
    for _ in range(2):
        rs = RaySet(family, len(rays[0]), tuple(relabeled(rng, list(rays))))
        g = build_ortho_graph(rs)
        assert list(g.adjacency) == reference_rows(rs.rays, range(len(rs)))
        # An isometry keeps the edge count.
        edges = edges or g.edge_count
        assert g.edge_count == edges


def test_packed_lanes_past_the_digit_limit():
    # More rays than int() converts decimal digits, so a row's bitset must
    # never pass through a decimal string.  The rays are primitive with a
    # positive first nonzero entry, hence pairwise non-parallel.
    rays = [ints(*v) for v in itertools.product(range(-11, 12), repeat=3)
            if next((x for x in v if x), 0) > 0 and math.gcd(*v) == 1]
    assert len(rays) > 4300
    g = build_ortho_graph(RaySet("digits", 3, tuple(rays)))
    rng = random.Random("kssets-digit-limit")
    sample = rng.sample(range(len(rays)), 40)
    assert [g.adjacency[i] for i in sample] == reference_rows(rays, sample)
    # Symmetry carries the sampled rows into every other row's bits.
    assert all(g.adjacency[j] >> i & 1 == g.adjacency[i] >> j & 1
               for i in sample for j in range(len(rays)))


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
