"""Finite ray sets, orthogonality graphs, and exact {0,1}-colorability.

Everything in this module is exact: ray coordinates are integers (optionally
integer pairs ``a + b*sqrt(2)``, which several classic sets need), so
orthogonality is decided by integer arithmetic with no floating-point
tolerance anywhere.

A ray set is colorable when its rays admit an assignment of {0,1} values with
at most one 1 among any orthogonal pair and exactly one 1 in every listed
basis.  The classic finite non-colorable sets (Cabello's 18 rays, Peres' 33
and 24 rays, Kernaghan's 20-ray sub-configuration) ship as bundled JSON data.

Ray sets and graphs are immutable once constructed; independent solver runs
may proceed concurrently, a single search is sequential.
"""

from __future__ import annotations

import json
import os
import re
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from pathlib import Path


class DuplicateRay(ValueError):
    """Two rays in a set are scalar multiples of each other."""


class RaySetFormatError(ValueError):
    """A ray-set document violates the JSON schema or its invariants."""


# An exact coordinate entry a + b*sqrt(2), stored as the integer pair (a, b).
Entry = tuple[int, int]


def _ent_mul(u: Entry, v: Entry) -> Entry:
    a, b = u
    c, d = v
    return (a * c + 2 * b * d, a * d + b * c)


def _normal_form(ray: tuple[Entry, ...]) -> tuple[Entry, ...]:
    """The ray's identity: two nonzero rays are parallel iff their normal
    forms are equal.

    Scaling by the conjugate a - b*sqrt(2) of the first nonzero entry
    a + b*sqrt(2) makes that entry the integer a^2 - 2b^2, nonzero since
    sqrt(2) is irrational.  If s = l*r for l in Q(sqrt2), the scaled rays
    then differ by the rational l * conj(l), which dividing out the content
    and fixing the sign of the first nonzero entry removes.
    """
    a, b = next(e for e in ray if e != (0, 0))
    if b:
        ray = tuple(_ent_mul(e, (a, -b)) for e in ray)
        a = a * a - 2 * b * b
    g = gcd(*(c for e in ray for c in e))
    if a < 0:
        g = -g
    return tuple((x // g, y // g) for x, y in ray)


# A rational coordinate string: an optional sign, digits, optional "/digits".
# Nothing else (no exponent, decimal point, space or underscore), so the
# cost of a string is bounded by its length.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_entry(raw) -> tuple[Entry, int]:
    """One coordinate as an exact entry and a positive denominator: an int,
    an integral float, a 'p/q' string, or an [a, b] pair."""
    if isinstance(raw, bool):
        raise RaySetFormatError(f"coordinate entry {raw!r} is not a number")
    if isinstance(raw, int):
        return (raw, 0), 1
    if isinstance(raw, float):
        if not raw.is_integer():
            raise RaySetFormatError(
                f"non-integral float coordinate {raw!r}; use an exact 'p/q' string"
            )
        return (int(raw), 0), 1
    if isinstance(raw, str):
        match = _RATIONAL.fullmatch(raw)
        if match is None:
            raise RaySetFormatError(f"bad rational coordinate {raw!r}; expected 'p' or 'p/q'")
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError as exc:  # more digits than int() converts
            raise RaySetFormatError(f"bad rational coordinate: {exc}") from exc
        if den == 0:
            raise RaySetFormatError(f"bad rational coordinate {raw!r}: zero denominator")
        g = gcd(num, den)
        return (num // g, 0), den // g
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        a, b = raw
        if isinstance(a, int) and isinstance(b, int) and not isinstance(a, bool) and not isinstance(b, bool):
            return (a, b), 1
        raise RaySetFormatError(f"sqrt2 pair {raw!r} must hold two integers")
    raise RaySetFormatError(f"unsupported coordinate entry {raw!r}")


def _parse_ray(raw_vector, dimension: int) -> tuple[Entry, ...]:
    if not isinstance(raw_vector, list):
        raise RaySetFormatError(f"vector {raw_vector!r} must be a list of coordinates")
    if len(raw_vector) != dimension:
        raise RaySetFormatError(
            f"vector {raw_vector!r} has length {len(raw_vector)}, expected {dimension}"
        )
    parsed = [_parse_entry(e) for e in raw_vector]
    # Clear rational denominators for the whole ray (rays are projective).
    denom = lcm(*(den for _, den in parsed))
    if denom == 1:
        ray = tuple(e for e, _ in parsed)
    else:
        ray = tuple((a * (denom // den), b * (denom // den)) for (a, b), den in parsed)
    if all(e == (0, 0) for e in ray):
        raise RaySetFormatError(f"zero vector {raw_vector!r} is not a ray")
    return ray


class RaySet:
    """A named finite set of rays with integer (or integer + integer*sqrt2)
    coordinates, identified up to scale: each ray is stored in its normal
    form, and no two may be parallel.

    ``bases`` optionally carries designated bases (index tuples) supplied by
    the source data, each checked to be a d-clique of the graph; when
    absent, callers enumerate d-cliques instead.
    """

    def __init__(self, name: str, dimension: int, rays: tuple[tuple[Entry, ...], ...],
                 provenance: str = "", bases: tuple[tuple[int, ...], ...] | None = None):
        if dimension < 2:
            raise RaySetFormatError("dimension must be at least 2")
        if not rays:
            raise RaySetFormatError("ray set is empty")
        for ray in rays:
            if len(ray) != dimension:
                raise RaySetFormatError("ray length does not match dimension")
            if all(e == (0, 0) for e in ray):
                raise RaySetFormatError("the zero vector is not a ray")
        self.name = name
        self.dimension = dimension
        self.rays = rays = tuple(map(_normal_form, rays))
        self.provenance = provenance
        self.bases = bases
        # Each later ray pairs with the first of its class; the least such
        # pair is the least clashing pair.
        first: dict[tuple[Entry, ...], int] = {}
        clash = min(((first[ray], j) for j, ray in enumerate(rays)
                     if first.setdefault(ray, j) != j), default=None)
        if clash is not None:
            raise DuplicateRay(
                f"rays {clash[0]} and {clash[1]} of {self.name!r} are scalar multiples"
            )
        if self.bases is not None:
            for basis in self.bases:
                if len(set(basis)) != self.dimension:
                    raise RaySetFormatError(f"basis {basis!r} must hold {self.dimension} distinct rays")
                for idx in basis:
                    if not 0 <= idx < len(self.rays):
                        raise RaySetFormatError(f"basis index {idx} out of range")
            validate_supplied_bases(self.graph, self.dimension, self.bases)

    def __len__(self) -> int:
        return len(self.rays)

    @cached_property
    def graph(self) -> OrthoGraph:
        """The orthogonality graph, built on first use and then kept."""
        return build_ortho_graph(self)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class OrthoGraph:
    """Orthogonality graph: one vertex per ray, an edge per exactly
    orthogonal pair.  ``adjacency[i]`` is a bitset whose bit j is set iff
    rays i and j are orthogonal."""

    def __init__(self, vertex_count: int, adjacency: tuple[int, ...]):
        self.vertex_count = vertex_count
        self.adjacency = adjacency

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


# Maps a lane's top byte, 0x00 or 0x80 after the zero test, to a binary digit.
_FLAG_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


def build_ortho_graph(ray_set: RaySet) -> OrthoGraph:
    """Edges are decided by exact integer arithmetic; no tolerance exists.

    Each row of the graph is one big-int computation.  Coordinate column k
    is packed into one int with a lane of ``8 * m`` bits per ray:
    ``A_k = sum_j a_jk << 8*m*j`` for the integer parts and ``B_k`` likewise
    for the sqrt(2) parts.  Then ``bias + sum_k (a_ik * A_k + 2 * b_ik * B_k)``
    holds, in lane j, ``bias`` plus the rational part of ray i . ray j, and
    ``bias + sum_k (a_ik * B_k + b_ik * A_k)`` the sqrt(2) part.  Both parts
    lie in [-bound, bound], and m is chosen so that ``2 * bound + 1`` fits
    below a lane's top bit; with ``bias = bound`` in every lane each lane
    holds its own value in [0, 2 * bound], so the packed sum is exact.  The
    lanes are then tested for zero all at once, with no carry between lanes
    (Lamport, CACM 18(8), 1975), and their flags are gathered into the
    row's bitset.
    """
    rays = ray_set.rays
    n = len(rays)
    ma = max(abs(a) for ray in rays for a, _ in ray)
    mb = max(abs(b) for ray in rays for _, b in ray)
    bound = ray_set.dimension * (ma * ma + 2 * mb * mb + 2 * ma * mb)
    m = (2 * bound + 1).bit_length() // 8 + 1  # lane bytes, top bit kept clear
    unit = int.from_bytes(b"\x01".ljust(m, b"\x00") * n, "little")  # 1 in every lane
    high = unit << 8 * m - 1  # the top bit of every lane
    low = high - unit  # every other bit
    bias = bound * unit

    def pack(column, offset):
        # Shifted by ``offset`` into [0, 2 * offset], every entry fits its lane.
        lanes = b"".join((v + offset).to_bytes(m, "little") for v in column)
        return int.from_bytes(lanes, "little") - offset * unit

    def zero_lanes(x):
        x ^= bias
        return ~(((x & low) + low) | x) & high

    dims = range(ray_set.dimension)
    cols_a = [pack([ray[k][0] for ray in rays], ma) for k in dims]
    cols_b = [pack([ray[k][1] for ray in rays], mb) for k in dims] if mb else []
    adjacency = []
    for ray in rays:
        x = bias
        for (a, _), col in zip(ray, cols_a):
            if a:
                x += a * col
        if mb:
            y = bias
            for (a, b), col_a, col_b in zip(ray, cols_a, cols_b):
                if b:
                    x += 2 * b * col_b
                    y += b * col_a
                if a:
                    y += a * col_b
            zero = zero_lanes(x) & zero_lanes(y)
        else:
            zero = zero_lanes(x)
        flags = zero.to_bytes(n * m, "little")[m - 1::m]
        # Base 2 is exempt from int()'s limit on digits.
        adjacency.append(int(flags[::-1].translate(_FLAG_DIGITS), 2))
    return OrthoGraph(n, tuple(adjacency))


def enumerate_bases(graph: OrthoGraph, dimension: int) -> tuple[tuple[int, ...], ...]:
    """All d-cliques of the orthogonality graph, in lexicographic order.

    A d-clique of mutually orthogonal rays in d dimensions is automatically a
    basis, so no extra geometric check is needed.
    """
    adjacency = graph.adjacency
    bases: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: int, left: int, need: int):
        # ``candidates``: the ``left`` common neighbours of ``clique`` above
        # its last member, of which ``need`` more must join it.
        if need == 1:
            bases.extend(clique + (v,) for v in _bits(candidates))
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


def validate_supplied_bases(graph: OrthoGraph, dimension: int,
                            supplied: tuple[tuple[int, ...], ...]) -> None:
    """Supplied bases must be d-cliques: every pair in each is an edge."""
    adjacency = graph.adjacency
    for basis in supplied:
        if not all(adjacency[i] >> j & 1 for i, j in combinations(basis, 2)):
            raise RaySetFormatError(
                f"supplied basis {basis!r} is not a mutually orthogonal {dimension}-tuple"
            )


class ColoringResult:
    """Outcome of the {0,1}-coloring search, equal to another with the same
    four fields.

    ``assignment`` maps ray index -> value for colorable sets and is always
    re-verified against both constraint families before being returned.
    """

    def __init__(self, colorable: bool, assignment: tuple[int, ...] | None,
                 nodes_explored: int, backtracks: int):
        self.colorable = colorable
        self.assignment = assignment
        self.nodes_explored = nodes_explored
        self.backtracks = backtracks

    def _fields(self) -> tuple:
        return (self.colorable, self.assignment, self.nodes_explored, self.backtracks)

    def __eq__(self, other):
        if type(other) is not ColoringResult:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return (f"ColoringResult(colorable={self.colorable!r}, assignment={self.assignment!r}, "
                f"nodes_explored={self.nodes_explored!r}, backtracks={self.backtracks!r})")

    def to_json_dict(self) -> dict:
        return {
            "colorable": self.colorable,
            "assignment": list(self.assignment) if self.assignment is not None else None,
            "nodes_explored": self.nodes_explored,
            "backtracks": self.backtracks,
        }


def verify_assignment(graph: OrthoGraph, bases, assignment) -> bool:
    """Independent checker: at most one 1 per edge, exactly one 1 per basis.

    Used to gate every Colorable result; deliberately has no shared logic
    with the backtracking solver.
    """
    if len(assignment) != graph.vertex_count:
        return False
    if any(v not in (0, 1) for v in assignment):
        return False
    ones = [i for i, v in enumerate(assignment) if v == 1]
    ones_mask = sum(1 << i for i in ones)
    if any(graph.adjacency[i] & ones_mask for i in ones):
        return False
    for basis in bases:
        if sum(assignment[i] for i in basis) != 1:
            return False
    return True


def find_valuation(graph: OrthoGraph, bases) -> ColoringResult:
    """Backtracking search with constraint propagation.

    Branches on the first basis with no 1 and the fewest unassigned members
    (any ordering is correct; this one is fast).  Assigning a ray 1 zeroes
    its neighbors and the other members of its bases; a basis whose members
    are all 0 is a dead end; a basis with one live member left forces it to
    1.  These rules reach the same fixpoint in any order, so propagation
    visits only the bases holding a changed ray, through per-basis counts
    of members valued 1 and of unassigned members.  Each search node keeps
    a copy of the values and counts and puts it back after a failed branch,
    so propagation may stop at the first conflict.
    """
    n = graph.vertex_count
    bases = [tuple(b) for b in bases]
    holding: list[list[int]] = [[] for _ in range(n)]  # ray -> indices of its bases
    excluded = list(graph.adjacency)
    for k, basis in enumerate(bases):
        members = 0
        for i in basis:
            holding[i].append(k)
            members |= 1 << i
        for i in basis:
            excluded[i] |= members
    # ray -> the rays a 1 there forces to 0: its neighbours and basis-mates,
    # listed the first time the ray is valued 1
    exclusive: list[list[int] | None] = [None] * n
    values: list[int] = [-1] * n
    # Per basis, one count: its unassigned members plus ``full`` times its
    # members valued 1.  Below ``full`` a basis holds no 1; at ``2 * full``
    # or above it holds two.
    full = max(map(len, bases), default=0) + 1
    score = [len(b) for b in bases]
    stats = {"nodes": 0, "backtracks": 0}

    def propagate(pending: list[tuple[int, int]]) -> bool:
        while pending:
            ray, val = pending.pop()
            if values[ray] != -1:
                if values[ray] != val:
                    return False
                continue
            values[ray] = val
            if val == 1:
                for k in holding[ray]:
                    c = score[k] + full - 1
                    score[k] = c
                    if c >= 2 * full:
                        return False
                others = exclusive[ray]
                if others is None:
                    others = exclusive[ray] = _bits(excluded[ray] & ~(1 << ray))
                for other in others:
                    if values[other] == 1:
                        return False
                    if values[other] == -1:
                        pending.append((other, 0))
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
                        return False
        return True

    def choose_basis() -> tuple[int, ...] | None:
        best = min(score, default=full)
        return bases[score.index(best)] if best < full else None

    def search() -> bool:
        stats["nodes"] += 1
        basis = choose_basis()
        if basis is None:
            return True
        saved_values, saved_score = values[:], score[:]
        for candidate in basis:
            if values[candidate] != -1:
                continue
            if propagate([(candidate, 1)]) and search():
                return True
            values[:] = saved_values
            score[:] = saved_score
            stats["backtracks"] += 1
        return False

    # Bases too small to leave a choice: an empty one is dead, a single
    # member is forced.
    ok = all(bases) and propagate([(b[0], 1) for b in bases if len(b) == 1])
    if ok and search():
        assignment = tuple(v if v != -1 else 0 for v in values)
        if not verify_assignment(graph, bases, assignment):
            raise AssertionError("solver produced an assignment that fails verification")
        return ColoringResult(True, assignment, stats["nodes"], stats["backtracks"])
    return ColoringResult(False, None, stats["nodes"], stats["backtracks"])


# --- JSON ingestion and bundled data -------------------------------------

DATA_DIR_ENV = "KS_DATA_DIR"


def bundled_data_dir() -> Path:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def available_sets() -> list[str]:
    return sorted(p.stem for p in bundled_data_dir().glob("*.json"))


def ray_set_from_dict(doc: dict) -> RaySet:
    """Build a RaySet from the documented JSON schema (see README)."""
    if not isinstance(doc, dict):
        raise RaySetFormatError("ray-set document must be a JSON object")
    schema = doc.get("schema", 1)
    if type(schema) is not int or schema != 1:  # a bool is no schema number
        raise RaySetFormatError(f"unsupported schema {schema!r}; expected 1")
    for key in ("name", "dimension", "vectors"):
        if key not in doc:
            raise RaySetFormatError(f"missing required field {key!r}")
    name = doc["name"]
    dimension = doc["dimension"]
    if not isinstance(name, str) or not isinstance(dimension, int) or isinstance(dimension, bool):
        raise RaySetFormatError("'name' must be a string and 'dimension' an integer")
    if not isinstance(doc.get("provenance", ""), str):
        raise RaySetFormatError("'provenance' must be a string")
    vectors = doc["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise RaySetFormatError("'vectors' must be a nonempty list")
    rays = tuple(_parse_ray(v, dimension) for v in vectors)
    bases = None
    if doc.get("bases") is not None:
        raw_bases = doc["bases"]
        if not isinstance(raw_bases, list) or not all(isinstance(b, list) for b in raw_bases):
            raise RaySetFormatError("'bases' must be a list of index lists")
        bases = tuple(tuple(b) for b in raw_bases)
        for basis in bases:
            if len(basis) != dimension or any(
                not isinstance(i, int) or isinstance(i, bool) for i in basis
            ):
                raise RaySetFormatError(f"basis {basis!r} must be {dimension} integer indices")
    return RaySet(
        name=name,
        dimension=dimension,
        rays=rays,
        provenance=doc.get("provenance", ""),
        bases=bases,
    )


def load_ray_set(path) -> RaySet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # ValueError covers bad JSON, bad UTF-8 and an integer literal longer
        # than int() converts; RecursionError, arrays or objects nested too deep.
        except (ValueError, RecursionError) as exc:
            raise RaySetFormatError(f"invalid JSON in {path}: {exc}") from exc
    return ray_set_from_dict(doc)


def load_bundled(name: str) -> RaySet:
    path = bundled_data_dir() / f"{name}.json"
    if not path.exists():
        raise RaySetFormatError(
            f"no bundled ray set {name!r}; available: {', '.join(available_sets())}"
        )
    return load_ray_set(path)
