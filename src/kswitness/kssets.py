"""Finite ray sets, orthogonality graphs, and exact {0,1}-colorability.

Everything in this module is exact: ray coordinates are integers (optionally
integer pairs ``a + b*sqrt(2)``, which several classic sets need), so
orthogonality is decided by integer arithmetic with no floating-point
tolerance anywhere.

A ray set is colorable when its rays admit an assignment of {0,1} values with
at most one 1 among any orthogonal pair and exactly one 1 in every listed
basis.  The classic finite non-colorable sets (Cabello's 18 rays, Peres' 33
and 24 rays, Kernaghan's 20-ray sub-configuration) ship as bundled JSON data.

A set with no supplied bases has its bases enumerated as the d-cliques of
its graph, walked in degree order: ``enumerate_bases`` renumbers the rows
by degree, with one bit transpose, when they are not in that order already.

Ray sets and graphs are immutable once constructed; independent solver runs
may proceed concurrently, a single search is sequential.
"""

from __future__ import annotations

import json
import re
import sys
from functools import cached_property
from itertools import chain, compress, repeat
from math import gcd, lcm
from pathlib import Path


class DuplicateRay(ValueError):
    """Two rays in a set are scalar multiples of each other."""


class RaySetFormatError(ValueError):
    """A ray-set document violates the JSON schema or its invariants."""


# An exact coordinate entry a + b*sqrt(2), stored as the integer pair (a, b).
Entry = tuple[int, int]


def _normal_form(ray: tuple[Entry, ...]) -> tuple[Entry, ...]:
    """The ray's identity: two nonzero rays are parallel iff their normal
    forms are equal.

    Scaling by the conjugate a - b*sqrt(2) of the first nonzero entry
    a + b*sqrt(2) makes that entry the integer a^2 - 2b^2, nonzero since
    sqrt(2) is irrational.  If s = l*r for l in Q(sqrt2), the scaled rays
    then differ by the rational l * conj(l), which dividing out the content
    and fixing the sign of the first nonzero entry removes.

    A ray whose content is already 1 and whose first nonzero entry is
    already positive is its own normal form, and is returned as a tuple
    without the division.
    """
    a, b = next(e for e in ray if e != (0, 0))
    if b:
        ray = tuple((x * a - 2 * y * b, y * a - x * b) for x, y in ray)
        a = a * a - 2 * b * b
    g = gcd(*chain.from_iterable(ray))
    if g == 1 and a > 0:
        return tuple(ray)
    if a < 0:
        g = -g
    return tuple((x // g, y // g) for x, y in ray)


# A rational coordinate string: an optional sign, digits, optional "/digits".
# Nothing else (no exponent, decimal point, space or underscore), so the
# cost of a string is bounded by its length.  A pattern string, which ``re``
# compiles on the first string coordinate rather than on every start-up.
_RATIONAL = r"([+-]?[0-9]+)(?:/([0-9]+))?"


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
        match = re.fullmatch(_RATIONAL, raw)
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


def _parse_ray(raw_vector) -> tuple[Entry, ...]:
    """One JSON vector as a ray of exact entries, rational denominators
    cleared.

    A vector of plain ints, the common case, is read in one pass.  Any other
    entry (a bool, a float, a 'p/q' string or an [a, b] pair) sends the
    whole vector through ``_parse_entry``, which checks each entry and
    words each error.
    """
    if not isinstance(raw_vector, list):
        raise RaySetFormatError(f"vector {raw_vector!r} must be a list of coordinates")
    if set(map(type, raw_vector)) == {int}:  # not isinstance: a bool is refused
        return tuple(zip(raw_vector, repeat(0)))
    parsed = [_parse_entry(e) for e in raw_vector]
    # Clear rational denominators for the whole ray (rays are projective).
    denom = lcm(*(den for _, den in parsed))
    if denom == 1:
        return tuple(e for e, _ in parsed)
    return tuple((a * (denom // den), b * (denom // den)) for (a, b), den in parsed)


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
        for i, ray in enumerate(rays):
            if len(ray) != dimension:
                raise RaySetFormatError(f"ray {i} has length {len(ray)}, expected {dimension}")
            if all(e == (0, 0) for e in ray):
                raise RaySetFormatError(f"ray {i} is the zero vector, which is not a ray")
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
            validate_supplied_bases(self.graph, self.dimension, self.bases)

    def __len__(self) -> int:
        return len(self.rays)

    @cached_property
    def graph(self) -> OrthoGraph:
        """The orthogonality graph, built on first use and then kept."""
        return build_ortho_graph(self)


class OrthoGraph:
    """Orthogonality graph: one vertex per ray, an edge per exactly
    orthogonal pair.  ``adjacency[i]`` is a bitset whose bit j is set iff
    rays i and j are orthogonal, so ``adjacency`` is symmetric with no
    self-loops (a nonzero ray is not orthogonal to itself);
    ``enumerate_bases`` relies on both."""

    def __init__(self, vertex_count: int, adjacency: tuple[int, ...]):
        self.vertex_count = vertex_count
        self.adjacency = adjacency

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


# Maps a lane's top byte, 0x00 or 0x80 after the zero test, to a binary digit.
_FLAG_DIGITS = bytes.maketrans(b"\x00\x80", b"01")
_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to ``compress`` selectors


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


def _degree_order(adjacency: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """The vertices by degree, highest first and ties in index order, and
    the rows renumbered so that new vertex i is old vertex ``order[i]``:
    ``adjacency`` itself where that order is the identity.  The rows in the
    new order, as LSB-first bit strings joined end to end, are transposed:
    a symmetric graph's column v, read down, is row v in the new order."""
    n = len(adjacency)
    degree = [row.bit_count() for row in adjacency]
    order = sorted(range(n), key=degree.__getitem__, reverse=True)
    if order == list(range(n)):
        return order, adjacency
    bits = "".join(format(adjacency[v], f"0{n}b")[::-1] for v in order)
    return order, tuple(int(bits[v::n][::-1], 2) for v in order)


def enumerate_bases(graph: OrthoGraph, dimension: int) -> tuple[tuple[int, ...], ...]:
    """All d-cliques of the orthogonality graph, in lexicographic order.

    A d-clique of mutually orthogonal rays in d dimensions is automatically a
    basis, so no extra geometric check is needed.  Each clique grows from
    its largest member down: a step takes the highest candidate v and keeps
    the candidates below v that are v's neighbours (Chiba and Nishizeki,
    SIAM J. Comput. 14, 1985).  With one member missing, each candidate
    left finishes a basis.  The members fill d slots of one list, top down.

    The walk runs on the rows renumbered by degree, highest first, so each
    basis grows from its member of lowest degree and more empty subtrees
    are skipped (the order of kClist: Danisch, Balalau and Sozio, WWW
    2018); each basis is mapped back, its members sorted.  A regular graph,
    such as E8's, is walked as built.  The bases are sorted once, at the end.
    """
    if dimension < 0:
        raise ValueError(f"dimension {dimension} is negative")
    n = graph.vertex_count
    if dimension < 2:
        return ((),) if dimension == 0 else tuple((v,) for v in range(n))
    order, adjacency = _degree_order(graph.adjacency)
    below = [(1 << v) - 1 for v in range(n)]  # the bits under bit v
    bases: list[tuple[int, ...]] = []
    clique = [0] * dimension  # slots ``need`` and up hold the members so far

    def extend(candidates: int, left: int, need: int):
        # ``candidates``: the ``left`` common neighbours of the clique below
        # its least member, of which ``need`` more must join it.
        if need == 1:
            while candidates:
                clique[0] = v = candidates.bit_length() - 1
                candidates &= below[v]
                bases.append(tuple(clique))
            return
        need -= 1
        while left > need:
            v = candidates.bit_length() - 1
            candidates &= below[v]
            left -= 1
            common = candidates & adjacency[v]
            count = common.bit_count()
            if count >= need:
                clique[need] = v
                extend(common, count, need)

    extend((1 << n) - 1, n, dimension)
    if adjacency is not graph.adjacency:
        bases = [tuple(sorted(map(order.__getitem__, basis))) for basis in bases]
    bases.sort()
    return tuple(bases)


def validate_supplied_bases(graph: OrthoGraph, dimension: int,
                            supplied: tuple[tuple[int, ...], ...]) -> None:
    """Supplied bases must be d-cliques: d indices in range, distinct (the
    members' mask has d bits), every pair an edge (the mask lies inside each
    member's closed row, its row with its own bit added, so one AND checks
    all pairs)."""
    closed = [row | 1 << i for i, row in enumerate(graph.adjacency)]
    for basis in supplied:
        if len(basis) != dimension:
            raise RaySetFormatError(f"basis {basis!r} must hold {dimension} distinct rays")
        mask, common = 0, -1
        try:
            for i in basis:
                # The row first: an index past either end raises IndexError
                # before it can reach a shift, and a small negative one
                # raises ValueError from the shift.
                common &= closed[i]
                mask |= 1 << i
        except (IndexError, ValueError):
            lo, hi = min(basis), max(basis)
            raise RaySetFormatError(f"basis index {lo if lo < 0 else hi} out of range") from None
        if mask.bit_count() != dimension or common & mask != mask:
            raise RaySetFormatError(
                f"supplied basis {basis!r} is not a mutually orthogonal {dimension}-tuple"
            )


class ColoringResult:
    """Outcome of the {0,1}-coloring search.

    ``assignment`` maps ray index -> value for colorable sets and is always
    re-verified against both constraint families before being returned.
    """

    def __init__(self, colorable: bool, assignment: tuple[int, ...] | None,
                 nodes_explored: int, backtracks: int):
        self.colorable = colorable
        self.assignment = assignment
        self.nodes_explored = nodes_explored
        self.backtracks = backtracks

    def to_json_dict(self) -> dict:
        assignment = None if self.assignment is None else list(self.assignment)
        return {**vars(self), "assignment": assignment}  # the fields, in their order


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
    (any ordering is correct; this one is fast).  A ray valued 1 zeroes its
    neighbours and basis-mates; a basis whose members are all 0 is a dead
    end, and one with a single live member forces it to 1.  These rules
    reach the same fixpoint in any order, so each round of propagation
    applies them to every basis at once.

    The state is three ints: bitmasks of the rays valued 1 and valued 0,
    and ``score``, whose lane per basis (Lamport, CACM 18(8), 1975) holds
    its unassigned members plus ``full`` times its members valued 1, with
    ``full`` above every basis size.  ``H[r]`` counts ray r's memberships
    per lane: valuing r 1 adds ``(full - 1) * H[r]``, and the rays valued 0
    subtract their ``H``, summed by ``compress``.  An add and a mask then
    test all lanes at once: two 1s at ``2 * full`` or above, dead at 0,
    forcing at 1, live basis-mates of a 1 to zero above ``full``.  Lanes
    are the fewest of 1, 2, 4 or 8 bytes holding ``full * (full - 1)``, a
    lane's largest value, below the top bit: one byte up to 10 members.
    ``H`` is counted in ``bytearray`` rows and costs rays x bases lanes,
    240 KB for E8 and 0.5 MB for {0,+-1}^6.  A node's snapshot is its
    three ints, so a failed branch has nothing to undo.

    A node picks its branching basis with byte searches over ``score``'s
    bytes: for each value from 0 up to ``full - 1``, the first hit of that
    value's lane bytes at a lane boundary.  The first value found is the
    least, and its lane the first holding it; none found means every basis
    holds a 1.
    """
    n = graph.vertex_count
    bases = [tuple(b) for b in bases]
    full = max(map(len, bases), default=0) + 1
    width = next(w for w in (1, 2, 4, 8) if full * (full - 1) < 1 << 8 * w - 1)
    size = width * len(bases)
    low_byte = width - 1 if sys.byteorder == "big" else 0  # lanes are in native byte order
    incidence = [bytearray(size) for _ in range(n)]
    for at, basis in zip(range(low_byte, size, width), bases):
        for i in basis:
            incidence[i][at] += 1
    for i, row in enumerate(incidence):  # each buffer is freed as its int replaces it
        incidence[i] = int.from_bytes(row, sys.byteorder)
    unit = int.from_bytes(b"\x01".ljust(width, b"\x00") * len(bases), "little")  # 1 in every lane
    high = unit << 8 * width - 1  # the top bit of every lane
    low = high - unit  # every other bit
    # Added to a lane, these carry into its top bit from 2 * full up and above full.
    two_ones, past_full = high - 2 * full * unit, low - full * unit
    stats = {"nodes": 0, "backtracks": 0}

    def members(lanes: int) -> int:
        """The members of the bases whose lanes' top bits are set."""
        flags = lanes.to_bytes(size, sys.byteorder)
        mask, at = 0, flags.find(128)
        while at >= 0:
            for i in bases[at // width]:
                mask |= 1 << i
            at = flags.find(128, at + 1)
        return mask

    def propagate(ones: int, zeros: int, score: int, rise: int, fall: int = 0):
        """Values the rays of ``rise`` 1 and propagates to the fixpoint:
        the new state, or None at a conflict."""
        while True:
            lift, pending = 0, rise
            while pending:
                ray = (pending & -pending).bit_length() - 1
                pending &= pending - 1
                fall |= graph.adjacency[ray]
                lift += incidence[ray]
            ones |= rise
            fall &= ~zeros
            zeros |= fall
            zeroed = format(fall, f"0{n}b").encode().translate(_SELECTORS)[::-1]
            score += (full - 1) * lift - sum(compress(incidence, zeroed))
            # A 1 meets a 1, a lane holds two 1s, or a lane is dead.
            if fall & ones or (score + two_ones) & high or ~(score + low) & high:
                return None
            # Lanes at 0 or 1 read 0 with bit 0 cleared; above full, they
            # carry into the top bit.
            low_lanes = ~((score & ~unit) + low) & high
            open_lanes = (score + past_full) & high
            if not low_lanes | open_lanes:
                return ones, zeros, score
            live = ~(ones | zeros)
            rise, fall = members(low_lanes) & live, members(open_lanes) & live

    def search(ones: int, zeros: int, score: int) -> int | None:
        stats["nodes"] += 1
        flags = score.to_bytes(size, sys.byteorder)
        for value in range(full):
            lane = value.to_bytes(width, sys.byteorder)
            at = flags.find(lane)
            while at >= 0 and at % width:  # a hit across two lanes
                at = flags.find(lane, at + 1)
            if at >= 0:
                break
        else:
            return ones  # every basis holds a 1
        for candidate in bases[at // width]:
            if (ones | zeros) >> candidate & 1:
                continue
            state = propagate(ones, zeros, score, 1 << candidate)
            if state and (found := search(*state)) is not None:
                return found
            stats["backtracks"] += 1
        return None

    # The first round finds the empty bases, dead, and the singletons, forced.
    state = propagate(0, 0, sum(incidence), 0)
    ones = search(*state) if state else None
    assignment = None if ones is None else tuple(ones >> i & 1 for i in range(n))
    if assignment is not None and not verify_assignment(graph, bases, assignment):
        raise AssertionError("solver produced an assignment that fails verification")
    return ColoringResult(assignment is not None, assignment, stats["nodes"], stats["backtracks"])


# --- JSON ingestion and bundled data -------------------------------------

def bundled_data_dir() -> Path:
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
    if not isinstance(vectors, list):
        raise RaySetFormatError("'vectors' must be a list")
    rays = tuple(map(_parse_ray, vectors))
    bases = None
    if doc.get("bases") is not None:
        raw_bases = doc["bases"]
        if not isinstance(raw_bases, list) or not all(isinstance(b, list) for b in raw_bases):
            raise RaySetFormatError("'bases' must be a list of index lists")
        bases = tuple(tuple(b) for b in raw_bases)
        if not set(map(type, chain.from_iterable(bases))) <= {int}:  # a bool is refused
            for basis in bases:
                if any(not isinstance(i, int) or isinstance(i, bool) for i in basis):
                    raise RaySetFormatError(f"basis {basis!r} must hold integer indices")
    return RaySet(name, dimension, rays, doc.get("provenance", ""), bases)


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
    """The bundled set ``name``, one of ``available_sets()``; any other
    name, a path included, is refused, never joined onto the data
    directory."""
    available = available_sets()
    if name not in available:
        raise RaySetFormatError(f"no bundled ray set {name!r}; available: {', '.join(available)}")
    return load_ray_set(bundled_data_dir() / f"{name}.json")
