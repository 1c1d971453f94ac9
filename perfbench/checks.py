"""Output checks made apart from the program under test.

Every check recomputes what it needs with the benchmark's own arithmetic
(integer dot products, its own clique enumeration, the equal-area lattice
formula, analytic areas) and raises ``CheckFailed`` on the first mismatch.
Witness certificates are re-evaluated against a freshly built oracle,
because the oracle is what the certificate makes a claim about.
"""

from __future__ import annotations

import math

EXIT_COLORABLE = 0
EXIT_UNCOLORABLE = 10

# The bundled-set table of the project README: (rays, bases, source, colorable).
BUNDLED_VERDICTS = {
    "single_basis3": (3, 1, "enumerated", True),
    "disjoint_bases3": (6, 2, "enumerated", True),
    "cabello18": (18, 9, "supplied", False),
    "kernaghan20": (20, 11, "supplied", False),
    "peres24": (24, 24, "enumerated", False),
    "peres33": (33, 16, "enumerated", False),
}

E8_RAYS, E8_EDGES, E8_BASES = 120, 3780, 2025

SVG_DARK = 'fill="#24476b"'


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def ternary_ray_count(d: int) -> int:
    return (3 ** d - 1) // 2


# --- ray sets -------------------------------------------------------------------

def check_coloring_report(report: dict, exit_code: int, expect: dict) -> None:
    """A ``check-set`` report against the expectation built with the input.

    ``expect`` holds ``rays``, ``edges``, ``bases`` (the basis list),
    ``source``, ``colorable`` and ``adj`` (neighbour bitsets, own dot
    products).  A colorable verdict must come with an assignment that gives
    at most one 1 per orthogonal pair and exactly one 1 per basis.
    """
    require(report.get("rays") == expect["rays"],
            f"rays {report.get('rays')} != {expect['rays']}")
    graph = report.get("graph", {})
    require(graph.get("vertices") == expect["rays"], f"vertices {graph.get('vertices')}")
    require(graph.get("edges") == expect["edges"],
            f"edges {graph.get('edges')} != {expect['edges']}")
    bases = report.get("bases", {})
    require(bases.get("count") == len(expect["bases"]),
            f"bases {bases.get('count')} != {len(expect['bases'])}")
    require(bases.get("source") == expect["source"], f"basis source {bases.get('source')}")
    coloring = report.get("coloring", {})
    colorable = coloring.get("colorable")
    require(colorable is expect["colorable"],
            f"verdict colorable={colorable}, expected {expect['colorable']}")
    require(exit_code == (EXIT_COLORABLE if colorable else EXIT_UNCOLORABLE),
            f"exit code {exit_code} for colorable={colorable}")
    if colorable:
        check_assignment(coloring.get("assignment"), expect["adj"], expect["bases"])


def check_assignment(assignment, adj: list[int], bases) -> None:
    require(isinstance(assignment, list) and len(assignment) == len(adj),
            "assignment missing or of the wrong length")
    require(all(v in (0, 1) for v in assignment), "assignment holds a value other than 0/1")
    ones = 0
    for i, v in enumerate(assignment):
        if v:
            ones |= 1 << i
    for i, v in enumerate(assignment):
        require(not (v and adj[i] & ones), f"ray {i} and an orthogonal ray are both 1")
    for basis in bases:
        require(sum(assignment[i] for i in basis) == 1, f"basis {basis} does not hold exactly one 1")


def sqrt2_dot(u, v) -> tuple[int, int]:
    """Exact inner product of rays whose entries are ints or [a, b] = a + b*sqrt(2)."""
    a = b = 0
    for x, y in zip(u, v):
        xa, xb = (x, 0) if isinstance(x, int) else x
        ya, yb = (y, 0) if isinstance(y, int) else y
        a += xa * ya + 2 * xb * yb
        b += xa * yb + xb * ya
    return a, b


# --- witness certificates -----------------------------------------------------------

def _dot3(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def check_witness_report(report: dict, exit_code: int, oracle) -> None:
    """A certificate must be found and must hold against ``oracle``."""
    require(exit_code == 0, f"witness exit code {exit_code}")
    outcome = report.get("outcome")
    if outcome == "violating_basis":
        triad = report.get("triad")
        require(isinstance(triad, list) and len(triad) == 3, "triad missing")
        for i in range(3):
            require(abs(_dot3(triad[i], triad[i]) - 1.0) <= 1e-9, f"triad vector {i} is not unit")
            for j in range(i + 1, 3):
                require(abs(_dot3(triad[i], triad[j])) <= 1e-9,
                        f"triad vectors {i} and {j} are not orthogonal")
        total = sum(oracle.evaluate(v) for v in triad)
        require(total != 1, "the oracle's values on the triad sum to 1")
        require(report.get("triad_sum") == total, f"triad_sum {report.get('triad_sum')} != {total}")
    elif outcome == "antipodal_violation":
        p = report.get("antipodal_point")
        require(isinstance(p, list) and len(p) == 3, "antipodal point missing")
        require(abs(_dot3(p, p) - 1.0) <= 1e-9, "antipodal point is not unit")
        plus, minus = oracle.evaluate(p), oracle.evaluate([-x for x in p])
        require(plus != minus, "the oracle agrees on the antipodal pair")
        require(report.get("antipodal_values") == [plus, minus], "antipodal values misreported")
    else:
        raise CheckFailed(f"no certificate: outcome {outcome!r}")


# --- oracle grids --------------------------------------------------------------------

def lattice(n: int) -> tuple[list[float], list[float], list[str]]:
    """Latitudes of the n rows and longitudes of the 2n columns of the
    equal-area lattice, z = -1 + (2i + 1)/n and phi = -pi + 2 pi (j + 1/2)/(2n),
    and each point's "theta,phi" printed to 12 decimals, row by row."""
    thetas = [math.asin(-1.0 + (2 * i + 1) / n) for i in range(n)]
    phis = [-math.pi + 2.0 * math.pi * (j + 0.5) / (2 * n) for j in range(2 * n)]
    text = [f"{t:.12f},{p:.12f}" for t in thetas for p in phis]
    return thetas, phis, text


def analytic_area(spec: dict) -> float:
    """Fraction of the sphere where the oracle is 1; rotation keeps it."""
    kind = spec["kind"]
    if kind == "polar_cap":
        return 1.0 - math.sin(spec["cap_latitude"])
    if kind == "step_meridian":
        t = spec["theta_star"]
        return 1.0 - (math.sin(t) + math.cos(t)) / 2.0
    return 0.5


def area_tolerance(spec: dict, n: int) -> float:
    """A lattice row meets the boundary of the ones set at most k times, and
    each meeting misjudges at most one of its 2n cells, so the fraction of
    ones is off by at most k/(2n).  A row meets a circle, or half of one, at
    most twice.  The boundary is: two small circles for a polar cap; the
    equator and one meridian circle for the four segments; four half small
    circles and one meridian circle for the step meridian; and, for a spun
    2-D generator with E interval endpoints, 4(E + 1) half meridians."""
    kind = spec["kind"]
    if kind in ("polar_cap", "four_segment"):
        k = 4
    elif kind == "step_meridian":
        k = 10
    else:
        k = 8 * (2 * len(spec["intervals"]) + 1)
    return k / (2 * n)


def check_grid_csv(text: str, n: int, spec: dict, lattice_pts) -> int:
    """Checks a ``plot --format csv`` grid; returns its count of ones."""
    thetas, phis, lattice_txt = lattice_pts
    lines = text.splitlines()
    require(lines and lines[0] == "theta,phi,value", "bad CSV header")
    rows = [line.rsplit(",", 1) for line in lines[1:]]
    require(len(rows) == 2 * n * n, f"{len(rows)} rows, expected {2 * n * n}")
    require(all(len(row) == 2 for row in rows), "a row without a value")
    values = [row[1] for row in rows]
    ones = values.count("1")
    require(ones + values.count("0") == len(values), "a value other than 0 or 1")
    coords = [row[0] for row in rows]
    if coords != lattice_txt:
        # Not the lattice printed to 12 decimals; allow 1e-9 per coordinate.
        for k, pair in enumerate(coords):
            fields = pair.split(",")
            i, j = divmod(k, 2 * n)
            require(len(fields) == 2, f"row {k} has {len(fields) + 1} fields")
            require(abs(float(fields[0]) - thetas[i]) <= 1e-9, f"row {k}: theta off the lattice")
            require(abs(float(fields[1]) - phis[j]) <= 1e-9, f"row {k}: phi off the lattice")
    check_area(ones, n, spec)
    return ones


def check_grid_svg(text: str, n: int, spec: dict) -> int:
    """Checks a ``plot --format svg`` grid; returns its count of dark cells."""
    cells = text.count("<rect ") - 1  # the last rect is the frame
    require(cells == 2 * n * n, f"{cells} cells, expected {2 * n * n}")
    dark = text.count(SVG_DARK)
    check_area(dark, n, spec)
    return dark


def check_area(ones: int, n: int, spec: dict) -> None:
    frac = ones / (2 * n * n)
    want = analytic_area(spec)
    require(abs(frac - want) <= area_tolerance(spec, n),
            f"ones fraction {frac:.4f}, analytic area {want:.4f}")
