"""Command-line front door.

Subcommands: ``check-set`` (colorability of a ray-set file), ``witness``
(certificate extraction from an oracle spec), ``geom`` (descent-circle
queries), ``plot`` (CSV/SVG figure data).  All structured output is JSON
with embedded schema version; all angles are radians (degrees are rejected
by omission: there is no flag for them).

Exit codes are a stable contract: 0 success/colorable, 10 uncolorable,
11 witness not found, 2 input error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import import_module

from . import kssets

# The float stack (numpy, sphere_geom, valuation, witness) loads on first
# use, so check-set runs on kssets and the stdlib alone.  Commands call these
# names through the module globals, where a tracer may have swapped them.
_FLOAT_NAMES = (
    "DescentCircle", "DomainError", "SphPoint", "descent_theta", "equator_crossings",
    "to_cartesian", "two_step_chain", "two_step_delta_phi",
    "OracleSpecError", "Valuation", "build_oracle",
    "WitnessConfig", "extract_witness",
)
_float_stack_bound = False


def _bind_float_stack() -> None:
    """Binds _FLOAT_NAMES, from the package's lazy exports, into this
    module, once; a name that is already set (say, to a wrapper) keeps its
    value."""
    global _float_stack_bound
    if _float_stack_bound:
        return
    package = import_module(__package__)
    namespace = globals()
    for name in _FLOAT_NAMES:
        namespace.setdefault(name, getattr(package, name))
    _float_stack_bound = True


def __getattr__(name: str):
    if name not in _FLOAT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_float_stack()
    return globals()[name]


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_UNCOLORABLE = 10
EXIT_NOT_FOUND = 11

FIGURES = ("four-segment", "descent-circle")


def _fmt(x: float) -> str:
    """Fixed 12-decimal output used by every geometry subcommand."""
    s = f"{x:.12f}"
    return s[1:] if s == "-0.000000000000" else s


def _dump_json(doc: dict, out_path: str | None, code: int) -> int:
    """Writes a report to ``out_path`` or stdout; returns ``code``, or the
    I/O-error code when ``out_path`` cannot be written."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write {out_path}: {exc}", EXIT_IO)
    return code


def _int_at_least(low: int):
    """argparse type for counts and seeds: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# --- check-set ---------------------------------------------------------------

def cmd_check_set(args) -> int:
    try:
        ray_set = kssets.load_ray_set(args.path)
    except OSError as exc:
        return _fail(f"cannot read {args.path}: {exc}", EXIT_INPUT)
    except (kssets.RaySetFormatError, kssets.DuplicateRay) as exc:
        return _fail(str(exc), EXIT_INPUT)
    graph = ray_set.graph
    if ray_set.bases is not None:
        bases = ray_set.bases
        source = "supplied"
    else:
        bases = kssets.enumerate_bases(graph, ray_set.dimension)
        source = "enumerated"
    result = kssets.find_valuation(graph, bases)
    report = {
        "schema": 1,
        "name": ray_set.name,
        "dimension": ray_set.dimension,
        "rays": len(ray_set),
        "graph": {"vertices": graph.vertex_count, "edges": graph.edge_count},
        "bases": {"count": len(bases), "source": source},
        "coloring": result.to_json_dict(),
    }
    return _dump_json(report, args.out, EXIT_OK if result.colorable else EXIT_UNCOLORABLE)


# --- witness -----------------------------------------------------------------

def _load_oracle(path: str) -> Valuation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        # ValueError covers bad JSON, bad UTF-8 and an integer literal longer
        # than int() converts; RecursionError, arrays or objects nested too deep.
        except (ValueError, RecursionError) as exc:
            raise OracleSpecError(str(exc)) from exc
    return build_oracle(spec)


def cmd_witness(args) -> int:
    _bind_float_stack()
    try:
        oracle = _load_oracle(args.oracle)
    except OSError as exc:
        return _fail(f"cannot read {args.oracle}: {exc}", EXIT_INPUT)
    except OracleSpecError as exc:
        return _fail(f"bad oracle spec: {exc}", EXIT_INPUT)
    config = WitnessConfig(
        meridian_samples=args.meridians,
        max_descent_probes=args.budget,
        rng_seed=args.seed,
    )
    report = extract_witness(oracle, config)
    return _dump_json(report.to_json_dict(), args.out,
                      EXIT_OK if report.found else EXIT_NOT_FOUND)


# --- geom --------------------------------------------------------------------

def cmd_geom(args) -> int:
    _bind_float_stack()
    try:
        if args.geom_command == "descend":
            circle = DescentCircle(SphPoint(args.theta_p, args.phi_p))
            print(_fmt(descent_theta(circle, args.phi)))
        elif args.geom_command == "delta-phi":
            print(_fmt(two_step_delta_phi(args.theta_p, args.theta_q)))
        elif args.geom_command == "chain":
            r, q = two_step_chain(SphPoint(args.theta_p, args.phi_p), args.theta_q)
            print("r", _fmt(r.theta), _fmt(r.phi))
            print("q", _fmt(q.theta), _fmt(q.phi))
        elif args.geom_command == "crossings":
            s1, s2 = equator_crossings(DescentCircle(SphPoint(args.theta_p, args.phi_p)))
            print("s1", *(_fmt(c) for c in s1))
            print("s2", *(_fmt(c) for c in s2))
    except DomainError as exc:
        return _fail(str(exc), EXIT_INPUT)
    return EXIT_OK


# --- plot --------------------------------------------------------------------

def _valuation_grid(oracle: Valuation, lat_rows: int, lon_cols: int):
    """Equal-area grid avoiding the boundary arcs: the row latitudes, the
    column longitudes, and the oracle's value at each cell, row by row,
    from one ``evaluate_many`` call."""
    from .sphere_geom import to_cartesian_grid  # a local import keeps numpy off check-set

    thetas = [math.asin(-1.0 + (2 * i + 1) / lat_rows) for i in range(lat_rows)]
    phis = [-math.pi + 2.0 * math.pi * (j + 0.5) / lon_cols for j in range(lon_cols)]
    values = oracle.evaluate_many(to_cartesian_grid(thetas, phis))
    return thetas, phis, values.tolist()


def _write_grid_csv(grid, out_path: str) -> None:
    """One ``theta,phi,value`` line per cell, as csv.writer would write it,
    written a grid row at a time; each latitude and longitude is formatted
    once."""
    thetas, phis, values = grid
    cols = [f",{_fmt(phi)}," for phi in phis]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("theta,phi,value\r\n")
        for i, theta in enumerate(thetas):
            row = _fmt(theta)
            first = i * len(cols)
            fh.write("".join(f"{row}{col}{value}\r\n"
                             for col, value in zip(cols, values[first:first + len(cols)])))


def _write_grid_svg(grid, out_path: str, title: str) -> None:
    """Equirectangular projection: one rect per grid cell, ones shaded dark,
    written a grid row at a time."""
    thetas, phis, values = grid
    lat_rows, lon_cols = len(thetas), len(phis)
    width, height, margin = 720, 360, 24
    cw = width / lon_cols
    ch = height / lat_rows
    # A cell's rect is x_head[j] + y[i] + tail[value].
    x_head = [f'<rect x="{j * cw:.2f}" y="' for j in range(lon_cols)]
    tail = [f'" width="{cw + 0.35:.2f}" height="{ch + 0.35:.2f}" fill="{color}"/>\n'
            for color in ("#e8e4da", "#24476b")]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{width + 2 * margin}" height="{height + 2 * margin + 18}">\n'
                 f'<text x="{margin}" y="16" font-family="monospace" font-size="13">{title}'
                 f'</text>\n<g transform="translate({margin},{margin + 18})">\n')
        for i in range(lat_rows):
            y = f"{height - (i + 1) * ch:.2f}"
            first = i * lon_cols
            fh.write("".join(head + y + tail[value]
                             for head, value in zip(x_head, values[first:first + lon_cols])))
        fh.write(f'<rect x="0" y="0" width="{width}" height="{height}" '
                 f'fill="none" stroke="#222" stroke-width="1"/>\n</g></svg>\n')


def _descent_curve(theta_p: float, phi_p: float, samples: int):
    circle = DescentCircle(SphPoint(theta_p, phi_p))
    rows = []
    for k in range(samples + 1):
        phi = -math.pi + 2.0 * math.pi * k / samples
        rows.append((phi, descent_theta(circle, phi)))
    return rows


def _write_curve_csv(rows, out_path: str) -> None:
    """One ``phi,theta`` line per sample, as csv.writer would write it."""
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("phi,theta\r\n")
        fh.write("".join(f"{_fmt(phi)},{_fmt(theta)}\r\n" for phi, theta in rows))


def _write_curve_svg(rows, out_path: str, title: str) -> None:
    width, height, margin = 720, 360, 24

    def sx(phi):
        return margin + (phi + math.pi) / (2.0 * math.pi) * width

    def sy(theta):
        return margin + 18 + (1.0 - (theta + math.pi / 2) / math.pi) * height

    pts = " ".join(f"{sx(phi):.2f},{sy(theta):.2f}" for phi, theta in rows)
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width + 2 * margin}" height="{height + 2 * margin + 18}">',
        f'<text x="{margin}" y="16" font-family="monospace" font-size="13">{title}</text>',
        f'<rect x="{margin}" y="{margin + 18}" width="{width}" height="{height}" '
        f'fill="#fcfbf7" stroke="#222"/>',
        f'<line x1="{sx(-math.pi):.2f}" y1="{sy(0):.2f}" x2="{sx(math.pi):.2f}" '
        f'y2="{sy(0):.2f}" stroke="#999" stroke-dasharray="4 3"/>',
        f'<polyline fill="none" stroke="#a33" stroke-width="1.6" points="{pts}"/>',
        "</svg>",
    ]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(svg) + "\n")


def cmd_plot(args) -> int:
    _bind_float_stack()
    if bool(args.figure) == bool(args.oracle):
        return _fail("exactly one of --figure or --oracle is required", EXIT_INPUT)
    lat_rows, lon_cols = args.grid, 2 * args.grid
    if args.figure == "four-segment":
        oracle = build_oracle({"kind": "four_segment"})
        title = "four-segment valuation (dark = 1)"
    elif args.oracle:
        try:
            oracle = _load_oracle(args.oracle)
        except OSError as exc:
            return _fail(f"cannot read {args.oracle}: {exc}", EXIT_INPUT)
        except OracleSpecError as exc:
            return _fail(f"bad oracle spec: {exc}", EXIT_INPUT)
        title = f"oracle grid: {args.oracle}"
    try:
        if args.figure == "descent-circle":
            try:
                rows = _descent_curve(args.theta_p, args.phi_p, 4 * args.grid)
            except DomainError as exc:
                return _fail(str(exc), EXIT_INPUT)
            if args.format == "csv":
                _write_curve_csv(rows, args.out)
            else:
                _write_curve_svg(rows, args.out,
                                 f"descent circle, apex ({args.theta_p:.4f}, {args.phi_p:.4f})")
        else:
            grid = _valuation_grid(oracle, lat_rows, lon_cols)
            if args.format == "csv":
                _write_grid_csv(grid, args.out)
            else:
                _write_grid_svg(grid, args.out, title)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_IO)
    return EXIT_OK


# --- parser ------------------------------------------------------------------

def _add_check_set(sub) -> None:
    p_check = sub.add_parser("check-set", help="decide {0,1}-colorability of a ray-set file")
    p_check.add_argument("path", help="ray-set JSON file")
    p_check.add_argument("--out", help="write the JSON report here instead of stdout")
    p_check.set_defaults(func=cmd_check_set)


def _add_witness(sub) -> None:
    p_wit = sub.add_parser("witness", help="extract a contradiction certificate from an oracle")
    p_wit.add_argument("oracle", help="oracle-spec JSON file")
    p_wit.add_argument("--seed", type=_int_at_least(0), default=0,
                       help="seed choosing the frame of the first basis read")
    p_wit.add_argument("--budget", type=_positive_int, default=10_000, help="total oracle-call budget")
    p_wit.add_argument("--meridians", type=_positive_int, default=64, help="equator probe count")
    p_wit.add_argument("--out", help="write the report here instead of stdout")
    p_wit.set_defaults(func=cmd_witness)


def _add_geom(sub) -> None:
    p_geom = sub.add_parser("geom", help="descent-circle geometry queries")
    geom_sub = p_geom.add_subparsers(dest="geom_command", required=True)
    g_desc = geom_sub.add_parser("descend", help="latitude of a descent circle at a longitude")
    g_desc.add_argument("--theta-p", type=float, required=True, help="apex latitude")
    g_desc.add_argument("--phi-p", type=float, default=0.0, help="apex longitude")
    g_desc.add_argument("--phi", type=float, required=True, help="query longitude")
    g_delta = geom_sub.add_parser("delta-phi", help="two-step descent azimuth offset")
    g_delta.add_argument("--theta-p", type=float, required=True, help="start latitude")
    g_delta.add_argument("--theta-q", type=float, required=True, help="target latitude")
    g_chain = geom_sub.add_parser("chain", help="two-step descent points r and q")
    g_chain.add_argument("--theta-p", type=float, required=True)
    g_chain.add_argument("--phi-p", type=float, default=0.0)
    g_chain.add_argument("--theta-q", type=float, required=True)
    g_cross = geom_sub.add_parser("crossings", help="equator crossings of a descent circle")
    g_cross.add_argument("--theta-p", type=float, required=True)
    g_cross.add_argument("--phi-p", type=float, default=0.0)
    p_geom.set_defaults(func=cmd_geom)


def _add_plot(sub) -> None:
    p_plot = sub.add_parser("plot", help="emit figure data as CSV or SVG")
    p_plot.add_argument("--figure", choices=FIGURES, help="built-in figure name")
    p_plot.add_argument("--oracle", help="oracle-spec JSON file to grid instead")
    p_plot.add_argument("--out", required=True, help="output file path")
    p_plot.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_plot.add_argument("--grid", type=_positive_int, default=64, help="latitude rows (longitudes = 2x)")
    p_plot.add_argument("--theta-p", type=float, default=math.pi / 4,
                        help="descent-circle apex latitude")
    p_plot.add_argument("--phi-p", type=float, default=0.0,
                        help="descent-circle apex longitude")
    p_plot.set_defaults(func=cmd_plot)


# Subcommand name -> the function adding its parser, in the order help lists them.
_SUBCOMMANDS = {
    "check-set": _add_check_set,
    "witness": _add_witness,
    "geom": _add_geom,
    "plot": _add_plot,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or, given a subcommand name, one holding that
    subcommand alone.  The latter names every subcommand in its usage line,
    so a top-level error reads the same from either."""
    parser = argparse.ArgumentParser(
        prog="kswitness",
        description="Valuations, descent-circle witnesses, and exact ray-set colorability. "
                    "All angles are radians.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        for add in _SUBCOMMANDS.values():
            add(sub)
    else:
        # Set only here: in the full parser a metavar would also stand in
        # for the choices in the "required" and "invalid choice" messages.
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_SUBCOMMANDS) + "}")
        _SUBCOMMANDS[command](sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # One call runs one subcommand, so only its parser is built; anything
    # else (help, no argv, a flag or an unknown word first) gets the full
    # parser and argparse's own message.
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches the contract.
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
