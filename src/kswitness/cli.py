"""Command-line front door.

Subcommands: ``check-set`` (colorability of a ray-set file), ``witness``
(certificate extraction from an oracle spec), ``geom`` (descent-circle
queries), ``plot`` (CSV/SVG figure data).  All structured output is JSON
with embedded schema version; all angles are radians (degrees are rejected
by omission: there is no flag for them).

Exit codes are a stable contract: 0 success/colorable, 10 uncolorable,
11 witness not found, 2 input error, 3 I/O error.  A command returns its
verdict's code and raises ``_Error`` for any other; ``main`` alone maps
errors to exit codes and writes the one ``error:`` line.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import stat
import sys
from importlib import import_module

from . import kssets

# The float stack (sphere_geom, valuation, witness) loads on first use, so
# check-set runs on kssets and the stdlib alone; numpy loads only when a
# plot grid is evaluated.  Commands call these names through the module
# globals, where a tracer may have swapped them.
_FLOAT_NAMES = (
    "DescentCircle", "DomainError", "SphPoint", "descent_theta", "equator_crossings",
    "to_cartesian", "two_step_chain", "two_step_delta_phi", "build_oracle",
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


class _Error(Exception):
    """Ends a command with exit ``code``; ``main`` writes the message as its
    one ``error:`` line."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    """Fixed 12-decimal output used by every geometry subcommand."""
    s = f"{x:.12f}"
    return s[1:] if s == "-0.000000000000" else s


_encode_str = json.encoder.encode_basestring_ascii  # json's C string encoder


def _json_text(x, indent: str = "\n") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)``, byte for byte, built in
    one pass; ``indent`` is the line break and indent that close ``x``.
    ``x`` holds only what a report holds: ``dict``, ``list``, ``tuple``,
    ``str``, ``int``, finite ``float``, ``True``, ``False`` and ``None``,
    of exactly those types; anything else raises ``TypeError``."""
    t = type(x)
    if t is str:
        return _encode_str(x)
    if t is float and math.isfinite(x):
        return float.__repr__(x)
    if t is int:
        return int.__repr__(x)
    if t is dict:
        if not x:
            return "{}"
        inner = indent + "  "
        # _encode_str raises TypeError on a key that is not a str.
        items = [_encode_str(k) + ": " + _json_text(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in x]) + indent + "]"
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise TypeError(f"a report cannot hold {x!r}")


def _dump_json(doc: dict, out_path: str | None) -> None:
    """Writes a report to ``out_path`` or stdout."""
    text = _json_text(doc) + "\n"
    if out_path:
        _write_out(out_path, (text,))
    else:
        _write_std("stdout", text)


def _write_std(name: str, text: str) -> None:
    """Writes ``text`` to ``sys.stdout`` or ``sys.stderr``, by ``name``, and
    flushes it.  A stream that cannot take it (a full device, a closed pipe,
    a descriptor closed at start-up) has its descriptor pointed at the null
    device, so what it still buffers cannot fail again in the interpreter's
    flush at exit, which would exit 120.  Then a failed stdout raises the
    I/O error, and a failed stderr loses only ``text``."""
    stream = getattr(sys, name)
    try:
        if stream is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        stream.write(text)
        stream.flush()
    except OSError as exc:
        try:
            fd = (1 if name == "stdout" else 2) if stream is None else stream.fileno()
        except ValueError:  # io.UnsupportedOperation: no descriptor of its own
            fd = None
        if fd is not None:
            null = os.open(os.devnull, os.O_WRONLY)
            if null != fd:  # a closed descriptor may be the one open() reuses
                try:
                    os.dup2(null, fd)
                finally:
                    os.close(null)
        if name == "stdout":
            raise _Error(EXIT_IO, f"cannot write stdout: {exc}") from exc


def _open_in_place(path: str, flags: int) -> int:
    """``open``'s opener for output files: its own flags but ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


# The write buffer of every --out file, in bytes: a report, or a grid of a
# few hundred kilobytes written a row at a time, takes one or two writes.
_OUT_BUFFER = 1 << 20


def _write_out(out_path: str, chunks) -> None:
    """Writes the strings ``chunks`` yields to ``out_path`` as UTF-8, newlines
    untranslated, through ``_OUT_BUFFER``.  An existing file is written
    over in place and, if it is a regular file, then cut to the written
    length: truncating it to zero first would make ext4 (``auto_da_alloc``)
    start writing it back on close.  If writing raises, a regular file is
    cut to zero length, so a failed run never leaves the old contents in
    place; an ``OSError`` ends the command with the I/O-error code."""
    try:
        with open(out_path, "w", encoding="utf-8", newline="", buffering=_OUT_BUFFER,
                  opener=_open_in_place) as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            try:
                fh.writelines(chunks)
                if regular:
                    fh.truncate()
            except BaseException:
                if regular:
                    _empty(fh)
                raise
    except OSError as exc:
        raise _Error(EXIT_IO, f"cannot write {out_path}: {exc}") from exc


def _empty(fh) -> None:
    """Closes ``fh``, whatever it still buffers, and cuts its file to zero
    length."""
    fd = os.dup(fh.fileno())
    try:
        try:
            fh.close()
        except OSError:
            pass
        os.ftruncate(fd, 0)
    finally:
        os.close(fd)


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


# --- check-set ---------------------------------------------------------------

def cmd_check_set(args) -> int:
    try:
        ray_set = kssets.load_ray_set(args.path)
    except OSError as exc:
        raise _Error(EXIT_INPUT, f"cannot read {args.path}: {exc}") from exc
    except (kssets.RaySetFormatError, kssets.DuplicateRay) as exc:
        raise _Error(EXIT_INPUT, str(exc)) from exc
    graph = ray_set.graph
    try:
        if ray_set.bases is not None:
            bases = ray_set.bases
            source = "supplied"
        else:
            bases = kssets.enumerate_bases(graph, ray_set.dimension)
            source = "enumerated"
        result = kssets.find_valuation(graph, bases)
    except RecursionError:
        # Enumeration recurses once per basis member, the solver once per branch.
        raise _Error(EXIT_INPUT, f"{args.path}: too deep to enumerate or solve within "
                                 f"Python's recursion limit ({sys.getrecursionlimit()})") from None
    report = {
        "schema": 1,
        "name": ray_set.name,
        "dimension": ray_set.dimension,
        "rays": len(ray_set),
        "graph": {"vertices": graph.vertex_count, "edges": graph.edge_count},
        "bases": {"count": len(bases), "source": source},
        "coloring": result.to_json_dict(),
    }
    _dump_json(report, args.out)
    return EXIT_OK if result.colorable else EXIT_UNCOLORABLE


# --- witness -----------------------------------------------------------------

def _load_oracle(path: str):
    """The oracle an oracle-spec file describes, built by ``build_oracle``;
    a file that cannot be read or a bad spec is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        return build_oracle(spec)
    except OSError as exc:
        raise _Error(EXIT_INPUT, f"cannot read {path}: {exc}") from exc
    # OracleSpecError is a ValueError; so are bad JSON, bad UTF-8 and an integer
    # literal longer than int() converts.  RecursionError: arrays or objects
    # nested too deep.
    except (ValueError, RecursionError) as exc:
        raise _Error(EXIT_INPUT, f"bad oracle spec: {exc}") from exc


def cmd_witness(args) -> int:
    _bind_float_stack()
    report = extract_witness(_load_oracle(args.oracle),
                             WitnessConfig(max_descent_probes=args.budget, rng_seed=args.seed))
    _dump_json(report.to_json_dict(), args.out)
    return EXIT_OK if report.found else EXIT_NOT_FOUND


# --- geom --------------------------------------------------------------------

def cmd_geom(args) -> int:
    _bind_float_stack()
    try:
        if args.geom_command == "descend":
            circle = DescentCircle(SphPoint(args.theta_p, args.phi_p))
            lines = [_fmt(descent_theta(circle, args.phi))]
        elif args.geom_command == "delta-phi":
            lines = [_fmt(two_step_delta_phi(args.theta_p, args.theta_q))]
        elif args.geom_command == "chain":
            r, q = two_step_chain(SphPoint(args.theta_p, args.phi_p), args.theta_q)
            lines = [f"r {_fmt(r.theta)} {_fmt(r.phi)}", f"q {_fmt(q.theta)} {_fmt(q.phi)}"]
        elif args.geom_command == "crossings":
            s1, s2 = equator_crossings(DescentCircle(SphPoint(args.theta_p, args.phi_p)))
            lines = [" ".join(["s1", *map(_fmt, s1)]), " ".join(["s2", *map(_fmt, s2)])]
    except DomainError as exc:
        raise _Error(EXIT_INPUT, str(exc)) from exc
    _write_std("stdout", "".join(line + "\n" for line in lines))
    return EXIT_OK


# --- plot --------------------------------------------------------------------

def _valuation_grid(oracle, lat_rows: int, lon_cols: int):
    """Equal-area grid avoiding the boundary arcs: the row latitudes, the
    column longitudes, and the oracle's int8 values, one per cell, row by
    row, from one ``evaluate_many`` call."""
    from .sphere_geom import to_cartesian_grid  # a local import keeps sphere_geom off check-set

    thetas = [math.asin(-1.0 + (2 * i + 1) / lat_rows) for i in range(lat_rows)]
    phis = [-math.pi + 2.0 * math.pi * (j + 0.5) / lon_cols for j in range(lon_cols)]
    values = oracle.evaluate_many(to_cartesian_grid(thetas, phis))
    return thetas, phis, values


def _pick_cells(pieces, values) -> list[list[str]]:
    """``pieces[j][value]`` for every cell, as one list per grid row:
    ``pieces`` holds a pair per column and ``values`` the cells row by
    row.  numpy indexing picks them all at once."""
    import numpy as np

    table = np.empty((len(pieces), 2), dtype=object)
    table[:] = pieces
    return table[np.arange(len(pieces)), values.reshape(-1, len(pieces))].tolist()


def _grid_rows(head: str, lead: str, labels, cells, foot: str):
    """``head``, a line per grid row, then ``foot``: a row is ``lead`` and
    its label joined with its cells, so each label is formatted once, as
    the row is read."""
    yield head
    for label, row in zip(labels, cells):
        yield lead + label + label.join(row)
    yield foot


def _grid_csv(grid):
    """One ``theta,phi,value`` line per cell, as csv.writer would write it.
    A row is its latitude joined with per-column pieces picked by value;
    the pieces are picked here, and the rows formatted as they are read."""
    thetas, phis, values = grid
    # A cell is the row's latitude and tails[j][value].
    tails = [(f",{phi},0\r\n", f",{phi},1\r\n") for phi in map(_fmt, phis)]
    return _grid_rows("theta,phi,value\r\n", "", map(_fmt, thetas),
                      _pick_cells(tails, values), "")


# What XML 1.0 forbids in a document: C0 controls but tab and the line
# breaks, surrogates, U+FFFE and U+FFFF.  A pattern string, which ``re``
# compiles on the first SVG title rather than on every start-up.
_XML_FORBIDDEN = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _readable(match) -> str:
    """A character XML forbids, as its Python escape.  A byte that is not
    UTF-8, which ``sys.argv`` carries as a surrogate in U+DC80..U+DCFF,
    reads as that byte: ``\\xff`` for the byte 0xff."""
    code = ord(match.group())
    if 0xDC80 <= code <= 0xDCFF:
        code -= 0xDC00
    return ascii(chr(code))[1:-1]


def _xml_text(text: str) -> str:
    """``text`` as well-formed SVG text content: ``&``, ``<`` and ``>``
    escaped, and what XML forbids written as a readable escape."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return re.sub(_XML_FORBIDDEN, _readable, text)


# Both SVG figures' plot width, height and margin in pixels; the title adds 18.
_SVG_FRAME = (720, 360, 24)


def _svg_head(title: str) -> str:
    """Either figure's ``<svg>`` tag and title line, ``title`` XML-escaped."""
    width, height, margin = _SVG_FRAME
    return (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width + 2 * margin}" height="{height + 2 * margin + 18}">\n'
            f'<text x="{margin}" y="16" font-family="monospace" font-size="13">'
            f'{_xml_text(title)}</text>\n')


def _grid_svg(grid, title: str):
    """Equirectangular projection: one rect per grid cell, ones shaded dark.
    A row is its y coordinate joined with per-column pieces picked by
    value; the pieces are picked here, and the rows formatted as they are
    read."""
    thetas, phis, values = grid
    lat_rows, lon_cols = len(thetas), len(phis)
    width, height, margin = _SVG_FRAME
    cw = width / lon_cols
    ch = height / lat_rows
    # A cell's rect is x_head[j] + y + tail[value], so a row is
    # x_head[0] + y + y.join(between[j][value_j]), where between[j][value]
    # closes cell j and opens cell j + 1 up to its y.
    x_head = [f'<rect x="{j * cw:.2f}" y="' for j in range(lon_cols)] + [""]
    tail = [f'" width="{cw + 0.35:.2f}" height="{ch + 0.35:.2f}" fill="{color}"/>\n'
            for color in ("#e8e4da", "#24476b")]
    between = [(tail[0] + head, tail[1] + head) for head in x_head[1:]]
    head = _svg_head(title) + f'<g transform="translate({margin},{margin + 18})">\n'
    foot = (f'<rect x="0" y="0" width="{width}" height="{height}" '
            f'fill="none" stroke="#222" stroke-width="1"/>\n</g></svg>\n')
    ys = (f"{height - (i + 1) * ch:.2f}" for i in range(lat_rows))
    return _grid_rows(head, x_head[0], ys, _pick_cells(between, values), foot)


def _descent_curve(theta_p: float, phi_p: float, samples: int):
    circle = DescentCircle(SphPoint(theta_p, phi_p))
    rows = []
    for k in range(samples + 1):
        phi = -math.pi + 2.0 * math.pi * k / samples
        rows.append((phi, descent_theta(circle, phi)))
    return rows


def _curve_csv(rows):
    """One ``phi,theta`` line per sample, as csv.writer would write it."""
    yield "phi,theta\r\n"
    yield "".join(f"{_fmt(phi)},{_fmt(theta)}\r\n" for phi, theta in rows)


def _curve_svg(rows, title: str):
    width, height, margin = _SVG_FRAME

    def sx(phi):
        return margin + (phi + math.pi) / (2.0 * math.pi) * width

    def sy(theta):
        return margin + 18 + (1.0 - (theta + math.pi / 2) / math.pi) * height

    pts = " ".join(f"{sx(phi):.2f},{sy(theta):.2f}" for phi, theta in rows)
    svg = [
        f'<rect x="{margin}" y="{margin + 18}" width="{width}" height="{height}" '
        f'fill="#fcfbf7" stroke="#222"/>',
        f'<line x1="{sx(-math.pi):.2f}" y1="{sy(0):.2f}" x2="{sx(math.pi):.2f}" '
        f'y2="{sy(0):.2f}" stroke="#999" stroke-dasharray="4 3"/>',
        f'<polyline fill="none" stroke="#a33" stroke-width="1.6" points="{pts}"/>',
        "</svg>",
    ]
    yield _svg_head(title) + "\n".join(svg) + "\n"


def cmd_plot(args) -> int:
    _bind_float_stack()
    if bool(args.figure) == bool(args.oracle):
        raise _Error(EXIT_INPUT, "exactly one of --figure or --oracle is required")
    lat_rows, lon_cols = args.grid, 2 * args.grid
    if args.figure == "four-segment":
        oracle = build_oracle({"kind": "four_segment"})
        title = "four-segment valuation (dark = 1)"
    elif args.oracle:
        oracle = _load_oracle(args.oracle)
        title = f"oracle grid: {args.oracle}"
    if args.figure == "descent-circle":
        try:
            rows = _descent_curve(args.theta_p, args.phi_p, 4 * args.grid)
        except DomainError as exc:
            raise _Error(EXIT_INPUT, str(exc)) from exc
        if args.format == "csv":
            chunks = _curve_csv(rows)
        else:
            chunks = _curve_svg(rows, f"descent circle, apex ({args.theta_p:.4f}, {args.phi_p:.4f})")
    else:
        try:  # the grid and its picked cells are built before anything is written
            grid = _valuation_grid(oracle, lat_rows, lon_cols)
            chunks = _grid_csv(grid) if args.format == "csv" else _grid_svg(grid, title)
        except MemoryError:
            raise _Error(EXIT_INPUT,
                         f"--grid {args.grid}: the grid does not fit in memory") from None
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
            raise _Error(EXIT_INPUT, "plot grids need numpy, which is not installed") from None
    _write_out(args.out, chunks)
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
    p_wit.add_argument("--budget", type=_positive_int, default=10_000,
                       help="oracle calls the search may make; the certificate's re-check "
                            "makes 2 or 3 fresh calls on top")
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


def build_parser() -> argparse.ArgumentParser:
    """A new parser holding every subcommand."""
    parser = argparse.ArgumentParser(
        prog="kswitness",
        description="Valuations, descent-circle witnesses, and exact ray-set colorability. "
                    "All angles are radians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_check_set, _add_witness, _add_geom, _add_plot):
        add(sub)
    return parser


# main's parser, built on its first call and reused by every later one.
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    """Runs the command ``argv`` names (``sys.argv[1:]`` by default) and
    returns its exit code.  The parser is built on the first call and
    reused by every later call in the process."""
    global _parser
    argv = sys.argv[1:] if argv is None else list(argv)
    if _parser is None:
        _parser = build_parser()
    try:
        try:
            args = _parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 2 on bad flags, which matches the contract.
            # It ignores a failed write of its usage, error or help, which the
            # flush at exit would then meet again, so both streams are flushed
            # here.  With stdout closed, argparse writes help to stderr.
            if sys.stdout is not None:
                _write_std("stdout", "")
            _write_std("stderr", "")
            return int(exc.code or 0)
        return args.func(args)
    except _Error as exc:
        _write_std("stderr", f"error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
