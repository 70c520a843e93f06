"""Command-line front door.

Values are entered as comma-separated numbers: ``r,theta2,...,thetaN`` in
radians for ``--form spherical`` (the default) or ``x1,...,xN`` for
``--form cartesian``; results come back in the same form.  Text output
prints 9 significant digits; ``--format json-lines`` carries full binary
precision; ``--format csv`` adds one header row per command.  Every command
builds its whole output before the first line, so an ``error: `` exit leaves
stdout empty.

Exit codes: 0 success, 1 domain error (division by zero, missing degenerate
longitude, a result modulus, component or exponent past the float range, a
fractal box or slice that is not finite, unwritable file), 2 usage error.  A
value command's exit-1 message is ``error: `` and the library's own text,
except the --dim count check.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import extensions, relativity
from .core import (
    CartesianVec,
    DegenerateArgs,
    SphericalForm,
    add,
    divide,
    inverse,
    mul_cartesian,
    mul_geometric,
    pow_int,
    to_cartesian,
    to_spherical,
)

_FORMATS = ("text", "json-lines", "csv")


# -- parsing helpers ---------------------------------------------------------

def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def _delta(text: str) -> tuple[float, ...]:
    values = _floats(text)
    if len(values) != 4:
        raise argparse.ArgumentTypeError(f"delta must be four numbers dx,dy,dz,cdt, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _region(text: str) -> tuple[tuple[float, float], ...]:
    try:
        spans = []
        for part in text.split(","):
            lo, hi = part.split(":")
            spans.append((float(lo), float(hi)))
        if len(spans) != 3:
            raise ValueError
        return tuple(spans)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"region must look like x0:x1,y0:y1,z0:z1, got {text!r}"
        )


def _slice_spec(text: str) -> tuple[str, float]:
    try:
        axis, value = text.split("=")
        if axis not in ("x", "y", "z"):
            raise ValueError
        return axis, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"slice must look like z=0, got {text!r}")


def _resolution(text: str) -> tuple[int, int, int]:
    try:
        rx, ry, rz = (int(p) for p in text.split(","))
        return rx, ry, rz
    except ValueError:
        raise argparse.ArgumentTypeError(f"resolution must be rx,ry,rz, got {text!r}")


def _fallback_for(args, position: int):
    fbs = args.fallback or []
    if position < len(fbs):
        return DegenerateArgs(fbs[position])
    return None


# -- output ------------------------------------------------------------------

def _write(fmt: str, header, rows, as_json, as_text, title=None) -> None:
    """Print a command's rows in the requested format; no other code reads
    --format.  A row is the tuple of its csv cells, and ``as_json`` and
    ``as_text`` turn it into its json-lines object and its text line.  Only
    the printed form is built, all of it before the first line, so a failing
    row leaves stdout empty."""
    if fmt == "csv":
        import csv  # quotes only a cell holding a comma or a quote

        cells = [["%.17g" % c if isinstance(c, float) else c for c in row] for row in rows]
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *cells])
        return
    if fmt == "json-lines":
        import json

        lines = [json.dumps(as_json(row)) for row in rows]
    else:
        lines = ([title] if title else []) + [as_text(row) for row in rows]
    sys.stdout.writelines(line + "\n" for line in lines)


def _joined(values) -> str:
    return ",".join("%.9g" % v for v in values)


# -- value subcommands --------------------------------------------------------

def _cmd_value(args) -> int:
    """Spherical operands go to the command's geometric op as given, and
    cartesian ones to its cartesian op.  A command without a cartesian op
    converts cartesian operand i with --fallback i, runs the geometric op
    and converts its results back."""
    op = args.op if args.form == "spherical" else args.cartesian_op
    operands = []
    for i, values in enumerate(args.values):
        if args.dim is not None and len(values) != args.dim:
            raise ValueError(f"--dim {args.dim} expects {args.dim} numbers, got {len(values)}")
        h = (SphericalForm(values[0], values[1:]) if args.form == "spherical"
             else CartesianVec(values))
        operands.append(h if op else to_spherical(h, _fallback_for(args, i)))
    results = op(args, *operands) if op else list(map(to_cartesian, args.op(args, *operands)))
    dim = results[0].dim  # one csv header per command, even for several roots
    if isinstance(results[0], SphericalForm):
        _write(args.format, ["r", *(f"theta{j}" for j in range(2, dim + 1))],
               [(h.modulus, *h.args) for h in results],
               lambda row: {"form": "spherical", "modulus": row[0], "args": list(row[1:])},
               _joined)
    else:
        _write(args.format, [f"x{j}" for j in range(1, dim + 1)],
               [h.components for h in results],
               lambda row: {"form": "cartesian", "components": list(row)}, _joined)
    return 0


# -- reporting subcommands -----------------------------------------------------

def _cmd_property_check(args) -> int:
    from . import checks  # only this command runs the probes

    given = {k: v for k, v in vars(args).items() if k in ("seed", "trials")}
    results = checks.run_property_checks(**given)
    _write(args.format, ("name", "result", "detail"),
           [(res.name, "pass" if res.passed else "fail", res.detail) for res in results],
           lambda row: {"name": row[0], "passed": row[1] == "pass", "detail": row[2]},
           lambda row: f"{row[1].upper()} {row[0]}: {row[2]}")
    return 0 if all(res.passed for res in results) else 1


def _cmd_relativity_check(args) -> int:
    pairs = [(relativity.EventDelta(*d), b) for d in args.delta for b in args.beta or [0.0]]
    rows = []
    for d, beta in pairs:
        spatial, _ = relativity.square_and_project(relativity.lorentz_boost(d, beta))
        target = abs(relativity.interval_sq(d))
        rows.append((d.dx, d.dy, d.dz, d.cdt, beta, spatial, target, abs(spatial - target)))
    _write(args.format, "dx,dy,dz,cdt,beta,spatial_modulus,abs_ds2,residual".split(","), rows,
           lambda row: {"delta": list(row[:4]), "beta": row[4], "spatial_modulus": row[5],
                        "abs_ds2": row[6], "residual": row[7]},
           lambda row: f"{_joined(row[:4]):>36} {row[4]:>7.4f} {row[5]:>14.9g} "
                       f"{row[6]:>14.9g} {row[7]:>10.3e}",
           f"{'delta':>36} {'beta':>7} {'spatial_mod':>14} {'|ds^2|':>14} {'residual':>10}")
    return 0


def _cmd_fractal(args) -> int:
    from . import fractal  # numpy loads only for renders

    fields = fractal.FractalConfig.__slots__  # each option's dest is a field
    cfg = fractal.FractalConfig(**{k: v for k, v in vars(args).items() if k in fields})
    # the --out extension names the format: .pgm, .csv, else raw voxels
    fmt = {".pgm": "pgm_slice", ".csv": "csv"}.get(args.out[-4:], "voxel_raw")
    # a slice image needs only its plane; the wrote line keeps the full lattice
    render = fractal._slice_config(cfg) if fmt == "pgm_slice" else cfg
    grid = fractal.render_grid(render)
    fractal.export_grid(grid, fmt, args.out)
    print(f"wrote {args.out} ({fmt}, {'x'.join(map(str, cfg.resolution))}, n_max={cfg.n_max})")
    return 0


# -- parser ---------------------------------------------------------------------

# One parser per process: building it costs milliseconds, and parse_args
# leaves it unchanged.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=_FORMATS, default="text",
                        help="output format (default text)")

    value = argparse.ArgumentParser(add_help=False, parents=[common])
    value.add_argument("--form", choices=("spherical", "cartesian"), default="spherical",
                       help="how the value arguments are encoded (default spherical)")
    value.add_argument("--dim", type=int, default=None, help="validate the value dimension")
    value.add_argument("--fallback", type=_floats, action="append", default=None,
                       metavar="L2,L3,...",
                       help="degenerate longitudes per operand, repeat per value")

    parser = argparse.ArgumentParser(
        prog="hypercomplex",
        description="spherical/hyperspherical number calculator, fractal renderer, interval check",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # op(args, *operands) returns the results; see _cmd_value for the forms
    def val_cmd(name, helptext, nvalues, op, cartesian_op=None):
        p = sub.add_parser(name, parents=[value], help=helptext)
        p.add_argument("values", type=_floats, nargs=nvalues, metavar="VALUE")
        p.set_defaults(func=_cmd_value, op=op, cartesian_op=cartesian_op)
        return p

    val_cmd("mul", "multiply two values", 2, lambda a, x, y: [mul_geometric(x, y)],
            lambda a, x, y: [mul_cartesian(x, y, _fallback_for(a, 0), _fallback_for(a, 1))])
    val_cmd("add", "add two values", 2,
            lambda a, x, y: [to_spherical(add(to_cartesian(x), to_cartesian(y)),
                                          _fallback_for(a, 0))],
            lambda a, x, y: [add(x, y)])
    val_cmd("inv", "multiplicative inverse", 1, lambda a, h: [inverse(h)])
    val_cmd("div", "divide two values", 2, lambda a, x, y: [divide(x, y)])
    p = val_cmd("pow", "integer power", 1, lambda a, h: [pow_int(h, a.exponent)])
    p.add_argument("--exponent", "-m", type=int, required=True)
    p = val_cmd("convert", "convert between forms", 1,
                lambda a, h: [h if a.to == "spherical" else to_cartesian(h)],
                lambda a, h: [h if a.to == "cartesian" else to_spherical(h, _fallback_for(a, 0))])
    p.add_argument("--to", choices=("spherical", "cartesian"), required=True)
    p = val_cmd("roots", "all distinct m-th roots, one per line", 1,
                lambda a, h: extensions.nth_roots(h, a.degree).roots)
    p.add_argument("--degree", "-m", type=int, required=True)
    p = val_cmd("conjugate", "conjugate value", 1,
                lambda a, h: [extensions.conjugate(h, a.variant)])
    p.add_argument("--variant", choices=("full", "second", "third"), default="full")

    # an option not given stays out of args, so the library's default holds
    p = sub.add_parser("property-check", parents=[common], argument_default=argparse.SUPPRESS,
                       help="run the seeded invariant suites")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=_positive_int)
    p.set_defaults(func=_cmd_property_check)

    p = sub.add_parser("fractal", argument_default=argparse.SUPPRESS,
                       help="render an escape-time lattice")
    p.add_argument("--approach", choices=("first", "second"))
    p.add_argument("--nmax", type=int, dest="n_max", metavar="NMAX")
    p.add_argument("--region", type=_region, metavar="x0:x1,y0:y1,z0:z1")
    p.add_argument("--res", type=_resolution, dest="resolution", metavar="rx,ry,rz")
    p.add_argument("--slice", type=_slice_spec, dest="slice_spec", metavar="AXIS=VALUE")
    p.add_argument("--out", required=True,
                   help="output file; its extension picks the format (.pgm, .csv, else voxel)")
    p.set_defaults(func=_cmd_fractal)

    p = sub.add_parser("relativity-check", parents=[common],
                       help="interval-invariance table for boosted displacements")
    p.add_argument("--delta", type=_delta, action="append", required=True,
                   metavar="dx,dy,dz,cdt", help="displacement to boost; repeat for more")
    p.add_argument("--beta", type=float, action="append",
                   help="boost speed as a fraction of c (default 0); repeat for more")
    p.set_defaults(func=_cmd_relativity_check)

    # values like "-1,0,0", "-.5,1,1" or "-inf,1,1" and regions like
    # "-2:2,..." must parse as arguments, not flags; no option here starts
    # with a digit, a dot, "inf" or "nan", so widen argparse's negative-number
    # detection to any token that does after its "-"
    matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)
    for sp in [parser] + list(sub.choices.values()):
        sp._negative_number_matcher = matcher

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
