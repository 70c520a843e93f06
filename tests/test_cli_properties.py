"""Hypothesis property: the value commands print what the library computes.

Each example runs one of the eight value commands through ``cli.main`` in
process, in either ``--form``, any ``--format``, with none, one or two
``--fallback``s, on operands from the edges of the float range: +-0,
subnormals, 1e+-300, the largest float, latitudes exactly at +-pi/2 and
longitudes one ulp below 2*pi.  Each example spells its numbers one way:
``repr``, ``%.17g``, without the leading zero (``-.5``) or upper case.

Oracle: the library calls themselves, along the paths ``_cmd_value``'s
docstring describes.  Spherical operands go to the command's geometric op as
given and cartesian ones to its cartesian op (``mul``, ``add``,
``convert``); any other command converts cartesian operand i with fallback i,
runs the geometric op and converts its results back.  On success stdout is
those results printed by ``_emit`` (``emit_value`` for one result), with
exit 0 and nothing on stderr.  On a library error stdout is empty, stderr is
``error: `` plus the exception's text, and the exit code is 1.  Nothing
escapes ``cli.main`` as a traceback, and no argv here is a usage error.
"""

import contextlib
import io
import math
import re

import pytest

from conftest import TAU
from hypercomplex import (
    CartesianVec,
    DegenerateArgs,
    SphericalForm,
    add,
    conjugate,
    divide,
    inverse,
    mul_cartesian,
    mul_geometric,
    nth_roots,
    pow_int,
    to_cartesian,
    to_spherical,
)
from hypercomplex import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PI = math.pi
HUGE = 1.7976931348623157e308

# op(option, fallback, *operands) -> results; fallback(i) is the i-th one or None
_GEOMETRIC = {
    "mul": lambda o, fb, x, y: [mul_geometric(x, y)],
    "add": lambda o, fb, x, y: [to_spherical(add(to_cartesian(x), to_cartesian(y)), fb(0))],
    "inv": lambda o, fb, h: [inverse(h)],
    "div": lambda o, fb, x, y: [divide(x, y)],
    "pow": lambda o, fb, h: [pow_int(h, o)],
    "convert": lambda o, fb, h: [h if o == "spherical" else to_cartesian(h)],
    "roots": lambda o, fb, h: nth_roots(h, o).roots,
    "conjugate": lambda o, fb, h: [conjugate(h, o)],
}
_CARTESIAN = {
    "mul": lambda o, fb, x, y: [mul_cartesian(x, y, fb(0), fb(1))],
    "add": lambda o, fb, x, y: [add(x, y)],
    "convert": lambda o, fb, h: [h if o == "cartesian" else to_spherical(h, fb(0))],
}
_ARITY = {"mul": 2, "add": 2, "div": 2}
# the option each command takes, its flag and its values; roots stays at m <= 3
_OPTION = {
    "pow": ("-m", st.integers(-3, 3)),
    "roots": ("-m", st.integers(-1, 3)),
    "convert": ("--to", st.sampled_from(("spherical", "cartesian"))),
    "conjugate": ("--variant", st.sampled_from(("full", "second", "third"))),
}

moduli = st.sampled_from(
    (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 2.0, 1e300, HUGE, -1.0)
) | st.floats(0.0, HUGE)
longitudes = st.sampled_from(
    (0.0, -0.0, math.nextafter(TAU, 0.0), TAU, PI, -PI / 2, 5e-324)
) | st.floats(-2 * TAU, 2 * TAU)
latitudes = st.sampled_from(
    (PI / 2, -PI / 2, math.nextafter(PI / 2, 0.0), math.nextafter(PI / 2, 4.0), 0.0, -0.0)
) | st.floats(-PI, PI)
components = st.sampled_from(
    (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1.0, -2.0, 1e300, -1e300, HUGE)
) | st.floats(allow_nan=False, allow_infinity=False)


def _operand(form, dim):
    if form == "spherical":
        return st.tuples(moduli, longitudes, *[latitudes] * (dim - 2))
    # up to dim leading zeros, so degenerate operands are common
    zeros = st.sampled_from((0.0, -0.0))
    return st.integers(0, dim).flatmap(
        lambda k: st.tuples(*[zeros] * k, *[components] * (dim - k)))


def _draw_case(draw, cmd, form):
    fmt = draw(st.sampled_from(("text", "json-lines", "csv")))
    dim = draw(st.integers(2, 4))
    operands = [draw(_operand(form, dim)) for _ in range(_ARITY.get(cmd, 1))]
    n_fallbacks = draw(st.integers(0, 2))
    fallbacks = [draw(st.lists(longitudes, min_size=1, max_size=3)) for _ in range(n_fallbacks)]
    flag, values = _OPTION.get(cmd, (None, st.none()))
    spelling = draw(st.sampled_from(tuple(_SPELLINGS)))
    return fmt, dim, operands, fallbacks, flag, draw(values), draw(st.booleans()), spelling


# ways to write a float that parse back to it; "-.5" must not read as an
# option
_SPELLINGS = {
    "repr": repr,
    "%.17g": lambda v: "%.17g" % v,
    "no leading zero": lambda v: re.sub(r"^(-?)0\.(?=\d)", r"\1.", repr(v)),
    "upper case": lambda v: repr(v).upper(),
}


def _csv(values, spelling):
    return ",".join(map(_SPELLINGS[spelling], values))


def _library(cmd, form, fmt, operands, fallbacks, option):
    """(exit code, stdout, stderr) that the library's own calls give."""
    def fallback(i):
        return DegenerateArgs(fallbacks[i]) if i < len(fallbacks) else None

    try:
        if form == "spherical":
            hs = [SphericalForm(v[0], v[1:]) for v in operands]
            results = _GEOMETRIC[cmd](option, fallback, *hs)
        elif cmd in _CARTESIAN:
            results = _CARTESIAN[cmd](option, fallback, *map(CartesianVec, operands))
        else:
            hs = [to_spherical(CartesianVec(v), fallback(i)) for i, v in enumerate(operands)]
            results = [to_cartesian(r) for r in _GEOMETRIC[cmd](option, fallback, *hs)]
    except (ValueError, ArithmeticError) as exc:
        return 1, "", f"error: {exc}\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if len(results) == 1:
            cli.emit_value(results[0], fmt)
        else:
            cli._emit(results, fmt)
    return 0, out.getvalue(), ""


# every command in both forms gets its own examples
@pytest.mark.parametrize("form", ["spherical", "cartesian"])
@pytest.mark.parametrize("cmd", sorted(_GEOMETRIC))
@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_value_commands_print_the_library_results_or_its_error(cmd, form, data):
    fmt, dim, operands, fallbacks, flag, option, with_dim, spelling = _draw_case(
        data.draw, cmd, form)
    argv = [cmd, "--form", form, "--format", fmt]
    if with_dim:
        argv += ["--dim", str(dim)]
    for fb in fallbacks:
        argv += ["--fallback", _csv(fb, spelling)]
    if flag:
        argv += [flag, str(option)]
    argv += [_csv(v, spelling) for v in operands]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == _library(
        cmd, form, fmt, operands, fallbacks, option)
