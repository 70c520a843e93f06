"""Independent references the benchmark checks the program's outputs against.

Nothing here imports the program.  Each check returns a list of problems
(empty when the output is right), so a run can report every failure at once.
"""

from __future__ import annotations

import ast
import json
import math

TAU = 2.0 * math.pi


# -- fractal ------------------------------------------------------------------

def centres(lo: float, hi: float, n: int) -> list[float]:
    """Cell-centre coordinates of an n-cell axis over [lo, hi]."""
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]


def classical_escape(cx: float, cy: float, n_max: int) -> int:
    """Complex escape map z -> z^2 + c: first n with |z_n|^2 > 4, else n_max."""
    x = y = 0.0
    for n in range(1, n_max + 1):
        x, y = x * x - y * y + cx, 2.0 * x * y + cy
        if x * x + y * y > 4.0:
            return n
    return n_max


def escape_byte(n: int, n_max: int) -> int:
    """README byte coding: 0 = member, escape at n -> 1 + floor(254(n-1)/(n_max-1))."""
    return 0 if n >= n_max else 1 + (254 * (n - 1)) // (n_max - 1)


def _plane_map(ps: list[float], qs: list[float], n_max: int) -> list[list[int]]:
    return [[classical_escape(p, q, n_max) for q in qs] for p in ps]


def check_voxel(data: bytes, meta: str, spec: dict) -> list[str]:
    """``first`` approach voxel file: its z = 0 plane is the complex map in (x, y)."""
    rx, ry, rz = spec["res"]
    n_max = spec["n_max"]
    if len(data) != rx * ry * rz:
        return [f"voxel length {len(data)} != {rx * ry * rz}"]
    problems = []
    fields = dict(line.split("=", 1) for line in meta.splitlines() if "=" in line)
    want = {"region": spec["region"], "resolution": (rx, ry, rz),
            "approach": spec["approach"], "n_max": n_max}
    for key, value in want.items():
        raw = fields.get(key)
        got = raw if key == "approach" else (None if raw is None else ast.literal_eval(raw))
        if got != value:
            problems.append(f"meta {key}={raw!r}, expected {value!r}")
    xs, ys = (centres(*spec["region"][a], spec["res"][a]) for a in (0, 1))
    iz = rz // 2
    plane = _plane_map(xs, ys, n_max)
    bad = sum(
        data[ix + rx * (iy + ry * iz)] != escape_byte(plane[ix][iy], n_max)
        for ix in range(rx) for iy in range(ry)
    )
    if bad:
        problems.append(f"voxel z=0 plane: {bad} cells differ from the complex map")
    return problems


def check_pgm(data: bytes, spec: dict) -> list[str]:
    """``second`` approach y = 0 slice: the complex map in (x, z), top row = max z."""
    rx, _, rz = spec["res"]
    n_max = spec["n_max"]
    header = f"P5\n{rx} {rz}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + rx * rz:
        return [f"pgm header/length wrong: {data[:20]!r}, {len(data)} bytes"]
    pixels = data[len(header):]
    xs, zs = (centres(*spec["region"][a], spec["res"][a]) for a in (0, 2))
    plane = _plane_map(xs, zs, n_max)
    bad = sum(
        pixels[row * rx + ix] != escape_byte(plane[ix][rz - 1 - row], n_max)
        for row in range(rz) for ix in range(rx)
    )
    return [f"pgm y=0 slice: {bad} pixels differ from the complex map"] if bad else []


def check_csv(text: str, spec: dict) -> list[str]:
    """CSV rows x fastest, centres at 10 significant digits, -1 for members,
    and the approach's reduction plane equal to the complex map."""
    rx, ry, rz = spec["res"]
    n_max = spec["n_max"]
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "x,y,z,escape":
        return [f"csv header {lines[:1]!r}"]
    rows = lines[1:]
    if len(rows) != rx * ry * rz:
        return [f"csv has {len(rows)} rows, expected {rx * ry * rz}"]
    axes = [centres(*spec["region"][a], spec["res"][a]) for a in range(3)]
    labels = [[f"{c:.9e}" for c in axis] for axis in axes]
    first = spec["approach"] == "first"
    mid = (rz if first else ry) // 2
    plane = _plane_map(axes[0], axes[1] if first else axes[2], n_max)
    bad_coord = bad_code = bad_plane = 0
    i = 0
    for iz in range(rz):
        for iy in range(ry):
            for ix in range(rx):
                x, y, z, esc = rows[i].split(",")
                i += 1
                if (x, y, z) != (labels[0][ix], labels[1][iy], labels[2][iz]):
                    bad_coord += 1
                esc = int(esc)
                if not (esc == -1 or 1 <= esc < n_max):
                    bad_code += 1
                if (iz if first else iy) == mid:
                    n = plane[ix][iy if first else iz]
                    if esc != (-1 if n >= n_max else n):
                        bad_plane += 1
    problems = []
    if bad_coord:
        problems.append(f"csv: {bad_coord} rows with wrong cell-centre coordinates")
    if bad_code:
        problems.append(f"csv: {bad_code} escape values outside -1 or 1..n_max-1")
    if bad_plane:
        problems.append(f"csv: {bad_plane} reduction-plane cells differ from the complex map")
    return problems


def member_fraction(data) -> float:
    """Share of members in a decoded voxel file or CSV export."""
    if isinstance(data, bytes):
        return data.count(0) / len(data)
    rows = data.count("\n") - 1
    return data.count(",-1\n") / rows


# -- algebra ------------------------------------------------------------------

def cartesian(r: float, args) -> list[float]:
    """x_k = r sin(theta_k) prod_{n>k} cos(theta_n); x_1 takes the full product."""
    n = len(args) + 1
    out = [0.0] * n
    cum = 1.0
    for k in range(n, 1, -1):
        out[k - 1] = r * math.sin(args[k - 2]) * cum
        cum *= math.cos(args[k - 2])
    out[0] = r * cum
    return out


def enumerate_roots(args, m: int) -> list[tuple[float, ...]]:
    """Canonical argument tuples (longitude in [0, 2pi), latitudes in
    [-pi/2, pi/2]) whose m-fold arguments name the same point as ``args``.

    Solved from the top component down: m*phi_N must put sin on x_N and
    |cos| on the rest, which leaves two angles mod 2pi; the branch with a
    negative cosine flips the point the lower angles must name.
    """
    def solve(q):
        if len(q) == 2:
            a = math.atan2(q[1], q[0])
            return [(((a + TAU * j) / m) % TAU,) for j in range(m)]
        a = math.atan2(q[-1], math.hypot(*q[:-1]))
        out = []
        for angle, sign in ((a, 1.0), (math.pi - a, -1.0)):
            lower = solve([sign * c for c in q[:-1]])
            for j in range(-m - 1, m + 2):
                phi = (angle + TAU * j) / m
                if -0.5 * math.pi <= phi <= 0.5 * math.pi:
                    out += [tup + (phi,) for tup in lower]
        return out

    return solve(cartesian(1.0, args))


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_property_report(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines:
        return ["property-check printed nothing"]
    failed = [line for line in lines if not line.startswith("PASS ")]
    return [f"property-check probe not passed: {line}" for line in failed]


def check_roots(text: str, spec: dict) -> list[str]:
    """Each root powers back under (r^m, m*args) within 1e-8, roots are
    pairwise distinct, and there are as many as ``enumerate_roots`` finds."""
    m = spec["m"]
    r, args = spec["value"][0], spec["value"][1:]
    target = cartesian(r, args)
    roots = _json_lines(text)
    problems = []
    if len(roots) != spec["expected_roots"]:
        problems.append(f"{len(roots)} roots printed, {spec['expected_roots']} enumerated")
    points = []
    worst = 0.0
    for root in roots:
        back = cartesian(root["modulus"] ** m, [m * a for a in root["args"]])
        worst = max(worst, max(abs(p - t) for p, t in zip(back, target)))
        points.append(cartesian(root["modulus"], root["args"]))
    if worst > 1e-8:
        problems.append(f"a root powers back {worst:.3e} away (tol 1e-8)")
    close = sum(
        max(abs(a - b) for a, b in zip(points[i], points[j])) <= 1e-7
        for i in range(len(points)) for j in range(i)
    )
    if close:
        problems.append(f"{close} pairs of roots coincide")
    return problems


def check_mul(text: str, spec: dict) -> list[str]:
    (got,) = _json_lines(text)
    a, b = spec["a"], spec["b"]
    modulus = a[0] * b[0]
    want = cartesian(modulus, [x + y for x, y in zip(a[1:], b[1:])])
    have = cartesian(got["modulus"], got["args"])
    gap = max(abs(x - y) for x, y in zip(have, want))
    problems = []
    if got["modulus"] != modulus:
        problems.append(f"mul modulus {got['modulus']!r} != {modulus!r}")
    if gap > 1e-12 * max(1.0, modulus):
        problems.append(f"mul product is {gap:.3e} from moduli-multiply, arguments-add")
    return problems


def check_relativity(text: str, spec: dict) -> list[str]:
    """Every (delta, beta) row in order, spatial modulus = |ds^2| of delta."""
    rows = _json_lines(text)
    pairs = [(d, b) for d in spec["deltas"] for b in spec["betas"]]
    if len(rows) != len(pairs):
        return [f"relativity-check printed {len(rows)} rows, expected {len(pairs)}"]
    problems = []
    for row, (d, beta) in zip(rows, pairs):
        dx, dy, dz, cdt = d
        if row["delta"] != list(d) or row["beta"] != beta:
            problems.append(f"relativity row out of order: {row}")
            continue
        ds2 = abs(cdt * cdt - dx * dx - dy * dy - dz * dz)
        gamma2 = 1.0 / (1.0 - beta * beta)
        tol = 1e-9 * gamma2 * (abs(dx) + abs(dy) + abs(dz) + abs(cdt)) ** 2
        if abs(row["spatial_modulus"] - ds2) > tol:
            problems.append(f"spatial modulus {row['spatial_modulus']!r} != |ds^2| {ds2!r}")
    return problems
