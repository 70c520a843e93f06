#!/usr/bin/env python3
"""Render the 3D escape-time set with both iteration schemes and export
cross sections.

Writes into ./out/: one PGM per approach for the z=0 and y=0 planes, plus a
small voxel volume with its sidecar.  The y=0 plane of the second approach
(and the z=0 plane of the first) is exactly the classical complex
escape-time picture.
"""

import pathlib

import numpy as np

from hypercomplex import FractalConfig, export_grid, render_grid
from hypercomplex.fractal import axis_centers

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

for approach in ("first", "second"):
    for axis in ("z", "y"):
        region = {
            "z": ((-2.0, 2.0), (-2.0, 2.0), (0.0, 0.0)),
            "y": ((-2.0, 2.0), (0.0, 0.0), (-2.0, 2.0)),
        }[axis]
        resolution = (192, 192, 1) if axis == "z" else (192, 1, 192)
        cfg = FractalConfig(
            approach=approach,
            n_max=100,
            region=region,
            resolution=resolution,
            slice_spec=(axis, 0.0),
        )
        grid = render_grid(cfg)
        members = int((grid.counts == cfg.n_max).sum())
        path = OUT / f"{approach}_{axis}0.pgm"
        export_grid(grid, "pgm_slice", path)
        print(f"{approach:>6} approach, {axis}=0 plane: {members:5d} member cells -> {path.name}")

print()
cfg = FractalConfig(approach="first", n_max=60, region=((-2.0, 2.0),) * 3,
                    resolution=(48, 48, 48))
grid = render_grid(cfg)
members = int((grid.counts == cfg.n_max).sum())
print(f"48^3 volume: {members} member cells of {48 ** 3}")

counts = np.asarray(grid.counts)
profile = (counts == cfg.n_max).sum(axis=(0, 1))
bar_max = int(profile.max())
print("membership per z layer:")
zs = axis_centers(-2.0, 2.0, 48)
for iz in range(0, 48, 4):
    z = zs[iz]
    bar = "#" * int(40 * profile[iz] / bar_max) if bar_max else ""
    print(f"  z={z:+5.2f} {profile[iz]:5d} {bar}")

vol = OUT / "volume_48.raw"
export_grid(grid, "voxel_raw", vol)
print(f"voxel volume -> {vol.name} (+ {vol.name}.meta)")
