"""Command-line front end: every computation as a reproducible, file-emitting subcommand.

Every table, and the field snapshots of ``propagate --save-field``, is
written as CSV: ``#``-prefixed metadata lines recording the exact flags,
then a header row.  Identical flags produce byte-identical files.  A table
is written block by block as it is formatted, and a write that fails
part-way removes the regular file it was writing (a device, pipe or link
named by ``-o`` is left in place).  No plotting here: the tool emits data
for external renderers.

``propagate`` and ``decay`` launch the tapered leaky mode ``--m`` on
``BpmConfig.for_slab``'s grid; the header records its ``nx``, ``dz`` and
``X``, which no flag sets.

Exit codes: 0 success, 2 validation problem or unwritable output, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bpm import BpmConfig, Propagator, measure_decay, step_count, tapered_mode_column
from .core import LeakySlabError, SlabConfig
from .fbw import FbwLine, fourier_coefficient, lineshape
from .fields import FieldGrid, mode_profile, propagate_mode
from .resonances import approximate_resonance, approximate_resonances, refine_all, refine_resonance
from .scattering import Curve, transmission_sweep
from .shift import shift_sweep, width_sweep

# most points in one grid or mode-field rectangle (at most 4096 and 321,201
# in the README and the benchmark); a larger count is refused before
# anything of its size is allocated.  Tables are written block by block, so
# it bounds no text: it bounds the complex field grid, 16 B a point, and the
# run time, about 0.6 us of repr a cell
MAX_POINTS = 10**6
# snapshots propagate --save-field keeps: the distinct steps
# round(linspace(0, nsteps, SNAPSHOTS)), or every step of a shorter march
SNAPSHOTS = 11
# rows in one written block of a table, and cells listed at once: the text
# held at once, whatever the table's length
_BLOCK = 4096
# the field components a grid table writes, by their --component name
_COMPONENTS = {
    "re": lambda a: a.real,
    "im": lambda a: a.imag,
    "abs2": lambda a: np.abs(a) ** 2,
}


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:count' into an inclusive linspace."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid specification {spec!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid endpoints must be finite, got {spec!r}")
    if not math.isfinite(stop - start):
        raise ValueError(f"grid span stop - start must be finite, got {spec!r}")
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    if count > MAX_POINTS:
        raise ValueError(f"grid count {count} is more than MAX_POINTS = {MAX_POINTS}")
    if count > 1 and not stop > start:
        raise ValueError(f"grid stop must exceed start, got {spec!r}")
    return np.linspace(start, stop, count)


def _cells(values):
    """One repr per value in C order, cast to float first; lazy until
    iterated, and listed _BLOCK values at a time."""
    flat = np.asarray(values, dtype=float).ravel()
    for i in range(0, len(flat), _BLOCK):
        yield from map(repr, flat[i:i + _BLOCK].tolist())


def _discard(path: Path | None) -> None:
    """Remove a partly written file, if any; a failure to remove it does not
    replace the error being raised."""
    if path is not None:
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)


def _write(path: str | None, blocks) -> Path | None:
    """Write each text block to stdout, or to path, as it is formed.  Returns
    path if it names a regular file itself, else None (stdout, a device, a
    pipe or a symlink); a write that raises part-way removes that regular
    file, and only it, then re-raises."""
    if path is None:
        sys.stdout.writelines(blocks)
        return None
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    regular = None
    try:
        with p.open("w") as file:
            st = os.fstat(file.fileno())
            if stat.S_ISREG(st.st_mode) and os.path.samestat(st, os.lstat(p)):
                regular = p
            file.writelines(blocks)
    except BaseException:
        _discard(regular)
        raise
    return regular


def _csv(command: str, meta: dict, names, columns):
    """Yield '#' lines naming the command and the sorted flags and a header
    row, then one row per index of the columns of already-formatted cells,
    _BLOCK rows to a text block."""
    lines = [f"# leakyslab {command} v{__version__}"]
    lines.extend(f"# {key}={meta[key]}" for key in sorted(meta))
    lines.append(",".join(names))
    yield "\n".join(lines) + "\n"
    rows = map(",".join, zip(*columns))
    while block := "\n".join(itertools.islice(rows, _BLOCK)):
        yield block + "\n"


def _emit(args, command: str, meta: dict, table) -> int:
    """Write table = (names, columns) as CSV to -o (or stdout).  Returns exit code 0."""
    _write(args.output, _csv(command, meta, *table))
    return 0


def _curve_table(curve: Curve):
    """A curve's column names and cells: the abscissa, then each value column."""
    values = curve.values.reshape(len(curve.abscissa), -1).T
    return curve.labels, map(_cells, [curve.abscissa, *values])


def _grid_table(grid: FieldGrid, *components: str):
    """One (x, z, *components) row per grid point, z varying fastest, each
    label formatted once."""
    xs, zs = list(_cells(grid.x_grid)), list(_cells(grid.z_grid))
    columns = (
        itertools.chain.from_iterable(itertools.repeat(x, len(zs)) for x in xs),
        itertools.chain.from_iterable(itertools.repeat(zs, len(xs))),
        *(_cells(_COMPONENTS[c](grid.amplitudes)) for c in components),
    )
    return ("x", "z", *(f"{c}_E" for c in components)), columns


def _slab_from(args) -> SlabConfig:
    return SlabConfig(half_width_A=args.k0a, core_index_U0=args.u0)


def cmd_resonances(args) -> int:
    slab = _slab_from(args)
    seeds = approximate_resonances(slab)
    modes = refine_all(seeds, slab) if args.refine else seeds
    meta = {"k0a": args.k0a, "u0": args.u0, "refine": args.refine}
    if not modes:
        raise ValueError("no leaky mode for this slab (every admissible index is anti-bound)"
                         if seeds else "no admissible mode index for this slab (empty interval)")
    names = ("m", "eps_R", "half_width_Gamma", "residual", "method")
    rows = [
        (r.mode_index_m, r.eigenvalue.eps_R, r.eigenvalue.half_width_Gamma, r.residual, r.method)
        for r in modes
    ]
    return _emit(args, "resonances", meta, (names, [map(str, col) for col in zip(*rows)]))


def cmd_transmission(args) -> int:
    slab = _slab_from(args)
    curve = transmission_sweep(parse_grid(args.eps), slab)
    meta = {"k0a": args.k0a, "u0": args.u0, "eps": args.eps}
    return _emit(args, "transmission", meta, _curve_table(curve))


def cmd_shift(args) -> int:
    if args.eps is not None and (args.eps_fixed is not None or args.k0a_sweep is not None):
        raise ValueError("choose either --eps or --eps-fixed with --k0a-sweep")
    slab = _slab_from(args)
    if args.eps is not None:
        curve = shift_sweep(parse_grid(args.eps), slab)
        meta = {"k0a": args.k0a, "u0": args.u0, "eps": args.eps}
    else:
        if args.eps_fixed is None or args.k0a_sweep is None:
            raise ValueError("width sweep needs both --eps-fixed and --k0a-sweep")
        curve = width_sweep(args.eps_fixed, parse_grid(args.k0a_sweep), slab.core_index_U0)
        meta = {"eps_fixed": args.eps_fixed, "k0a_sweep": args.k0a_sweep, "u0": args.u0}
    return _emit(args, "shift", meta, _curve_table(curve))


def cmd_fbw(args) -> int:
    line = FbwLine(center_E0=args.e0, width_Gamma=args.gamma)
    grid = parse_grid(args.grid)
    omega = lineshape(line, grid)
    coeff = fourier_coefficient(line, grid)
    curve = Curve(
        abscissa=grid,
        values=np.column_stack([omega, coeff.real, coeff.imag]),
        labels=("E", "omega", "re_C", "im_C"),
    )
    meta = {"e0": args.e0, "gamma": args.gamma, "grid": args.grid}
    return _emit(args, "fbw", meta, _curve_table(curve))


def cmd_mode_field(args) -> int:
    slab = _slab_from(args)
    seed = approximate_resonance(args.m, slab)
    # the default x grid, spacing A/200, gives each interior half-wave pi/Q
    # (Q <= sqrt(2)*U0) at least 100*pi/(sqrt(2)*U0*A) samples: 9.9 on the
    # reference slab, and fewer than 2 once U0*A > 100*pi/sqrt(2) = 222.1
    A, U0 = slab.half_width_A, slab.core_index_U0
    if not args.x and U0 * A > 100 * math.pi / math.sqrt(2.0):
        raise ValueError(f"the default --x grid -2A:2A:801 gives an interior half-wave fewer "
                         f"than 2 samples once U0*k0a > 222.1 (here {U0 * A:g}); give --x")
    x = parse_grid(args.x) if args.x else np.linspace(-2 * A, 2 * A, 801)
    z = parse_grid(args.z) if args.z else np.linspace(0.0, 200.0, 401)
    if len(x) * len(z) > MAX_POINTS:
        raise ValueError(f"{len(x)} x {len(z)} field points is more than MAX_POINTS = {MAX_POINTS}")
    grid = propagate_mode(mode_profile(refine_resonance(seed, slab), slab), x, z)
    meta = {
        "k0a": args.k0a,
        "u0": args.u0,
        "m": args.m,
        "component": args.component,
        "x": args.x or "default",
        "z": args.z or "default",
    }
    return _emit(args, "mode-field", meta, _grid_table(grid, args.component))


def _bpm_setup(args):
    """BpmConfig.for_slab's config, the steps to --z-max, the refined --m
    mode, its tapered launch column and the flags they record, shared by
    propagate and decay."""
    slab = _slab_from(args)
    cfg = BpmConfig.for_slab(slab)
    nsteps = step_count(args.z_max, cfg.dz)
    res = refine_resonance(approximate_resonance(args.m, slab), slab)
    column = tapered_mode_column(mode_profile(res, slab), cfg)
    meta = {
        "k0a": args.k0a,
        "u0": args.u0,
        "m": args.m,
        "nx": cfg.nx,
        "dz": cfg.dz,
        "X": cfg.transverse_halfwidth_X,
        "z_max": args.z_max,
    }
    return cfg, nsteps, res, column, meta


def cmd_propagate(args) -> int:
    cfg, nsteps, _, column, meta = _bpm_setup(args)
    prop = Propagator(cfg)
    plan = np.linspace(0, nsteps, SNAPSHOTS)
    keep = set(np.round(plan).astype(int).tolist()) if args.save_field else set()
    powers = [prop.core_power(column)]
    snaps = {0: column}
    for i, column in enumerate(prop.march(column, nsteps), 1):
        powers.append(prop.core_power(column))
        if i in keep:
            snaps[i] = column

    # the field is written first, and removed if the curve then cannot be,
    # so that a run that exits 2 leaves no file behind
    field_path = None
    if args.save_field:
        grid_out = FieldGrid(
            x_grid=prop.x,
            z_grid=np.array(list(snaps)) * cfg.dz,
            amplitudes=np.column_stack(list(snaps.values())),
        )
        field_path = _write(args.save_field,
                            _csv("propagate-field", meta, *_grid_table(grid_out, "re", "im")))
    curve = Curve(
        abscissa=np.arange(nsteps + 1) * cfg.dz,
        values=np.asarray(powers),
        labels=("z", "core_power"),
    )
    try:
        return _emit(args, "propagate", meta, _curve_table(curve))
    except BaseException:
        _discard(field_path)
        raise


def cmd_decay(args) -> int:
    cfg, _, res, column, meta = _bpm_setup(args)
    rate = measure_decay(cfg, column, args.z_max)
    names = ("m", "measured_rate", "width_Gamma_refined")
    row = (args.m, rate, res.eigenvalue.width_Gamma)
    return _emit(args, "decay", meta, (names, [[str(v)] for v in row]))


class _Parser(argparse.ArgumentParser):
    # accept option values like -0.999:-0.001:4096 (leading minus + colons)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leakyslab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, slab=True):
        if slab:
            p.add_argument("--k0a", type=float, required=True, help="slab half width k0*a")
            p.add_argument("--u0", type=float, required=True, help="core refractive index")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("resonances", help="leaky-mode eigenvalue table")
    add_common(p)
    p.add_argument("--refine", action="store_true", help="Newton-polish the eigenvalues")
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("transmission", help="transmission coefficient sweep")
    add_common(p)
    p.add_argument("--eps", required=True, help="eps_R grid start:stop:count")
    p.set_defaults(func=cmd_transmission)

    p = sub.add_parser("shift", help="longitudinal shift sweeps")
    add_common(p)
    p.add_argument("--eps", default=None, help="eps_R grid start:stop:count")
    p.add_argument("--eps-fixed", type=float, default=None, help="fixed eps_R for a width sweep")
    p.add_argument("--k0a-sweep", default=None, help="width grid start:stop:count")
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("fbw", help="Lorentzian lineshape curve")
    add_common(p, slab=False)
    p.add_argument("--e0", type=float, required=True, help="line center")
    p.add_argument("--gamma", type=float, required=True, help="full line width")
    p.add_argument("--grid", required=True, help="energy grid start:stop:count")
    p.set_defaults(func=cmd_fbw)

    p = sub.add_parser("mode-field", help="leaky-mode field on an (x, z) rectangle")
    add_common(p)
    p.add_argument("--m", type=int, required=True, help="mode index")
    p.add_argument("--x", default=None, help="x grid start:stop:count (default -2A:2A:801)")
    p.add_argument("--z", default=None, help="z grid start:stop:count (default 0:200:401)")
    p.add_argument("--component", choices=tuple(_COMPONENTS), default="re")
    p.set_defaults(func=cmd_mode_field)

    p = sub.add_parser("propagate", help="finite-difference propagation of a tapered leaky mode")
    add_common(p)
    p.add_argument("--m", type=int, required=True, help="mode index of the launched leaky mode")
    p.add_argument("--z-max", type=float, default=50.0)
    p.add_argument(
        "--save-field", default=None, help=f"write {SNAPSHOTS} snapshots (CSV x,z,re_E,im_E)"
    )
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("decay", help="leaky decay rate via propagation + fit")
    add_common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z-max", type=float, required=True)
    p.set_defaults(func=cmd_decay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow is refused with its own error line, so numpy need not
        # warn of it first
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LeakySlabError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
