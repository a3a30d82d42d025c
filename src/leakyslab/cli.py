"""Command-line front end: every computation as a reproducible, file-emitting subcommand.

Outputs are CSV by default (``#``-prefixed metadata lines recording the
exact flags, then a header row) or JSON; identical flags produce
byte-identical files.  No plotting here: the tool emits data for external
renderers.

Exit codes: 0 success, 2 validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bpm import BpmConfig, Propagator, measure_decay, tapered_mode_column
from .core import SlabConfig
from .errors import LeakySlabError
from .fbw import FbwLine, fourier_coefficient, lineshape
from .fields import FieldGrid, default_render_grids, mode_profile, propagate_mode
from .resonances import approximate_resonances, refine_all, refine_resonance
from .scattering import Curve, transmission_sweep
from .shift import shift_sweep, width_sweep

OUTDIR_ENV = "LEAKYSLAB_OUTDIR"


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
    if math.isinf(start) or math.isinf(stop):
        raise ValueError(f"grid endpoints must be finite, got {spec!r}")
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    # a NaN endpoint fails here; a one-point NaN grid fails where it is used
    if count > 1 and not stop > start:
        raise ValueError(f"grid stop must exceed start, got {spec!r}")
    return np.linspace(start, stop, count)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _floats(values) -> list:
    """Values as (nested) lists of Python floats, the form repr and json write."""
    return np.asarray(values, dtype=float).tolist()


def _cells(values):
    """One repr per value in C order, cast to float first; lazy until iterated."""
    yield from map(repr, _floats(np.ravel(values)))


def _write(path: str | None, text: str) -> None:
    """Write text to stdout, or to path (relative paths under $LEAKYSLAB_OUTDIR)."""
    if path is None:
        sys.stdout.write(text)
        return
    p = Path(path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not p.is_absolute():
        p = Path(outdir) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text)


def _csv(command: str, meta: dict, names, columns) -> str:
    """'#' lines naming the command and the sorted flags, a header row, then
    one row per index of the columns of already-formatted cells."""
    lines = [f"# leakyslab {command} v{__version__}"]
    lines.extend(f"# {key}={_fmt(meta[key])}" for key in sorted(meta))
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _json(command: str, meta: dict, **body) -> str:
    """One JSON document with sorted keys; arrays in body become lists of floats."""
    doc = {"command": command, "meta": meta, **body}
    return json.dumps(doc, indent=1, sort_keys=True, default=_floats) + "\n"


def _emit(args, command: str, meta: dict, table) -> int:
    """Write table = (names, columns, body) to -o (or stdout) as --format asks:
    CSV of the formatted cell columns, or JSON of body.  Returns exit code 0."""
    names, columns, body = table
    if args.format == "json":
        text = _json(command, meta, **body)
    else:
        text = _csv(command, meta, names, columns)
    _write(args.output, text)
    return 0


def _curve_table(curve: Curve):
    """A curve's columns by name: the abscissa, then each value column."""
    values = curve.values.reshape(len(curve.abscissa), -1).T
    cols = dict(zip(curve.labels, [curve.abscissa, *values]))
    return cols, map(_cells, cols.values()), {"columns": cols}


def _grid_table(grid: FieldGrid, component: str):
    """CSV: one (x, z, component) row per grid point, z varying fastest, each
    label formatted once.  JSON: the grids and the real and imaginary parts."""
    xs, zs = list(_cells(grid.x_grid)), list(_cells(grid.z_grid))
    columns = (
        itertools.chain.from_iterable(itertools.repeat(x, len(zs)) for x in xs),
        itertools.chain.from_iterable(itertools.repeat(zs, len(xs))),
        _cells(_component(grid.amplitudes, component)),
    )
    body = {"x": grid.x_grid, "z": grid.z_grid,
            "re": grid.amplitudes.real, "im": grid.amplitudes.imag}
    return ("x", "z", f"{component}_E"), columns, body


def field_grid_from_json(path: Path) -> FieldGrid:
    doc = json.loads(path.read_text())
    amps = np.asarray(doc["re"], dtype=float) + 1j * np.asarray(doc["im"], dtype=float)
    return FieldGrid(
        x_grid=np.asarray(doc["x"], dtype=float),
        z_grid=np.asarray(doc["z"], dtype=float),
        amplitudes=amps,
    )


def _component(amplitudes: np.ndarray, which: str) -> np.ndarray:
    if which == "re":
        return amplitudes.real
    if which == "im":
        return amplitudes.imag
    if which == "abs2":
        return np.abs(amplitudes) ** 2
    raise ValueError(f"component must be re|im|abs2, got {which!r}")


def _slab_from(args) -> SlabConfig:
    return SlabConfig(half_width_A=args.k0a, core_index_U0=args.u0)


def cmd_resonances(args) -> int:
    slab = _slab_from(args)
    modes = approximate_resonances(slab)
    meta = {"k0a": args.k0a, "u0": args.u0, "refine": args.refine}
    if not modes:
        sys.stderr.write(
            "warning: no admissible mode index for this slab (empty interval)\n"
        )
    elif args.refine:
        modes = refine_all(modes, slab)
    names = ("m", "eps_R", "half_width_Gamma", "residual", "method")
    rows = [
        (r.mode_index_m, r.eigenvalue.eps_R, r.eigenvalue.half_width_Gamma, r.residual, r.method)
        for r in modes
    ]
    body = {"modes": [dict(zip(names, row)) for row in rows]}
    _emit(args, "resonances", meta, (names, [map(_fmt, col) for col in zip(*rows)], body))
    return 2 if not modes else 0


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
    # a one-point NaN grid passes parse_grid; refuse it before computing on it
    if not np.all(np.isfinite(grid)):
        raise ValueError("abscissa must be finite")
    omega = lineshape(line, grid)
    coeff = fourier_coefficient(line, grid)
    curve = Curve(
        abscissa=grid,
        values=np.column_stack([omega, coeff.real, coeff.imag]),
        labels=("E", "omega", "re_C", "im_C"),
    )
    meta = {"e0": args.e0, "gamma": args.gamma, "grid": args.grid}
    return _emit(args, "fbw", meta, _curve_table(curve))


def _refined_mode(slab: SlabConfig, m: int):
    modes = {r.mode_index_m: r for r in approximate_resonances(slab)}
    if m not in modes:
        raise ValueError(
            f"mode index m={m} is not admissible for this slab "
            f"(allowed: {sorted(modes) or 'none'})"
        )
    return refine_resonance(modes[m], slab)


def cmd_mode_field(args) -> int:
    slab = _slab_from(args)
    res = _refined_mode(slab, args.m)
    field = mode_profile(res, slab)
    x_default, z_default = default_render_grids(slab)
    x = parse_grid(args.x) if args.x else x_default
    z = parse_grid(args.z) if args.z else z_default
    grid = propagate_mode(field, x, z)
    meta = {
        "k0a": args.k0a,
        "u0": args.u0,
        "m": args.m,
        "component": args.component,
        "x": args.x or "default",
        "z": args.z or "default",
    }
    return _emit(args, "mode-field", meta, _grid_table(grid, args.component))


def _bpm_setup(args) -> tuple[SlabConfig, BpmConfig, dict]:
    """Slab, BPM config and the flags they record, shared by propagate and decay."""
    if not (math.isfinite(args.z_max) and args.z_max >= 0):
        raise ValueError(f"z_max must be finite and >= 0, got {args.z_max}")
    slab = _slab_from(args)
    cfg = BpmConfig.for_slab(slab, transverse_halfwidth_X=args.X, nx=args.nx, dz=args.dz)
    meta = {
        "k0a": args.k0a,
        "u0": args.u0,
        "nx": cfg.nx,
        "dz": cfg.dz,
        "X": cfg.transverse_halfwidth_X,
        "z_max": args.z_max,
    }
    return slab, cfg, meta


def cmd_propagate(args) -> int:
    given = [v for v in (args.m, args.packet, args.init_field) if v is not None]
    if len(given) != 1:
        raise ValueError(
            f"choose one initial condition of --m, --packet and --init-field, got {len(given)}"
        )
    if args.snapshots < 2:
        raise ValueError(f"snapshots must be >= 2, got {args.snapshots}")
    slab, cfg, meta = _bpm_setup(args)
    prop = Propagator(cfg)
    if args.init_field is not None:
        grid_in = field_grid_from_json(Path(args.init_field))
        if len(grid_in.x_grid) != cfg.nx or not np.allclose(
            grid_in.x_grid, prop.x, rtol=0, atol=1e-12
        ):
            raise ValueError("--init-field x grid does not match the propagation grid")
        column = grid_in.amplitudes[:, 0].copy()
        if not np.all(np.isfinite(column)):
            raise ValueError("--init-field amplitudes must be finite")
        meta["init"] = "file"
    elif args.m is not None:
        res = _refined_mode(slab, args.m)
        column = tapered_mode_column(mode_profile(res, slab), cfg)
        meta["init"] = f"mode-{args.m}"
        meta["m"] = args.m
    else:
        x0, width, kx = (float(v) for v in args.packet.split(":"))
        if not (math.isfinite(x0) and math.isfinite(kx) and 0 < width < math.inf):
            raise ValueError(f"packet needs finite x0, kx and width > 0, got {args.packet!r}")
        column = np.exp(-((prop.x - x0) ** 2) / (2 * width**2)) * np.exp(
            1j * kx * prop.x
        )
        meta["init"] = "packet"
        meta["packet"] = args.packet

    nsteps = int(round(args.z_max / cfg.dz))
    keep = set(np.round(np.linspace(0, nsteps, args.snapshots)).astype(int).tolist())
    powers = [prop.core_power(column)]
    snaps = {0: column}
    for i, column in enumerate(prop.march(column, nsteps), 1):
        powers.append(prop.core_power(column))
        if args.save_field and i in keep:
            snaps[i] = column

    curve = Curve(
        abscissa=np.arange(nsteps + 1) * cfg.dz,
        values=np.asarray(powers),
        labels=("z", "core_power"),
    )
    _emit(args, "propagate", meta, _curve_table(curve))
    if args.save_field:
        grid_out = FieldGrid(
            x_grid=prop.x,
            z_grid=np.array(list(snaps)) * cfg.dz,
            amplitudes=np.column_stack(list(snaps.values())),
        )
        _write(args.save_field, _json("propagate-field", meta, **_grid_table(grid_out, "re")[2]))
    return 0


def cmd_decay(args) -> int:
    slab, cfg, meta = _bpm_setup(args)
    res = _refined_mode(slab, args.m)
    column = tapered_mode_column(mode_profile(res, slab), cfg)
    rate = measure_decay(cfg, column, args.z_max)
    meta["m"] = args.m
    cols = {"m": [args.m], "measured_rate": [rate],
            "width_Gamma_refined": [res.eigenvalue.width_Gamma]}
    columns = [map(_fmt, col) for col in cols.values()]
    return _emit(args, "decay", meta, (cols, columns, {"columns": cols}))


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
        p.add_argument("--format", choices=("csv", "json"), default="csv")

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
    p.add_argument("--component", choices=("re", "im", "abs2"), default="re")
    p.set_defaults(func=cmd_mode_field)

    def add_bpm(p):
        p.add_argument("--X", type=float, default=None, help="transverse half width (default 4A)")
        p.add_argument("--nx", type=int, default=2049)
        p.add_argument("--dz", type=float, default=0.05)

    p = sub.add_parser("propagate", help="finite-difference propagation of a column")
    add_common(p)
    add_bpm(p)
    p.add_argument("--m", type=int, default=None, help="tapered leaky-mode initial condition")
    p.add_argument("--packet", default=None, help="Gaussian packet x0:width:kx")
    p.add_argument("--init-field", default=None, help="JSON field grid; first z column is used")
    p.add_argument("--z-max", type=float, default=50.0)
    p.add_argument("--save-field", default=None, help="write snapshot field grid (JSON)")
    p.add_argument("--snapshots", type=int, default=11, help="snapshot count for --save-field")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("decay", help="leaky decay rate via propagation + fit")
    add_common(p)
    add_bpm(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z-max", type=float, required=True)
    p.set_defaults(func=cmd_decay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LeakySlabError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
