"""The benchmark's three workloads: seeded inputs, one op, and its checks.

Every workload is a closed loop with one client: the next op starts when
the previous one has finished.  Inputs come from ``numpy.random`` seeded
with the run's seed, so a seed always yields the same sequence of inputs.
A run draws ``pool_size`` inputs in set-up and cycles over them.
The library is driven only through its public functions and its CLI.

Checks run after the first op on each input, outside the timed region.
A check failure marks the input as failed.  ``Failure.wrong_value``
separates a result that is wrong (the run is then not ``correct``) from an
op that did not deliver a complete result: it raised, exited non-zero, or
returned a root set that misses or repeats a root, which the roadmap asks
``refine_all`` to report as a typed error.
"""

from __future__ import annotations

import inspect
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import leakyslab as ls
from leakyslab import cli

# The paper's 17 leaky modes of the k0a = 30, U0 = 1.5 slab, eps_R and
# Gamma/2, tabulated to six decimals; the closed-form seeds must match them.
REFERENCE_SLAB = ls.SlabConfig(half_width_A=30.0, core_index_U0=1.5)
REFERENCE_EIGENVALUES = {
    24: (-0.973621, 0.0051042),
    25: (-0.928842, 0.0083833),
    26: (-0.882236, 0.0107847),
    27: (-0.833802, 0.0128120),
    28: (-0.783540, 0.0146215),
    29: (-0.731450, 0.0162860),
    30: (-0.677533, 0.0178462),
    31: (-0.621788, 0.0193273),
    32: (-0.564215, 0.0207462),
    33: (-0.504815, 0.0221150),
    34: (-0.443587, 0.0234424),
    35: (-0.380531, 0.0247350),
    36: (-0.315647, 0.0259981),
    37: (-0.248936, 0.0272358),
    38: (-0.180397, 0.0284514),
    39: (-0.110031, 0.0296476),
    40: (-0.037836, 0.0308267),
}

# Slab envelope of the spectrum and cli workloads.
K0A_RANGE = (5.0, 60.0)  # log-uniform
U0_RANGE = (1.05, 2.0)  # uniform

BAND_SPEC = "-0.999:-0.001:4096"
BAND_GRID = np.linspace(-0.999, -0.001, 4096)
WIDTH_EPS = -0.995
WIDTH_SPEC = "1:60:1200"
WIDTH_GRID = np.linspace(1.0, 60.0, 1200)
FBW_SPEC = "-1:0:501"
DEFAULT_BOX = ((-0.999, -0.001), (-0.15, 0.05))  # count_leaky_modes defaults

# crosscheck: decay-identity grid (as acceptance criterion 10) and BPM run length
DECAY_X = np.linspace(-50.0, 50.0, 101)
DECAY_Z = np.linspace(0.0, 80.0, 41)
Z_MAX = 110.0

# Modes whose BPM and wave-packet errors give decay_rel_err and shift_rel_err.
# The set is fixed so the two error metrics do not depend on the seed.
PROBE_MODES = (24, 32, 40)

FLUX_POINTS = 8
FD_POINTS = 4
FD_STEP = 1e-6


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str
    wrong_value: bool = True


class SlabStream:
    """Seeded slabs, Latin-hypercube stratified in blocks of ``STRATA``.

    Every block of draws puts one slab in each of ``STRATA`` equal slices
    of log k0a and of U0, so runs of different seeds see the same mix of
    thin and thick, weak and strong slabs, while each slab is random.
    """

    STRATA = 16

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.block: list[tuple[float, float]] = []

    def _refill(self) -> None:
        n, rng = self.STRATA, self.rng
        a = (rng.permutation(n) + rng.uniform(size=n)) / n
        b = (rng.permutation(n) + rng.uniform(size=n)) / n
        lo, hi = math.log(K0A_RANGE[0]), math.log(K0A_RANGE[1])
        self.block = [(math.exp(lo + x * (hi - lo)),
                       float(U0_RANGE[0] + y * (U0_RANGE[1] - U0_RANGE[0])))
                      for x, y in zip(a, b)]

    def next(self) -> ls.SlabConfig:
        if not self.block:
            self._refill()
        k0a, u0 = self.block.pop()
        return ls.SlabConfig(half_width_A=round(k0a, 6), core_index_U0=round(u0, 6))


def check_reference_table(seeds) -> list[Failure]:
    """The closed-form seeds of the reference slab against the paper's table."""
    got = {r.mode_index_m: r.eigenvalue for r in seeds}
    if sorted(got) != sorted(REFERENCE_EIGENVALUES):
        return [Failure("reference_table", f"mode indices {sorted(got)}, expected 24..40")]
    out = []
    for m, (eps_r, half_gamma) in REFERENCE_EIGENVALUES.items():
        err = max(abs(got[m].eps_R - eps_r), abs(got[m].half_width_Gamma - half_gamma))
        if err > 1e-6:
            out.append(Failure("reference_table", f"m={m} differs by {err:.2e}"))
    return out


def reference_modes() -> dict:
    """Refined modes of the reference slab by index, after the table check."""
    seeds = ls.approximate_resonances(REFERENCE_SLAB)
    problems = check_reference_table(seeds)
    if problems:
        raise RuntimeError("; ".join(p.detail for p in problems))
    return {r.mode_index_m: r for r in ls.refine_all(seeds, REFERENCE_SLAB)}


def _default(func, name):
    return inspect.signature(func).parameters[name].default


# ---------------------------------------------------------------- spectrum


@dataclass(frozen=True)
class SpectrumInput:
    slab: ls.SlabConfig
    flux_eps: np.ndarray
    fd_eps: np.ndarray


@dataclass
class SpectrumResult:
    seeds: list
    modes: list
    count: int
    curves: tuple
    lorentz: list


class Spectrum:
    """Analytic layers over a seeded slab: roots, count, T/phase and shift sweeps."""

    name = "spectrum"
    round_size = 1
    pool_size = 8 * SlabStream.STRATA  # ~10 s of ops: a 20 s run passes the pool twice

    def __init__(self, seed: int, tracer):
        self.rng = np.random.default_rng(seed)
        self.slabs = SlabStream(self.rng)
        self.tracer = tracer

    def setup(self) -> None:
        reference_modes()
        warm = SpectrumInput(REFERENCE_SLAB, np.array([-0.5]), np.array([-0.5]))
        self.check(warm, self.run(warm))

    def next_input(self) -> SpectrumInput:
        slab = self.slabs.next()
        return SpectrumInput(
            slab,
            flux_eps=self.rng.uniform(-0.999, -0.001, FLUX_POINTS),
            fd_eps=self.rng.uniform(-0.995, -0.005, FD_POINTS),
        )

    def run(self, inp: SpectrumInput) -> SpectrumResult:
        t, slab = self.tracer, inp.slab
        with t.span("resonances.approximate_resonances"):
            seeds = ls.approximate_resonances(slab)
        with t.span("resonances.refine_all"):
            modes = ls.refine_all(seeds, slab)
        with t.span("resonances.count_leaky_modes"):
            count = ls.count_leaky_modes(slab)
        with t.span("scattering.transmission_sweep"):
            trans = ls.transmission_sweep(BAND_GRID, slab)
        with t.span("shift.shift_sweep"):
            shift = ls.shift_sweep(BAND_GRID, slab)
        with t.span("shift.width_sweep"):
            width = ls.width_sweep(WIDTH_EPS, WIDTH_GRID, slab.core_index_U0)
        centres = [(r.eigenvalue.eps_R, r.eigenvalue.width_Gamma) for r in modes]
        with t.span("fbw.fbw_superposition"):
            lorentz = [ls.fbw_superposition(e, centres) for e, _ in centres]
        t.count("scattering.points", len(BAND_GRID))
        t.count("shift.points", len(BAND_GRID) + len(WIDTH_GRID))
        return SpectrumResult(seeds, modes, count, (trans, shift, width), lorentz)

    def check(self, inp: SpectrumInput, res: SpectrumResult) -> list[Failure]:
        slab = inp.slab
        out = []
        eps = [r.eigenvalue.value for r in res.modes]
        for r in res.modes:
            resid = abs(ls.siegert_residual(r.eigenvalue, slab))
            if resid > 1e-10:
                out.append(Failure("newton_residual", f"m={r.mode_index_m}: {resid:.2e}"))
        distinct = _distinct(eps)
        if len(distinct) != len(eps):
            out.append(Failure("distinct_roots",
                               f"{len(eps)} roots, {len(distinct)} distinct", wrong_value=False))
        (el, er), (ib, it) = DEFAULT_BOX
        inside = sum(1 for z in distinct if el < z.real < er and ib < z.imag < it)
        if inside != res.count:
            out.append(Failure("root_count", f"{inside} roots in the box, "
                               f"count_leaky_modes={res.count}", wrong_value=False))
        for e in inp.flux_eps:
            amp = ls.transfer_amplitudes(float(e), slab)
            flux = abs(abs(amp.r) ** 2 + abs(amp.t) ** 2 - 1.0)
            if flux > 1e-12:
                out.append(Failure("flux", f"eps={e:.6f}: ||r|^2+|t|^2-1|={flux:.2e}"))
        for e in inp.fd_eps:
            k = math.sqrt(2.0 * (e + 1.0))
            pair = ls.unwrapped_phase(
                np.array([(k - FD_STEP) ** 2 / 2 - 1, (k + FD_STEP) ** 2 / 2 - 1]), slab)
            fd = (pair[1] - pair[0]) / (2 * FD_STEP)
            err = abs(fd - ls.phase_derivative(float(e), slab))
            if err > 1e-6:
                out.append(Failure("dphi_dK", f"eps={e:.6f}: |analytic - FD|={err:.2e}"))
        valid = [z for z, r in zip(eps, res.modes)
                 if r.residual <= 1e-10 and r.wavenumbers.K.real >= 0 >= r.wavenumbers.K.imag]
        self.tracer.count("resonances.seeds", len(res.seeds))
        self.tracer.count("resonances.roots", len(res.modes))
        self.tracer.count("resonances.distinct_valid", len(_distinct(valid)))
        return out


def _distinct(values: list[complex], tol: float = 1e-9) -> list[complex]:
    kept: list[complex] = []
    for z in values:
        if all(abs(z - k) > tol for k in kept):
            kept.append(z)
    return kept


# -------------------------------------------------------------- crosscheck


def packet_width(eps_c: float) -> float:
    """sigma_K = K_c/20, narrowed so the +-6 sigma support stays below sqrt(2)."""
    kc = math.sqrt(2.0 * (eps_c + 1.0))
    return min(kc / 20.0, 0.99 * (math.sqrt(2.0) - kc) / 6.0)


@dataclass
class CrossResult:
    mode: ls.Resonance
    grid: ls.FieldGrid
    rate: float
    measured_shift: float
    target_shift: float

    @property
    def decay_rel_err(self) -> float:
        gamma = self.mode.eigenvalue.width_Gamma
        return abs(self.rate - gamma) / gamma

    @property
    def shift_rel_err(self) -> float:
        return abs(self.measured_shift - self.target_shift) / self.target_shift


def crosscheck_op(mode: ls.Resonance, bpm: ls.BpmConfig, tracer) -> CrossResult:
    """Modal field, BPM decay and wave-packet shift of one leaky mode."""
    slab = REFERENCE_SLAB
    with tracer.span("fields.mode_profile"):
        field = ls.mode_profile(mode, slab)
    with tracer.span("fields.propagate_mode"):
        grid = ls.propagate_mode(field, DECAY_X, DECAY_Z)
    with tracer.span("bpm.tapered_mode_column"):
        column = ls.tapered_mode_column(field, bpm)
    with tracer.span("bpm.measure_decay"):
        rate = ls.measure_decay(bpm, column, Z_MAX)
    eps_c = mode.eigenvalue.eps_R
    with tracer.span("shift.wavepacket_shift"):
        measured = ls.wavepacket_shift(eps_c, packet_width(eps_c), slab)
    with tracer.span("shift.longitudinal_shift"):
        target = ls.longitudinal_shift(eps_c, slab).k0_delta_z
    steps = int(round(Z_MAX / bpm.dz))
    tracer.count("bpm.measure_decay.steps", steps)
    tracer.count("bpm.measure_decay.cells", steps * bpm.nx)
    wp = ls.wavepacket_shift
    tracer.count("shift.wavepacket_shift.phase_elems",
                 _default(wp, "nz") * _default(wp, "panels") * _default(wp, "nodes_per_panel"))
    return CrossResult(mode, grid, rate, measured, target)


def check_crosscheck(res: CrossResult) -> list[Failure]:
    out = []
    amps = np.abs(res.grid.amplitudes) ** 2
    ratio = amps / amps[:, :1]
    expected = np.exp(-res.mode.eigenvalue.width_Gamma * res.grid.z_grid)[None, :]
    worst = float(np.max(np.abs(ratio - expected) / expected))
    if worst > 1e-12:
        out.append(Failure("decay_identity", f"m={res.mode.mode_index_m}: {worst:.2e}"))
    for label, value in (("bpm_rate", res.rate), ("wavepacket_shift", res.measured_shift)):
        if not (math.isfinite(value) and value > 0):
            out.append(Failure(label, f"m={res.mode.mode_index_m}: {value!r}"))
    return out


def accuracy_probe(modes: dict, tracer) -> tuple[list[float], list[float], list[Failure]]:
    """BPM and wave-packet relative errors of the fixed probe modes.

    A probe mode that raises is reported as a wrong value and left out of
    the errors; the run fails outright only if every probe mode raises.
    """
    bpm = ls.BpmConfig.for_slab(REFERENCE_SLAB)
    decay, shift, failures = [], [], []
    for m in PROBE_MODES:
        try:
            res = crosscheck_op(modes[m], bpm, tracer)
        except (ValueError, ls.LeakySlabError) as exc:
            failures.append(Failure("probe", f"m={m}: {type(exc).__name__}: {exc}"))
            continue
        failures += check_crosscheck(res)
        decay.append(res.decay_rel_err)
        shift.append(res.shift_rel_err)
    if not decay:
        raise RuntimeError("every accuracy-probe mode failed: " + "; ".join(
            f.detail for f in failures))
    return decay, shift, failures


class Crosscheck:
    """Independent checks of one seeded leaky mode: BPM decay and wave-packet shift."""

    name = "crosscheck"
    round_size = 1
    pool_size = 6  # distinct modes, ~11 s of ops

    def __init__(self, seed: int, tracer):
        self.order = [int(m) for m in np.random.default_rng(seed).permutation(range(24, 41))]
        self.tracer = tracer
        self.errors: list[tuple[int, float, float]] = []

    def setup(self) -> None:
        self.modes = reference_modes()
        self.bpm = ls.BpmConfig.for_slab(REFERENCE_SLAB)
        check_crosscheck(self.run(32))

    def next_input(self) -> int:
        return self.order.pop()

    def run(self, m: int) -> CrossResult:
        return crosscheck_op(self.modes[m], self.bpm, self.tracer)

    def check(self, m: int, res: CrossResult) -> list[Failure]:
        self.errors.append((m, res.decay_rel_err, res.shift_rel_err))
        return check_crosscheck(res)


# --------------------------------------------------------------------- cli

CLI_KINDS = ("resonances", "transmission", "shift-eps", "shift-width", "fbw", "mode-field")
# Runs the CLI in the child and, at exit, writes the child's own peak RSS
# (VmHWM, kB) to the path given first.  ru_maxrss from wait4 would not do:
# it keeps the high-water mark of the parent's memory the child started in.
CLI_LAUNCH = """import atexit, sys
def _peak(path=sys.argv.pop(1)):
    with open('/proc/self/status') as fh:
        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    with open(path, 'w') as fh:
        fh.write(kb)
atexit.register(_peak)
from leakyslab.cli import console
console()
"""


@dataclass(frozen=True)
class CliInput:
    kind: str
    argv: tuple[str, ...]
    meta: dict  # the '#' header the output must carry, as the CLI formats it


@dataclass
class CliResult:
    returncode: int
    text: str
    stderr: str


def cli_input(kind: str, slab: ls.SlabConfig, rng: np.random.Generator) -> CliInput:
    k0a, u0 = repr(slab.half_width_A), repr(slab.core_index_U0)
    common = ["--k0a", k0a, "--u0", u0]
    if kind == "resonances":
        return CliInput(kind, ("resonances", *common, "--refine"),
                        {"k0a": k0a, "u0": u0, "refine": "True"})
    if kind in ("transmission", "shift-eps"):
        command = kind.split("-")[0]
        return CliInput(kind, (command, *common, "--eps", BAND_SPEC),
                        {"k0a": k0a, "u0": u0, "eps": BAND_SPEC})
    if kind == "shift-width":
        return CliInput(kind, ("shift", *common, "--eps-fixed", repr(WIDTH_EPS),
                               "--k0a-sweep", WIDTH_SPEC),
                        {"eps_fixed": repr(WIDTH_EPS), "k0a_sweep": WIDTH_SPEC, "u0": u0})
    if kind == "fbw":
        e0 = repr(round(rng.uniform(-0.99, -0.01), 6))
        gamma = repr(round(rng.uniform(0.001, 0.1), 6))
        return CliInput(kind, ("fbw", "--e0", e0, "--gamma", gamma, "--grid", FBW_SPEC),
                        {"e0": e0, "gamma": gamma, "grid": FBW_SPEC})
    if kind == "mode-field":
        admissible = ls.mode_index_range(slab)
        m = str(int(rng.integers(admissible.start, admissible.stop)))
        return CliInput(kind, ("mode-field", *common, "--m", m),
                        {"k0a": k0a, "u0": u0, "m": m, "component": "re",
                         "x": "default", "z": "default"})
    raise ValueError(f"unknown cli op kind {kind!r}")


def _flag(argv, name) -> str:
    return argv[argv.index(name) + 1]


def cli_reference(inp: CliInput) -> tuple[list[str], np.ndarray]:
    """Column names and values the library gives for the op's flags."""
    a = inp.argv
    if inp.kind == "fbw":
        line = ls.FbwLine(center_E0=float(_flag(a, "--e0")), width_Gamma=float(_flag(a, "--gamma")))
        grid = np.linspace(-1.0, 0.0, 501)
        coeff = ls.fourier_coefficient(line, grid)
        return (["E", "omega", "re_C", "im_C"],
                np.column_stack([grid, ls.lineshape(line, grid), coeff.real, coeff.imag]))
    slab = ls.SlabConfig(half_width_A=float(_flag(a, "--k0a")),
                         core_index_U0=float(_flag(a, "--u0")))
    if inp.kind == "resonances":
        modes = ls.refine_all(ls.approximate_resonances(slab), slab)
        return (["m", "eps_R", "half_width_Gamma", "residual", "method"],
                np.array([[r.mode_index_m, r.eigenvalue.eps_R, r.eigenvalue.half_width_Gamma,
                           r.residual] for r in modes]))
    if inp.kind == "shift-width":
        curve = ls.width_sweep(WIDTH_EPS, WIDTH_GRID, slab.core_index_U0)
    elif inp.kind == "transmission":
        curve = ls.transmission_sweep(BAND_GRID, slab)
    elif inp.kind == "shift-eps":
        curve = ls.shift_sweep(BAND_GRID, slab)
    else:  # mode-field on the documented default grids
        m = int(_flag(a, "--m"))
        seed = next(r for r in ls.approximate_resonances(slab) if r.mode_index_m == m)
        field = ls.mode_profile(ls.refine_resonance(seed, slab), slab)
        A = slab.half_width_A
        x, z = np.linspace(-2 * A, 2 * A, 801), np.linspace(0.0, 200.0, 401)
        re = ls.propagate_mode(field, x, z).amplitudes.real
        return ["x", "z", "re_E"], np.column_stack(
            [np.repeat(x, len(z)), np.tile(z, len(x)), re.ravel()])
    values = curve.values if curve.values.ndim == 2 else curve.values[:, None]
    return list(curve.labels), np.column_stack([curve.abscissa, values])


def check_cli_output(inp: CliInput, res: CliResult, reference) -> list[Failure]:
    """Exit code, '#' header and parsed values of one CLI output file.

    ``reference`` is what ``cli_reference`` gives; it is not needed when the
    exit code already fails the op.
    """
    if res.returncode != 0:
        last = (res.stderr.strip().splitlines() or [""])[-1]
        return [Failure("exit_code", f"{inp.kind} exited {res.returncode}: {last}",
                        wrong_value=False)]
    lines = res.text.splitlines()
    head = [line for line in lines if line.startswith("# ")]
    meta = dict(line[2:].split("=", 1) for line in head[1:])
    out = []
    if meta != inp.meta:
        out.append(Failure("cli_header", f"{inp.kind}: header {meta} != flags {inp.meta}"))
    labels, expected = reference
    body = lines[len(head):]
    if not body or body[0].split(",") != labels:
        return out + [Failure("cli_columns", f"{inp.kind}: columns {body[:1]} != {labels}")]
    if inp.kind == "resonances":
        rows = [row.split(",") for row in body[1:]]
        if any(row[-1] != "refined" for row in rows):
            out.append(Failure("cli_values", "resonances: a row is not refined"))
        rows = [row[:-1] for row in rows]
    else:
        rows = [row.split(",") for row in body[1:]]
    try:
        parsed = np.array(rows, dtype=float)
    except ValueError as exc:
        return out + [Failure("cli_values", f"{inp.kind}: unparsable value ({exc})")]
    if parsed.shape != expected.shape or not np.array_equal(parsed, expected):
        out.append(Failure("cli_values", f"{inp.kind}: values differ from the library"))
    return out


class Cli:
    """One fresh `leakyslab` process per op, round-robin over six subcommands."""

    name = "cli"
    round_size = len(CLI_KINDS)  # a run ends on a whole round: every kind equally often
    pool_size = 2 * round_size

    def __init__(self, seed: int, tracer, root: Path, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.slabs = SlabStream(self.rng)
        self.offset = int(self.rng.integers(len(CLI_KINDS)))
        self.issued = 0
        self.tracer = tracer
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        reference_modes()
        warm = CliInput("resonances", ("resonances", "--k0a", "30.0", "--u0", "1.5", "--refine"),
                        {})
        self.run(warm)

    def next_input(self) -> CliInput:
        kind = CLI_KINDS[(self.offset + self.issued) % len(CLI_KINDS)]
        self.issued += 1
        return cli_input(kind, self.slabs.next(), self.rng)

    def run(self, inp: CliInput) -> CliResult:
        path, peak = self.workdir / "op.out", self.workdir / "peak_kb"
        path.unlink(missing_ok=True)
        peak.unlink(missing_ok=True)
        stderr = self.workdir / "stderr.txt"
        with stderr.open("wb") as err:
            code = subprocess.call(
                [sys.executable, "-c", CLI_LAUNCH, str(peak), *inp.argv, "-o", str(path)],
                env=self.env, stdout=subprocess.DEVNULL, stderr=err, timeout=150)
        rss = int(peak.read_text()) / 1024.0 if peak.exists() else 0.0
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        text = path.read_text() if path.exists() else ""
        return CliResult(code, text, stderr.read_text())

    def check(self, inp: CliInput, res: CliResult) -> list[Failure]:
        t = self.tracer
        t.count(f"cli.{inp.kind}.bytes", len(res.text.encode()))
        t.count(f"cli.{inp.kind}.calls", 1)
        if res.returncode != 0:
            return check_cli_output(inp, res, None)
        out = check_cli_output(inp, res, cli_reference(inp))
        again = self.workdir / "again.out"
        with t.span(f"cli.{inp.kind}.main"):
            code = cli.main([*inp.argv, "-o", str(again)])
        if code != 0 or again.read_text() != res.text:
            out.append(Failure("cli_repeat", f"{inp.kind}: repeated invocation differs"))
        return out

    def import_seconds(self) -> float:
        """Time of a fresh `import leakyslab.cli` in a new interpreter."""
        probe = ("import time; t = time.perf_counter(); import leakyslab.cli; "
                 "print(time.perf_counter() - t)")
        done = subprocess.run([sys.executable, "-c", probe], env=self.env, check=True,
                              capture_output=True, text=True, timeout=120)
        return float(done.stdout.strip())
