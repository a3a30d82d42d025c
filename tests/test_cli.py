import argparse
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from leakyslab import (
    Curve,
    FieldGrid,
    SlabConfig,
    __version__,
    approximate_resonance,
    approximate_resonances,
    measure_decay,
    mode_profile,
    refine_all,
    refine_resonance,
    tapered_mode_column,
)
from leakyslab import cli, resonances
from leakyslab.bpm import MAX_STEPS, BpmConfig, Propagator, step_count
from leakyslab.cli import (
    _BLOCK,
    MAX_POINTS,
    SNAPSHOTS,
    _csv,
    _curve_table,
    _grid_table,
    build_parser,
    main,
    parse_grid,
)
from conftest import REFERENCE_EIGENVALUES


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_parse_grid():
    assert np.allclose(parse_grid("-1:1:5"), np.linspace(-1, 1, 5))
    assert parse_grid("2:3:1").tolist() == [2.0]
    with pytest.raises(ValueError, match="start:stop:count"):
        parse_grid("1:2")
    with pytest.raises(ValueError, match="bad grid"):
        parse_grid("a:b:c")
    with pytest.raises(ValueError, match="count"):
        parse_grid("0:1:0")
    with pytest.raises(ValueError, match="stop must exceed"):
        parse_grid("1:0:5")
    with pytest.raises(ValueError, match="finite"):
        parse_grid("nan:nan:3")
    with pytest.raises(ValueError, match="finite"):
        parse_grid("-1:inf:3")
    with pytest.raises(ValueError, match="finite"):
        parse_grid("-inf:0:1")
    with pytest.raises(ValueError, match="finite"):
        parse_grid("nan:nan:1")
    # finite endpoints whose span overflows: refused before linspace fills inf
    with pytest.raises(ValueError, match="span"):
        parse_grid("-1e308:1e308:5")
    assert len(parse_grid(f"0:1:{MAX_POINTS}")) == MAX_POINTS
    with pytest.raises(ValueError, match="MAX_POINTS"):
        parse_grid(f"0:1:{MAX_POINTS + 1}")


def test_resonances_table_matches_reference(capsys):
    code, out, _ = run(["resonances", "--k0a", "30", "--u0", "1.5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "eps_R", "half_width_Gamma", "residual", "method"]
    assert len(rows) == 17
    for row in rows:
        m = int(row[0])
        ref_eps, ref_hg = REFERENCE_EIGENVALUES[m]
        assert float(row[1]) == pytest.approx(ref_eps, abs=1e-6)
        assert float(row[2]) == pytest.approx(ref_hg, abs=1e-6)
        assert row[4] == "approximate"


def test_module_entry_point_writes_the_table(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["resonances", "--k0a", "30", "--u0", "1.5"]
    done = subprocess.run(
        [sys.executable, "-m", "leakyslab.cli", *argv], env=env, capture_output=True, text=True
    )
    code, out, _ = run(argv, capsys)
    assert code == 0 and len(parse_csv(out)[1]) == 17
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


def test_resonances_refined_residuals(capsys):
    code, out, _ = run(["resonances", "--k0a", "30", "--u0", "1.5", "--refine"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert float(row[3]) <= 1e-10
        assert row[4] == "refined"


def test_resonances_empty_range_is_refused(tmp_path, capsys):
    # no admissible index is a validation error like any other: exit 2,
    # one error line and no table
    out_path = tmp_path / "out.csv"
    code, out, err = run(["resonances", "--k0a", "0.1", "--u0", "1.5", "-o", str(out_path)], capsys)
    assert code == 2
    assert err == "error: no admissible mode index for this slab (empty interval)\n", err
    assert out == "" and not out_path.exists()


def test_outputs_are_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main(
            ["transmission", "--k0a", "30", "--u0", "1.5",
             "--eps", "-0.9:-0.1:200", "-o", str(path)]
        )
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_transmission_values(capsys):
    code, out, _ = run(
        ["transmission", "--k0a", "30", "--u0", "1.5", "--eps", "-0.6:-0.4:3"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["eps_R", "T", "phi"]
    from leakyslab import SlabConfig, transfer_amplitudes

    slab = SlabConfig(30.0, 1.5)
    for row in rows:
        assert float(row[1]) == pytest.approx(
            abs(transfer_amplitudes(float(row[0]), slab).t) ** 2, rel=1e-12
        )


def test_fbw_center_value(capsys):
    code, out, _ = run(["fbw", "--e0", "0", "--gamma", "2", "--grid", "-10:10:5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["E", "omega", "re_C", "im_C"]
    center = [row for row in rows if float(row[0]) == 0.0][0]
    assert float(center[1]) == 1.0
    assert float(center[3]) == -1.0


def test_fbw_far_grid_writes_the_zero_limit(capsys):
    # (E - E0)^2 overflows at both ends: omega is 0 there, with no warning
    code, out, err = run(["fbw", "--e0", "0", "--gamma", "1", "--grid=-1e200:1e200:3"], capsys)
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert [float(row[1]) for row in rows] == [0.0, 1.0, 0.0]


def test_shift_width_sweep_goes_negative(capsys):
    code, out, _ = run(
        ["shift", "--k0a", "30", "--u0", "1.5", "--eps-fixed", "-0.995",
         "--k0a-sweep", "1:60:1200"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k0a", "k0_delta_z"]
    assert min(float(r[1]) for r in rows) < 0


def test_shift_requires_exactly_one_mode(capsys):
    code, _, err = run(["shift", "--k0a", "30", "--u0", "1.5"], capsys)
    assert code == 2
    assert "eps" in err
    # --eps-fixed is refused next to --eps, not silently ignored
    code, out, err = run(
        ["shift", "--k0a", "30", "--u0", "1.5", "--eps", "-0.9:-0.1:2", "--eps-fixed", "nan"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: choose either --eps or --eps-fixed with --k0a-sweep\n"


def test_shift_eps_sweep(capsys):
    code, out, _ = run(
        ["shift", "--k0a", "30", "--u0", "1.5", "--eps", "-0.9:-0.8:11"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["eps_R", "k0_delta_z", "z_in", "z_t"]
    for row in rows:
        assert float(row[3]) - float(row[2]) == pytest.approx(float(row[1]), abs=1e-12)


def test_mode_field_csv_shape(capsys):
    code, out, _ = run(
        ["mode-field", "--k0a", "30", "--u0", "1.5", "--m", "24",
         "--x", "-60:60:7", "--z", "0:10:3", "--component", "abs2"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "z", "abs2_E"]
    assert len(rows) == 7 * 3
    assert all(float(r[2]) >= 0 for r in rows)


def test_mode_field_rejects_inadmissible_index(capsys):
    for argv, m in (
        (["mode-field", "--k0a", "30", "--u0", "1.5", "--m", "5"], 5),
        (["decay", "--k0a", "30", "--u0", "1.5", "--m", "41", "--z-max", "30"], 41),
    ):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert err == (
            f"error: mode index m={m} is not admissible for this slab (allowed: [24, 40])\n"
        ), err
        assert out == ""


def test_mode_field_builds_only_the_seed_and_its_refinement(capsys, monkeypatch):
    # the one seed of --m is built, never the table of every seed first
    built = []
    build = resonances.Resonance

    def counting(m, *args):
        built.append(m)
        return build(m, *args)

    monkeypatch.setattr(resonances, "Resonance", counting)
    argv = ["mode-field", "--k0a", "30", "--u0", "1.5", "--m", "24", "--x", "-60:60:7",
            "--z", "0:10:3"]
    code, _, _ = run(argv, capsys)
    assert code == 0
    assert built == [24, 24]
    # the widest slab of the domain refuses an index outside its 570,778 at once
    built.clear()
    argv = ["mode-field", "--k0a", "1e6", "--u0", "1.5", "--m", "24"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err == (
        "error: mode index m=24 is not admissible for this slab "
        "(allowed: [779697, 1350474])\n"
    ), err
    assert out == "" and built == []


def test_mode_field_refuses_its_default_x_grid_where_it_undersamples(capsys):
    # the default x spacing A/200 gives the shortest interior half-wave,
    # pi/Q >= pi/(sqrt(2)*U0), fewer than 2 samples once U0*k0a > 222.1
    wide = ["mode-field", "--k0a", "300", "--u0", "1.5", "--m", "300"]
    code, out, err = run(wide, capsys)
    assert code == 2 and out == ""
    assert err == (
        "error: the default --x grid -2A:2A:801 gives an interior half-wave fewer than "
        "2 samples once U0*k0a > 222.1 (here 450); give --x\n"
    ), err
    code, out, _ = run([*wide, "--x", "-600:600:5", "--z", "0:1:2"], capsys)
    assert code == 0 and len(parse_csv(out)[1]) == 5 * 2
    # on either side of the threshold, U0*k0a = 222.0 and 222.15
    code, out, _ = run(["mode-field", "--k0a", "148", "--u0", "1.5", "--m", "150",
                        "--z", "0:1:2"], capsys)
    assert code == 0 and len(parse_csv(out)[1]) == 801 * 2
    code, _, err = run(["mode-field", "--k0a", "148.1", "--u0", "1.5", "--m", "150"], capsys)
    assert code == 2 and "(here 222.15); give --x" in err, err


def test_propagate_requires_initial_condition(tmp_path, capsys):
    base = ["propagate", "--k0a", "30", "--u0", "1.5"]
    out_path = tmp_path / "curve.csv"
    # --m is required: the tapered mode on BpmConfig.for_slab's grid is the
    # only launch, so --packet, --nx, --dz and --snapshots are refused too
    for given in (
        [],
        ["--m", "24", "--packet", "0:10:0.4"],
        ["--m", "24", "--nx", "513"],
        ["--m", "24", "--dz", "0.1"],
        ["--m", "24", "--snapshots", "4", "--save-field", str(tmp_path / "field.csv")],
    ):
        with pytest.raises(SystemExit) as info:
            main(base + given + ["-o", str(out_path)])
        assert info.value.code == 2, given
        assert capsys.readouterr().out == "" and list(tmp_path.iterdir()) == [], given
    # no subcommand reads a file: a field saved by one run cannot seed the next
    field = tmp_path / "field.csv"
    assert main(base + ["--m", "24", "--z-max", "1", "--save-field", str(field)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(base + ["--init-field", str(field), "--z-max", "1", "-o", str(out_path)])
    assert info.value.code == 2
    assert capsys.readouterr().out == "" and not out_path.exists()


def test_propagate_out_of_range_flags_are_refused(tmp_path, capsys):
    # an out-of-range flag, or either output path unwritable (here a
    # directory): exit 2, nothing on stdout and neither file left behind
    base = ["propagate", "--k0a", "30", "--u0", "1.5", "--m", "24"]
    out_path, field = tmp_path / "sub" / "curve.csv", tmp_path / "sub" / "field.csv"
    for flags, name in (
        (["--z-max", "-1", "-o", str(out_path), "--save-field", str(field)], "z_max"),
        (["--z-max", "1", "-o", str(out_path), "--save-field", str(tmp_path)], "directory"),
        (["--z-max", "1", "-o", str(tmp_path), "--save-field", str(field)], "directory"),
    ):
        code, out, err = run(base + flags, capsys)
        assert code == 2, flags
        assert err.startswith("error: ") and name in err, err
        assert out == "" and not out_path.exists() and not field.exists()


def saved_field_grids(path):
    """The x and z grids of a --save-field CSV, checked to hold one (x, z,
    re_E, im_E) row per grid point, z varying fastest."""
    header, rows = parse_csv(path.read_text())
    assert header == ["x", "z", "re_E", "im_E"]
    x_col, z_col, _, _ = np.array(rows, dtype=float).T
    x, z = np.unique(x_col), np.unique(z_col)
    assert x_col.tolist() == np.repeat(x, len(z)).tolist()
    assert z_col.tolist() == np.tile(z, len(x)).tolist()
    return x, z


def test_propagate_writes_the_snapshot_count(tmp_path, capsys):
    # the snapshots are the distinct steps round(linspace(0, nsteps, SNAPSHOTS))
    # of a march in steps of BpmConfig.for_slab's dz, so exactly SNAPSHOTS = 11
    # whenever nsteps >= 10
    assert SNAPSHOTS == 11
    dz = BpmConfig.for_slab(SlabConfig(30.0, 1.5)).dz
    field = tmp_path / "field.csv"

    def snapshot_steps(z_max):
        code = main(["propagate", "--k0a", "30", "--u0", "1.5", "--m", "24", "--z-max", str(z_max),
                     "-o", str(tmp_path / "curve.csv"), "--save-field", str(field)])
        capsys.readouterr()
        assert code == 0
        x, z = saved_field_grids(field)
        assert len(x) == 4097
        return np.round(z / dz).astype(int).tolist()

    nsteps = step_count(30.0, dz)
    assert snapshot_steps(30.0) == np.round(np.linspace(0, nsteps, 11)).astype(int).tolist()
    assert snapshot_steps(10 * dz) == list(range(11))
    # a march of fewer than 10 steps keeps each of its steps once
    assert snapshot_steps(5 * dz) == [0, 1, 2, 3, 4, 5]


def test_a_march_past_the_step_ceiling_is_refused(tmp_path, capsys, monkeypatch):
    # refused before the z grid is allocated or the first step is taken
    def march(self, column, nsteps):
        raise AssertionError(f"a march of {nsteps} steps was started")

    monkeypatch.setattr(Propagator, "march", march)
    dz = BpmConfig.for_slab(SlabConfig(30.0, 1.5)).dz
    out_path = tmp_path / "out.csv"
    # the count is printed in 7 significant digits: exact at the ceiling, short far past it
    for z_max, steps in (((MAX_STEPS + 1) * dz, "1000001"), (1e307, "1.25e+307")):
        for command in ("decay", "propagate"):
            argv = [command, "--m", "24", "--k0a", "30", "--u0", "1.5", "--z-max", str(z_max),
                    "-o", str(out_path)]
            code, out, err = run(argv, capsys)
            assert code == 2, argv
            assert err == f"error: z_max/dz rounds to {steps} steps, more than MAX_STEPS = {MAX_STEPS}\n", err
            assert out == "" and not out_path.exists()


def test_oversized_counts_are_refused(tmp_path, capsys):
    # the first count over MAX_POINTS is refused before anything of its size
    # is allocated: the peak stays below one float array of MAX_POINTS
    slab = ["--k0a", "30", "--u0", "1.5"]
    over = str(MAX_POINTS + 1)
    out_path = tmp_path / "out.csv"
    for argv in (
        ["transmission", *slab, "--eps", f"-0.9:-0.1:{over}"],
        ["fbw", "--e0", "0", "--gamma", "1", "--grid", f"0:1:{over}"],
        # 101 x 9901 = MAX_POINTS + 1 cells
        ["mode-field", *slab, "--m", "24", "--x", "-60:60:101", "--z", "0:10:9901"],
    ):
        argv = [*argv, "-o", str(out_path)]
        main(argv)  # warm-up, so that imports and caches are not counted
        capsys.readouterr()
        tracemalloc.start()
        try:
            code, out, err = run(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, argv
        assert err.startswith("error: ") and "more than MAX_POINTS = 1000000" in err, err
        assert out == "" and not out_path.exists()
        assert peak < 8 * MAX_POINTS, (argv, peak)


def test_tables_are_written_without_the_whole_text_in_memory(tmp_path, capsys):
    # each table is written block by block as it is formatted: the default
    # mode-field table (801 x 401 rows, 12.2 MB) peaks below 16 MB, its
    # complex grid alone 5.1 MB, and the 4097 x 11 rows of --save-field
    # below 8 MB (bounds fixed before the first run)
    slab = ["--k0a", "30", "--u0", "1.5", "--m", "24"]
    for argv, bound in (
        (["mode-field", *slab], 16e6),
        (["propagate", *slab, "--z-max", "200", "--save-field", str(tmp_path / "field.csv")], 8e6),
    ):
        argv = [*argv, "-o", str(tmp_path / "out.csv")]
        main(argv)  # warm-up, so that imports and caches are not counted
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak < bound, (argv, peak)


def test_a_write_that_fails_part_way_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the block stream of the n-th table written fails after its first
    # block, so that the file is open and holds the header: exit 2, one
    # error line, and no file left, propagate's first one included
    real_csv = cli._csv

    def failing_csv(n, error):
        written = []

        def _csv(*table):
            written.append(table[0])
            blocks = real_csv(*table)
            yield next(blocks)
            if len(written) == n:
                raise error
            yield from blocks

        return _csv

    slab = ["--k0a", "30", "--u0", "1.5"]
    out_path, field = tmp_path / "sub" / "out.csv", tmp_path / "sub" / "field.csv"
    propagate = ["propagate", *slab, "--m", "24", "--z-max", "1", "--save-field", str(field)]
    for argv, n in (
        (["resonances", *slab], 1),
        (["transmission", *slab, "--eps", "-0.9:-0.1:5"], 1),
        (["mode-field", *slab, "--m", "24", "--x", "-60:60:5", "--z", "0:1:3"], 1),
        (propagate, 1),
        (propagate, 2),
    ):
        argv = [*argv, "-o", str(out_path)]
        monkeypatch.setattr(cli, "_csv", failing_csv(n, OSError("disk full")))
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", "error: disk full\n"), argv
        assert not out_path.exists() and not field.exists(), argv
        # an interrupt is not caught, but leaves no file either
        monkeypatch.setattr(cli, "_csv", failing_csv(n, KeyboardInterrupt()))
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert not out_path.exists() and not field.exists(), argv
    monkeypatch.setattr(cli, "_csv", real_csv)
    assert main(propagate + ["-o", str(out_path)]) == 0
    assert out_path.exists() and field.exists()


def test_a_failed_write_removes_only_a_regular_file(tmp_path, capsys, monkeypatch):
    # a device (os.devnull) or a symlink named by -o or --save-field is never
    # removed, and a removal that fails does not replace the write's error;
    # Path.unlink only records its calls here, so nothing is removed
    real_csv = cli._csv

    def failing_csv(*table):
        blocks = real_csv(*table)
        yield next(blocks)
        raise OSError("disk full")

    def recorded_unlink(path, missing_ok=False):
        unlinked.append(str(path))
        raise PermissionError("not permitted")

    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    slab = ["--k0a", "30", "--u0", "1.5", "--m", "24"]
    mode_field = ["mode-field", *slab, "--x", "-60:60:5", "--z", "0:1:3", "-o"]
    propagate = ["propagate", *slab, "--z-max", "1", "--save-field"]
    monkeypatch.setattr(Path, "unlink", recorded_unlink)
    for argv, path, expect in (
        ([*mode_field, os.devnull], os.devnull, []),
        ([*mode_field, str(link)], str(link), []),
        ([*mode_field, str(tmp_path / "out.csv")], str(tmp_path / "out.csv"), [str(tmp_path / "out.csv")]),
    ):
        unlinked = []
        monkeypatch.setattr(cli, "_csv", failing_csv)
        assert run(argv, capsys) == (2, "", "error: disk full\n"), argv
        assert unlinked == expect, argv
    # the field went to a device or a link, then the curve failed
    monkeypatch.setattr(cli, "_csv", lambda command, *rest: (
        failing_csv(command, *rest) if command == "propagate" else real_csv(command, *rest)))
    for field in (os.devnull, str(link)):
        unlinked = []
        argv = [*propagate, field, "-o", str(tmp_path / "out.csv")]
        assert run(argv, capsys) == (2, "", "error: disk full\n"), argv
        assert unlinked == [str(tmp_path / "out.csv")], argv
    assert link.is_symlink() and target.exists()


DOMAIN = "is outside the slab domain 0 < k0a <= 1e+06, 1 < U0 <= 4"


def _refused_before_a_seed(tmp_path, capsys, monkeypatch, library, cli):
    # SlabConfig refuses each slab, naming the field, before a single seed
    # is built, in the library and on every subcommand that builds one
    def seed(*args):
        raise AssertionError("a seed was built")

    monkeypatch.setattr(resonances, "Resonance", seed)
    for k0a, u0, refused in library:
        with pytest.raises(ValueError, match=re.escape(f"{refused} {DOMAIN}")):
            approximate_resonances(SlabConfig(k0a, u0))
    out_path = tmp_path / "out.csv"
    for argv, refused in cli:
        code, out, err = run([*argv, "-o", str(out_path)], capsys)
        assert code == 2, argv
        assert err == f"error: {refused} {DOMAIN}\n", err
        assert out == "" and not out_path.exists()


def _every_seeding_subcommand(k0a, refused):
    slab = ["--k0a", k0a, "--u0", "1.5"]
    return [
        (argv, refused)
        for argv in (
            ["resonances", *slab],
            ["mode-field", *slab, "--m", "24"],
            ["propagate", *slab, "--m", "24", "--z-max", "1"],
            ["decay", *slab, "--m", "24", "--z-max", "1"],
        )
    ]


def test_a_slab_with_too_many_modes_is_refused(tmp_path, capsys, monkeypatch):
    # at u0 = 1.5, k0a = 1751996 has 10**6 mode indices and 1751997 one more
    _refused_before_a_seed(
        tmp_path, capsys, monkeypatch,
        library=(
            (1751996.0, 1.5, "half_width_A = 1751996.0"),
            (1751997.0, 1.5, "half_width_A = 1751997.0"),
        ),
        cli=_every_seeding_subcommand("1751997", "half_width_A = 1751997.0"),
    )


def test_a_slab_whose_mode_indices_overflow_is_refused(tmp_path, capsys, monkeypatch):
    # sqrt(2)*U0*2A/pi overflows at k0a = 1e308, and the lower bound
    # sqrt(2*U0*(U0-1))*2A/pi inside 2*U0*(U0-1) once U0 > ~1e154
    _refused_before_a_seed(
        tmp_path, capsys, monkeypatch,
        library=(
            (1e308, 1.5, "half_width_A = 1e+308"),
            (30.0, 1e154, "core_index_U0 = 1e+154"),
            (1e-10, 1e200, "core_index_U0 = 1e+200"),
        ),
        cli=[
            *_every_seeding_subcommand("1e308", "half_width_A = 1e+308"),
            (["resonances", "--k0a", "30", "--u0", "1e154", "--refine"], "core_index_U0 = 1e+154"),
            (["resonances", "--k0a", "1e-10", "--u0", "1e200"], "core_index_U0 = 1e+200"),
        ],
    )


@pytest.mark.parametrize(
    "command, code",
    [
        # weak slabs: on (5, 1.00001) m = 1 lands at K = -0.183 - 1.427i,
        # outside the fourth quadrant; on (30, 1.00000001) m = 2 stalls at
        # |f| ~ 1e-9
        ("resonances --k0a 5 --u0 1.00001 --refine", 3),
        ("resonances --k0a 30 --u0 1.00000001 --refine", 3),
        # the field overflows at x = +-1e300
        ("mode-field --k0a 30 --u0 1.5 --m 40 --x -1e300:1e300:3 --z 0:1:2", 2),
        # finite endpoints, overflowing span
        ("fbw --e0 1e308 --gamma 1e308 --grid -1e308:1e308:5", 2),
        # no admissible index, and no index with a leaky root (m = 1 is anti-bound)
        ("resonances --k0a 0.1 --u0 1.5", 2),
        ("resonances --k0a 2 --u0 1.1 --refine", 2),
        # slabs outside SlabConfig's domain: mode-index bounds whose rounding
        # errors reach about one index, too many indices, bounds that overflow
        ("resonances --k0a 30 --u0 1e14", 2),
        ("resonances --k0a 30 --u0 1e15", 2),
        ("resonances --k0a 1751997 --u0 1.5", 2),
        ("resonances --k0a 1e308 --u0 1.5", 2),
        # ... where Q, 2QA or z_in = -A/K would overflow
        ("transmission --k0a 30 --u0 1e200 --eps -0.9:-0.1:3", 2),
        ("shift --k0a 30 --u0 1e200 --eps -0.9:-0.1:3", 2),
        ("shift --k0a 30 --u0 1.5 --eps-fixed -0.5 --k0a-sweep 1:1e308:3", 2),
        ("shift --k0a 1e307 --u0 1.5 --eps -0.999:-0.99:3", 2),
        # ... and where every value is finite but no digit of phi is left
        ("transmission --k0a 6e307 --u0 1.001 --eps -0.5:-0.4:3", 2),
    ],
)
def test_no_cli_input_ends_in_a_traceback(tmp_path, capsys, command, code):
    # main lets no other exception through, so a traceback would fail here
    out_path = tmp_path / "out.csv"
    got, out, err = run([*command.split(), "-o", str(out_path)], capsys)
    assert got == code
    prefix = "error: " if code == 2 else "numerical failure: "
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert out == "" and not out_path.exists()


def test_propagate_mode_power_decays(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code = main(
        ["propagate", "--k0a", "30", "--u0", "1.5", "--m", "24", "--z-max", "30",
         "-o", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["z", "core_power"]
    assert len(rows) == step_count(30.0, BpmConfig.for_slab(SlabConfig(30.0, 1.5)).dz) + 1
    assert float(rows[-1][1]) < float(rows[0][1])


def test_decay_subcommand(capsys):
    code, out, _ = run(
        ["decay", "--k0a", "30", "--u0", "1.5", "--m", "40", "--z-max", "40"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "measured_rate", "width_Gamma_refined"]
    assert float(rows[0][1]) > 0.05


def test_relative_output_path_is_under_the_working_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fbw", "--e0", "0", "--gamma", "1", "--grid", "0:1:2", "-o", "sub/c.csv"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "sub" / "c.csv").exists()


def test_validation_exit_code(tmp_path, capsys):
    code, _, err = run(
        ["transmission", "--k0a", "30", "--u0", "1.5", "--eps", "nope"], capsys
    )
    assert code == 2
    assert "error" in err
    # an output path that cannot be written is refused the same way
    code, out, err = run(
        ["transmission", "--k0a", "30", "--u0", "1.5", "--eps", "-0.9:-0.1:3",
         "-o", str(tmp_path)],
        capsys,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: "), err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.filterwarnings("error")
def test_nan_grid_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, stdout, err = run(
        ["transmission", "--k0a", "30", "--u0", "1.5", "--eps", "nan:nan:1", "-o", str(out)],
        capsys,
    )
    assert code == 2
    assert "error: grid endpoints must be finite, got 'nan:nan:1'" in err
    assert not out.exists()
    assert "nan" not in stdout
    # every other non-finite number is refused before anything is computed
    # from it or written (the filterwarnings mark makes a warning an error)
    bpm = ["propagate", "--k0a", "30", "--u0", "1.5", "--m", "24"]
    decay = ["decay", "--k0a", "30", "--u0", "1.5", "--m", "24"]
    width = ["shift", "--u0", "1.5", "--eps-fixed", "-0.995", "--k0a-sweep", "1:60:3"]
    for argv in (
        ["fbw", "--e0", "0", "--gamma", "1", "--grid", "nan:nan:1"],
        ["fbw", "--e0", "0", "--gamma", "1", "--grid", "-1:inf:3"],
        ["fbw", "--e0", "0", "--gamma", "nan", "--grid", "-1:1:3"],
        ["resonances", "--k0a", "inf", "--u0", "1.5"],
        ["resonances", "--k0a", "30", "--u0", "inf"],
        [*width, "--k0a", "nan"],
        [*width, "--k0a", "-5"],
        # a finite --z-max far past the step ceiling
        [*bpm, "--z-max", "1e308"],
        [*decay, "--z-max", "1e308"],
    ):
        code, stdout, err = run([*argv, "-o", str(out)], capsys)
        assert code == 2, argv
        assert err.startswith("error: "), err
        assert not out.exists()
        assert stdout == ""
    # in a fresh interpreter, where numpy warnings reach stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cli = [sys.executable, "-c", "from leakyslab.cli import console; console()"]
    done = subprocess.run(
        [*cli, "fbw", "--e0", "0", "--gamma", "1", "--grid", "nan:nan:1"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: grid endpoints must be finite, got 'nan:nan:1'\n"
    )
    # finite inputs whose table would not be: Q overflows once U0 > ~1e154,
    # 2QA at k0a = 1e308, and z_in = -A/K at k0a = 1e307 near the band
    # bottom; SlabConfig refuses each slab, the widest of a width sweep
    # too, so no nan row is written, and no numpy warning comes before the
    # one error line
    domain = "is outside the slab domain 0 < k0a <= 1e+06, 1 < U0 <= 4"
    for argv, refused in (
        (["transmission", "--k0a", "30", "--u0", "1e200", "--eps", "-0.5:-0.4:3"],
         "core_index_U0 = 1e+200"),
        (["shift", "--k0a", "30", "--u0", "1e200", "--eps", "-0.9:-0.1:3"],
         "core_index_U0 = 1e+200"),
        (["shift", "--k0a", "30", "--u0", "1.5", "--eps-fixed", "-0.5",
          "--k0a-sweep", "1e-300:1e308:3"], "half_width_A = 1e+308"),
        (["shift", "--k0a", "1e307", "--u0", "1.5", "--eps", "-0.999:-0.99:3"],
         "half_width_A = 1e+307"),
    ):
        done = subprocess.run(
            [*cli, *argv, "-o", str(out)], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout) == (2, ""), argv
        assert done.stderr == f"error: {refused} {domain}\n", done.stderr
        assert not out.exists()
    # a grid whose distance to the centre overflows writes omega = 0 there,
    # with no numpy warning
    done = subprocess.run(
        [*cli, "fbw", "--e0", "1e308", "--gamma", "1", "--grid", "-1e308:1e307:5"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    # a width whose square underflows is the zero-width limit, not 0/0
    done = subprocess.run(
        [*cli, "fbw", "--e0", "0", "--gamma", "1e-300", "--grid", "-1:1:3"],
        env=env, capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    _, rows = parse_csv(done.stdout)
    assert rows == [["-1.0", "0.0", "0.0", "0.0"], ["0.0", "1.0", "0.0", "-1.0"],
                    ["1.0", "0.0", "0.0", "0.0"]]


def test_numerical_failure_exit_code(tmp_path, capsys):
    # m = 1, this slab's one index, has an anti-bound root and no leaky mode:
    # a numerical failure that must map to exit code 3 with nothing written
    out = tmp_path / "r.csv"
    code, stdout, err = run(
        ["mode-field", "--k0a", "2", "--u0", "1.1", "--m", "1", "-o", str(out)], capsys
    )
    assert code == 3
    assert err.startswith("numerical failure: ")
    assert not out.exists() and stdout == ""


# Values whose shortest repr is easy to get wrong: signed zero, the smallest
# subnormal, a float past the exact-integer range, a repeating binary
# fraction and the negative smallest subnormal (a Curve and a FieldGrid
# refuse NaN).
AWKWARD = [-0.0, 5e-324, 1e16, 1 / 3, -5e-324]


def csv_body(text):
    assert text.endswith("\n")
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_curve_writers_match_per_element_repr():
    abscissa = np.array([-1e16, -0.0, 5e-324, 1 / 3, 2.0])
    real = np.array(AWKWARD)
    # and a curve of 2 blocks and one row, so that a row lost or repeated at
    # a block boundary would show
    long = np.arange(2 * _BLOCK + 1) / 3
    for abscissa, real in ((abscissa, real), (long, np.sqrt(long))):
        curve = Curve(abscissa=abscissa, values=np.column_stack([real, real[::-1]]), labels=("x", "a", "b"))
        names = ["x", "a", "b"]
        columns = [abscissa, real, real[::-1]]
        meta = {"k": 1.5}
        blocks = list(_csv("probe", meta, *_curve_table(curve)))
        assert len(blocks) == 1 + -(-len(abscissa) // _BLOCK)
        text = "".join(blocks)
        assert text.startswith(f"# leakyslab probe v{__version__}\n# k=1.5\n")
        rows = [",".join(repr(float(col[i])) for col in columns) for i in range(len(abscissa))]
        assert csv_body(text) == [",".join(names)] + rows


def test_grid_writers_match_per_element_repr():
    # 3 x 5, so that swapping the x and z loops would show
    x = np.array([-0.0, 5e-324, 1 / 3])
    z = np.array([0.0, 1 / 3, 1.0, 1e16, 1e16])
    real = np.array(AWKWARD * 3).reshape(3, 5)
    amps = real + 1j * real[::-1, ::-1]
    # and 2 x (block + 1), whose blocks end one row before and one row after
    # the change of x, so that a row lost or repeated there would show
    long_z = np.arange(_BLOCK + 1) / 3
    long_amps = np.sqrt(np.arange(2 * len(long_z))).reshape(2, -1) * (1 - 1j / 7)
    for x, z, amps in ((x, z, amps), (x[:2], long_z, long_amps)):
        grid = FieldGrid(x_grid=x, z_grid=z, amplitudes=amps)
        values = {"re": amps.real, "im": amps.imag, "abs2": np.abs(amps) ** 2}
        # one component, as mode-field writes, and re and im, as --save-field writes
        for components in (("re",), ("im",), ("abs2",), ("re", "im")):
            rows = [
                ",".join(repr(float(v)) for v in (x[i], z[j], *(values[c][i, j] for c in components)))
                for i in range(len(x))
                for j in range(len(z))
            ]
            blocks = list(_csv("probe", {}, *_grid_table(grid, *components)))
            assert len(blocks) == 1 + -(-len(rows) // _BLOCK)
            text = "".join(blocks)
            assert csv_body(text) == [",".join(["x", "z", *(f"{c}_E" for c in components)])] + rows


def header(command, meta):
    return [f"# leakyslab {command} v{__version__}"] + [f"# {k}={meta[k]}" for k in sorted(meta)]


@pytest.mark.parametrize("refine", [False, True])
def test_resonances_writers_match_per_element_repr(capsys, refine):
    slab = SlabConfig(30.0, 1.5)
    modes = approximate_resonances(slab)
    if refine:
        modes = refine_all(modes, slab)
    argv = ["resonances", "--k0a", "30", "--u0", "1.5"] + ["--refine"] * refine
    meta = {"k0a": 30.0, "u0": 1.5, "refine": refine}
    rows = [
        f"{r.mode_index_m:d},{r.eigenvalue.eps_R!r},{r.eigenvalue.half_width_Gamma!r},"
        f"{r.residual!r},{r.method}"
        for r in modes
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == header("resonances", meta) + [
        "m,eps_R,half_width_Gamma,residual,method"
    ] + rows


def test_decay_writers_match_per_element_repr(tmp_path, capsys):
    slab = SlabConfig(30.0, 1.5)
    cfg = BpmConfig.for_slab(slab)
    res = refine_resonance(approximate_resonance(36, slab), slab)
    rate = measure_decay(cfg, tapered_mode_column(mode_profile(res, slab), cfg), 30.0)
    argv = ["decay", "--k0a", "30", "--u0", "1.5", "--m", "36", "--z-max", "30"]
    # the header records the flags, and BpmConfig.for_slab's grid and domain
    # half width X = 4A
    meta = {"k0a": 30.0, "u0": 1.5, "m": 36, "z_max": 30.0, "nx": 4097, "dz": cfg.dz,
            "X": 120.0}
    # which no flag sets (--X, --nx, --dz); and CSV is the only format, so
    # --format is gone too
    out_path = tmp_path / "decay.out"
    for flag in (["--X", "120"], ["--format", "json"], ["--nx", "513"], ["--dz", "0.1"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, *flag, "-o", str(out_path)])
        assert info.value.code == 2
        assert capsys.readouterr().out == "" and not out_path.exists()
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == header("decay", meta) + [
        "m,measured_rate,width_Gamma_refined",
        f"36,{rate!r},{res.eigenvalue.width_Gamma!r}",
    ]


def test_readme_command_lines_parse(tmp_path, capsys, monkeypatch):
    # every command line the README shows parses and runs, so a flag that is
    # gone cannot stay documented and an example cannot fail
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(), re.M | re.S)
    lines = [l for b in blocks for l in b.splitlines() if l.startswith("leakyslab ")]
    assert len(lines) >= 8, lines
    parser = build_parser()
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)
        assert callable(args.func), line
        code, out, _ = run(argv, capsys)
        assert code == 0, line
        # each file written, or stdout, starts with the command's header
        written = [args.output, getattr(args, "save_field", None)]
        texts = [(tmp_path / p).read_text() for p in written if p]
        for text in texts or [out]:
            assert text.startswith(f"# leakyslab {args.command}"), line
    # and every --flag the prose names in backticks is an option of some subcommand
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for p in [parser, *sub.choices.values()] for o in p._option_string_actions}
    prose = re.sub(r"^```.*?^```", "", readme.read_text(), flags=re.M | re.S)
    flags = {f for span in re.findall(r"`([^`]+)`", prose)
             for f in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", span)}
    assert len(flags) >= 8, flags
    assert flags <= options, sorted(flags - options)
    # and, conversely, the README names every option of every subcommand
    text = readme.read_text()
    undocumented = {o for o in options - {"--help", "--version"} if o.startswith("--")
                    and not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", text)}
    assert not undocumented, sorted(undocumented)
