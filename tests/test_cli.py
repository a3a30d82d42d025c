import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leakyslab import (
    Curve,
    FieldGrid,
    SlabConfig,
    __version__,
    approximate_resonances,
    measure_decay,
    mode_profile,
    refine_all,
    refine_resonance,
    tapered_mode_column,
)
from leakyslab.bpm import BpmConfig
from leakyslab.cli import (
    _csv,
    _curve_table,
    _grid_table,
    _json,
    field_grid_from_json,
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
    with pytest.raises(ValueError, match="stop must exceed"):
        parse_grid("nan:nan:3")
    with pytest.raises(ValueError, match="finite"):
        parse_grid("-1:inf:3")
    with pytest.raises(ValueError, match="finite"):
        parse_grid("-inf:0:1")


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


def test_resonances_empty_range_warns(capsys):
    code, out, err = run(["resonances", "--k0a", "0.1", "--u0", "1.5"], capsys)
    assert code == 2
    assert "empty" in err
    _, rows = parse_csv(out)
    assert rows == []
    meta = {"k0a": 0.1, "u0": 1.5, "refine": False}
    assert out.splitlines() == header("resonances", meta) + [
        "m,eps_R,half_width_Gamma,residual,method"
    ]
    code, out, err = run(["resonances", "--k0a", "0.1", "--u0", "1.5", "--format", "json"], capsys)
    assert code == 2
    assert "empty" in err
    doc = {"command": "resonances", "meta": meta, "modes": []}
    assert out == json.dumps(doc, indent=1, sort_keys=True) + "\n"


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
    from leakyslab import SlabConfig, transmission_coefficient

    slab = SlabConfig(30.0, 1.5)
    for row in rows:
        assert float(row[1]) == pytest.approx(
            transmission_coefficient(float(row[0]), slab), rel=1e-12
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
    code, _, err = run(
        ["mode-field", "--k0a", "30", "--u0", "1.5", "--m", "5"], capsys
    )
    assert code == 2
    assert "not admissible" in err


def test_mode_field_json_round_trips(tmp_path, capsys):
    out_path = tmp_path / "field.json"
    code = main(
        ["mode-field", "--k0a", "30", "--u0", "1.5", "--m", "24",
         "--x", "-60:60:9", "--z", "0:10:3", "--format", "json", "-o", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["x"]) == 9 and len(doc["z"]) == 3
    assert len(doc["re"]) == 9 and len(doc["re"][0]) == 3


def test_propagate_init_field_round_trip(tmp_path, capsys):
    base = ["propagate", "--k0a", "30", "--u0", "1.5", "--X", "120",
            "--nx", "513", "--dz", "0.1", "--z-max", "1"]
    first_curve = tmp_path / "first.csv"
    field_json = tmp_path / "field.json"
    # --init-field reads the z = 0 column of a --save-field grid
    code = main(base + ["--m", "24", "-o", str(first_curve), "--save-field", str(field_json)])
    assert code == 0
    second_curve = tmp_path / "second.csv"
    code = main(base + ["--init-field", str(field_json), "-o", str(second_curve)])
    capsys.readouterr()
    assert code == 0
    first = [l for l in first_curve.read_text().splitlines() if not l.startswith("#")]
    second = [l for l in second_curve.read_text().splitlines() if not l.startswith("#")]
    assert first == second


def test_propagate_requires_initial_condition(tmp_path, capsys):
    base = ["propagate", "--k0a", "30", "--u0", "1.5", "--X", "120", "--nx", "513"]
    field = tmp_path / "field.json"
    assert main(base + ["--m", "24", "--z-max", "0.1", "--save-field", str(field)]) == 0
    capsys.readouterr()
    m, packet, init = ["--m", "24"], ["--packet", "0:10:0.4"], ["--init-field", str(field)]
    for given in ([], m + packet, m + init, packet + init, m + packet + init):
        out_path = tmp_path / "curve.csv"
        code, out, err = run(base + given + ["-o", str(out_path)], capsys)
        assert code == 2, given
        assert "initial condition" in err
        assert out == "" and not out_path.exists()


def test_propagate_out_of_range_flags_are_refused(tmp_path, capsys):
    base = ["propagate", "--k0a", "30", "--u0", "1.5", "--X", "120", "--nx", "513",
            "--packet", "0:10:0.4"]
    out_path, field = tmp_path / "curve.csv", tmp_path / "field.json"
    for flags, name in (
        (["--z-max", "1", "--save-field", str(field), "--snapshots", "1"], "snapshots"),
        (["--z-max", "1", "--save-field", str(field), "--snapshots", "0"], "snapshots"),
        (["--z-max", "-1"], "z_max"),
    ):
        code, out, err = run(base + flags + ["-o", str(out_path)], capsys)
        assert code == 2, flags
        assert err.startswith("error: ") and name in err, err
        assert out == "" and not out_path.exists() and not field.exists()


def test_propagate_writes_the_requested_snapshot_count(tmp_path, capsys):
    # --z-max 5 is 100 steps of dz = 0.05; the snapshots are the distinct
    # steps round(linspace(0, 100, N)), so exactly N whenever 100 >= N - 1
    field = tmp_path / "field.json"

    def snapshot_steps(z_max, n):
        code = main(["propagate", "--k0a", "30", "--u0", "1.5", "--nx", "513",
                     "--z-max", z_max, "--packet", "0:5:0", "--snapshots", str(n),
                     "-o", str(tmp_path / "curve.csv"), "--save-field", str(field)])
        capsys.readouterr()
        assert code == 0
        grid = field_grid_from_json(field)
        assert grid.amplitudes.shape == (513, len(grid.z_grid))
        return np.round(grid.z_grid / 0.05).astype(int).tolist()

    assert snapshot_steps("5", 4) == [0, 33, 67, 100]
    assert snapshot_steps("5", 11) == list(range(0, 101, 10))
    assert snapshot_steps("5", 101) == list(range(101))
    # a march of fewer than N - 1 steps keeps each of its steps once
    assert snapshot_steps("0.1", 4) == [0, 1, 2]


def test_propagate_packet_power_decays(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code = main(
        ["propagate", "--k0a", "30", "--u0", "1.5", "--X", "120", "--nx", "513",
         "--dz", "0.1", "--z-max", "30", "--packet", "0:10:0.4", "-o", str(out_path)]
    )
    capsys.readouterr()
    assert code == 0
    header, rows = parse_csv(out_path.read_text())
    assert header == ["z", "core_power"]
    assert float(rows[-1][1]) < float(rows[0][1])


def test_decay_subcommand(capsys):
    code, out, _ = run(
        ["decay", "--k0a", "30", "--u0", "1.5", "--m", "40", "--z-max", "40"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "measured_rate", "width_Gamma_refined"]
    assert float(rows[0][1]) > 0.05


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LEAKYSLAB_OUTDIR", str(tmp_path))
    code = main(["fbw", "--e0", "0", "--gamma", "1", "--grid", "0:1:2", "-o", "sub/c.csv"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "sub" / "c.csv").exists()


def test_validation_exit_code(capsys):
    code, _, err = run(
        ["transmission", "--k0a", "30", "--u0", "1.5", "--eps", "nope"], capsys
    )
    assert code == 2
    assert "error" in err


@pytest.mark.filterwarnings("error")
def test_nan_grid_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, stdout, err = run(
        ["transmission", "--k0a", "30", "--u0", "1.5", "--eps", "nan:nan:1", "-o", str(out)],
        capsys,
    )
    assert code == 2
    assert "radiation band" in err
    assert not out.exists()
    assert "nan" not in stdout
    # every other non-finite number is refused before anything is computed
    # from it or written (the filterwarnings mark makes a warning an error)
    bpm = ["propagate", "--k0a", "30", "--u0", "1.5", "--X", "120", "--nx", "513"]
    width = ["shift", "--u0", "1.5", "--eps-fixed", "-0.995", "--k0a-sweep", "1:60:3"]
    init = tmp_path / "init.json"
    assert main([*bpm, "--packet", "0:10:0.4", "--z-max", "1", "--save-field", str(init)]) == 0
    capsys.readouterr()
    doc = json.loads(init.read_text())
    doc["re"][256][0] = float("nan")
    init.write_text(json.dumps(doc))
    for argv in (
        ["fbw", "--e0", "0", "--gamma", "1", "--grid", "nan:nan:1"],
        ["fbw", "--e0", "0", "--gamma", "1", "--grid", "-1:inf:3"],
        ["fbw", "--e0", "0", "--gamma", "nan", "--grid", "-1:1:3"],
        ["resonances", "--k0a", "inf", "--u0", "1.5"],
        ["resonances", "--k0a", "30", "--u0", "inf"],
        [*width, "--k0a", "nan"],
        [*width, "--k0a", "-5"],
        [*bpm, "--packet", "0:10:0.4", "--X", "nan"],
        [*bpm, "--packet", "0:10:0.4", "--dz", "inf"],
        [*bpm, "--packet", "0:0:0", "--z-max", "1"],
        [*bpm, "--init-field", str(init), "--z-max", "1"],
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
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: abscissa must be finite\n")
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
    # two seeds of this slab collide on one root (RootJumpError), a numerical
    # failure that must map to exit code 3 with nothing written
    out = tmp_path / "r.csv"
    code, stdout, err = run(
        ["resonances", "--k0a", "2", "--u0", "1.1", "--refine", "-o", str(out)], capsys
    )
    assert code == 3
    assert err.startswith("numerical failure: ")
    assert not out.exists() and stdout == ""


def test_resonances_json_format(capsys):
    code, out, _ = run(
        ["resonances", "--k0a", "30", "--u0", "1.5", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["modes"]) == 17
    assert doc["modes"][0]["m"] == 24


def test_json_curve_format(capsys):
    code, out, _ = run(
        ["transmission", "--k0a", "30", "--u0", "1.5", "--eps", "-0.5:-0.4:3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc["columns"]) == {"eps_R", "T", "phi"}
    assert doc["meta"]["k0a"] == 30.0


# Values whose shortest repr is easy to get wrong: signed zero, the smallest
# subnormal, a float past the exact-integer range, a repeating binary
# fraction and NaN.
AWKWARD = [-0.0, 5e-324, 1e16, 1 / 3, float("nan")]


def csv_body(text):
    assert text.endswith("\n")
    return [line for line in text.splitlines() if not line.startswith("#")]


def test_curve_writers_match_per_element_repr():
    abscissa = np.array([-1e16, -0.0, 5e-324, 1 / 3, 2.0])
    real = np.array(AWKWARD)
    curve = Curve(abscissa=abscissa, values=np.column_stack([real, real[::-1]]), labels=("x", "a", "b"))
    names = ["x", "a", "b"]
    columns = [abscissa, real, real[::-1]]
    meta = {"k": 1.5}
    text = _csv("probe", meta, *_curve_table(curve)[:2])
    assert text.startswith(f"# leakyslab probe v{__version__}\n# k=1.5\n")
    rows = [",".join(repr(float(col[i])) for col in columns) for i in range(5)]
    assert csv_body(text) == [",".join(names)] + rows
    doc = {
        "command": "probe",
        "meta": meta,
        "columns": {name: [float(v) for v in col] for name, col in zip(names, columns)},
    }
    text = _json("probe", meta, **_curve_table(curve)[2])
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_grid_writers_match_per_element_repr():
    # 3 x 5, so that swapping the x and z loops would show
    x = np.array([-0.0, 5e-324, 1 / 3])
    z = np.array([0.0, 1 / 3, 1.0, 1e16, 1e16])
    real = np.array(AWKWARD * 3).reshape(3, 5)
    amps = real + 1j * real[::-1, ::-1]
    grid = FieldGrid(x_grid=x, z_grid=z, amplitudes=amps)
    for component, comp in (("re", amps.real), ("im", amps.imag), ("abs2", np.abs(amps) ** 2)):
        rows = [
            f"{float(x[i])!r},{float(z[j])!r},{float(comp[i, j])!r}"
            for i in range(3)
            for j in range(5)
        ]
        text = _csv("probe", {}, *_grid_table(grid, component)[:2])
        assert csv_body(text) == [f"x,z,{component}_E"] + rows
    doc = {
        "command": "probe",
        "meta": {},
        "x": [float(v) for v in x],
        "z": [float(v) for v in z],
        "re": [[float(v) for v in row] for row in amps.real],
        "im": [[float(v) for v in row] for row in amps.imag],
    }
    text = _json("probe", {}, **_grid_table(grid, "re")[2])
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"


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
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = {
        "command": "resonances",
        "meta": meta,
        "modes": [
            {"m": r.mode_index_m, "eps_R": r.eigenvalue.eps_R,
             "half_width_Gamma": r.eigenvalue.half_width_Gamma,
             "residual": r.residual, "method": r.method}
            for r in modes
        ],
    }
    assert out == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert all(type(mode["m"]) is int and type(mode["method"]) is str
               for mode in json.loads(out)["modes"])


def test_decay_writers_match_per_element_repr(capsys):
    slab = SlabConfig(30.0, 1.5)
    cfg = BpmConfig.for_slab(slab, transverse_halfwidth_X=120.0, nx=513, dz=0.1)
    seed = next(r for r in approximate_resonances(slab) if r.mode_index_m == 36)
    res = refine_resonance(seed, slab)
    rate = measure_decay(cfg, tapered_mode_column(mode_profile(res, slab), cfg), 30.0)
    argv = ["decay", "--k0a", "30", "--u0", "1.5", "--X", "120", "--nx", "513",
            "--dz", "0.1", "--m", "36", "--z-max", "30"]
    # the header records every BPM flag
    meta = {"k0a": 30.0, "u0": 1.5, "m": 36, "z_max": 30.0, "nx": 513, "dz": 0.1,
            "X": 120.0}
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == header("decay", meta) + [
        "m,measured_rate,width_Gamma_refined",
        f"36,{rate!r},{res.eigenvalue.width_Gamma!r}",
    ]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = {
        "command": "decay",
        "meta": meta,
        "columns": {"m": [36], "measured_rate": [rate],
                    "width_Gamma_refined": [res.eigenvalue.width_Gamma]},
    }
    assert out == json.dumps(doc, indent=1, sort_keys=True) + "\n"
