"""Tests of the benchmark itself: seeded inputs, emitted metrics, checkers."""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import leakyslab as ls
from leakyslab import cli

import run
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(make, n=6):
    w = make()
    return [w.next_input() for _ in range(n)]


@pytest.mark.parametrize("name", ["spectrum", "crosscheck", "cli"])
def test_seeded_inputs_are_reproducible(name, tmp_path):
    def make(seed):
        if name == "spectrum":
            return lambda: wl.Spectrum(seed, spans.NullTracer())
        if name == "crosscheck":
            return lambda: wl.Crosscheck(seed, spans.NullTracer())
        return lambda: wl.Cli(seed, spans.NullTracer(), ROOT, tmp_path)

    def key(inp):
        if name == "spectrum":
            return (inp.slab, inp.flux_eps.tolist(), inp.fd_eps.tolist())
        return inp if name == "crosscheck" else inp.argv

    first = [key(i) for i in _inputs(make(7))]
    assert first == [key(i) for i in _inputs(make(7))]
    assert first != [key(i) for i in _inputs(make(8))]


def test_slabs_stay_in_the_envelope_and_fill_every_stratum():
    stream = wl.SlabStream(np.random.default_rng(3))
    n = wl.SlabStream.STRATA
    slabs = [stream.next() for _ in range(n)]
    for slab in slabs:
        assert 5.0 <= slab.half_width_A <= 60.0
        assert 1.05 <= slab.core_index_U0 <= 2.0
    log_k = sorted(math.log(s.half_width_A / 5.0) / math.log(12.0) for s in slabs)
    u0 = sorted((s.core_index_U0 - 1.05) / 0.95 for s in slabs)
    for i in range(n):
        assert i / n - 1e-6 <= log_k[i] <= (i + 1) / n + 1e-6
        assert i / n - 1e-6 <= u0[i] <= (i + 1) / n + 1e-6


def test_end_to_end_metrics_carry_their_units():
    values = run.end_to_end([0.1, 0.2, 0.3], 1, 1, 4, [0.5, 0.7, 0.6], 80.0, [0.3], [0.07])
    line = run.result_line(SPEC["end_to_end"], values, 4, 1, correct=True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
    assert values["ok_frac"] == pytest.approx(3 / 4)
    assert values["ops_per_s"] == pytest.approx(5.0)


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_metric_of_its_table(trace, table):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectrum", "--seed", "1",
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    line = json.loads(done.stdout.splitlines()[-1])
    # a 0.05 s loop reaches one input; the rest of the pool is still checked
    assert line["correct"] is True and line["attempted"] == wl.Spectrum.pool_size
    assert list(line["metrics"]) == [m["name"] for m in SPEC[table]]
    for m in SPEC[table]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert line["metrics"]["scattering.points"]["value"] == 4096
        assert line["metrics"]["scattering.transmission_sweep.self_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_throughput_is_the_median_over_whole_round_windows():
    # windows of >= 2 s in whole rounds of two: [1, 1], [0.5, 0.5, 0.5, 0.5], [3, 3]
    lat = [1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 3.0, 3.0, 0.1]  # the short tail is dropped
    assert run.throughput(lat, 2) == pytest.approx(1.0)
    assert run.throughput([0.2, 0.3], 2) == pytest.approx(4.0)  # the only window


def test_tracer_self_time_excludes_children():
    t = spans.Tracer()
    t.op_id = 0
    with t.span("outer"):
        with t.span("inner"):
            sum(range(20000))
    t.op_id = None
    with t.span("outer"):  # outside any op: ignored
        pass
    self_s = t.self_times()
    outer, inner = t.spans[0], t.spans[1]
    assert self_s["inner"] == pytest.approx(inner[2] - inner[1])
    assert self_s["outer"] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))
    assert len(t.durations("outer")) == 1


def test_reference_table_check_catches_a_perturbed_eigenvalue():
    seeds = ls.approximate_resonances(wl.REFERENCE_SLAB)
    assert wl.check_reference_table(seeds) == []
    bad = seeds[5]
    moved = ls.ComplexEigenvalue(bad.eigenvalue.eps_R + 2e-6, bad.eigenvalue.half_width_Gamma)
    seeds[5] = dataclasses.replace(bad, eigenvalue=moved)
    found = wl.check_reference_table(seeds)
    assert [f.check for f in found] == ["reference_table"] and found[0].wrong_value
    assert wl.check_reference_table(seeds[:-1])[0].check == "reference_table"


def _fbw_output(tmp_path):
    inp = wl.cli_input("fbw", wl.REFERENCE_SLAB, np.random.default_rng(11))
    path = tmp_path / "fbw.csv"
    assert cli.main([*inp.argv, "-o", str(path)]) == 0
    return inp, path.read_text()


def test_cli_check_passes_a_correct_file_and_catches_one_altered_digit(tmp_path):
    inp, text = _fbw_output(tmp_path)
    reference = wl.cli_reference(inp)
    assert wl.check_cli_output(inp, wl.CliResult(0, text, ""), reference) == []
    lines = text.splitlines()
    row = len(lines) // 2
    digit = next(i for i in range(len(lines[row]) - 1, -1, -1) if lines[row][i].isdigit())
    new = "1" if lines[row][digit] != "1" else "2"
    lines[row] = lines[row][:digit] + new + lines[row][digit + 1:]
    altered = wl.CliResult(0, "\n".join(lines) + "\n", "")
    found = wl.check_cli_output(inp, altered, reference)
    assert [f.check for f in found] == ["cli_values"] and found[0].wrong_value


def test_cli_check_catches_a_wrong_header_flag(tmp_path):
    inp, text = _fbw_output(tmp_path)
    text = text.replace(f"# e0={inp.meta['e0']}", "# e0=0.25")
    found = wl.check_cli_output(inp, wl.CliResult(0, text, ""), wl.cli_reference(inp))
    assert [f.check for f in found] == ["cli_header"]


def test_cli_check_fails_a_nonzero_exit_code(tmp_path):
    inp, text = _fbw_output(tmp_path)
    found = wl.check_cli_output(inp, wl.CliResult(3, text, "numerical failure: x\n"), None)
    assert [f.check for f in found] == ["exit_code"] and not found[0].wrong_value
    assert found[0].detail.endswith("numerical failure: x")


def test_spectrum_check_catches_a_count_mismatch_and_a_duplicate_root():
    w = wl.Spectrum(0, spans.NullTracer())
    inp = wl.SpectrumInput(wl.REFERENCE_SLAB, np.array([-0.5]), np.array([-0.5]))
    res = w.run(inp)
    assert w.check(inp, res) == []
    res.count += 1
    assert [f.check for f in w.check(inp, res)] == ["root_count"]
    res.count -= 1
    res.modes = res.modes + res.modes[:1]
    assert "distinct_roots" in [f.check for f in w.check(inp, res)]


def test_crosscheck_check_catches_a_non_finite_rate():
    mode = ls.refine_all(ls.approximate_resonances(wl.REFERENCE_SLAB), wl.REFERENCE_SLAB)[0]
    field = ls.mode_profile(mode, wl.REFERENCE_SLAB)
    grid = ls.propagate_mode(field, wl.DECAY_X, wl.DECAY_Z)
    good = wl.CrossResult(mode, grid, rate=0.012, measured_shift=90.0, target_shift=95.0)
    assert wl.check_crosscheck(good) == []
    bad = dataclasses.replace(good, rate=math.nan)
    assert [f.check for f in wl.check_crosscheck(bad)] == ["bpm_rate"]


def test_packet_width_is_accepted_across_the_reference_modes():
    for m, (eps_r, _) in wl.REFERENCE_EIGENVALUES.items():
        kc = math.sqrt(2 * (eps_r + 1))
        sigma = wl.packet_width(eps_r)
        assert 0 < sigma <= kc / 20
        assert kc + 6 * sigma < math.sqrt(2)
