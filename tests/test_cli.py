import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cellsim
from cellsim import cli, scenario
from cellsim.cli import main
from cellsim.scenario import ScenarioConfig, parse_config, render_csv, run_experiment


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_with_default_scenario(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code, stdout, stderr = run_cli(
        [
            "run",
            "--out", str(out),
            "--drops", "10",
            "--seed", "3",
            "--thresholds", "-10:10:10",
        ],
        capsys,
    )
    assert code == 0, stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header + thresholds -10, 0, 10
    assert "micro" in stdout


def test_sweep_beyond_float_range_reads_outage_1(tmp_path, capsys, recwarn):
    # 10**309 overflows to inf; the default ideal isolation gives neighbor
    # cells of mean 0, which must not turn the analytic column into nan.
    out = tmp_path / "far.csv"
    code, _, stderr = run_cli(
        ["run", "--out", str(out), "--drops", "10", "--thresholds", "3070:3090:10"], capsys
    )
    assert code == 0, stderr
    assert out.read_text().splitlines()[1:] == [
        "3070,1,0,1,1,0,0", "3080,1,0,1,1,0,0", "3090,1,0,1,1,0,0",
    ]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_run_single_architecture(tmp_path, capsys):
    out = tmp_path / "used.csv"
    code, stdout, _ = run_cli(
        ["run", "--out", str(out), "--drops", "5", "--arch", "used", "--thresholds", "0:0:1"],
        capsys,
    )
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[4] == "NA" and row[5] == "NA" and row[6] == "NA"
    assert "used @" in stdout


def test_config_file_plus_overrides(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n_users = 5\nn_drops = 4\ninterferer_tiers = 0\nthresholds = 0:5:5\n")
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(
        ["run", "--config", str(cfg), "--out", str(out), "--combiner", "paper", "--paired", "false"],
        capsys,
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_seed_reproducibility_through_cli(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--drops", "8", "--seed", "11", "--thresholds", "-5:5:5"]
    assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")],
        capsys,
    )
    assert code == 1
    assert "error:" in stderr and "nope.cfg" in stderr


def test_bad_config_content_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rho = banana\n")
    code, _, stderr = run_cli(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")], capsys
    )
    assert code == 1
    assert "rho" in stderr


def test_bad_thresholds_flag_fails_cleanly(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["run", "--out", str(tmp_path / "o.csv"), "--thresholds", "oops"], capsys
    )
    assert code == 1
    assert "thresholds" in stderr


@pytest.mark.parametrize(
    "config_text",
    [
        "d_min = 1e-4 m\n",
        "floor_gain_db = 1 dB\n",
        "thresholds = 0:1e308:1e-300\n",
        "thresholds = -1e308:1e308:1e308\n",
        "d_min = 1e-80 m\n",
        "d_min = 1e300 m\n",
        "d_min = 1e100 m\n",
        "processing_gain = 1e20\n",
        "d_min = 0 m\n",
        "d_min = 1e400 m\n",
        "processing_gain = 0.5\n",
        "noise_power = -1e-14 W\n",
        "shadowing_sigma = 400 dB\nprocessing_gain = 1e6\nd_min = 1e-3 m\n",
        "architecture = microzone\nd_min = 0 m\n",
        "architecture = microzone\nd_min = 1e-4 m\n",
        "architecture = microzone\nd_min = 1e300 m\n",
        "architecture = microzone\nd_min = 1e100 m\n",
        "architecture = microzone\nprocessing_gain = 1e20\n",
    ],
    ids=[
        "d_min_below_range", "floor_gain_above_beam_gain", "sweep_step_count_overflow",
        "sweep_span_overflow",
        "d_min_power_overflow", "d_min_square_overflow", "d_min_power_underflow",
        "despread_power_overflow", "zero_d_min", "d_min_beyond_float", "processing_gain_below_range",
        "negative_noise_power", "shadowed_power_overflow", "microzone_zero_d_min",
        "microzone_d_min_below_range", "microzone_d_min_square_overflow",
        "microzone_d_min_power_underflow", "microzone_despread_power_overflow",
    ],
)
def test_unusable_config_fails_before_any_drop(tmp_path, capsys, monkeypatch, config_text):
    def no_drops(*args, **kwargs):
        raise AssertionError("Monte Carlo ran on a config that must be rejected first")

    monkeypatch.setattr(scenario, "mc_outage", no_drops)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config_text)
    code, _, stderr = run_cli(
        ["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--drops", "1000000"],
        capsys,
    )
    assert code == 1
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr
    assert "unknown key" not in stderr


@pytest.mark.parametrize("line", ["cell_radius = 1000 m", "tx_power = 1 W"])
def test_retired_scale_key_fails_before_any_drop(tmp_path, capsys, monkeypatch, line):
    # The cell is the paper's 1 km and every user transmits 1 W; a config
    # that still sets either fails as an unknown key, before Monte Carlo.
    def no_drops(*args, **kwargs):
        raise AssertionError("Monte Carlo ran on a config that must be rejected first")

    monkeypatch.setattr(scenario, "mc_outage", no_drops)
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(line + "\n")
    code, _, stderr = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 1
    assert stderr == f"error: {cfg}: line 1: unknown key '{line.partition(' ')[0]}'\n"
    assert not (tmp_path / "o.csv").exists()


class Simulated(Exception):
    """Carries the config a run was about to simulate."""


@pytest.mark.parametrize(
    "flag, value, line",
    [
        ("--seed", "7", "master_seed = 7"),
        ("--seed", "18446744073709551616", "master_seed = 18446744073709551616"),
        ("--drops", "250", "n_drops = 250"),
        ("--arch", "microzone", "architecture = microzone"),
        ("--thresholds", "-5:5:2.5", "thresholds = -5:5:2.5"),
        ("--paired", "false", "paired = false"),
        ("--combiner", "paper", "combiner_mode = paper"),
    ],
)
def test_flag_reads_like_its_config_line(tmp_path, monkeypatch, flag, value, line):
    def simulated(cfg, workers):
        raise Simulated(cfg)

    monkeypatch.setattr(cli, "run_experiment", simulated)
    with pytest.raises(Simulated) as run:
        main(["run", "--out", str(tmp_path / "o.csv"), flag, value])
    cfg = run.value.args[0]
    assert cfg == parse_config(line)
    assert cfg != ScenarioConfig()


def test_huge_threshold_sweep_flag_fails_cleanly(tmp_path, capsys, monkeypatch):
    def no_run(cfg, workers):
        raise AssertionError("a sweep of 10**13 points reached the run")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    code, _, stderr = run_cli(
        ["run", "--out", str(tmp_path / "o.csv"), "--thresholds", "0:1e7:1e-6"], capsys
    )
    assert code == 1
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "points" in lines[0], stderr


@pytest.mark.parametrize(
    "flag, value",
    [("--drops", "1.5"), ("--seed", "x"), ("--workers", "x"), ("--workers", "1.5")],
)
def test_malformed_flag_value_fails_cleanly(tmp_path, capsys, flag, value):
    code, _, stderr = run_cli(["run", "--out", str(tmp_path / "o.csv"), flag, value], capsys)
    assert code == 1
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag}:"), stderr


@pytest.mark.parametrize("flag, value", [("--arch", "bogus"), ("--combiner", "x"), ("--paired", "maybe")])
def test_bad_named_value_fails_cleanly(tmp_path, capsys, monkeypatch, flag, value):
    def no_run(cfg, workers):
        raise AssertionError("a bad flag value reached the run")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    code, _, stderr = run_cli(["run", "--out", str(tmp_path / "o.csv"), flag, value], capsys)
    assert code == 1
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch, where):
    def no_run(cfg, workers):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    out = tmp_path / "no" / "such" / "x.csv" if where == "missing_directory" else tmp_path
    code, stdout, stderr = run_cli(["run", "--out", str(out), "--drops", "20000"], capsys)
    assert code == 1 and stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write CSV to {out}: "), stderr


def test_run_too_large_to_allocate_fails_cleanly(tmp_path, capsys, monkeypatch):
    def no_memory(cfg, workers):
        raise MemoryError("Unable to allocate 5.09 TiB for an array with shape (699050666666667,)")

    monkeypatch.setattr(cli, "run_experiment", no_memory)
    code, stdout, stderr = run_cli(["run", "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 1 and stdout == ""
    assert stderr.splitlines() == [
        "error: Unable to allocate 5.09 TiB for an array with shape (699050666666667,)"
    ], stderr


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports cellsim from this checkout."""
    src = str(Path(cellsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, timeout=300, **kwargs)


def test_closed_stdout_exits_1_silently_after_writing_the_csv(tmp_path):
    out = tmp_path / "c.csv"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_python(
            ["-m", "cellsim.cli", "run", "--drops", "5", "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1
    assert out.read_text() == render_csv(run_experiment(replace(ScenarioConfig(), n_drops=5)))


def test_start_up_does_not_import_numpy_random():
    # The first block imports numpy.random; importing cellsim, parsing a
    # config and building its layouts do not.
    code = (
        "import sys, cellsim.cli; from cellsim.geometry import build_layout; "
        "from cellsim.scenario import parse_config; cfg = parse_config('n_drops = 5'); "
        "[build_layout(cfg, arch) for arch in cfg.architectures]; "
        "print('numpy.random' in sys.modules)"
    )
    proc = run_python(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_runtime_does_not_import_scipy(tmp_path):
    # Nor, in a one-worker run, the process pool or numpy.polynomial.
    out = tmp_path / "c.csv"
    code = (
        "import sys, cellsim, cellsim.cli; "
        "unused = ('scipy', 'concurrent.futures.process', 'multiprocessing', 'numpy.polynomial'); "
        "print([m for m in unused if m in sys.modules]); "
        f"cellsim.cli.main(['run', '--drops', '50', '--workers', '1', '--out', {str(out)!r}]); "
        "print([m for m in unused if m in sys.modules])"
    )
    proc = run_python(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]", proc.stdout
    assert out.exists()


def test_run_needs_no_scipy(tmp_path):
    # With scipy unimportable, a lazy import anywhere in the run would fail.
    out = tmp_path / "c.csv"
    code = (
        "import sys; sys.modules['scipy'] = None; from cellsim import cli; "
        f"sys.exit(cli.main(['run', '--drops', '20', '--out', {str(out)!r}]))"
    )
    proc = run_python(["-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 22  # header + the 21 default thresholds


# The terminal report of `run --drops 40 --seed 3 --thresholds -10:10:5`,
# without its closing `wrote` line.  No row is flagged.
PINNED_REPORTS = {
    "both": [
        " thr_dB       used    used_ci      micro   micro_ci  micro-used  flag",
        "    -10   0.366875      0.149     0.1225      0.102   -0.244375  ",
        "     -5   0.526875      0.155      0.285       0.14   -0.241875  ",
        "      0   0.666875      0.146    0.52125      0.155   -0.145625  ",
        "      5    0.78125      0.128      0.725      0.138    -0.05625  ",
        "     10   0.869375      0.104       0.84      0.114   -0.029375  ",
    ],
    "used": [
        "used @ -10 dB: outage 0.366875 +- 0.149",
        "used @ -5 dB: outage 0.526875 +- 0.155",
        "used @ 0 dB: outage 0.666875 +- 0.146",
        "used @ 5 dB: outage 0.78125 +- 0.128",
        "used @ 10 dB: outage 0.869375 +- 0.104",
    ],
    "microzone": [
        "microzone @ -10 dB: outage 0.1225 +- 0.102",
        "microzone @ -5 dB: outage 0.285 +- 0.14",
        "microzone @ 0 dB: outage 0.52125 +- 0.155",
        "microzone @ 5 dB: outage 0.725 +- 0.138",
        "microzone @ 10 dB: outage 0.84 +- 0.114",
    ],
}


@pytest.mark.parametrize("arch", list(PINNED_REPORTS))
def test_terminal_report_is_pinned(tmp_path, capsys, arch):
    out = tmp_path / "c.csv"
    args = ["run", "--out", str(out), "--drops", "40", "--seed", "3", "--thresholds", "-10:10:5"]
    code, stdout, stderr = run_cli(args + ["--arch", arch], capsys)
    assert code == 0, stderr
    *report, wrote = stdout.split("\n")[:-1]
    assert report == PINNED_REPORTS[arch]
    assert wrote.startswith(f"wrote {out} (40 drops, seed 3, ")
