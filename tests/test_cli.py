import json
import os

import pytest

from fluidnet import fixtures
from fluidnet.cli import main
from fluidnet.lyapunov import MAX_DEPTH
from fluidnet.specfile import network_to_yaml

LSP_YAML = "skorokhod:\n  theta: [-1.0]\n  reflection: [[1.0]]\n  z0: [1.0]\n"


@pytest.fixture
def spec_file(tmp_path):
    def write(spec_or_text, name="net.yaml"):
        path = tmp_path / name
        text = spec_or_text if isinstance(spec_or_text, str) else network_to_yaml(spec_or_text)
        path.write_text(text)
        return str(path)

    return write


def run_cli(command, input_path, out_dir, *extra):
    return main(
        ["--command", command, "--input", input_path, "--out", str(out_dir), *extra]
    )


def read_report(out_dir):
    with open(os.path.join(out_dir, "report.json")) as handle:
        return json.load(handle)


def one_error_line(err):
    return len([line for line in err.splitlines() if line.startswith("error:")]) == 1


def test_stability_stable_exit_zero(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("stability", spec_file(fixtures.single_queue()), out,
                   "--horizon", "10", "--samples", "4")
    assert code == 0
    report = read_report(out)
    assert report["stability"]["status"] == "stable"
    assert report["stability"]["tau"] == pytest.approx(2.0, abs=1e-6)


def test_stability_unstable_exit_two(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("stability", spec_file(fixtures.lu_kumar()), out,
                   "--horizon", "30", "--samples", "2")
    assert code == 2
    assert os.path.exists(out / "witness.csv")
    report = read_report(out)
    assert report["stability"]["status"] == "unstable"


def test_malformed_input_exit_one(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("classes: 1\nstations: [unclosed\n")
    assert run_cli("stability", str(bad), tmp_path / "out") == 1


def test_unknown_key_exit_one(spec_file, tmp_path):
    path = spec_file(network_to_yaml(fixtures.single_queue()) + "bogus: 1\n")
    assert run_cli("simulate", path, tmp_path / "out") == 1


def test_unknown_discipline_one_error_line(spec_file, tmp_path, capsys):
    text = network_to_yaml(fixtures.tandem()).replace("work_conserving", "fifo")
    out = tmp_path / "out"
    assert run_cli("simulate", spec_file(text), out) == 1
    err = capsys.readouterr().err
    assert one_error_line(err) and "Traceback" not in err and "fifo" in err
    assert not os.path.exists(out / "report.json")


def test_simulate_writes_trajectory(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("simulate", spec_file(fixtures.tandem()), out, "--horizon", "5")
    assert code == 0
    with open(out / "trajectory.csv") as handle:
        header = handle.readline().strip()
    assert header == "t,Q1,Q2,T1,T2,u1,u2"
    report = read_report(out)
    assert report["simulate"]["invariants"]["ok"] is True


def test_skorokhod_command(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("skorokhod", spec_file(LSP_YAML, "lsp.yaml"), out,
                   "--horizon", "3", "--step", "0.05")
    assert code == 0
    report = read_report(out)
    assert report["skorokhod"]["flow_residual"] < 1e-9
    with open(out / "solution.csv") as handle:
        assert handle.readline().strip() == "t,Z1,Y1"


def test_lyapunov_command(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("lyapunov", spec_file(fixtures.tandem()), out,
                   "--horizon", "20", "--samples", "4")
    assert code == 0
    report = read_report(out)
    assert report["certificate"]["status"] == "Verified"
    assert report["sandwich"]["ok"]


def test_gfn_check_command(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("gfn-check", spec_file(fixtures.tandem()), out,
                   "--horizon", "10", "--samples", "4", "--step", "0.05")
    assert code == 0
    report = read_report(out)
    assert report["gfn_check"]["residual_ok"]
    assert report["gfn_check"]["lipschitz_ok"]


def test_gfn_check_reports_the_horizon_and_step_it_ran(spec_file, tmp_path):
    """At the default flags (horizon 50, step 0.01) the closure check runs at 25 and 0.02."""
    out = tmp_path / "out"
    assert run_cli("gfn-check", spec_file(fixtures.single_queue()), out) == 0
    report = read_report(out)
    assert report["parameters"]["horizon"] == 50.0
    assert report["parameters"]["step"] == 0.01
    assert report["gfn_check"]["horizon"] == 25.0
    assert report["gfn_check"]["h"] == 0.02


def test_fluidlimit_command(spec_file, tmp_path):
    text = network_to_yaml(fixtures.two_class_priority()) + (
        "queueing:\n  interarrival: exponential\n  service: exponential\n"
        "fluidlimit:\n  direction: [0.5, 0.5]\n  scales: [5, 20]\n"
    )
    out = tmp_path / "out"
    code = run_cli("fluidlimit", spec_file(text), out,
                   "--horizon", "2", "--samples", "3", "--step", "0.02")
    assert code == 0
    with open(out / "distances.csv") as handle:
        assert handle.readline().strip() == "r,seed,mean_dist,max_dist"


def test_fluidlimit_without_samples_exit_one(spec_file, tmp_path):
    text = network_to_yaml(fixtures.two_class_priority()) + (
        "queueing:\n  interarrival: exponential\n  service: exponential\n"
    )
    out = tmp_path / "out"
    assert run_cli("fluidlimit", spec_file(text), out, "--horizon", "2", "--samples", "0") == 1
    assert not os.path.exists(out / "distances.csv")


@pytest.mark.parametrize("flags", [("--step", "nan"), ("--horizon", "nan")])
def test_nan_step_or_horizon_exit_one(spec_file, tmp_path, flags):
    out = tmp_path / "out"
    assert run_cli("simulate", spec_file(fixtures.tandem()), out, *flags) == 1
    assert not os.path.exists(out / "trajectory.csv")


@pytest.mark.parametrize("flags", [("--step", "0"), ("--horizon", "-1")])
def test_nonpositive_step_or_horizon_one_error_line(spec_file, tmp_path, capsys, flags):
    assert run_cli("simulate", spec_file(fixtures.tandem()), tmp_path / "out", *flags) == 1
    err = capsys.readouterr().err
    assert one_error_line(err) and "Traceback" not in err


def test_byte_identical_reruns(spec_file, tmp_path):
    path = spec_file(fixtures.tandem())
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli("stability", path, out, "--horizon", "10", "--samples", "4",
                       "--seed", "7") == 0
        with open(out / "report.json", "rb") as handle:
            outputs.append(handle.read())
    assert outputs[0] == outputs[1]


def test_different_seed_logged(spec_file, tmp_path):
    path = spec_file(fixtures.tandem())
    out = tmp_path / "out"
    run_cli("stability", path, out, "--seed", "123", "--horizon", "10", "--samples", "2")
    report = read_report(out)
    assert report["parameters"]["seed"] == 123


@pytest.mark.parametrize("command,flags", [
    ("stability", ("--seed", "-1")),
    ("fluidlimit", ("--samples", "-1")),
    ("stability", ("--samples", "-1")),
    ("lyapunov", ("--multistarts", "-1")),
    ("lyapunov", ("--depth", "-1")),
    ("lyapunov", ("--depth", str(MAX_DEPTH + 1))),
])
def test_bad_run_parameter_exit_one(spec_file, tmp_path, capsys, command, flags):
    text = network_to_yaml(fixtures.two_class_priority()) + (
        "queueing:\n  interarrival: exponential\n  service: exponential\n"
    )
    out = tmp_path / "out"
    assert run_cli(command, spec_file(text), out, "--horizon", "2", *flags) == 1
    err = capsys.readouterr().err
    assert one_error_line(err) and "Traceback" not in err
    assert not os.path.exists(out / "report.json")


def test_negative_x0_exit_one(spec_file, tmp_path, capsys):
    text = network_to_yaml(fixtures.tandem()) + "simulate:\n  x0: [-1.0, 0.0]\n"
    out = tmp_path / "out"
    assert run_cli("simulate", spec_file(text), out, "--horizon", "2") == 1
    err = capsys.readouterr().err
    assert one_error_line(err) and "nonnegative" in err
    assert not os.path.exists(out / "report.json")


@pytest.mark.parametrize("section", [
    "queueing:\n  interarrival: weibull\n",
    "queueing:\n  interarrival: none\n",
    "fluidlimit:\n  scales: [-10.0]\n",
])
def test_bad_queueing_law_or_scale_one_error_line(spec_file, tmp_path, capsys, section):
    text = network_to_yaml(fixtures.single_queue()) + section
    out = tmp_path / "out"
    assert run_cli("fluidlimit", spec_file(text), out, "--horizon", "2", "--samples", "2") == 1
    err = capsys.readouterr().err
    assert one_error_line(err) and "Traceback" not in err
    assert not os.path.exists(out / "report.json")


@pytest.mark.parametrize("command,section", [
    ("simulate", "simulate:\n  x0: 1.0\n"),
    ("simulate", "simulate:\n  x0: [[1.0, 0.0]]\n"),
    ("fluidlimit", "fluidlimit:\n  direction: 0.5\n"),
    ("fluidlimit", "fluidlimit:\n  direction: [[0.5, 0.5]]\n"),
    ("fluidlimit", "fluidlimit:\n  scales: 10.0\n"),
    ("fluidlimit", "fluidlimit:\n  scales: [[10.0]]\n"),
    ("skorokhod", "skorokhod:\n  theta: -1.0\n  reflection: [[1.0]]\n  z0: [1.0]\n"),
    ("skorokhod", LSP_YAML + "  push_bound: [1.0, 2.0]\n"),
    ("skorokhod", LSP_YAML + "  push_bound: []\n"),
])
def test_section_value_not_a_flat_list_one_error_line(spec_file, tmp_path, capsys,
                                                       command, section):
    text = network_to_yaml(fixtures.tandem()) + section
    out = tmp_path / "out"
    assert run_cli(command, spec_file(text), out, "--horizon", "2", "--samples", "2") == 1
    err = capsys.readouterr().err
    assert one_error_line(err) and "Traceback" not in err
    assert not os.path.exists(out / "report.json")


def test_scale_beyond_int64_one_error_line(spec_file, tmp_path, capsys, recwarn):
    text = network_to_yaml(fixtures.single_queue()) + "fluidlimit:\n  scales: [1.0e+300]\n"
    out = tmp_path / "out"
    assert run_cli("fluidlimit", spec_file(text), out, "--horizon", "2", "--samples", "2") == 1
    err = capsys.readouterr().err
    assert one_error_line(err) and "Traceback" not in err and "scale 1e+300" in err
    assert not os.path.exists(out / "report.json")
    assert not recwarn.list


def test_report_parameters_block(spec_file, tmp_path):
    out = tmp_path / "out"
    code = run_cli("stability", spec_file(fixtures.single_queue()), out,
                   "--seed", "7", "--step", "0.05", "--horizon", "6", "--samples", "3",
                   "--depth", "2", "--multistarts", "1")
    assert code == 0
    assert read_report(out)["parameters"] == {
        "command": "stability", "seed": 7, "step": 0.05, "horizon": 6.0,
        "samples": 3, "depth": 2, "multistarts": 1,
    }
