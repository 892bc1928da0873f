"""End-to-end tests for the simulate / run / eval command line."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tiltro
from tiltro.cli import main
from tiltro.io import (
    read_ground_truth_csv,
    read_rte_csv,
    read_trajectory_csv,
    write_trajectory_csv,
)
from tiltro.geometry import quat_array_to_rpy
from tiltro.registration import NnIndex
from tiltro.sim import PathSegment, Pole, Scenario

from helpers import SCAN_FILE_DAMAGE


def _course():
    rng = np.random.default_rng(41)
    poles = tuple(
        Pole(
            float(rng.uniform(-10.0, 40.0)),
            float(rng.uniform(-25.0, 25.0)),
            0.0,
            float(rng.uniform(2.0, 5.0)),
            float(rng.uniform(150.0, 255.0)),
        )
        for _ in range(24)
    )
    return Scenario(
        seed=33,
        segments=(
            PathSegment("dwell", duration=2.0),
            PathSegment("straight", speed=2.0, length=30.0),
        ),
        poles=poles,
    )


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Full simulate -> run -> eval chain in a shared directory."""
    root = tmp_path_factory.mktemp("cli")
    (root / "scenario.json").write_text(_course().to_json(), encoding="utf-8")
    (root / "config.txt").write_text("static_window_s = 1.5\n", encoding="utf-8")
    ds = root / "ds"
    assert main(["simulate", "--scenario", str(root / "scenario.json"),
                 "--out", str(ds)]) == 0
    assert main(["run", "--dataset", str(ds),
                 "--config", str(root / "config.txt"),
                 "--out", str(root / "traj.csv"),
                 "--diagnostics", str(root / "diag.csv")]) == 0
    assert main(["eval", "--est", str(root / "traj.csv"),
                 "--gt", str(ds / "ground_truth.csv"),
                 "--segment", "10", "--out", str(root / "rte.csv")]) == 0
    return root


def test_chain_produces_coherent_outputs(chain):
    t, x, y, yaw, roll, pitch = read_trajectory_csv(chain / "traj.csv")
    assert len(t) > 60  # one row per scan over ~17 s at 4 Hz
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    # Straight east course: the estimate must actually travel.
    assert x[-1] > 25.0
    starts, lengths, errs, median = read_rte_csv(chain / "rte.csv")
    assert len(errs) > 20
    assert np.all(lengths >= 10.0 - 1e-6)
    assert median < 8.0
    diag_lines = (chain / "diag.csv").read_text().splitlines()
    assert len(diag_lines) == len(t) + 1  # header plus one row per scan


def test_dataset_directory_layout(chain):
    ds = chain / "ds"
    assert (ds / "imu.csv").is_file()
    assert (ds / "ground_truth.csv").is_file()
    assert (ds / "scenario.echo").is_file()
    scans = sorted((ds / "scans").glob("*.frad"))
    assert scans and scans[0].name == "000000.frad"


def test_ablation_flags_accepted(chain):
    out = chain / "traj_ablate.csv"
    rc = main(["run", "--dataset", str(chain / "ds"),
               "--config", str(chain / "config.txt"),
               "--out", str(out), "--no-tilt-gate", "--no-tilt-search"])
    assert rc == 0
    t, x, _, _, _, _ = read_trajectory_csv(out)
    assert len(t) > 60


def test_run_config_reaches_icp(chain, tmp_path, monkeypatch):
    ks = []
    query = NnIndex.query

    def spying(self, queries, k, *bound):
        ks.append(k)
        return query(self, queries, k, *bound)

    monkeypatch.setattr(NnIndex, "query", spying)
    cfg = tmp_path / "config.txt"
    cfg.write_text("static_window_s = 1.5\nk_nn = 2\nmax_iterations = 1\n",
                   encoding="utf-8")
    diag = tmp_path / "diag.csv"
    assert main(["run", "--dataset", str(chain / "ds"), "--config", str(cfg),
                 "--out", str(tmp_path / "traj.csv"),
                 "--diagnostics", str(diag)]) == 0
    assert ks and set(ks) == {2}
    header, *rows = diag.read_text().splitlines()
    column = header.split(",").index("icp_iterations")
    iterations = {int(row.split(",")[column]) for row in rows}
    assert iterations == {0, 1}  # ICP ran, and never past the one iteration


def test_eval_of_truth_against_itself_is_zero(chain, tmp_path):
    gt_csv = chain / "ds" / "ground_truth.csv"
    t, pos, quats = read_ground_truth_csv(gt_csv)
    _, _, yaw = quat_array_to_rpy(quats)
    est_csv = tmp_path / "self.csv"
    write_trajectory_csv(est_csv, t, pos[:, 0], pos[:, 1], yaw,
                         np.zeros_like(yaw), np.zeros_like(yaw))
    out = tmp_path / "rte.csv"
    assert main(["eval", "--est", str(est_csv), "--gt", str(gt_csv),
                 "--segment", "10", "--out", str(out)]) == 0
    _, _, errs, median = read_rte_csv(out)
    assert median < 1e-9
    assert np.max(errs) < 1e-6


def test_results_go_to_files_not_stdout(chain, tmp_path, capsys):
    out = tmp_path / "rte.csv"
    rc = main(["eval", "--est", str(chain / "traj.csv"),
               "--gt", str(chain / "ds" / "ground_truth.csv"),
               "--segment", "10", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert "median" in captured.err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate", "--out", "somewhere"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_data_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--scenario", str(missing),
                 "--out", str(tmp_path / "ds")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["simulate", "--scenario", str(bad),
                 "--out", str(tmp_path / "ds")]) == 2
    cfg = tmp_path / "cfg.txt"
    for text in ("bogus_key = 1\n", "d_max = nan\n"):
        cfg.write_text(text, encoding="utf-8")
        assert main(["run", "--dataset", str(tmp_path / "ds"),
                     "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err
    assert f"{cfg}: d_max must be finite" in captured.err


@pytest.mark.parametrize(
    "pole",
    [
        {"x": 1.0, "y": 2.0, "base_z": 0.0, "height": 3.0, "reflectivity": 200.0},
        [1.0, "2.0", 0.0, 3.0, 200.0],
    ],
    ids=["object", "string"],
)
def test_simulate_rejects_a_malformed_pole_row(tmp_path, capsys, pole):
    doc = json.loads(_course().to_json())
    doc["poles"].append(pole)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(tmp_path / "ds")]) == 2
    assert "poles rows must be lists of numbers" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_readme_scenario_example_simulates(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Scenario files"):]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(example, encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(tmp_path / "ds"), "--duration", "3"]) == 0


def test_run_rejects_a_timestamp_outside_int64(chain, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(chain / "ds", ds)
    imu = ds / "imu.csv"
    lines = imu.read_text(encoding="utf-8").splitlines()
    lines[-1] = str(2**63) + lines[-1][lines[-1].index(","):]
    imu.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["run", "--dataset", str(ds), "--config", str(chain / "config.txt"),
               "--out", str(tmp_path / "t.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"line {len(lines)}: '{2**63}' is outside the int64 range" in captured.err
    assert not (tmp_path / "t.csv").exists()


def test_run_names_a_scan_file_the_scan_checks_reject(chain, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(chain / "ds", ds)
    edit, message = SCAN_FILE_DAMAGE["decreasing-azimuths"]
    victim = ds / "scans" / "000003.frad"
    victim.write_bytes(edit(victim.read_bytes()))
    rc = main(["run", "--dataset", str(ds), "--config", str(chain / "config.txt"),
               "--out", str(tmp_path / "t.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"{victim}: {message}" in captured.err
    assert not (tmp_path / "t.csv").exists()


def test_eval_rejects_too_short_overlap(chain, tmp_path, capsys):
    out = tmp_path / "rte.csv"
    rc = main(["eval", "--est", str(chain / "traj.csv"),
               "--gt", str(chain / "ds" / "ground_truth.csv"),
               "--segment", "500", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err
    assert not out.exists()


#: Runs ``simulate`` and ``eval`` through ``tiltro.cli.main`` in a fresh
#: interpreter, then builds one index; prints whether ``scipy.spatial`` was
#: loaded after each step.
_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
loaded = {}
from tiltro.cli import main
loaded["import tiltro"] = "scipy.spatial" in sys.modules
for step, argv in zip(("simulate", "eval"), sys.argv[2:]):
    assert main(json.loads(argv)) == 0
    loaded[step] = "scipy.spatial" in sys.modules
from tiltro.registration import NnIndex
NnIndex([[0.0, 0.0, 0.0]])
loaded["NnIndex"] = "scipy.spatial" in sys.modules
print(json.dumps(loaded))
"""


def test_only_an_index_build_loads_scipy_spatial(chain, tmp_path):
    # Module names, not timings, so the host's speed cannot flake it.
    simulate = ["simulate", "--scenario", str(chain / "scenario.json"),
                "--out", str(tmp_path / "ds"), "--duration", "1"]
    evaluate = ["eval", "--est", str(chain / "traj.csv"),
                "--gt", str(chain / "ds" / "ground_truth.csv"),
                "--segment", "10", "--out", str(tmp_path / "rte.csv")]
    src = Path(tiltro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(src),
         json.dumps(simulate), json.dumps(evaluate)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import tiltro": False,
        "simulate": False,
        "eval": False,
        "NnIndex": True,
    }


def test_console_script_is_installed():
    proc = subprocess.run(
        ["tiltro", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
    assert sys.version_info >= (3, 10)
