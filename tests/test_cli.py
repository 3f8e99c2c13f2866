import json

import pytest

from cutgossip.cli import ExperimentConfig, main, parse_graph_spec
from cutgossip.graph import build_barbell, save_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_specs(tmp_path):
    assert parse_graph_spec("barbell:3,5", 0) == build_barbell(3, 5)
    path = tmp_path / "g.txt"
    save_graph(build_barbell(2, 4), path)
    assert parse_graph_spec(f"file:{path}", 0) == build_barbell(2, 4)
    g = parse_graph_spec("random:n1=3,n2=4,p1=0.9,p2=0.9,k12=2", 5)
    assert (g.n1, g.n2) == (3, 4)


def test_graph_spec_errors():
    from cutgossip.cli import ConfigError

    for bad in ("barbell:3", "nope:1,2", "file:/does/not/exist",
                "random:n1=0,n2=2"):
        with pytest.raises(ConfigError):
            parse_graph_spec(bad, 0)


def test_simulate_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--graph", "barbell:3,3", "--rule", "vanilla",
        "--seed", "1", "--max-events", "500", "--sample-every", "50",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    meta = json.loads(lines[0])["meta"]
    assert meta["seed"] == 1 and meta["rule"] == "vanilla"
    assert "500 events" in stdout


def test_simulate_csv_by_extension(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--graph", "barbell:2,2", "--seed", "3",
        "--max-events", "100", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().splitlines()[1] == "t,var,mu1,mu2,sigma,nu_t,k"


def test_simulate_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "simulate", "--graph", "barbell:3,3",
            "--rule", "algA:P=2,gamma=balanced,C=4", "--seed", "9",
            "--max-events", "2000", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_requires_stop(capsys):
    code, _, err = run_cli(capsys, "simulate", "--graph", "barbell:2,2")
    assert code == 2
    assert "max-events" in err


def test_malformed_rule_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--graph", "barbell:2,2", "--rule", "convex:z=1",
        "--max-events", "5",
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["estimate", "--graph", "barbell:2,2", "--runs", "10"],
    ["simulate", "--graph", "barbell:2,2", "--max-events", "10",
     "--sample-every", "0"],
    ["simulate", "--graph", "barbell:2,2", "--max-events", "-1"],
    ["check", "dominance", "--graph", "barbell:4,4", "--rule", "algA:P=3",
     "--min-increments", "10"],
    ["check", "dominance", "--graph", "barbell:1,1", "--rule", "algA:P=3"],
])
def test_rejected_values_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    if "--min-increments" in argv:  # rejected before any simulation
        assert "--min-increments" in err
    if "barbell:1,1" in argv:  # every run is at consensus after one firing
        assert "consensus" in err


def test_estimate_two_vertex(tmp_path, capsys):
    out = tmp_path / "est.json"
    code, _, _ = run_cli(
        capsys, "estimate", "--graph", "barbell:1,1", "--rule", "vanilla",
        "--runs", "400", "--horizon", "8", "--seed", "42", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert 0.8 <= report["t_hat"] <= 1.2
    assert report["runs"] == 400


def test_estimate_side_block(capsys):
    code, stdout, _ = run_cli(
        capsys, "estimate", "--graph", "barbell:1,4", "--side", "1",
        "--runs", "30", "--horizon", "2",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["kind"] == "block_vanilla"
    assert report["t_hat"] == 0.0


def test_estimate_horizon_too_short_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--graph", "barbell:1,1", "--runs", "100",
        "--horizon", "0.5", "--seed", "1",
    )
    assert code == 2
    assert "settled" in err


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--family", "barbell", "--rule", "vanilla",
        "--n", "4,8", "--runs", "30", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("n,n1,n2,e12,rule")
    assert len(lines) == 4  # header + 2 rows + slope comment
    assert lines[-1].startswith("# loglog_slope")


def test_sweep_alg_to_stdout(capsys):
    code, stdout, _ = run_cli(
        capsys, "sweep", "--rule", "algA:gamma=balanced,C=4", "--n", "4",
        "--runs", "30", "--seed", "3",
    )
    assert code == 0
    assert stdout.splitlines()[0].startswith("n,n1,n2,rule,gamma_mode")


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("graph=barbell:1,1\nrule=vanilla\nruns=40\nhorizon=8\nseed=4\n")
    out = tmp_path / "est.json"
    code, _, _ = run_cli(
        capsys, "estimate", "--config", str(cfg), "--runs", "60",
        "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["runs"] == 60  # flag wins


def test_config_unknown_key_exits_2(tmp_path, capsys):
    # C and gamma belong to the rule text, so config keys for them are unknown
    cfg = tmp_path / "exp.cfg"
    for line in ("grph=barbell:1,1", "gamma=n1", "c=8"):
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "estimate", "--config", str(cfg))
        assert code == 2, line
        assert "unknown config key" in err


def test_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(graph="barbell:4,4", runs=77, horizon=12.5, seed=3)
    path = tmp_path / "a.cfg"
    path.write_text(
        "# experiment\n"
        "graph = barbell:4,4\n"
        "\n"
        "runs=77  # per point\n"
        "horizon=12.5\n"
        "seed=3\n"
    )
    assert ExperimentConfig.from_file(path) == cfg


def test_check_tail(capsys):
    code, stdout, _ = run_cli(capsys, "check", "tail")
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"]
    assert report["spot_P_S4_ge_2"] == 5.0 / 16.0
    assert report["violations"] == []


def test_check_invariants(capsys):
    code, stdout, _ = run_cli(
        capsys, "check", "invariants", "--graph", "barbell:8,8",
        "--rule", "algA:P=5,gamma=balanced,C=4", "--seed", "6",
        "--events", "50000",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["conservation_ok"] and report["locality_ok"]
    assert report["decomposition_ok"]


def test_check_dominance(capsys):
    # default graph barbell:16,16 with the period resolved from block
    # averaging-time estimates at the default C
    code, stdout, _ = run_cli(
        capsys, "check", "dominance", "--rule", "algA:gamma=balanced,C=4",
        "--seed", "2", "--min-increments", "100",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"]
    assert report["count"] >= 100


def test_check_dominance_warns_at_the_run_cap(capsys):
    code, stdout, err = run_cli(
        capsys, "check", "dominance", "--graph", "barbell:4,4",
        "--rule", "algA:P=3", "--min-increments", "100000",
    )
    report = json.loads(stdout)
    assert code == (0 if report["passed"] else 1)
    assert report["runs_used"] == 200 and report["count"] < 100000
    assert err == (
        f"warning: collected {report['count']} of the 100000 epoch increments "
        "requested; stopped at the 200-run cap\n"
    )


def test_check_dominance_rejects_convex_rule(capsys):
    code, _, err = run_cli(capsys, "check", "dominance", "--rule", "vanilla")
    assert code == 2
