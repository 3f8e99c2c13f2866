import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

import cutgossip
from cutgossip.cli import build_parser, main, parse_graph_spec
from cutgossip.graph import build_barbell, random_partitioned, save_graph


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


# random: specs that build, with the random_partitioned arguments they
# stand for: the spec of test_graph_specs, the defaults, any key order
@pytest.mark.parametrize("spec, args", [
    ("random:n1=3,n2=4,p1=0.9,p2=0.9,k12=2", (3, 4, 0.9, 0.9, 2)),
    ("random:n1=4,n2=6", (4, 6, 0.8, 0.8, 1)),
    ("random:k12=2,n2=5,n1=3", (3, 5, 0.8, 0.8, 2)),
])
def test_random_graph_specs(spec, args):
    assert parse_graph_spec(spec, 7) == random_partitioned(*args, 7)


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


def test_simulate_random_start(tmp_path, monkeypatch, capsys):
    from cutgossip import engine

    starts = []
    real = engine.simulate
    monkeypatch.setattr(engine, "simulate", lambda g, rule, x0, cfg: (
        starts.append(x0) or real(g, rule, x0, cfg)))
    paths = [tmp_path / f"{name}.jsonl" for name in ("a", "b", "c")]
    for path, seed in zip(paths, ("5", "5", "6")):
        code, _, _ = run_cli(
            capsys, "simulate", "--graph", "barbell:4,4", "--x0", "random",
            "--seed", seed, "--max-events", "100", "--out", str(path),
        )
        assert code == 0
    a, b, c = (path.read_bytes() for path in paths)
    assert a == b and a != c
    for x0 in starts:
        assert abs(x0.mean()) < 1e-12
        assert float(x0 @ x0) / len(x0) == pytest.approx(1.0, rel=1e-12)
    assert starts[0].tobytes() == starts[1].tobytes() != starts[2].tobytes()


def test_simulate_requires_stop(monkeypatch, capsys):
    # checked before the graph is built and an algA period resolved
    from cutgossip import analysis

    def resolve_period(*args, **kwargs):
        raise AssertionError("period resolved")

    monkeypatch.setattr(analysis, "resolve_period", resolve_period)
    code, _, err = run_cli(capsys, "simulate", "--graph", "barbell:64,64",
                           "--rule", "algA:gamma=balanced")
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
    # rule constants and a slack that are not finite
    ["estimate", "--graph", "barbell:4,4", "--rule", "algA:C=inf", "--runs", "30",
     "--horizon", "20"],
    ["sweep", "--n", "4", "--runs", "30", "--rule", "algA:gamma=balanced,C=1e308"],
    ["estimate", "--graph", "barbell:4,4", "--rule", "algA:gamma=inf,P=3",
     "--runs", "30", "--horizon", "20"],
    ["check", "dominance", "--graph", "barbell:4,4", "--rule", "algA:P=3",
     "--slack", "inf"],
    ["check", "dominance", "--graph", "barbell:4,4", "--rule", "algA:P=3",
     "--slack", "nan"],
    # a period beyond the engine's int64 cut counter, given or resolved
    ["estimate", "--graph", "barbell:4,4", "--rule",
     "algA:P=100000000000000000000,gamma=balanced", "--runs", "30", "--horizon", "20"],
    ["simulate", "--graph", "barbell:4,4", "--rule", "algA:P=100000000000000000000",
     "--max-events", "100"],
    ["sweep", "--n", "4", "--runs", "30", "--rule", "algA:gamma=balanced,C=1e300",
     "--workers", "1"],
    # firings whose values diverge
    ["estimate", "--graph", "barbell:1,1", "--rule", "algA:P=1,gamma=2.5", "--runs", "30",
     "--horizon", "2000"],
    ["check", "invariants", "--graph", "barbell:1,1", "--rule", "algA:P=1,gamma=2.5",
     "--events", "10000"],
    # a sweep family or size list, a start policy, or a config file
    ["sweep", "--family", "ring", "--n", "4", "--runs", "30"],
    ["sweep", "--n", "4,x", "--runs", "30"],
    ["simulate", "--graph", "barbell:2,2", "--x0", "bogus", "--max-events", "10"],
    ["estimate", "--config", "no-equals.cfg"],
    ["estimate", "--config", "missing.cfg"],
    ["estimate", "--config", "bad-value.cfg"],
    ["estimate", "--config", "bad-choice.cfg"],
    ["estimate", "--config", "non-ascii.cfg"],
    # a block estimate runs vanilla gossip from a bisection start
    ["estimate", "--graph", "barbell:2,2", "--side", "1", "--rule", "vanilla"],
    ["estimate", "--graph", "barbell:2,2", "--side", "1", "--x0", "random"],
    ["estimate", "--graph", "barbell:2,2", "--side", "1", "--config", "rule.cfg"],
    # a random graph whose blocks stay disconnected, a random graph key
    # that nothing reads, and a period the sweep would resolve itself
    ["check", "invariants", "--graph", "random:n1=6,n2=6,p1=0.01,p2=0.01"],
    ["estimate", "--graph", "random:n1=4,n2=6,p=0.01,k=3", "--runs", "30",
     "--horizon", "200"],
    ["sweep", "--n", "4", "--runs", "30", "--rule", "algA:P=5,gamma=balanced"],
    # a sweep with no sizes
    ["sweep", "--n", ",", "--runs", "30"],
    # an option list or a config file that sets a key twice, an item that
    # is not key=value, and a random: spec without n1
    ["simulate", "--graph", "barbell:2,2", "--rule", "algA:P=3,P=4", "--max-events", "10"],
    ["simulate", "--graph", "barbell:2,2", "--rule", "convex:a=0.2,a=0.9",
     "--max-events", "10"],
    ["check", "invariants", "--graph", "random:n1=4,n2=4,n1=5"],
    ["check", "invariants", "--graph", "random:n1=4,n2"],
    ["check", "invariants", "--graph", "random:n2=4"],
    ["estimate", "--config", "runs-twice.cfg"],
])
def test_rejected_values_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runs-twice.cfg").write_text("runs=30\nruns=40\n")
    (tmp_path / "no-equals.cfg").write_text("runs 30\n")
    (tmp_path / "bad-value.cfg").write_text("runs=many\n")
    (tmp_path / "bad-choice.cfg").write_text("side=3\n")
    (tmp_path / "rule.cfg").write_text("rule=vanilla\n")
    (tmp_path / "non-ascii.cfg").write_bytes("graph=barbell:\u00e9\n".encode())
    code, out, err = run_cli(capsys, *argv)
    assert out == ""
    assert code == 2
    assert err.startswith("error: ")
    if "non-ascii.cfg" in argv:
        assert err.startswith("error: cannot read config non-ascii.cfg: ")
    if "--min-increments" in argv:  # rejected before any simulation
        assert "--min-increments" in err
    if "barbell:1,1" in argv:  # every run is at consensus after one firing, or diverges
        assert ("consensus" if "dominance" in argv else "diverges") in err
    for arg, message in _REJECTED_AS.items():
        if arg in argv:
            assert err == f"error: {message}\n"


# the one error line of a rejected argument, by argument
_REJECTED_AS = {
    ",": "a sweep needs at least one size",
    "algA:P=3,P=4": "bad rule text 'algA:P=3,P=4': option 'P' given twice",
    "convex:a=0.2,a=0.9": "bad rule text 'convex:a=0.2,a=0.9': option 'a' given twice",
    "random:n1=4,n2=4,n1=5":
        "bad graph spec 'random:n1=4,n2=4,n1=5': option 'n1' given twice",
    "random:n1=4,n2":
        "bad graph spec 'random:n1=4,n2': malformed option 'n2': expected key=value",
    "random:n2=4": "bad graph spec 'random:n2=4': missing option 'n1'",
    "random:n1=4,n2=6,p=0.01,k=3": "bad graph spec 'random:n1=4,n2=6,p=0.01,k=3': "
                                   "unknown option 'p': expected n1, n2, p1, p2, k12",
    "runs-twice.cfg": "runs-twice.cfg:2: config key 'runs' set twice",
}


@pytest.mark.parametrize("command", [
    ["sweep", "--n", "4,8", "--runs", "30"],
])
@pytest.mark.parametrize("workers", ["0", "-2", "config"])
def test_workers_below_one_exit_2(tmp_path, capsys, command, workers):
    if workers == "config":
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("workers=0\n")
        argv = command + ["--config", str(cfg)]
    else:
        argv = command + ["--workers", workers]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: workers must be an integer >= 1")


def test_workers_default_per_command(monkeypatch, capsys):
    from cutgossip import analysis

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    got = []
    real = analysis.convex_lower_bound_sweep
    monkeypatch.setattr(analysis, "convex_lower_bound_sweep", lambda *a, **kw: (
        got.append(kw["workers"]) or real(*a, **kw)))
    argv = ["sweep", "--rule", "vanilla", "--n", "8,4,16", "--runs", "30",
            "--seed", "2"]
    one = run_cli(capsys, *argv, "--workers", "1")
    assert run_cli(capsys, *argv, "--workers", "2") == one
    assert run_cli(capsys, *argv) == one
    # a sweep defaults to every usable CPU
    assert got == [1, 2, cpus]


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


def test_estimate_algA_horizon_defaults_to_six_periods(capsys):
    # P resolves to 12 on the default graph, so the horizon is 72; an
    # explicit --horizon 24 is used as given, and is too short
    code, stdout, err = run_cli(capsys, "estimate", "--rule", "algA:gamma=balanced")
    assert code == 0, err
    assert json.loads(stdout)["horizon"] == 72.0
    code, _, err = run_cli(capsys, "estimate", "--rule", "algA:gamma=balanced",
                           "--horizon", "24")
    assert code == 2
    assert "settled" in err


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_141_quietly(unbuffered):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cutgossip.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the command writes
    try:
        done = subprocess.run([sys.executable, "-m", "cutgossip.cli", "check", "tail"],
                              stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


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


def test_sweep_prints_the_csv_it_writes(tmp_path, capsys):
    # the rule field of the algA sweep holds commas, so it is quoted
    argv = ["sweep", "--rule", "algA:gamma=balanced,C=4", "--n", "4,8",
            "--runs", "30", "--seed", "3", "--workers", "1"]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    out = tmp_path / "sweep.csv"
    assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
    assert out.read_bytes() == stdout.encode()
    lines = stdout.splitlines()
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert [len(row) for row in rows] == [18] * 3
    for row in rows[1:]:
        assert row[3] == f"algA:P={row[9]},gamma=balanced,C=4"
    assert lines[-1].startswith("# loglog_slope_t_hat_vs_n=")


def test_sweep_alg_to_stdout(capsys):
    code, stdout, _ = run_cli(
        capsys, "sweep", "--rule", "algA:gamma=balanced,C=4", "--n", "4",
        "--runs", "30", "--seed", "3",
    )
    assert code == 0
    assert stdout.splitlines()[0].startswith("n,n1,n2,rule,gamma_mode")


# sha256 of stdout, pinned so that a change to the estimator's event loop
# shows up as a changed digest unless every printed value is the same
@pytest.mark.parametrize("argv, digest", [
    (["sweep", "--family", "barbell", "--rule", "algA:gamma=balanced,C=4",
      "--n", "16,32", "--runs", "30", "--seed", "3"],
     "146532b1a0635ac25bb8fdc45dfd0853b22cec8659c9220171ead53c24467aba"),
    (["sweep", "--family", "barbell", "--rule", "vanilla", "--n", "16,32",
      "--runs", "30", "--seed", "3"],
     "3a83af0a54055cde874201eab41ed598ee7c09bd9b3e8b969c692a1387817447"),
    (["estimate", "--graph", "barbell:8,8", "--rule", "algA:gamma=balanced",
      "--x0", "random", "--runs", "30", "--horizon", "60", "--seed", "3"],
     "78513a8b077291f0bcbf60afc701541aa33a7ca2ce7382654b2235ea42e39eb9"),
    (["estimate", "--graph", "barbell:8,8", "--rule", "convex:a=0.3",
      "--x0", "random", "--runs", "30", "--horizon", "100", "--seed", "3"],
     "a75005610242603df6dc4c3b1c235d1df6814f596ef9081cd3915afdfe30e283"),
])
def test_stdout_digest(capsys, argv, digest):
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


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
    cfg = tmp_path / "exp.cfg"
    for command, line in [
        # C and gamma belong to the rule text, so config keys for them are unknown
        (["estimate"], "grph=barbell:1,1"),
        (["estimate"], "gamma=n1"),
        (["estimate"], "c=8"),
        # a key is one of the command's own flags
        (["estimate"], "config=other.cfg"),
        (["sweep"], "horizon=5"),
        (["simulate"], "runs=30"),
        (["simulate"], "record-events=1"),
        (["check", "tail"], "seed=1"),
    ]:
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, *command, "--config", str(cfg))
        assert code == 2, line
        assert err.startswith("error: ") and "unknown config key" in err


def test_config_roundtrip(tmp_path, capsys):
    path = tmp_path / "a.cfg"
    path.write_text(
        "# experiment\n"
        "graph = barbell:4,4\n"
        "\n"
        "runs=77  # per point\n"
        "horizon=12.5\n"
        "seed=3\n"
    )
    from_file = run_cli(capsys, "estimate", "--config", str(path))
    assert from_file == run_cli(
        capsys, "estimate", "--graph", "barbell:4,4", "--runs", "77",
        "--horizon", "12.5", "--seed", "3",
    )
    # too short a horizon for barbell:4,4: the message names it and the
    # settled share of the 77 runs (60/77)
    code, _, err = from_file
    assert code == 2 and "77.9%" in err and "horizon=12.5" in err


def test_config_key_is_the_flag_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.cfg").write_text("max-events=300\nsample-every=7\nformat=csv\n")
    outputs = []
    for flags in (["--config", "a.cfg"],
                  ["--max-events", "300", "--sample-every", "7", "--format", "csv"]):
        code, stdout, _ = run_cli(capsys, "simulate", *flags)
        assert code == 0
        outputs.append((stdout, (tmp_path / "trace.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].splitlines()[1] == b"t,var,mu1,mu2,sigma,nu_t,k"


# every flag a command used to accept without reading it
@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command, flags in [
        (["simulate", "--max-events", "5"], ["runs", "horizon", "workers"]),
        (["sweep", "--n", "4"], ["graph", "horizon", "x0"]),
        (["check", "tail"], ["graph", "rule", "x0", "seed", "runs", "horizon",
                             "workers", "slack", "min-increments", "events"]),
        (["check", "dominance"], ["x0", "runs", "horizon", "workers", "events"]),
        (["check", "invariants"], ["x0", "runs", "horizon", "workers", "slack",
                                   "min-increments"]),
        (["estimate"], ["workers"]),
    ]
    for flag in flags
])
def test_flags_a_command_does_not_read_exit_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--" + flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err


def _commands(parser, prefix=()):
    """The argv prefix of every command and battery of ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(prefix)
    for action in subs:
        for name, sub in action.choices.items():
            yield from _commands(sub, prefix + (name,))


@pytest.mark.parametrize("command", list(_commands(build_parser())), ids=" ".join)
def test_every_command_runs_at_its_defaults(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    # a sweep's default sizes run up to n=128; two small ones suffice here
    extra = ["--n", "4,8"] if command == ["sweep"] else []
    code, out, err = run_cli(capsys, *command, *extra)
    if command == ["simulate"]:
        assert (code, out) == (2, "")
        assert err == "error: simulate needs --max-events and/or --max-time\n"
    else:
        assert code == 0, err


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


@pytest.mark.parametrize("column, at", [
    ("var", 3), ("mu1", 3), ("sigma", 3), ("states", (3, 7)),
])
def test_check_invariants_fails_on_wrong_metric_columns(monkeypatch, capsys, column, at):
    # the battery checks the sampled trace's own metric columns against
    # each other and against its states, so a corrupted entry must fail it
    from cutgossip import engine

    real = engine.simulate

    def corrupted(g, rule, x0, cfg):
        trace = real(g, rule, x0, cfg)
        if cfg.record_states:
            getattr(trace, column)[at] += 100.0
        return trace

    monkeypatch.setattr(engine, "simulate", corrupted)
    code, stdout, _ = run_cli(capsys, "check", "invariants", "--events", "5000")
    report = json.loads(stdout)
    assert code == 1
    assert not report["decomposition_ok"] and report["conservation_ok"]


def test_check_dominance(capsys):
    # default graph barbell:8,8 with the period resolved from block
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


@pytest.mark.parametrize("argv", [
    ["estimate", "--graph", "barbell:2,2", "--rule", "algA:P=3", "--horizon", "inf",
     "--runs", "30", "--seed", "1"],
    ["simulate", "--graph", "barbell:2,2", "--rule", "algA:P=3", "--max-time", "inf"],
])
def test_infinite_caps_exit_2(capsys, argv):
    # an algA run under an infinite cap would never stop
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "finite" in err
