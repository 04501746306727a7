"""Config parsing, CLI commands, exit codes and replay determinism."""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bmnet import cli, topology
from bmnet.config import config_to_text, load_config, parse_config_text
from bmnet.distributions import theta_of_gamma
from bmnet.errors import ConfigError, PositivityError

ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """\
[model]
sigma2 = 0.05
J = 0.1

[dynamics]
kind = meanfield

[run]
N = 100
dt = 0.01
t_end = 1
snapshot_times = 0, 0.5, 1
seed = 42

[fit]
families = LN, IGa, GIGa
fit_times = 1
bootstrap_B = 19
"""

# each dynamics kind with its own extra key, if it has one, at a valid value
KIND_LINES = {"complete": "kind = complete", "ring": "kind = ring\nz = 0.1",
              "smallworld": "kind = smallworld\np_sw = 0.1",
              "meanfield": "kind = meanfield",
              "eft": "kind = eft\ngamma_eft = 0.5"}


def write_config(tmp_path, text=MINIMAL, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_minimal_round_trip(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.sim.N == 100
        assert cfg.sim.params.J == 0.1
        assert cfg.sim.params.sigma2 == pytest.approx(0.05)
        assert cfg.sim.scheme == "milstein"  # default for meanfield
        assert cfg.families == ("LN", "IGa", "GIGa")
        assert cfg.bootstrap_b == 19
        # the resolved text parses back to the same experiment
        again = parse_config_text(config_to_text(cfg))
        assert again.sections == cfg.sections
        assert (again.sim.params, again.sim.scheme, again.sim.N, again.sim.dt,
                again.sim.t_end, again.sim.snapshot_times, again.sim.seed) == \
               (cfg.sim.params, cfg.sim.scheme, cfg.sim.N, cfg.sim.dt,
                cfg.sim.t_end, cfg.sim.snapshot_times, cfg.sim.seed)

    def test_ring_scheme_default_is_taylor(self):
        text = MINIMAL.replace("kind = meanfield", "kind = ring\nz = 0.04")
        cfg = parse_config_text(text)
        assert cfg.sim.scheme == "taylor15"
        assert cfg.sim.dynamics.n_divisor == 4

    def test_smallworld_seed_is_run_seed(self):
        text = MINIMAL.replace("kind = meanfield",
                               "kind = smallworld\np_sw = 0.1")
        a = parse_config_text(text)
        b = parse_config_text(text.replace("seed = 42", "seed = 43"))
        assert not np.array_equal(a.sim.dynamics.indices,
                                  b.sim.dynamics.indices)

    def test_eft_kind(self):
        text = MINIMAL.replace("kind = meanfield",
                               "kind = eft\ngamma_eft = 0.5")
        cfg = parse_config_text(text)
        assert cfg.sim.dynamics.gamma_eft == 0.5

    def test_unknown_key_is_line_anchored_error(self):
        bad = MINIMAL.replace("J = 0.1", "J = 0.1\ncoupling = 4")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad, origin="exp.ini")
        assert "exp.ini:4" in str(err.value)
        assert "coupling" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text(MINIMAL + "\n[plotting]\nstyle = fancy\n")

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind in KIND_LINES for key in ("z", "p_sw", "gamma_eft")
        if f"\n{key} =" not in KIND_LINES[kind]])
    def test_wrong_kind_key_rejected(self, kind, key):
        bad = MINIMAL.replace("kind = meanfield",
                              f"{KIND_LINES[kind]}\n{key} = 0.1")
        with pytest.raises(ConfigError,
                           match=f"key '{key}' not valid for kind '{kind}'"):
            parse_config_text(bad)

    @pytest.mark.parametrize("kind, builder", [
        ("complete", "build_complete"), ("ring", "build_regular_ring"),
        ("smallworld", "build_random_smallworld")])
    def test_builder_is_looked_up_on_topology(self, monkeypatch, kind,
                                              builder):
        # a replaced topology.build_* is the one the parse calls
        built = []
        build = getattr(topology, builder)

        def recording(*args):
            built.append(build(*args))
            return built[-1]
        monkeypatch.setattr(topology, builder, recording)
        cfg = parse_config_text(
            MINIMAL.replace("kind = meanfield", KIND_LINES[kind]))
        assert len(built) == 1 and cfg.sim.dynamics is built[0]

    def test_fit_times_must_be_snapshots(self):
        bad = MINIMAL.replace("fit_times = 1", "fit_times = 0.75")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_non_integer_ring_degree_rejected(self):
        text = MINIMAL.replace("kind = meanfield", "kind = ring\nz = 0.0333")
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_gaussian_init_with_sd(self):
        text = MINIMAL.replace("seed = 42", "seed = 42\ninit = gaussian:0.02")
        cfg = parse_config_text(text)
        assert cfg.sim.init_sd == 0.02
        # a bare gaussian has the default sd, and all ones has none
        bare = parse_config_text(text.replace("gaussian:0.02", "gaussian"))
        assert bare.sim.init_sd == 0.05
        assert parse_config_text(MINIMAL).sim.init_sd is None

    def test_model_holds_sigma2_as_written(self):
        # 0.05 does not survive a square root and its square
        assert parse_config_text(MINIMAL).sim.params.sigma2 == 0.05

    def test_eft_theta_is_the_theta_table_row(self, tmp_path):
        # a run's theta has the bits of theta_of_gamma at the written
        # sigma2, and of the row that ``bmnet theta`` prints for it
        out = tmp_path / "th"
        assert cli.main(["theta", "--out", str(out)]) == 0
        row = (out / "theta_table.csv").read_text().splitlines()[50]
        gamma, theta = row.split(",")[:2]
        cfg = parse_config_text(MINIMAL.replace(
            "kind = meanfield", f"kind = eft\ngamma_eft = {gamma}"))
        run_theta = cfg.sim.dynamics._theta(cfg.sim.params)
        assert run_theta == theta_of_gamma(0.1, 0.05, float(gamma))
        assert repr(run_theta) == theta


class TestSimulateCommand:
    def test_smoke_and_row_counts(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert "manifest.json" in files
        snaps = [f for f in files if f.startswith("snapshot_")]
        assert len(snaps) == 3
        for name in snaps:
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "t,agent,w"
            assert len(lines) == 101

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", path, "--out", str(out1)])
        cli.main(["simulate", "--config", path, "--out", str(out2)])
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", path, "--out", str(out1)])
        cli.main(["simulate", "--config", path, "--seed", "7",
                  "--out", str(out2)])
        assert (out1 / "snapshot_t1.0.csv").read_bytes() != \
               (out2 / "snapshot_t1.0.csv").read_bytes()

    def test_seed_override_with_spaced_run_header(self, tmp_path):
        # the parser accepts "[ run ]", so --seed must find its seed too
        spaced = write_config(tmp_path, MINIMAL.replace("[run]", "[ run ]"),
                              "spaced.ini")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", write_config(tmp_path),
                         "--seed", "9", "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", spaced, "--seed", "9",
                         "--out", str(out2)]) == 0
        for name in ("snapshot_t1.0.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_needs_a_run_seed(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL.replace("seed = 42\n", ""))
        assert cli.main(["simulate", "--config", path, "--seed", "9",
                         "--out", str(tmp_path / "x")]) == 2
        assert "no [run] seed to override" in capsys.readouterr().err

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out1 = tmp_path / "a"
        cli.main(["simulate", "--config", path, "--out", str(out1)])
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["format_version"] == cli.FORMAT_VERSION
        replay_cfg = tmp_path / "replay.ini"
        replay_cfg.write_text(manifest["config_text"])
        out2 = tmp_path / "b"
        cli.main(["simulate", "--config", str(replay_cfg), "--out", str(out2)])
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("scheme", ["milstein", "taylor15"])
    def test_complete_graph_writes_the_mean_field_snapshots(self, tmp_path,
                                                           scheme):
        # one law: the complete graph applies the mean-field coupling
        snapshots = {}
        for kind in ("meanfield", "complete"):
            text = MINIMAL.replace("kind = meanfield", f"kind = {kind}")
            text = text.replace("seed = 42", f"seed = 42\nscheme = {scheme}")
            path = write_config(tmp_path, text, f"{kind}.ini")
            out = tmp_path / kind
            assert cli.main(["simulate", "--config", path,
                             "--out", str(out)]) == 0
            snapshots[kind] = {p.name: p.read_bytes()
                               for p in out.glob("snapshot_*.csv")}
        assert len(snapshots["complete"]) == 3
        assert snapshots["complete"] == snapshots["meanfield"]

    def test_invalid_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, MINIMAL.replace("fit_times = 1",
                                                      "fit_times = 0.3"))
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "x")]) == 2

    def test_positivity_failure_exits_3(self, tmp_path):
        text = MINIMAL.replace("J = 0.1", "J = 30")
        text = text.replace("dt = 0.01", "dt = 0.2")
        text = text.replace("snapshot_times = 0, 0.5, 1",
                            "snapshot_times = 0, 1")
        text = text.replace("seed = 42", "seed = 12\ninit = gaussian:0.4")
        path = write_config(tmp_path, text)
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "x")]) == 3

    def test_positivity_failure_prints_step(self, tmp_path, capsys):
        text = MINIMAL.replace("J = 0.1", "J = 30")
        text = text.replace("dt = 0.01", "dt = 0.2")
        text = text.replace("snapshot_times = 0, 0.5, 1",
                            "snapshot_times = 0, 1")
        text = text.replace("seed = 42", "seed = 12\ninit = gaussian:0.4")
        path = write_config(tmp_path, text)
        for command in ("simulate", "evolve"):
            assert cli.main([command, "--config", path,
                             "--out", str(tmp_path / command)]) == 3
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: wealth became")
            assert "(step 0)" in err


class TestEvolveCommand:
    def test_rows_per_time_and_family(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", path, "--out", str(out)]) == 0
        lines = (out / "evolution.csv").read_text().splitlines()
        assert lines[0] == cli.EVOLUTION_HEADER
        assert len(lines) == 1 + 3  # one fit time x three families
        families = [line.split(",")[1] for line in lines[1:]]
        assert families == ["LN", "IGa", "GIGa"]

    def test_failed_fit_leaves_empty_cells(self, tmp_path):
        # five agents: too few for the three-parameter GIGa fit, enough
        # for LN and IGa, whose rows are still filled
        text = MINIMAL.replace("N = 100", "N = 5").replace(
            "bootstrap_B = 19", "bootstrap_B = 9")
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", write_config(tmp_path, text),
                         "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "evolution.csv").read_text().splitlines()[1:]]
        assert [r[1] for r in rows] == ["LN", "IGa", "GIGa"]
        header = cli.EVOLUTION_HEADER.split(",")
        filled = {row[1]: [k for k, v in zip(header[2:-1], row[2:-1]) if v]
                  for row in rows}
        assert filled == {
            "LN": ["mu", "s", "loglik", "ks_stat", "p_value"],
            "IGa": ["alpha", "beta", "gamma", "gamma_hat", "alpha_gamma_hat",
                    "loglik", "ks_stat", "p_value"],
            "GIGa": []}
        assert [row[-1] for row in rows] == ["true", "true", "false"]

    def test_needs_fit_section(self, tmp_path):
        text = MINIMAL.split("[fit]")[0]
        path = write_config(tmp_path, text)
        assert cli.main(["evolve", "--config", path,
                         "--out", str(tmp_path / "x")]) == 2


class TestMalformedValues:
    """Values that no run can use exit 2 before anything is built."""

    @pytest.mark.parametrize("old, new", [
        ("seed = 42", "seed = -1"),
        ("seed = 42", "seed = 18446744073709551616"),
        ("sigma2 = 0.05", "sigma2 = nan"),
        ("sigma2 = 0.05", "sigma2 = 0"),
        ("sigma2 = 0.05", "sigma2 = -0.05"),
        ("J = 0.1", "J = nan"),
        ("J = 0.1", "J = inf"),
        ("J = 0.1", "J = -0.1"),
        ("J = 0.1\n\n[dynamics]\nkind = meanfield",
         "J = 0\n\n[dynamics]\nkind = eft\ngamma_eft = 0.5"),
        ("t_end = 1", "t_end = inf"),
        ("dt = 0.01", "dt = nan"),
        ("snapshot_times = 0, 0.5, 1", "snapshot_times = 0, inf"),
        ("seed = 42", "seed = 42\ninit = gaussian:nan"),
        ("seed = 42", "seed = 42\ninit = gaussian:wide"),
        ("families = LN, IGa, GIGa", "families = LN, Bogus"),
        ("fit_times = 1", "fit_times = 0.75"),
        ("bootstrap_B = 19", "bootstrap_B = 0"),
        ("t_end = 1", "t_end = 1.005"),
        ("snapshot_times = 0, 0.5, 1", "snapshot_times = 0, 0.505, 1"),
        ("snapshot_times = 0, 0.5, 1", "snapshot_times = 0, 0.5, 1, 2"),
        ("dt = 0.01", "dt = -0.01"),
        ("N = 100", "N = 0"),
    ], ids=["seed-negative", "seed-2**64", "sigma2-nan", "sigma2-zero",
            "sigma2-negative", "J-nan", "J-inf", "J-negative", "eft-J-0",
            "t_end-inf", "dt-nan",
            "snapshot-inf", "init-sd-nan", "init-sd-text", "unknown-family",
            "fit-time-not-snapshot", "bootstrap_B-0", "t_end-off-grid",
            "snapshot-off-grid", "snapshot-after-t_end", "dt-negative",
            "N-0"])
    def test_evolve_exits_2(self, tmp_path, monkeypatch, old, new):
        assert old in MINIMAL
        # a smallworld config would build its graph from the seed
        text = MINIMAL.replace(old, new).replace(
            "kind = meanfield", "kind = smallworld\np_sw = 0.1")
        monkeypatch.setattr(topology, "build_random_smallworld", None)
        assert cli.main(["evolve", "--config", write_config(tmp_path, text),
                         "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("old, new", [
        ("snapshot_times = 0, 0.5, 1", "snapshot_times = 1, 1.0, 0.5"),
        ("families = LN, IGa, GIGa", "families = LN, LN"),
        ("fit_times = 1", "fit_times = 1, 1"),
    ], ids=["snapshot_times", "families", "fit_times"])
    def test_repeated_list_entry_exits_2(self, tmp_path, monkeypatch, capsys,
                                         old, new):
        text = MINIMAL.replace(old, new).replace(
            "kind = meanfield", "kind = smallworld\np_sw = 0.1")
        monkeypatch.setattr(topology, "build_random_smallworld", None)
        for command in ("simulate", "evolve"):
            assert cli.main([command, "--config", write_config(tmp_path, text),
                             "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert "is listed more than once" in err
        assert not (tmp_path / "x").exists()

    def test_zero_smallworld_probability_exits_2(self, tmp_path, capsys):
        # refused by the parse, before any graph is built: p_sw = 0
        # leaves no coupling divisor
        text = MINIMAL.replace("kind = meanfield",
                               "kind = smallworld\np_sw = 0")
        assert cli.main(["evolve", "--config", write_config(tmp_path, text),
                         "--out", str(tmp_path / "x")]) == 2
        assert "n_divisor must be positive" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_zero_smallworld_probability_refused_before_the_build(
            self, monkeypatch):
        # p_sw = 0 leaves no coupling divisor; no graph need be drawn
        text = MINIMAL.replace("kind = meanfield",
                               "kind = smallworld\np_sw = 0")
        monkeypatch.setattr(topology, "build_random_smallworld", None)
        with pytest.raises(ConfigError, match="n_divisor must be positive"):
            parse_config_text(text)

    def test_oversize_smallworld_exits_2_at_once(self, tmp_path, capsys):
        # about 2.5e13 expected pairs: more memory than any machine has,
        # refused from the expected size before a pair is drawn
        text = MINIMAL.replace("N = 100", "N = 10000000").replace(
            "kind = meanfield", "kind = smallworld\np_sw = 0.5")
        start = time.perf_counter()
        assert cli.main(["evolve", "--config", write_config(tmp_path, text),
                         "--out", str(tmp_path / "x")]) == 2
        assert time.perf_counter() - start < 1.0
        assert "GiB of memory" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_benchmark_smallworld_config_builds(self):
        # the memory check leaves the benchmark's small-world graph alone
        cfg = load_config(ROOT / "benchmark" / "workloads"
                          / "smallworld-n1000.ini")
        assert cfg.sim.dynamics.N == 1000
        assert cfg.sim.dynamics.indices.size > 1000

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "exp.ini"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(MINIMAL.encode("utf-16"))
        for command in (["simulate"], ["evolve"], ["theta"]):
            assert cli.main([*command, "--config", str(path),
                             "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {path}: cannot read config")
        assert not (tmp_path / "x").exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("work started before --out was checked")
        monkeypatch.setattr(cli, "simulate", no_work)
        monkeypatch.setattr(cli, "strong_convergence_study", no_work)
        monkeypatch.setattr(cli, "theta_of_gamma", no_work)
        out = tmp_path / "out"
        out.write_text("keep")
        config = write_config(tmp_path)
        for command in (["simulate", "--config", config],
                        ["evolve", "--config", config], ["theta"],
                        ["convergence", "--scheme", "milstein"],
                        ["reproduce", "5", "--N", "50", "--t-end", "1"]):
            assert cli.main([*command, "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot use {out}")
        assert out.read_text() == "keep"

    def test_negative_seed_option_exits_2(self, tmp_path):
        assert cli.main(["evolve", "--config", write_config(tmp_path),
                         "--seed", "-1", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_extreme_seeds_run(self, tmp_path, seed):
        text = MINIMAL.replace("kind = meanfield",
                               "kind = smallworld\np_sw = 0.1")
        out = tmp_path / "out"
        assert cli.main(["evolve", "--config", write_config(tmp_path, text),
                         "--seed", str(seed), "--out", str(out)]) == 0
        assert len((out / "evolution.csv").read_text().splitlines()) == 4


class TestThetaCommand:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "th"
        assert cli.main(["theta", "--out", str(out)]) == 0
        lines = (out / "theta_table.csv").read_text().splitlines()
        assert lines[0] == "gamma,theta,alpha,beta"
        assert len(lines) == 102  # header + 101 grid points
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        gammas = [r[0] for r in rows]
        thetas = [r[1] for r in rows]
        assert gammas[0] == pytest.approx(0.01)
        assert gammas[-1] == 1.0
        # endpoint row: theta(1) = 1, alpha = 3, beta = 2
        assert thetas[-1] == 1.0
        assert rows[-1][2] == pytest.approx(3.0, abs=1e-12)
        assert rows[-1][3] == pytest.approx(2.0, abs=1e-12)
        # strictly decreasing in gamma
        assert all(a > b for a, b in zip(thetas, thetas[1:]))

    def test_custom_params(self, tmp_path):
        out = tmp_path / "th"
        assert cli.main(["theta", "--J", "0.2", "--sigma2", "0.05",
                         "--out", str(out)]) == 0
        last = (out / "theta_table.csv").read_text().splitlines()[-1]
        alpha = float(last.split(",")[2])
        assert alpha == pytest.approx(5.0, abs=1e-12)

    def test_bad_params_exit_2(self, tmp_path):
        assert cli.main(["theta", "--J", "-1",
                         "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("option, value", [
        ("--J", "nan"), ("--J", "inf"), ("--sigma2", "nan")])
    def test_non_finite_params_exit_2(self, tmp_path, option, value):
        assert cli.main(["theta", option, value,
                         "--out", str(tmp_path / "x")]) == 2

    def test_config_supplies_only_the_model(self, tmp_path):
        # the graph of this config would not fit in memory; theta reads
        # sigma2 and J as written and builds nothing
        text = MINIMAL.replace("N = 100", "N = 10000000").replace(
            "kind = meanfield", "kind = smallworld\np_sw = 0.5")
        assert cli.main(["theta", "--config", write_config(tmp_path, text),
                         "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["theta", "--J", "0.1", "--sigma2", "0.05",
                         "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "theta_table.csv").read_bytes()
                == (tmp_path / "b" / "theta_table.csv").read_bytes())

    @pytest.mark.parametrize("old, new", [
        ("J = 0.1", "J = 0.1\nbogus = 1"), ("[fit]", "[bogus]"),
        ("sigma2 = 0.05", "sigma2 = 0")],
        ids=["unknown-key", "unknown-section", "sigma2-zero"])
    def test_unknown_config_entries_exit_2(self, tmp_path, old, new):
        text = MINIMAL.replace(old, new)
        assert cli.main(["theta", "--config", write_config(tmp_path, text),
                         "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()


class TestConvergenceCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "conv"
        code = cli.main(["convergence", "--scheme", "milstein",
                         "--dts", "0.0625,0.03125,0.015625",
                         "--paths", "300", "--out", str(out)])
        assert code == 0
        data = json.loads((out / "convergence_milstein.json").read_text())
        assert data["scheme"] == "milstein"
        assert len(data["strong_errors"]) == 3
        assert 0.6 < data["fitted_slope"] < 1.4

    def test_bad_dt_exits_2(self, tmp_path, capsys):
        # like a negative step: an unparsable list, an infinite step, no
        # paths, and one distinct step size, through which no slope fits
        for args in (["--dts", "-0.1"], ["--dts", "0.1,abc"],
                     ["--dts", "0.5,inf"], ["--paths", "0"],
                     ["--dts", "0.5"], ["--dts", "0.5,0.5"]):
            assert cli.main(["convergence", "--scheme", "milstein", *args,
                             "--out", str(tmp_path / "x")]) == 2, args
            assert capsys.readouterr().err.startswith("config error: ")


class TestReproduceCommand:
    def test_figure5_sweep_parameters(self):
        plan = cli.build_figure_plan(5, 40, 0.01, 5, 3)
        gammas = [c.sections["dynamics"]["gamma_eft"] for _, c in plan]
        assert gammas == [0.8, 0.6, 0.5, 0.4]
        assert all(c.sim.scheme == "milstein" for _, c in plan)

    def test_figure3_sweep_parameters(self):
        plan = cli.build_figure_plan(3, 1000, 0.01, 3, 3)
        zs = [c.sections["dynamics"]["z"] for _, c in plan]
        assert zs == [0.1, 0.01, 0.003]
        assert all(c.sim.scheme == "taylor15" for _, c in plan)

    def test_figure1_and_2_histogram_times(self):
        for figure, times in ((1, (1.0, 2500.0)), (2, (1.0, 500.0))):
            (_, config), = cli.build_figure_plan(figure, 1000, 0.01, 3, 3)
            assert config.sim.snapshot_times == config.fit_times == times

    @pytest.mark.parametrize("args, reason", [
        (["3", "--N", "2500", "--t-end", "1"],
         "<figure:regn_z0.003>:6: z*N = 7.5 is not an integer ring degree"),
        (["5", "--N", "40", "--t-end", "0.5"],
         "t_end = 0.5 keeps none of figure 5's times"),
    ], ids=["third-run-ring-degree", "no-figure-time"])
    def test_config_error_in_any_run_exits_2_before_any_run(
            self, tmp_path, monkeypatch, capsys, args, reason):
        def no_run(sim):
            raise AssertionError("a run started before every config resolved")
        monkeypatch.setattr(cli, "simulate", no_run)
        out = tmp_path / "rep"
        assert cli.main(["reproduce", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and reason in err
        assert not out.exists()

    def test_unknown_figure_exits_2(self, tmp_path):
        with pytest.raises(SystemExit):  # argparse rejects the choice
            cli.main(["reproduce", "7", "--out", str(tmp_path)])

    def test_tiny_figure2_run(self, tmp_path):
        out = tmp_path / "rep"
        code = cli.cmd_reproduce(2, out_dir=str(out), N=60, dt=0.01,
                                 bootstrap_b=9, seed=3, t_end=500.0)
        assert code == 0
        files = sorted(os.listdir(out / "fig2"))
        assert "evolution_rann_p0.003.csv" in files
        assert "gof_rann_p0.003.json" in files
        assert "hist_rann_p0.003_t1.0.csv" in files
        assert "hist_rann_p0.003_t500.0.csv" in files
        assert "manifest.json" in files
        hist = (out / "fig2" / "hist_rann_p0.003_t1.0.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,count,density"
        counts = sum(int(line.split(",")[2]) for line in hist[1:])
        assert counts == 60

    @staticmethod
    def _tiny_figure3(out):
        # N = 1000 makes every z * N an integer degree (100, 10 and 3)
        return cli.cmd_reproduce(3, out_dir=str(out), N=1000, dt=0.01,
                                 bootstrap_b=3, seed=3, t_end=1.0)

    def test_figure3_manifest_replays_every_run(self, tmp_path):
        out = tmp_path / "rep"
        assert self._tiny_figure3(out) == 0
        manifest = json.loads((out / "fig3" / "manifest.json").read_text())
        assert manifest["format_version"] == cli.FORMAT_VERSION
        labels = ["regn_z0.1", "regn_z0.01", "regn_z0.003"]
        assert [r["label"] for r in manifest["runs"]] == labels
        assert manifest["outputs"] == sorted(
            f"evolution_{label}.csv" for label in labels)
        for run in manifest["runs"]:
            assert run["status"] == "ok"
            assert run["outputs"] == [f"evolution_{run['label']}.csv"]
            replay_dir = tmp_path / run["label"]
            cfg = write_config(tmp_path, run["config_text"],
                               f"{run['label']}.ini")
            assert cli.main(["evolve", "--config", cfg,
                             "--out", str(replay_dir)]) == 0
            assert (replay_dir / "evolution.csv").read_bytes() == \
                (out / "fig3" / run["outputs"][0]).read_bytes()

    def test_failed_run_is_recorded_in_the_manifest(self, tmp_path,
                                                    monkeypatch, capsys):
        calls = []
        simulate = cli.simulate

        def second_run_fails(sim):
            calls.append(sim)
            if len(calls) == 2:
                raise PositivityError(agent=4, t=0.03, step=2)
            return simulate(sim)
        monkeypatch.setattr(cli, "simulate", second_run_fails)
        out = tmp_path / "rep"
        assert self._tiny_figure3(out) == 3
        assert len(calls) == 2  # the third run is not attempted
        assert "numerical failure in regn_z0.01" in capsys.readouterr().err
        manifest = json.loads((out / "fig3" / "manifest.json").read_text())
        first, second = manifest["runs"]
        assert first["status"] == "ok"
        assert first["outputs"] == ["evolution_regn_z0.1.csv"]
        assert second["label"] == "regn_z0.01"
        assert second["status"] == "failed" and second["outputs"] == []
        assert "agent 4" in second["error"]
        assert "N = 1000" in second["config_text"]
        assert manifest["outputs"] == ["evolution_regn_z0.1.csv"]
        assert sorted(os.listdir(out / "fig3")) == [
            "evolution_regn_z0.1.csv", "manifest.json"]

    def test_tiny_figure5_run(self, tmp_path):
        out = tmp_path / "rep"
        code = cli.cmd_reproduce(5, out_dir=str(out), N=40, dt=0.01,
                                 bootstrap_b=5, seed=3, t_end=1.0)
        assert code == 0
        files = sorted(os.listdir(out / "fig5"))
        assert [f for f in files if f.startswith("evolution_eft_g")] == [
            "evolution_eft_g0.4.csv", "evolution_eft_g0.5.csv",
            "evolution_eft_g0.6.csv", "evolution_eft_g0.8.csv"]


def test_histogram_writer_bins(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.gamma(3.0, 1.0, 500)
    path = tmp_path / "h.csv"
    cli.write_histogram_csv(str(path), x)
    lines = path.read_text().splitlines()
    assert len(lines) == 51
    rows = [line.split(",") for line in lines[1:]]
    lefts = [float(r[0]) for r in rows]
    rights = [float(r[1]) for r in rows]
    # log-spaced: constant ratio between edges
    ratios = [r / l for l, r in zip(lefts, rights)]
    assert all(math.isclose(ratios[0], q, rel_tol=1e-9) for q in ratios)
    assert sum(int(r[2]) for r in rows) == 500
