import json

import pytest

from epigraph import PolicyFault, cli, crusade, generate, resilience_table


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def echoed_config(err):
    line = next(ln for ln in err.splitlines() if ln.startswith("CONFIG "))
    return json.loads(line[len("CONFIG "):])


class TestGenAndReports:
    def test_gen_then_cutwidth_path4(self, tmp_path, capsys):
        gpath = tmp_path / "p4.graph"
        code, out, err = run(["gen", "--kind", "path", "--n", "4", "--out", str(gpath)], capsys)
        assert code == 0
        assert gpath.read_text() == "4 3\n0 1\n1 2\n2 3\n"
        code, out, err = run(["cutwidth", "--graph", str(gpath)], capsys)
        assert code == 0
        assert out.splitlines()[0] == "W=1, E=5"
        assert "[0,1,2,3]" in out

    def test_resilience_k4_pair(self, capsys):
        code, out, err = run(["resilience", "--gen", "complete:4", "--bag", "0,1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "gamma=3, E=10/3"

    def test_resilience_table_export(self, tmp_path, capsys):
        table_path = tmp_path / "table.csv"
        code, out, err = run(
            ["resilience", "--gen", "path:3", "--bag", "all", "--table-out", str(table_path)],
            capsys,
        )
        assert code == 0
        lines = table_path.read_text().splitlines()
        assert lines[0] == "bitmask,cardinality,cut,g,gamma"
        assert len(lines) == 9

    def test_table_export_streams_the_csv_blocks(self, tmp_path, capsys, monkeypatch):
        # blocks of 100 rows split the n=9 table into six writes, the last short
        monkeypatch.setattr(crusade, "CSV_BLOCK", 100)
        table_path = tmp_path / "table.csv"
        argv = ["resilience", "--gen", "erdos_renyi:9", "--p", "0.4", "--seed", "3", "--bag", "all"]
        code, out, err = run(argv + ["--table-out", str(table_path)], capsys)
        assert code == 0
        expected = "".join(resilience_table(generate("erdos_renyi", 9, p=0.4, seed=3)).csv_blocks())
        assert table_path.read_bytes() == expected.encode()

    def test_bag_out_of_range_is_usage_error(self, capsys):
        code, out, err = run(["resilience", "--gen", "complete:4", "--bag", "0,9"], capsys)
        assert code == 2
        assert "outside" in err

    def test_missing_graph_file(self, capsys):
        code, out, err = run(["cutwidth", "--graph", "/nonexistent.graph"], capsys)
        assert code == 2

    def test_malformed_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("2 1\n0 0\n")
        code, out, err = run(["cutwidth", "--graph", str(bad)], capsys)
        assert code == 2

    def test_disconnected_graph_file(self, tmp_path, capsys):
        # the waiver exists only in the library (parse_graph(..., allow_disconnected=True))
        split = tmp_path / "split.graph"
        split.write_text("4 2\n0 1\n2 3\n")
        code, out, err = run(["cutwidth", "--graph", str(split)], capsys)
        assert code == 2
        assert "disconnected" in err and out == ""

    def test_resilience_above_old_cap(self, capsys):
        code, out, err = run(["resilience", "--gen", "cycle:16", "--bag", "all"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "gamma=2, E=16"

    def test_table_budget_is_input_error(self, capsys):
        code, out, err = run(["cutwidth", "--gen", "path:25"], capsys)
        assert code == 2
        assert "table budget" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["cutwidth", "--gen", "cycle:6"],
        ["resilience", "--gen", "star:5", "--bag", "0,1"],
    ])
    def test_saved_config_with_max_n_replays(self, argv, tmp_path, capsys):
        # configs saved while the report commands took --max-n still carry
        # the key; it is ignored and the output is unchanged
        cfg_path = tmp_path / "old.json"
        code, first, err = run(argv + ["--save-config", str(cfg_path)], capsys)
        assert code == 0
        saved = json.loads(cfg_path.read_text())
        for max_n in (None, 15, 24):
            cfg_path.write_text(json.dumps({**saved, "max_n": max_n}))
            code, out, err = run([argv[0], "--config", str(cfg_path)], capsys)
            assert code == 0 and out == first
            assert "max_n" not in echoed_config(err)

    def test_gen_unknown_kind_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--kind", "hypercube", "--n", "4"])
        assert exc.value.code == 2


class TestSimulateCommand:
    def test_k2_estimate_csv(self, tmp_path, capsys):
        out_path = tmp_path / "est.csv"
        code, out, err = run(
            ["simulate", "--gen", "complete:2", "--r", "1", "--reps", "500",
             "--seed", "7", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "graph,policy,r,reps,mean_tau,se,censored"
        fields = lines[1].split(",")
        assert fields[0] == "complete:2"
        assert abs(float(fields[4]) - 3.0) < 1.0

    def test_resilience_greedy_above_old_cap(self, capsys):
        code, out, err = run(
            ["simulate", "--gen", "cycle:16", "--policy", "resilience_greedy", "--r", "3", "--reps", "5"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[1].startswith("cycle:16,resilience_greedy,3.0,5,")

    def test_zero_reps_usage_error(self, capsys):
        code, out, err = run(["simulate", "--gen", "complete:2", "--reps", "0"], capsys)
        assert code == 2

    def test_all_censored_exit_code(self, capsys):
        code, out, err = run(
            ["simulate", "--gen", "complete:3", "--policy", "none", "--r", "0",
             "--reps", "3", "--max-time", "5", "--seed", "1"],
            capsys,
        )
        assert code == 4

    def test_policy_fault_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise PolicyFault("injected")

        monkeypatch.setattr(cli.simulation, "estimate_extinction", boom)
        code, out, err = run(["simulate", "--gen", "complete:2", "--reps", "2"], capsys)
        assert code == 3

    def test_same_config_twice_is_byte_identical(self, tmp_path, capsys):
        argv = ["simulate", "--gen", "complete:3", "--r", "1", "--reps", "200", "--seed", "11"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_trace_out_is_deterministic(self, tmp_path, capsys):
        t1 = tmp_path / "t1.csv"
        t2 = tmp_path / "t2.csv"
        base = ["simulate", "--gen", "complete:3", "--reps", "2", "--seed", "9", "--r", "1"]
        run(base + ["--trace-out", str(t1), "--out", str(tmp_path / "x.csv")], capsys)
        run(base + ["--trace-out", str(t2), "--out", str(tmp_path / "y.csv")], capsys)
        assert t1.read_bytes() == t2.read_bytes()
        assert t1.read_text().splitlines()[0] == "time,kind,vertex"


class TestVerifyCommand:
    def test_walk_scope_passes(self, capsys):
        code, out, err = run(["verify", "--scope", "walk", "--mc-runs", "4000", "--seed", "42"], capsys)
        assert code == 0
        assert "PASS walk_bound_below_exact" in out
        assert "OK scope=walk" in out

    def test_lemmas_small_pass(self, capsys):
        code, out, err = run(
            ["verify", "--scope", "lemmas", "--max-n", "4", "--rand-count", "2", "--seed", "42"],
            capsys,
        )
        assert code == 0
        assert "PASS fullset_resilience_equals_cutwidth" in out
        assert "PASS algorithm_matches_oracle" in out


class TestSweepCommand:
    def test_exact_growth_column(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            ["sweep", "--family", "complete", "--n", "2:8", "--r", "1",
             "--mode", "exact", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "graph,policy,r,reps,mean_tau,se,censored"
        means = [float(ln.split(",")[4]) for ln in lines[1:]]
        assert len(means) == 7
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_invalid_cell_flagged_and_sweep_continues(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            ["sweep", "--family", "complete", "--n", "2:3", "--r", "0,1",
             "--mode", "exact", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5
        # the r=0 cells are flagged with the integer sentinel -1 and no estimate
        assert sorted(int(ln.split(",")[6]) for ln in lines[1:]) == [-1, -1, 0, 0]
        flagged = [ln for ln in lines[1:] if ln.endswith(",-1")]
        assert all(ln.split(",")[4:6] == ["", ""] for ln in flagged)

    @pytest.mark.parametrize("mode, kept_row, flagged_row", [
        ("bound", "4,2,1,5,1,1,unmet,", "8,,,,,1,error,"),
        ("simulate", "erdos_renyi:4:p0.05,max_degree_infected,1.0,5,", "erdos_renyi:8:p0.05,max_degree_infected,1.0,5,,,-1"),
    ])
    def test_generation_failure_flagged_and_sweep_continues(self, mode, kept_row, flagged_row, tmp_path, capsys):
        # no connected G(8, 0.05) sample turns up in the generator's retries
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            ["sweep", "--family", "erdos_renyi", "--p", "0.05", "--n", "4,8", "--mode", mode,
             "--reps", "5", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith(kept_row)
        assert lines[2] == flagged_row
        assert "no connected G(8,0.05) sample" in err

    def test_empty_grid_gives_header_only(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            ["sweep", "--family", "complete", "--n", "", "--mode", "exact", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert out_path.read_text() == "graph,policy,r,reps,mean_tau,se,censored\n"

    def test_resume_log_replays_rows(self, tmp_path, capsys):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        log = tmp_path / "cells.jsonl"
        argv = ["sweep", "--family", "complete", "--n", "2:5", "--r", "1", "--mode", "exact",
                "--resume-log", str(log)]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert log.exists() and len(log.read_text().splitlines()) == 4
        assert cli.main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        # no recomputation: the log still holds exactly one record per cell
        assert len(log.read_text().splitlines()) == 4

    def test_simulate_mode_rows(self, tmp_path, capsys):
        out_path = tmp_path / "sim.csv"
        code, out, err = run(
            ["sweep", "--family", "complete", "--n", "2:3", "--r", "1", "--mode", "simulate",
             "--policy", "max_degree_infected", "--reps", "50", "--seed", "3",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert all(ln.split(",")[1] == "max_degree_infected" for ln in lines[1:])

    def test_bound_mode_rows(self, tmp_path, capsys):
        out_path = tmp_path / "bound.csv"
        code, out, err = run(
            ["sweep", "--family", "complete", "--n", "4:6", "--r", "1", "--mode", "bound",
             "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,delta,W,E,gamma0,r,condition,bound_log10"
        assert all(ln.split(",")[6] == "unmet" for ln in lines[1:])

    @pytest.mark.parametrize("argv", [
        ["--family", "random_regular", "--d", "3", "--n", "6,8", "--mode", "simulate",
         "--reps", "20", "--seed", "3"],
        ["--family", "erdos_renyi", "--p", "0.5", "--n", "8", "--mode", "bound"],
    ])
    def test_random_family_rows_replay_from_saved_config(self, argv, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.json"
        code, first, err = run(["sweep", *argv, "--save-config", str(cfg_path)], capsys)
        assert code == 0 and "flagged" not in err
        rows = first.splitlines()[1:]
        assert len(rows) == len(argv[argv.index("--n") + 1].split(","))
        assert not any(row.endswith((",-1", ",error,")) for row in rows)
        code, replay, err = run(["sweep", "--config", str(cfg_path)], capsys)
        assert code == 0 and replay == first

    def test_unknown_policy_is_usage_error(self, capsys):
        code, out, err = run(["sweep", "--n", "2", "--mode", "simulate", "--reps", "5",
                              "--policy", "max_degree_infected,max_degree_infectd"], capsys)
        assert code == 2 and "unknown policy" in err and out == ""

    def test_unknown_family_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--family", "hypercube", "--n", "4", "--mode", "bound"])
        assert exc.value.code == 2
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"family": "hypercube", "n": "4", "mode": "bound"}))
        code, out, err = run(["sweep", "--config", str(cfg_path)], capsys)
        assert code == 2 and "unknown family" in err and out == ""


ROUND_TRIP_ARGV = {
    "gen": ["--kind", "erdos_renyi", "--n", "8", "--p", "0.5", "--seed", "3"],
    "cutwidth": ["--gen", "random_regular:8", "--d", "3", "--seed", "5"],
    "resilience": ["--gen", "star:5", "--bag", "0,1"],
    "simulate": ["--gen", "complete:2", "--r", "2", "--reps", "300", "--seed", "5"],
    "verify": ["--scope", "walk", "--mc-runs", "4000", "--seed", "42"],
    "sweep": ["--family", "cycle", "--n", "4,5", "--r", "1,2", "--mode", "simulate",
              "--policy", "resilience_greedy,random_infected", "--reps", "20"],
}


class TestConfigRoundTrip:
    @pytest.mark.parametrize("cmd", sorted(ROUND_TRIP_ARGV))
    def test_echoed_config_reproduces_output(self, cmd, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        code, out, err = run(
            [cmd, *ROUND_TRIP_ARGV[cmd], "--out", str(a), "--save-config", str(cfg_path)], capsys,
        )
        assert code == 0
        echoed = echoed_config(err)
        # every parsed option reaches the config; --config/--save-config only steer it
        options = vars(cli.build_parser().parse_args([cmd]))
        assert set(echoed) == set(options) - {"cmd", "func", "config", "save_config"} | {"command"}
        saved = json.loads(cfg_path.read_text())
        assert saved == echoed
        saved["out"] = str(b)
        cfg2 = tmp_path / "rerun.json"
        cfg2.write_text(json.dumps(saved))
        code, out, err = run([cmd, "--config", str(cfg2)], capsys)
        assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv, nulled", [
        (["simulate", "--gen", "complete:3", "--reps", "200", "--seed", "11"], ["policy"]),
        (["sweep", "--n", "3", "--mode", "simulate", "--reps", "50"], ["max_time", "max_events"]),
    ])
    def test_config_with_unresolved_defaults_replays(self, argv, nulled, tmp_path, capsys):
        # older versions saved these defaults as null; null still means the default
        cfg_path = tmp_path / "run.json"
        code, first, err = run(argv + ["--save-config", str(cfg_path)], capsys)
        assert code == 0
        saved = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**saved, **dict.fromkeys(nulled)}))
        code, out, err = run([argv[0], "--config", str(cfg_path)], capsys)
        assert code == 0 and out == first
        assert echoed_config(err) == saved


class TestModuleEntryPoint:
    def test_runs_as_module(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "g.graph"
        proc = subprocess.run(
            [sys.executable, "-m", "epigraph.cli", "gen", "--kind", "cycle", "--n", "4",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.read_text().startswith("4 4\n")
        assert proc.stderr.startswith("CONFIG ")


class TestSeedResolution:
    def test_env_seed_used_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("EPIGRAPH_SEED", "777")
        code, out, err = run(["gen", "--kind", "path", "--n", "3"], capsys)
        assert code == 0
        assert echoed_config(err)["seed"] == 777

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EPIGRAPH_SEED", "777")
        code, out, err = run(["gen", "--kind", "path", "--n", "3", "--seed", "5"], capsys)
        assert echoed_config(err)["seed"] == 5

    def test_default_seed_constant(self, capsys, monkeypatch):
        monkeypatch.delenv("EPIGRAPH_SEED", raising=False)
        code, out, err = run(["gen", "--kind", "path", "--n", "3"], capsys)
        assert echoed_config(err)["seed"] == 42
