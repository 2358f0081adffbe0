import concurrent.futures
import resource
import subprocess
import sys
import types
from contextlib import nullcontext
from pathlib import Path

import pytest

from netalign import align, harness, operator, rounding, selftest
from netalign.align import AlignConfig
from netalign.graphs import MAX_EDGE_LIST_VERTICES, Permutation
from netalign.cli import _config_from, build_parser, main
from netalign.harness import GridSpec


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_noiseless_sweep_rows_and_recovery(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code, _, err = run_cli(
            ["sweep", "--n", "20", "--p", "0.2", "--lambda", "0", "--trials", "5",
             "--seed", "3", "--csv", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 5 * 2  # header + trials x algorithms
        for row in lines[1:]:
            fields = row.split(",")
            assert fields[5] == "1"  # recovery_fraction
            assert fields[6] == "1"  # exact flag

    def test_repeat_invocation_byte_identical(self, tmp_path, capsys):
        args = ["sweep", "--n", "8,10", "--p", "0.3", "--lambda", "0,0.2",
                "--trials", "3", "--seed", "1", "--csv"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(args + [str(first)], capsys)[0] == 0
        assert run_cli(args + [str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_workers_byte_identical(self, tmp_path, capsys):
        base = ["sweep", "--n", "8", "--p", "0.3", "--lambda", "0,0.2",
                "--trials", "2", "--seed", "1"]
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert run_cli(base + ["--csv", str(serial), "--workers", "1"], capsys)[0] == 0
        assert run_cli(base + ["--csv", str(parallel), "--workers", "4"], capsys)[0] == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("workers,cpus,trials,printed", [
        (5000, 2, 2, 1),     # 8 trials: one chunk, run in this process
        (5000, 2, 20, 2),    # 80 trials: ten chunks, two CPUs
        (5000, 64, 9, 5),    # 36 trials: five chunks
        (3, 64, 20, 3),
    ])
    def test_reports_the_workers_it_runs(self, tmp_path, capsys, monkeypatch,
                                         workers, cpus, trials, printed):
        # The pool size printed is the one run_grid asks for; the trials
        # then run here, so no process is started.
        started = []

        def serial_pool(max_workers):
            started.append(max_workers)
            pool = types.SimpleNamespace(map=lambda fn, items, chunksize: map(fn, items))
            return nullcontext(pool)

        monkeypatch.setattr(harness, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool)
        code, _, err = run_cli(["sweep", "--n", "4", "--lambda", "0,0.5",
                                "--trials", str(trials), "--workers", str(workers),
                                "--csv", str(tmp_path / "o.csv")], capsys)
        assert code == 0
        assert f"workers={printed}\n" in err
        assert started == ([] if printed == 1 else [printed])

    def test_heatmap_files_written(self, tmp_path, capsys):
        heatmap = tmp_path / "recovery.pgm"
        code, _, _ = run_cli(
            ["sweep", "--n", "6,8", "--p", "0.4", "--lambda", "0,0.3",
             "--trials", "2", "--seed", "2", "--csv", str(tmp_path / "o.csv"),
             "--heatmap", str(heatmap)], capsys)
        assert code == 0
        for algo in ("eigenalign", "ppa"):
            pgm = tmp_path / f"recovery.{algo}.pgm"
            assert pgm.exists()
            content = pgm.read_text().splitlines()
            assert content[0] == "P2"
            assert (tmp_path / f"recovery.{algo}.pgm.legend.txt").exists()

    def test_log_scale_flag_changes_gray_mapping(self, tmp_path, capsys):
        args = ["sweep", "--n", "8", "--p", "0.4", "--lambda", "0.2",
                "--trials", "4", "--seed", "5", "--csv", str(tmp_path / "o.csv")]
        run_cli(args + ["--heatmap", str(tmp_path / "lin.pgm")], capsys)
        run_cli(args + ["--heatmap", str(tmp_path / "log.pgm"), "--log-scale"], capsys)
        linear = (tmp_path / "lin.ppa.pgm").read_text().splitlines()[-1]
        logged = (tmp_path / "log.ppa.pgm").read_text().splitlines()[-1]
        assert int(logged) >= int(linear)  # log compression lifts mid-range values

    def test_lambda_out_of_range_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--n", "5", "--lambda", "1.5", "--csv",
             str(tmp_path / "x.csv")], capsys)
        assert code != 0
        assert "lambda" in err

    def test_single_algorithm_selected(self, tmp_path, capsys):
        csv_path = tmp_path / "one.csv"
        code, _, _ = run_cli(
            ["sweep", "--n", "6", "--lambda", "0", "--trials", "2", "--algo",
             "ppa", "--csv", str(csv_path)], capsys)
        assert code == 0
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[3] == "ppa" for row in rows)

    def test_degenerate_cell_warns_but_completes(self, tmp_path, capsys):
        csv_path = tmp_path / "degenerate.csv"
        code, _, err = run_cli(
            ["sweep", "--n", "4", "--p", "0", "--lambda", "0", "--trials", "1",
             "--csv", str(csv_path)], capsys)
        assert code == 0
        assert "failed" in err  # degenerate trials surface on stderr
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[5] == "0" for row in rows)

    def test_bad_epsilon_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--n", "5", "--lambda", "0", "--trials", "1",
             "--epsilon", "0", "--csv", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "epsilon" in err

    @pytest.mark.parametrize("flags,message", [
        (["--n", "0"], "n must be an integer of at least 1"),
        (["--n", "5,0"], "n must be an integer of at least 1"),
        (["--p", "1.5"], "p must lie"),
        (["--lambda", "0,nan"], "lambda"),
        (["--trials", "0"], "trials"),
        (["--eigen-tol", "nan"], "eigen_tol"),
        (["--eigen-tol", "0"], "eigen_tol"),
        (["--epsilon", "nan"], "epsilon"),
        (["--epsilon", "inf"], "epsilon"),
        (["--n", "100000000"], "n must be at most 10000"),
    ])
    def test_bad_grid_or_config_exits_2(self, tmp_path, capsys, flags, message):
        csv_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["sweep", "--n", "5", "--lambda", "0", "--trials", "1",
             "--csv", str(csv_path)] + flags, capsys)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not csv_path.exists()

    def test_unwritable_csv_path(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["sweep", "--n", "5", "--lambda", "0", "--trials", "1",
             "--csv", str(tmp_path / "missing_dir" / "x.csv")], capsys)
        assert code == 1
        assert "cannot write" in err


class TestMatch:
    def write_path3(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("n 3\n0 1\n1 2\n")
        return path

    def test_p3_self_match(self, tmp_path, capsys):
        g = self.write_path3(tmp_path, "g.txt")
        code, out, _ = run_cli(["match", "--g1", str(g), "--g2", str(g)], capsys)
        assert code == 0
        assert "matched_edges: 2" in out
        assert "converged: true" in out
        # correspondence lines for every vertex
        assert sum(1 for line in out.splitlines() if "->" in line) == 3

    def test_match_to_file(self, tmp_path, capsys):
        g = self.write_path3(tmp_path, "g.txt")
        out_path = tmp_path / "result.txt"
        code, out, _ = run_cli(
            ["match", "--g1", str(g), "--g2", str(g), "--out", str(out_path),
             "--algo", "eigenalign"], capsys)
        assert code == 0
        assert out == ""  # stdout stays clean when writing to a file
        assert "matched_edges: 2" in out_path.read_text()

    def test_size_mismatch(self, tmp_path, capsys):
        g1 = self.write_path3(tmp_path, "g1.txt")
        g2 = tmp_path / "g2.txt"
        g2.write_text("n 4\n0 1\n")
        code, _, err = run_cli(["match", "--g1", str(g1), "--g2", str(g2)], capsys)
        assert code == 1
        assert "size mismatch" in err

    def test_degenerate_empty_graphs(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("n 3\n")
        code, _, err = run_cli(["match", "--g1", str(empty), "--g2", str(empty)], capsys)
        assert code == 1
        assert "degenerate" in err

    def test_parse_error_reported_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\n0 0\n")
        code, _, err = run_cli(["match", "--g1", str(bad), "--g2", str(bad)], capsys)
        assert code == 1
        assert "bad.txt" in err and "self-loop" in err

    def test_reads_utf8_with_byte_order_mark(self, tmp_path, capsys):
        g = tmp_path / "bom.txt"
        g.write_bytes("\ufeffn 3\n0 1\n1 2\n".encode("utf-8"))
        code, out, err = run_cli(["match", "--g1", str(g), "--g2", str(g)], capsys)
        assert code == 0, err
        assert "matched_edges: 2" in out

    def test_oversized_header_reported_with_path(self, tmp_path, capsys):
        huge = tmp_path / "huge.txt"
        huge.write_text("n 100000000\n0 1\n")
        g = self.write_path3(tmp_path, "g.txt")
        code, out, err = run_cli(["match", "--g1", str(huge), "--g2", str(g)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: --g1 file {huge}: ") and "limit" in err

    @pytest.mark.parametrize("flag,value", [("--eigen-tol", "nan"), ("--epsilon", "inf")])
    def test_bad_config_exits_2(self, tmp_path, capsys, flag, value):
        path = self.write_path3(tmp_path, "p3.txt")
        code, out, err = run_cli(["match", "--g1", str(path), "--g2", str(path),
                                  flag, value], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_bad_config_checked_before_reading_files(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        code, out, err = run_cli(["match", "--g1", str(missing), "--g2", str(missing),
                                  "--eigen-tol", "nan"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "cannot read" not in err

    @pytest.mark.parametrize("algo,iterations", [("ppa", 2), ("eigenalign", 99)])
    def test_timings_on_stderr_outputs_unchanged(self, tmp_path, capsys, algo, iterations):
        g = self.write_path3(tmp_path, "g.txt")
        expected = ("0 -> 0\n1 -> 1\n2 -> 2\nmatched_edges: 2\nobjective: 10.609\n"
                    f"iterations: {iterations}\nconverged: true\n")
        argv = ["match", "--g1", str(g), "--g2", str(g), "--algo", algo]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert out == expected
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("match: parsed two 3-vertex graphs in ")
        assert lines[1].startswith(f"match: {algo} finished in ")
        assert all(line.endswith("s") for line in lines)
        out_path = tmp_path / "result.txt"
        code, out, err = run_cli(argv + ["--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert out_path.read_text() == expected
        assert err.splitlines()[-1] == f"wrote {out_path}"

    @pytest.mark.parametrize("algo,code", [("ppa", 1), ("eigenalign", 0)])
    def test_out_of_memory_reported_as_error_line(self, tmp_path, algo, code):
        # The parser's largest n under a 1.5 GiB address space. EigenAlign
        # rounds its n² eigenvector (763 MiB) in place and peaked at
        # 1.07 GiB; PPA's greedy start rounding needs a second n² array and
        # runs out.
        g = tmp_path / "g.txt"
        g.write_text(f"n {MAX_EDGE_LIST_VERTICES}\n0 1\n1 2\n")
        limit = 3 << 29

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "netalign", "match", "--g1", str(g), "--g2", str(g),
             "--algo", algo, "--out", str(tmp_path / "out.txt")],
            capture_output=True, text=True, preexec_fn=limit_address_space,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin",
                 "OPENBLAS_NUM_THREADS": "1"})
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        if code:
            assert result.stderr.splitlines()[-1] == (
                f"error: out of memory matching two {MAX_EDGE_LIST_VERTICES}-vertex "
                "graphs with ppa")

    def test_missing_file(self, tmp_path, capsys):
        g = self.write_path3(tmp_path, "g.txt")
        code, _, err = run_cli(
            ["match", "--g1", str(tmp_path / "nope.txt"), "--g2", str(g)], capsys)
        assert code == 1
        assert "cannot read" in err


class TestSelftest:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_reduced_max_n(self, capsys):
        code, out, _ = run_cli(["selftest", "--max-n", "3"], capsys)
        assert code == 0

    def test_largest_max_n_passes(self, capsys):
        code, out, _ = run_cli(["selftest", "--max-n", str(operator.DENSE_ORACLE_CAP)], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "4/4 suites passed"

    @pytest.mark.parametrize("max_n", [1, operator.DENSE_ORACLE_CAP + 1])
    def test_max_n_outside_the_dense_oracle_range_rejected(self, max_n, capsys):
        code, out, err = run_cli(["selftest", "--max-n", str(max_n)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: max-n must lie in 2..{operator.DENSE_ORACLE_CAP}, got {max_n}\n"
        with pytest.raises(ValueError) as exc:
            selftest.run_all_suites(max_n=max_n)
        assert err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed, capsys):
        code, out, err = run_cli(["selftest", "--seed", str(seed)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: base_seed must be an unsigned 64-bit integer, got {seed}\n"
        with pytest.raises(ValueError) as exc:
            selftest.run_all_suites(seed=seed)
        assert err == f"error: {exc.value}\n"

    def test_corrupted_scoring_detected(self, capsys, monkeypatch):
        original = operator.AlignmentOperator.apply

        def corrupted(self, v):
            out = original(self, v)
            out[0] = -out[0]  # sign corruption fixture
            return out

        monkeypatch.setattr(operator.AlignmentOperator, "apply", corrupted)
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1
        assert "FAIL dense-operator-equivalence" in out

    def test_corrupted_in_place_rounding_detected(self, capsys, monkeypatch):
        # The planted n = 60 check runs eigen_align's in-place rounding, the
        # path `netalign match` takes above n = 50.
        original = align._max_weight_matching

        def corrupted(*args, **kwargs):
            return Permutation(original(*args, **kwargs).map[::-1])

        monkeypatch.setattr(align, "_max_weight_matching", corrupted)
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1
        assert "FAIL assignment-oracle: planted n=60: eigen_align's in-place" in out

    def test_wrong_certified_matching_detected(self, capsys, monkeypatch):
        # The sparse planted n = 200 pair skips the full solve; a sort
        # matching returned with two rows' columns swapped loses total.
        original = rounding._certified_sort_matching

        def corrupted(*args):
            mapping = original(*args)
            if mapping is not None:
                mapping[[0, 1]] = mapping[[1, 0]]
            return mapping

        monkeypatch.setattr(rounding, "_certified_sort_matching", corrupted)
        code, out, _ = run_cli(["selftest"], capsys)
        assert code == 1
        assert "FAIL assignment-oracle: planted n=200: exact total" in out


class TestModuleEntry:
    def test_python_dash_m_invocation(self):
        import pathlib
        import subprocess
        import sys
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "netalign", "selftest", "--max-n", "3"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stderr
        assert "suites passed" in result.stdout


class TestParser:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--bogus", "1", "--csv", "x.csv"])
        assert exc.value.code != 0

    def test_missing_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code != 0

    @pytest.mark.parametrize("sub", ["sweep", "match", "selftest"])
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_bad_list_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--n", "4,x", "--csv", "out.csv"])

    @pytest.mark.parametrize("argv", [["sweep", "--csv", "out.csv"],
                                      ["match", "--g1", "a.txt", "--g2", "b.txt"]])
    def test_default_flags_build_default_config(self, argv):
        assert _config_from(build_parser().parse_args(argv)) == AlignConfig()

    def test_sweep_trials_and_seed_default_to_grid_spec(self):
        args = build_parser().parse_args(["sweep", "--csv", "out.csv"])
        grid = GridSpec(n_list=tuple(args.n), lambda_list=tuple(args.lambdas), p=args.p)
        assert (args.trials, args.seed) == (grid.trials, grid.base_seed)
