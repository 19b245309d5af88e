import numpy as np
import pytest

from blockinv.bench import generate
from blockinv.cli import main
from blockinv.core import load_matrix, residual_norm, save_matrix, save_text
from blockinv.engine import run_inversion

from conftest import BAD_META_FIELDS, rewrite_meta, stopped_over_stale_files, well_conditioned


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """Exit code of a command, including argparse's own exits."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


class TestGenAndPartition:
    def test_gen_roundtrip(self, tmp_path):
        out = tmp_path / "m.txt"
        assert run("gen", "--order", 9, "--seed", 3, "--out", out) == 0
        m = load_matrix(out)
        assert m.shape == (9, 9)

    def test_gen_binary(self, tmp_path):
        out = tmp_path / "m.blk"
        assert run("gen", "--order", 6, "--out", out, "--binary") == 0
        assert load_matrix(out).shape == (6, 6)

    def test_partition_output(self, capsys):
        assert run("partition", "21") == 0
        captured = capsys.readouterr().out
        assert "N_k = 8" in captured
        assert "2 2 2 3 3 3 3 3" in captured

    def test_partition_explicit_sizes(self, capsys):
        assert run("partition", "32", "--sizes", "5,9,7,11") == 0
        assert "N_k = 4" in capsys.readouterr().out

    def test_partition_sizes_must_sum_to_order(self, capsys):
        assert run("partition", "21", "--sizes", "2,2") == 3
        captured = capsys.readouterr()
        assert "--sizes sum to 4, not the order 21" in captured.err
        assert captured.out == ""

    def test_gen_negative_seed_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        assert run("gen", "--order", 4, "--seed", -1, "--out", out) == 3
        assert "seed must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestInvert:
    @pytest.mark.parametrize("method", ["a", "inplace", "ad", "parallel", "oracle"])
    def test_methods(self, tmp_path, method):
        src = tmp_path / "m.txt"
        dst = tmp_path / "inv.txt"
        m = well_conditioned(9, 60)
        save_matrix(m, src)
        assert run("invert", "--in", src, "--out", dst, "--method", method) == 0
        assert residual_norm(m, load_matrix(dst)) <= 1e-8 * 9

    @pytest.mark.parametrize("method, inversions", [("a", 5), ("oracle", 0)])
    def test_block_counters(self, tmp_path, capsys, method, inversions):
        # the oracle has no blocks, so it reports no block operations
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(9, 60), src)
        assert run("invert", "--in", src, "--method", method) == 0
        assert f"  inversions {inversions}  " in capsys.readouterr().out

    def test_singular_exit_code(self, tmp_path):
        src = tmp_path / "sing.txt"
        save_text(np.ones((4, 4)), src)
        assert run("invert", "--in", src, "--method", "a") == 2

    @pytest.mark.parametrize("argv", [
        ("--method", "a"), ("--method", "inplace"), ("--method", "ad"), ("--sizes", "6,6"),
    ], ids=["a", "inplace", "ad", "parallel-6-6"])
    def test_non_finite_result_exit_code(self, tmp_path, capsys, argv):
        # a finite input whose intermediates underflow: the engine's Schur
        # blocks overflow on the way, and no run reads them as malformed input
        src = tmp_path / "tiny.txt"
        save_text(generate(12, seed=1) * 1e-160, src)
        assert run("invert", "--in", src, *argv) == 2
        assert "NaN or Inf" in capsys.readouterr().err

    def test_retry_flag_recovers_permutation(self, tmp_path):
        src = tmp_path / "p.txt"
        dst = tmp_path / "pinv.txt"
        p = np.eye(8)[::-1].copy()
        save_text(p, src)
        assert run("invert", "--in", src, "--method", "a") == 2
        assert run("invert", "--in", src, "--out", dst, "--method", "a", "--retry") == 0
        assert residual_norm(p, load_matrix(dst)) <= 1e-12

    @pytest.mark.parametrize("method, code", [
        ("a", 0), ("inplace", 0), ("ad", 0), ("parallel", 3), ("oracle", 3),
    ])
    def test_retry_by_method(self, tmp_path, capsys, method, code):
        # --retry only applies where a singular pivot can fall back
        src = tmp_path / "p.txt"
        dst = tmp_path / "pinv.txt"
        p = np.eye(8)[::-1].copy()
        save_text(p, src)
        argv = ("invert", "--in", src, "--out", dst, "--method", method, "--retry")
        assert exit_code(*argv) == code
        if code == 0:
            assert residual_norm(p, load_matrix(dst)) <= 1e-12
        else:
            assert "--retry" in capsys.readouterr().err
            assert not dst.exists()

    def test_retry_with_default_method_exit_code(self, tmp_path, capsys):
        src = tmp_path / "p8.txt"
        assert run("gen", "--order", 8, "--kind", "permutation", "--out", src) == 0
        assert exit_code("invert", "--in", src, "--retry") == 3
        assert "parallel" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert run("invert", "--in", tmp_path / "nope.txt") == 3

    def test_bad_format_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a matrix\n")
        assert run("invert", "--in", bad) == 3

    @pytest.mark.parametrize("text", ["2 2\n", "2 2\n\n# no rows\n", "0 0\n"])
    def test_header_only_file_exit_code(self, tmp_path, text):
        # numpy's empty-input warning is an error in this suite
        src = tmp_path / "empty.txt"
        src.write_text(text)
        assert run("invert", "--in", src) == 3

    @pytest.mark.parametrize("method", ["a", "inplace", "ad", "oracle", "parallel"])
    def test_workers_env_ignored_by_other_methods(self, tmp_path, capsys, monkeypatch, method):
        # no method reads INVERTOR_WORKERS: every one runs in the calling thread
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(9, 72), src)
        monkeypatch.setenv("INVERTOR_WORKERS", "4")
        assert run("invert", "--in", src, "--method", method) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"method {method}  order 9"
        monkeypatch.setenv("INVERTOR_WORKERS", "x")
        assert run("invert", "--in", src, "--method", method) == 0
        assert run("verify", "--in", src, "--method", method) == 0

    @pytest.mark.parametrize("command", ["invert", "verify", "resume"])
    def test_workers_option_exit_code(self, tmp_path, capsys, command):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(8, 68), src)
        ck = tmp_path / "ck"
        argv = [command, "--in", src, "--workers", "2"]
        if command == "resume":
            run_inversion(load_matrix(src), checkpoint_dir=ck, stop_after_step=3)
            argv += ["--checkpoint-dir", ck]
        assert exit_code(*argv) == 3
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_missing_required_option_exit_code(self, capsys):
        assert exit_code("invert") == 3
        assert "--in" in capsys.readouterr().err

    def test_non_integer_workers_exit_code(self, tmp_path):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(8, 69), src)
        assert exit_code("invert", "--in", src, "--workers", "abc") == 3

    def test_explicit_sizes(self, tmp_path):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(12, 62), src)
        assert run("invert", "--in", src, "--sizes", "5,7") == 0

    @pytest.mark.parametrize("option", [
        ("--sizes", "4,4"),
        ("--checkpoint-dir", "ck"),
    ], ids=["sizes", "checkpoint-dir"])
    @pytest.mark.parametrize("method", ["a", "inplace", "ad", "oracle"])
    def test_engine_option_with_other_method_exit_code(self, tmp_path, capsys, option, method):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(8, 71), src)
        option = [tmp_path / v if v == "ck" else v for v in option]
        assert exit_code("invert", "--in", src, "--method", method, *option) == 3
        assert "parallel" in capsys.readouterr().err
        assert not (tmp_path / "ck").exists()

    @pytest.mark.parametrize("argv, usage", [
        (("invert", "--retry"), "usage: blockinv invert "),
        (("invert", "--method", "a", "--sizes", "4,4"), "usage: blockinv invert "),
        (("verify", "--method", "a", "--sizes", "4,4"), "usage: blockinv verify "),
    ], ids=["invert-retry", "invert-sizes", "verify-sizes"])
    def test_method_checks_print_subcommand_usage(self, tmp_path, capsys, argv, usage):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(8, 73), src)
        assert exit_code(argv[0], "--in", src, *argv[1:]) == 3
        assert capsys.readouterr().err.startswith(usage)

    def test_verify_sizes_with_other_method_exit_code(self, tmp_path):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(8, 72), src)
        assert exit_code("verify", "--in", src, "--method", "a", "--sizes", "4,4") == 3

    @pytest.mark.parametrize("method", ["a", "inplace", "ad", "parallel", "oracle"])
    def test_order_1(self, tmp_path, method):
        src = tmp_path / "m.txt"
        dst = tmp_path / "inv.txt"
        save_text(np.array([[4.0]]), src)
        assert run("invert", "--in", src, "--out", dst, "--method", method) == 0
        assert load_matrix(dst).tolist() == [[0.25]]


class TestVerify:
    def test_verify_method(self, tmp_path):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(9, 63), src)
        assert run("verify", "--in", src, "--method", "parallel") == 0

    def test_verify_inverse_file(self, tmp_path):
        src = tmp_path / "m.txt"
        dst = tmp_path / "inv.txt"
        m = well_conditioned(6, 64)
        save_matrix(m, src)
        assert run("invert", "--in", src, "--out", dst, "--method", "ad") == 0
        assert run("verify", "--in", src, "--inverse", dst) == 0


class TestBenchCommand:
    def test_csv_output(self, tmp_path):
        csv = tmp_path / "b.csv"
        assert run("bench", "--methods", "a,inplace", "--orders", "6,8,10,12",
                   "--csv", csv, "--fit", "6:12") == 0
        lines = csv.read_text().splitlines()
        assert lines[0].startswith("method,m,workers,seconds,residual")
        assert len(lines) == 9

    def test_orders_range_syntax(self, tmp_path):
        csv = tmp_path / "b.csv"
        assert run("bench", "--methods", "a", "--orders", "4:10:2", "--csv", csv) == 0
        assert len(csv.read_text().splitlines()) == 5

    @pytest.mark.parametrize("bad", [
        ("--orders", "abc"),
        ("--orders", "2:1:0"),
        ("--orders", "4,6", "--workers", "x"),
        ("--orders", "4,6,8,10", "--fit", "1:b"),
    ], ids=["orders-abc", "orders-step-0", "workers-x", "fit-1-b"])
    def test_bad_options_exit_code(self, bad, capsys):
        assert exit_code("bench", "--methods", "a", *bad) == 3
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exit_code(self, capsys):
        # order 8 would be generated with seed -1
        assert run("bench", "--methods", "a", "--orders", "4,8", "--seed", -9) == 3
        captured = capsys.readouterr()
        assert "seed must be an integer >= 0" in captured.err
        assert captured.out == ""



class TestCheckpointCommands:
    def test_invert_with_checkpoint_then_resume(self, tmp_path):
        src = tmp_path / "m.txt"
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        m = well_conditioned(21, 65)
        save_matrix(m, src)
        ck = tmp_path / "ck"
        assert run("invert", "--in", src, "--out", out1, "--method", "parallel",
                   "--checkpoint-dir", ck) == 0
        assert run("resume", "--in", src, "--checkpoint-dir", ck, "--out", out2) == 0
        assert load_matrix(out1).tobytes() == load_matrix(out2).tobytes()

    def test_resume_mismatch_exit_code(self, tmp_path):
        src = tmp_path / "m.txt"
        other = tmp_path / "other.txt"
        m = well_conditioned(9, 66)
        save_matrix(m, src)
        save_matrix(m + np.eye(9), other)
        ck = tmp_path / "ck"
        assert run("invert", "--in", src, "--method", "parallel",
                   "--checkpoint-dir", ck) == 0
        assert run("resume", "--in", other, "--checkpoint-dir", ck) == 4

    def test_resume_over_stale_files(self, tmp_path):
        src = tmp_path / "m.blk"
        out = tmp_path / "inv.blk"
        m = well_conditioned(16, 68)
        save_matrix(m, src, binary=True)
        ck = tmp_path / "ck"
        stopped_over_stale_files(ck, m)
        assert run("resume", "--in", src, "--checkpoint-dir", ck, "--out", out,
                   "--binary") == 0
        assert load_matrix(out).tobytes() == run_inversion(m).to_dense().tobytes()

    @pytest.mark.parametrize("key, value", BAD_META_FIELDS)
    def test_resume_mistyped_meta_exit_code(self, tmp_path, key, value, capsys):
        src = tmp_path / "m.blk"
        m = well_conditioned(9, 69)
        save_matrix(m, src, binary=True)
        ck = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=ck, stop_after_step=3)
        rewrite_meta(ck, key, value)
        assert run("resume", "--in", src, "--checkpoint-dir", ck) == 4
        assert "error:" in capsys.readouterr().err

    def test_resume_without_checkpoint_exit_code(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(9, 70), src)
        ck = tmp_path / "nosuch"
        assert run("resume", "--in", src, "--checkpoint-dir", ck) == 4
        assert f"no checkpoint in {ck}" in capsys.readouterr().err
        assert not ck.exists()
        ck.mkdir()
        assert run("resume", "--in", src, "--checkpoint-dir", ck) == 4
        assert list(ck.iterdir()) == []

    def test_file_backed(self, tmp_path):
        src = tmp_path / "m.txt"
        save_matrix(well_conditioned(9, 67), src)
        ck = tmp_path / "ck"
        assert run("invert", "--in", src, "--method", "parallel", "--checkpoint-dir", ck) == 0
        assert (ck / "minv" / "inverse.f64").stat().st_size == 9 * 9 * 8
        assert not list(ck.rglob("*.blk"))

    def test_resume_version_1_exit_code(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        m = well_conditioned(9, 71)
        save_matrix(m, src)
        ck = tmp_path / "ck"
        run_inversion(m, checkpoint_dir=ck, stop_after_step=3)
        rewrite_meta(ck, "version", 1)
        assert run("resume", "--in", src, "--checkpoint-dir", ck) == 4
        assert "checkpoint version 1 unsupported" in capsys.readouterr().err
