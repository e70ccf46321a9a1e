import contextlib
import gc
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fado
from fado.bounds import (adaptive_mistake_bound, mistake_bound_realizable,
                         riemann_zeta)
from fado.checkpoint import checkpoint_encode
from fado.cli import console, main
from fado.detector import (SCAN_CHUNK_BYTES, Detector, FixedRadius,
                           PowerDecay, _block_rows)
from fado.streamio import read_vectors, write_vectors

from conftest import HAVE_TASKS, child_env, main_in_child


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage paths
            code = exc.code
    return code, out.getvalue()


class TestBounds:
    def test_json_fields(self):
        code, out = run_cli("bounds", "--wnorm", "2.828", "--mu", "0.1",
                            "--tau", "0.25")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"zeta", "y_max", "x_max", "mistake_bound",
                            "delta_power"}
        assert doc["zeta"] == pytest.approx(riemann_zeta(1.5), abs=1e-12)
        assert doc["mistake_bound"] == mistake_bound_realizable(
            2.828, 0.1, 0.25, 1.0)

    def test_zeta_near_the_pole_is_exact(self):
        code, out = run_cli("bounds", "--wnorm", "1", "--mu", "0.1",
                            "--tau", "0.005")
        assert code == 0
        oracle = float(mpmath.zeta(mpmath.mpf(1.01)))
        assert json.loads(out)["zeta"] == pytest.approx(oracle, rel=1e-14,
                                                        abs=0)

    def test_agnostic_and_adaptive_extras(self):
        code, out = run_cli("bounds", "--wnorm", "2.0", "--mu", "0.1",
                            "--sigma", "100.0", "--epsilon", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["mistake_bound_agnostic"] >= doc["mistake_bound"]
        assert doc["sigma_admissibility_ratio"] == pytest.approx(
            100.0 / 2.0 ** 8)
        assert doc["adaptive_bound_loose"] is True

    def test_adaptive_split_scale_just_above_one(self):
        code, out = run_cli("bounds", "--wnorm", "1", "--mu", "0.1",
                            "--epsilon", "0.5000000000000001")
        assert code == 0
        report = adaptive_mistake_bound(1.0, 0.5000000000000001, 0.25, 1.0)
        assert report.first_solvable_m == 2
        assert json.loads(out)["adaptive_bound"] == report.bound

    @pytest.mark.parametrize("flags", [
        ["--wnorm", "1", "--mu", "1e-300"],
        # a finite cap too large for the search; 1e200 overflows the cap
        ["--wnorm", "1e100", "--mu", "0.1"],
        ["--wnorm", "1", "--mu", "0.1", "--epsilon", "1e80"],
    ])
    def test_diverging_search_is_a_one_line_error(self, flags, capsys):
        code, out = run_cli("bounds", *flags)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == \
            "error: mistake bound search diverged\n"

    @pytest.mark.parametrize("flags, message", [
        (["--wnorm", "1e200", "--mu", "0.1"],
         "mistake cap overflows float range at norm_w_bar = 1e+200"),
        (["--wnorm", "1", "--mu", "0.1", "--sigma", "1e308"],
         "mistake cap overflows float range at sigma_T = 1e+308"),
        # wnorm**8 underflows to zero, or the ratio is infinite
        (["--wnorm", "1e-50", "--mu", "0.1", "--sigma", "1"],
         "sigma admissibility ratio overflows float range at "
         "norm_w_bar = 1e-50"),
        (["--wnorm", "1e-40", "--mu", "0.1", "--sigma", "1"],
         "sigma admissibility ratio overflows float range at "
         "norm_w_bar = 1e-40"),
    ], ids=["wnorm", "sigma", "ratio-zero-division", "ratio-infinite"])
    def test_overflowing_cap_names_the_input(self, flags, message, capsys):
        """An infinite right-hand side is reported before any search; a
        sigma ratio out of float range is not written as JSON."""
        code, out = run_cli("bounds", *flags)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, code, message", [
        (["--gamma0", "1e160"], 1,
         "error: gain energy overflows float range at gamma0 = 1e+160"),
        (["--gamma0", "1.3e154"], 1,
         "error: gain energy overflows float range at gamma0 = 1.3e+154"),
        (["--tau", "0"], 2,
         "fado bounds: error: --tau must lie strictly between 0 and 1/2"),
    ], ids=["gamma0-squared", "gamma0-times-zeta", "tau"])
    def test_bad_gain_schedule_names_the_flag(self, flags, code, message,
                                              capsys):
        """A value the schedule rejects is a usage error under its flag; a
        valid one whose gain energy overflows is a runtime error."""
        assert run_cli("bounds", "--wnorm", "1", "--mu", "0.1",
                       *flags) == (code, "")
        err = capsys.readouterr().err
        assert err.endswith(message + "\n")
        assert err.startswith("usage: fado bounds " if code == 2 else message)

    def test_search_limit_reaches_two_to_the_400(self):
        # the split equation first solves near m = 2**315 at epsilon 1e40
        code, out = run_cli("bounds", "--wnorm", "1", "--mu", "0.1",
                            "--epsilon", "1e40")
        assert code == 0
        assert 2 ** 300 < json.loads(out)["adaptive_bound"] < 2 ** 400


class TestUsageErrors:
    def test_unknown_flag_exits_two(self):
        code, _ = run_cli("bounds", "--wnorm", "1.0", "--mu", "0.1",
                          "--frobnicate")
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        code, _ = run_cli("transmogrify")
        assert code == 2

    def test_missing_subcommand_exits_two(self):
        code, _ = run_cli()
        assert code == 2

    def test_run_fixed_requires_epsilon(self, tmp_path):
        path = tmp_path / "s.csv"
        write_vectors(np.zeros((2, 2)), path)
        code, _ = run_cli("run", "--mode", "fixed", "--input", str(path))
        assert code == 2

    def test_run_adaptive_rejects_epsilon(self, tmp_path):
        path = tmp_path / "s.csv"
        write_vectors(np.zeros((2, 2)), path)
        code, _ = run_cli("run", "--mode", "adaptive", "--epsilon", "1.0",
                          "--input", str(path))
        assert code == 2

    def test_run_resume_rejects_mode_and_epsilon(self, tmp_path):
        path, ckpt = tmp_path / "s.csv", tmp_path / "s.ckpt"
        write_vectors(np.zeros((2, 2)), path)
        assert run_cli("run", "--mode", "fixed", "--epsilon", "1",
                       "--input", str(path), "--output",
                       str(tmp_path / "o.csv"),
                       "--checkpoint-out", str(ckpt))[0] == 0
        for extra in (["--mode", "adaptive"], ["--epsilon", "7"],
                      ["--mode", "fixed", "--epsilon", "1"]):
            code, _ = run_cli("run", "--checkpoint-in", str(ckpt), *extra,
                              "--input", str(path))
            assert code == 2, extra

    def test_scene_resume_rejects_epsilon_and_gamma(self, tmp_path):
        ckpt = tmp_path / "s.ckpt"
        scene = ["scene", "--synthetic", "--clips", "2",
                 "--frames-per-clip", "2", "--width", "4", "--height", "4"]
        assert run_cli(*scene, "--epsilon", "5",
                       "--checkpoint-out", str(ckpt))[0] == 0
        assert run_cli(*scene, "--checkpoint-in", str(ckpt))[0] == 0
        for extra in (["--epsilon", "999"], ["--gamma", "2"],
                      ["--epsilon", "100"]):
            code, _ = run_cli(*scene, "--checkpoint-in", str(ckpt), *extra)
            assert code == 2, extra

    @pytest.mark.parametrize("argv, error", [
        (["run", "--mode", "fixed", "--epsilon", "1", "--gamma", "2",
          "--input", "s.csv"], "--gamma not used by mode fixed"),
        (["run", "--input", "s.csv"],
         "--mode is required unless --checkpoint-in is given"),
        (["sweep", "margin", "--seeds", "0"], "--seeds must be at least 1"),
        (["scene", "--synthetic", "--packed", "p.pack"],
         "give exactly one of: PGM frames, --packed, --synthetic"),
        (["gen", "--design", "mixture", "--dim", "2", "--count", "10",
          "--center", "2", "--epsilon", "1", "--mu", "0.1", "--seed", "1",
          "--out", "s.bin"], "--radius-max is required for the mixture "
                             "design"),
        (["bounds", "--wnorm", "1", "--mu", "0.1", "--m-t", "0"],
         "--m-t must be at least 1"),
    ], ids=["run", "run-no-mode", "sweep", "scene", "gen", "bounds"])
    def test_handler_error_shows_the_command_usage(self, argv, error,
                                                   capsys):
        """A usage error found by a command's handler prints that
        command's usage, not the top-level one."""
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"usage: fado {argv[0]} ")
        assert err[-1] == f"fado {argv[0]}: error: {error}"

    def test_help_exits_zero(self):
        code, out = run_cli("--help")
        assert code == 0
        for sub in ("run", "sweep", "scene", "bounds", "gen"):
            assert sub in out


_RUN = ["run", "--mode", "fixed", "--epsilon", "1", "--input", "s.bin"]
_GEN = ["gen", "--design", "mixture", "--dim", "2", "--count", "10",
        "--center", "2", "--epsilon", "1", "--fraction", "0.2",
        "--radius-max", "5", "--seed", "1"]


class TestFileArguments:
    """An output may name no other output and no input, under its own name
    or another spelling or a link; only --checkpoint-out may name
    --checkpoint-in.  A refusal exits 2 before any file is opened."""

    @pytest.fixture
    def files(self, tmp_path):
        """A stream, a pack of 4 x 4 frames, two PGM frames and a
        checkpoint for each, by name; each path is given relative to
        ``tmp_path``, the working directory."""
        from fado.detector import Constant
        from fado.scene import FrameSequence, write_frames_packed, write_pgm
        write_vectors(np.random.default_rng(3).normal(size=(50, 2)),
                      tmp_path / "s.bin")
        frames = np.arange(48, dtype=np.uint8).reshape(3, 4, 4)
        write_frames_packed(FrameSequence(4, 4, frames), tmp_path / "p.pack")
        for i in range(2):
            write_pgm(frames[i], tmp_path / f"f{i}.pgm")
        (tmp_path / "s.ckpt").write_bytes(checkpoint_encode(
            Detector(2, FixedRadius(1.0), PowerDecay())))
        (tmp_path / "p.ckpt").write_bytes(checkpoint_encode(
            Detector(16, FixedRadius(100.0), Constant())))
        (tmp_path / "link.pack").symlink_to(tmp_path / "p.pack")
        return tmp_path

    @pytest.mark.parametrize("argv, error", [
        (["run", "--checkpoint-in", "s.ckpt", "--input", "s.bin",
          "--output", "s.ckpt"], "--output names the --checkpoint-in file"),
        ([*_RUN, "--checkpoint-out", "s.bin"],
         "--checkpoint-out names the --input file"),
        ([*_RUN, "--output", "o.csv", "--checkpoint-out", "./o.csv"],
         "--checkpoint-out names the --output file"),
        (["scene", "--packed", "p.pack", "--timeline", "p.pack"],
         "--timeline names the --packed file"),
        (["scene", "--packed", "p.pack", "--snapshot", "link.pack"],
         "--snapshot names the --packed file"),
        (["scene", "--packed", "p.pack", "--checkpoint-out", "p.pack"],
         "--checkpoint-out names the --packed file"),
        (["scene", "f0.pgm", "f1.pgm", "--timeline", "f1.pgm"],
         "--timeline names the PGM frame file"),
        (["scene", "--packed", "p.pack", "--checkpoint-in", "p.ckpt",
          "--timeline", "p.ckpt"],
         "--timeline names the --checkpoint-in file"),
        (["scene", "--synthetic", "--timeline", "t.csv", "--snapshot",
          "t.csv"], "--snapshot names the --timeline file"),
        (["scene", "--synthetic", "--snapshot", "m.pgm", "--checkpoint-out",
          "m.pgm"], "--checkpoint-out names the --snapshot file"),
        ([*_GEN, "--out", "g.csv", "--labels-out", "g.csv"],
         "--labels-out names the --out file"),
    ], ids=["run-output-checkpoint-in", "run-checkpoint-out-input",
            "run-checkpoint-out-output", "scene-timeline-packed",
            "scene-snapshot-packed-link", "scene-checkpoint-out-packed",
            "scene-timeline-frame", "scene-timeline-checkpoint-in",
            "scene-snapshot-timeline", "scene-checkpoint-out-snapshot",
            "gen-labels-out-out"])
    def test_colliding_files_exit_two(self, files, monkeypatch, capsys, argv,
                                      error):
        monkeypatch.chdir(files)
        before = {p.name: p.read_bytes() for p in files.iterdir()}
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"fado {argv[0]}: error: {error}"
        assert {p.name: p.read_bytes() for p in files.iterdir()} == before

    @pytest.mark.parametrize("argv, ckpt", [
        (["run", "--input", "s.bin"], "s.ckpt"),
        (["scene", "--packed", "p.pack"], "p.ckpt")], ids=["run", "scene"])
    def test_checkpoint_out_may_name_checkpoint_in(self, files, monkeypatch,
                                                   argv, ckpt):
        """The checkpoint is read whole before anything is written, so a
        resumed run may replace it."""
        monkeypatch.chdir(files)
        before = (files / ckpt).read_bytes()
        assert run_cli(*argv, "--checkpoint-in", ckpt,
                       "--checkpoint-out", ckpt)[0] == 0
        assert (files / ckpt).read_bytes() != before


# a mixture stream of 10 rows
_MIXTURE = [*_GEN, "--mu", "0.1"]


def _listing(directory):
    """The names and bytes of the files in ``directory``."""
    return {p.name: p.read_bytes() for p in directory.iterdir()
            if p.is_file()}


# Runs fado.cli.main on sys.argv[3:] with the signal named sys.argv[1] set
# to the disposition named sys.argv[2] (SIG_DFL or SIG_IGN), as a shell or
# ``nohup`` may start fado, whatever the disposition this process has.
_WITH_SIGNAL = """
import signal, sys
signal.signal(getattr(signal, sys.argv[1]), getattr(signal, sys.argv[2]))
from fado.cli import main
sys.exit(main(sys.argv[3:]))
"""


class TestAllOrNothing:
    """``run``, ``scene`` and ``gen`` write each output that is a regular
    file, or new, to a hidden temporary beside it, moved onto it only when
    the command succeeds: a failed command leaves no new file and changes
    no existing one.  A device output is written in place."""

    @pytest.fixture(scope="class")
    def late_fault(self, tmp_path_factory):
        """300,000 rows of zeros whose step 250001 is ``1e200,1e200``."""
        rows = np.zeros((300_000, 2))
        rows[250_000] = 1e200
        path = tmp_path_factory.mktemp("late") / "s.bin"
        write_vectors(rows, path)
        return path

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new", "existing"])
    def test_a_run_failing_late_writes_nothing(self, late_fault, tmp_path,
                                               existing):
        if existing:
            (tmp_path / "o.csv").write_bytes(b"t,alarm\n1,False\n")
            (tmp_path / "c.ckpt").write_bytes(b"an older checkpoint")
        before = _listing(tmp_path)
        probe = main_in_child(
            ["run", "--mode", "fixed", "--epsilon", "1", "--input",
             late_fault, "--output", tmp_path / "o.csv", "--checkpoint-out",
             tmp_path / "c.ckpt"])
        assert (probe["code"], probe["stderr"]) == (
            1, "error: distance to the center overflows float range by "
               "step 250001\n")
        assert _listing(tmp_path) == before

    @pytest.mark.parametrize("existing", [False, True],
                             ids=["new", "existing"])
    @pytest.mark.parametrize("argv, written", [
        (["scene", "--synthetic", "--timeline", "t.csv", "--snapshot",
          "nodir/s.pgm"], "t.csv"),
        ([*_MIXTURE, "--out", "g.bin", "--labels-out", "nodir/l.csv"],
         "g.bin"),
    ], ids=["scene", "gen"])
    def test_an_unwritable_second_output_writes_nothing(
            self, tmp_path, monkeypatch, capsys, argv, written, existing):
        monkeypatch.chdir(tmp_path)
        if existing:
            (tmp_path / written).write_bytes(b"older bytes\n")
        before = _listing(tmp_path)
        assert run_cli(*argv) == (1, "")
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: "
            f"'{argv[-1]}'\n")
        assert _listing(tmp_path) == before

    @staticmethod
    @contextlib.contextmanager
    def _run_until_staged(tmp_path, signame, disposition):
        """Start ``fado run`` over 200,000 rows that all alarm (a slow
        run), with ``signame`` set to ``disposition`` as it starts; yield
        the process once its staged output has bytes."""
        import time
        stream = tmp_path / "s.bin"
        write_vectors(np.random.default_rng(9).normal(size=(200_000, 10)),
                      stream)
        with subprocess.Popen(
                [sys.executable, "-c", _WITH_SIGNAL, signame, disposition,
                 "run", "--mode", "fixed", "--epsilon", "1", "--input",
                 str(stream), "--output", str(tmp_path / "o.csv")],
                stderr=subprocess.PIPE,
                env=child_env(OPENBLAS_NUM_THREADS=None)) as proc:
            deadline = time.monotonic() + 30
            while not any(p.stat().st_size
                          for p in tmp_path.glob(".o.csv.*")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            yield proc

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
    @pytest.mark.parametrize("signame", ["SIGTERM", "SIGHUP", "SIGINT"])
    def test_a_terminated_run_writes_nothing(self, tmp_path, signame):
        """A stop signal once the output is being written: exit
        128 + signum, nothing on stderr, no temporary left, and no process
        (the scan-ahead child reaped)."""
        import signal
        signum = getattr(signal, signame)
        with self._run_until_staged(tmp_path, signame, "SIG_DFL") as proc:
            proc.send_signal(signum)
            assert (proc.wait(timeout=60), proc.stderr.read()) == (
                128 + signum, b"")
        assert [p.name for p in tmp_path.iterdir()] == ["s.bin"]
        assert subprocess.run(["pgrep", "-f", str(tmp_path)]).returncode == 1

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
    def test_an_ignored_hangup_does_not_stop_a_run(self, tmp_path):
        """Started with SIGHUP ignored (as under ``nohup``), a run that is
        sent one finishes and writes the bytes of an unsignalled run."""
        import signal
        with self._run_until_staged(tmp_path, "SIGHUP", "SIG_IGN") as proc:
            proc.send_signal(signal.SIGHUP)
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read().startswith(
                b"processed 200000 transactions, ")
        assert run_cli("run", "--mode", "fixed", "--epsilon", "1", "--input",
                       str(tmp_path / "s.bin"), "--output",
                       str(tmp_path / "quiet.csv")) == (0, "")
        assert (tmp_path / "o.csv").read_bytes() == \
            (tmp_path / "quiet.csv").read_bytes()

    def test_the_sigterm_handler_is_put_back(self, capsys):
        """``main`` restores the caller's handler of each stop signal, and
        runs off the main thread, where it sets none."""
        import signal
        import threading
        stops = [getattr(signal, name) for name in
                 ("SIGTERM", "SIGHUP", "SIGINT") if hasattr(signal, name)]
        before = [signal.getsignal(signum) for signum in stops]
        argv = ["bounds", "--wnorm", "1", "--mu", "0.1"]
        assert main(argv) == 0
        assert [signal.getsignal(signum) for signum in stops] == before
        codes = []
        worker = threading.Thread(target=lambda: codes.append(main(argv)))
        worker.start()
        worker.join()
        assert codes == [0]

    def test_scene_stages_its_outputs_before_making_frames(
            self, tmp_path, monkeypatch, capsys):
        """An output in a missing directory fails before any synthetic
        frame is made."""
        import fado.scene

        def gen_synthetic_clips(*args):
            raise AssertionError("frames made before the outputs were staged")

        monkeypatch.setattr(fado.scene, "gen_synthetic_clips",
                            gen_synthetic_clips)
        timeline = tmp_path / "nodir" / "t.csv"
        assert run_cli("scene", "--synthetic", "--timeline",
                       str(timeline)) == (1, "")
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{timeline}'\n")

    def test_an_output_through_a_link_updates_its_file(self, tmp_path):
        """The link stays a link, its file gets the new bytes and keeps its
        permission bits, and no temporary is left in either directory."""
        (tmp_path / "real").mkdir()
        real = tmp_path / "real" / "g.csv"
        real.write_text("older bytes\n")
        real.chmod(0o640)
        link = tmp_path / "g.csv"
        link.symlink_to(real)
        assert run_cli(*_MIXTURE, "--out", str(link))[0] == 0
        assert link.is_symlink() and (real.stat().st_mode & 0o777) == 0o640
        assert real.read_text().count("\n") == 10
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "g.csv", "g.csv", "real"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"),
                        reason="needs /dev/null")
    def test_a_device_output_is_written_in_place(self, tmp_path):
        assert run_cli(*_MIXTURE, "--out", str(tmp_path / "g.bin"),
                       "--labels-out", "/dev/null")[0] == 0
        assert Path("/dev/null").is_char_device()
        assert [p.name for p in tmp_path.iterdir()] == ["g.bin"]

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="needs a user that file modes restrict")
    def test_a_read_only_output_is_refused_as_before(self, tmp_path,
                                                     capsys):
        out = tmp_path / "g.bin"
        out.write_bytes(b"kept")
        out.chmod(0o444)
        assert run_cli(*_MIXTURE, "--out", str(out)) == (1, "")
        assert capsys.readouterr().err == (
            f"error: [Errno 13] Permission denied: '{out}'\n")
        assert out.read_bytes() == b"kept"


class TestRun:
    def test_quiet_stream_outcomes(self, tmp_path):
        stream = tmp_path / "s.csv"
        write_vectors(np.zeros((4, 3)), stream)
        out_csv = tmp_path / "out.csv"
        code, _ = run_cli("run", "--mode", "fixed", "--epsilon", "1",
                          "--input", str(stream), "--output", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "t,alarm,distance,threshold,gain_applied"
        assert len(lines) == 5
        assert all(ln.split(",")[1] == "0" for ln in lines[1:])

    @pytest.mark.parametrize("input_name, output_name", [
        ("s.bin", "s.bin"), ("s.csv", "s.csv"), ("s.bin", "link.bin")],
        ids=["bin", "csv", "symlink"])
    def test_output_naming_the_input_exits_two(self, tmp_path, capsys,
                                               input_name, output_name):
        """Opening the output truncates it: the input is refused as the
        output, under its own name or a link, before either is opened."""
        stream = tmp_path / input_name
        write_vectors(np.random.default_rng(1).normal(size=(40_000, 10)),
                      stream)
        before = stream.read_bytes()
        output = tmp_path / output_name
        if output != stream:
            output.symlink_to(stream)
        code, out = run_cli("run", "--mode", "fixed", "--epsilon", "1",
                            "--input", str(stream), "--output", str(output))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err.splitlines()[-1] == \
            "fado run: error: --output names the --input file"
        assert stream.read_bytes() == before

    def test_missing_input_exits_one(self, tmp_path):
        code, _ = run_cli("run", "--mode", "fixed", "--epsilon", "1",
                          "--input", str(tmp_path / "absent.bin"))
        assert code == 1

    def test_stream_of_zero_width_rows_exits_one(self, tmp_path, capsys):
        """A header with n = 0 is refused before any row is read."""
        stream = tmp_path / "s.bin"
        stream.write_bytes(b"FADOVECS" + struct.pack("<IQQ", 1, 0, 1))
        code, _ = run_cli("run", "--mode", "fixed", "--epsilon", "1",
                          "--input", str(stream))
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {stream}: degenerate row shape (0,)\n"

    def test_stream_cut_after_its_header_check_exits_one(
            self, tmp_path, capsys, monkeypatch):
        """A stream that shrinks while it is read: the header matched the
        file's size, so the short read of a later block is the fault."""
        import fado.streamio as streamio
        stream = tmp_path / "s.bin"
        write_vectors(np.zeros((SCAN_CHUNK_BYTES // 16 + 1, 2)), stream)
        write_rows = streamio.write_outcome_rows

        def cut_input(*args):
            write_rows(*args)
            with open(stream, "r+b") as fh:
                fh.truncate(SCAN_CHUNK_BYTES)

        monkeypatch.setattr(streamio, "write_outcome_rows", cut_input)
        code, _ = run_cli("run", "--mode", "fixed", "--epsilon", "1",
                          "--input", str(stream), "--output",
                          str(tmp_path / "o.csv"))
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {stream}: truncated payload\n"

    def test_checkpoint_roundtrip_continues_counts(self, tmp_path):
        rng = np.random.default_rng(2)
        first, second = rng.normal(size=(30, 2)) * 4, rng.normal(size=(30, 2)) * 4
        f1, f2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_vectors(first, f1)
        write_vectors(second, f2)
        ckpt = tmp_path / "state.ckpt"
        out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
        assert run_cli("run", "--mode", "fixed", "--epsilon", "1",
                       "--input", str(f1), "--output", str(out1),
                       "--checkpoint-out", str(ckpt))[0] == 0
        assert run_cli("run", "--checkpoint-in", str(ckpt),
                       "--input", str(f2), "--output", str(out2))[0] == 0
        # resumed output continues the step index
        first_t = int(out2.read_text().splitlines()[1].split(",")[0])
        assert first_t == 31

    def test_split_resume_is_bit_exact(self, tmp_path):
        """Two resumed halves write the uninterrupted run's outcome rows
        and end in its checkpoint bytes, in all three modes."""
        stream = tmp_path / "s.bin"
        assert run_cli("gen", "--design", "mixture", "--dim", "10",
                       "--count", "4000", "--center", "2,2,0,0,0,0,0,0,0,0",
                       "--epsilon", "1", "--mu", "0.1", "--fraction", "0.05",
                       "--radius-max", "5", "--seed", "1",
                       "--out", str(stream))[0] == 0
        rows = read_vectors(stream)
        halves = tmp_path / "a.bin", tmp_path / "b.bin"
        write_vectors(rows[:2000], halves[0])
        write_vectors(rows[2000:], halves[1])
        for mode in (["--mode", "fixed", "--epsilon", "1"],
                     ["--mode", "adaptive"],
                     ["--mode", "constant-gain", "--epsilon", "1",
                      "--gamma", "0.5"]):
            full, ckpt = tmp_path / "full.csv", tmp_path / "full.ckpt"
            assert run_cli("run", *mode, "--input", str(stream),
                           "--output", str(full),
                           "--checkpoint-out", str(ckpt))[0] == 0
            parts = []
            start = mode
            for k, half in enumerate(halves):
                out, ckpt_k = tmp_path / f"{k}.csv", tmp_path / f"{k}.ckpt"
                assert run_cli("run", *start, "--input", str(half),
                               "--output", str(out),
                               "--checkpoint-out", str(ckpt_k))[0] == 0
                parts += out.read_text().splitlines()[1:]
                start = ["--checkpoint-in", str(ckpt_k)]
            assert parts == full.read_text().splitlines()[1:], mode
            assert ckpt_k.read_bytes() == ckpt.read_bytes(), mode

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_bad_row_in_a_later_block_is_named_globally(self, tmp_path,
                                                         capsys, suffix):
        """A non-finite last row of a stream read in several blocks is
        named by its index in the whole stream; no checkpoint is written."""
        rows = np.random.default_rng(4).integers(-3, 4, size=(40_000, 10))
        rows = rows.astype(np.float64)
        assert rows.nbytes > 2 * SCAN_CHUNK_BYTES  # several blocks
        rows[-1, 3] = np.nan
        stream, ckpt = tmp_path / f"s{suffix}", tmp_path / "out.ckpt"
        write_vectors(rows, stream)
        code, _ = run_cli("run", "--mode", "fixed", "--epsilon", "1",
                          "--input", str(stream),
                          "--output", str(tmp_path / "out.csv"),
                          "--checkpoint-out", str(ckpt))
        assert code == 1
        assert capsys.readouterr().err == ("error: stream item 39999: "
                                           "transaction contains non-finite "
                                           "entries\n")
        assert not ckpt.exists()

    def test_blocks_give_the_whole_stream_scan(self, tmp_path):
        """A stream read in several blocks writes the rows and checkpoint
        of one scan over all of it."""
        rows = np.random.default_rng(6).normal(size=(40_000, 10)) * 2.0
        assert rows.nbytes > 2 * SCAN_CHUNK_BYTES
        stream = tmp_path / "s.bin"
        write_vectors(rows, stream)
        out, ckpt = tmp_path / "out.csv", tmp_path / "out.ckpt"
        assert run_cli("run", "--mode", "fixed", "--epsilon", "3",
                       "--input", str(stream), "--output", str(out),
                       "--checkpoint-out", str(ckpt))[0] == 0
        det = Detector(10, FixedRadius(3.0), PowerDecay())
        whole = det.scan(rows)
        lines = out.read_text().splitlines()[1:]
        assert [ln.split(",")[0] for ln in lines] == \
            [str(t) for t in range(1, 40_001)]
        assert [float(ln.split(",")[2]) for ln in lines] == \
            whole.distance.tolist()
        assert ckpt.read_bytes() == checkpoint_encode(det)

    @pytest.mark.parametrize("batches", [1, 2])
    def test_a_csv_stream_ending_on_a_batch_boundary_reads_whole(
            self, tmp_path, capsys, batches):
        """A CSV stream whose last batch of lines is full is run to its
        last row: at 10 values a row a batch holds 1,638 lines."""
        count = batches * _block_rows(8 * 10)
        assert count == batches * 1638
        rows = np.random.default_rng(8).normal(size=(count, 10)) * 2.0
        stream, out = tmp_path / "s.csv", tmp_path / "out.csv"
        write_vectors(rows, stream)
        assert run_cli("run", "--mode", "fixed", "--epsilon", "3",
                       "--input", str(stream), "--output", str(out))[0] == 0
        lines = out.read_text().splitlines()[1:]
        assert [ln.split(",")[0] for ln in lines] == \
            [str(t) for t in range(1, count + 1)]
        det = Detector(10, FixedRadius(3.0), PowerDecay())
        assert [float(ln.split(",")[2]) for ln in lines] == \
            det.scan(rows).distance.tolist()
        assert capsys.readouterr().err.startswith(
            f"processed {count} transactions, ")

    def test_adaptive_mode_outcomes(self, tmp_path):
        stream = tmp_path / "s.csv"
        write_vectors(np.array([[3.0, 0.0], [3.0, 0.0]]), stream)
        out_csv = tmp_path / "o.csv"
        code, _ = run_cli("run", "--mode", "adaptive", "--gamma0", "0.5",
                          "--input", str(stream), "--output", str(out_csv))
        assert code == 0
        rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
        # first step: radius 2, distance 3 -> alarm with the pre-step gain
        assert rows[0][1] == "1" and float(rows[0][3]) == 2.0
        assert float(rows[0][4]) == 0.5

    def test_constant_gain_mode(self, tmp_path):
        stream = tmp_path / "s.csv"
        write_vectors(np.array([[5.0, 0.0], [5.0, 0.0]]), stream)
        out_csv = tmp_path / "o.csv"
        code, _ = run_cli("run", "--mode", "constant-gain", "--epsilon", "2",
                          "--gamma", "1.0", "--input", str(stream),
                          "--output", str(out_csv))
        assert code == 0
        rows = [ln.split(",") for ln in
                out_csv.read_text().splitlines()[1:]]
        assert rows[0][1] == "1" and rows[0][4] == "1.0"


class TestGen:
    @pytest.mark.parametrize("count, center, epsilon, seed", [
        (200_000, 1e8, 1e-3, 2), (1000, 1e15, 1.0, 3)])
    def test_far_center_ends_inside_the_ball(self, tmp_path, count, center,
                                             epsilon, seed):
        """Where the center's ulp dwarfs the radius times 2**-50, a row
        drawn an ulp outside is still brought inside, and gen returns."""
        out = tmp_path / "far.bin"
        code, _ = run_cli("gen", "--dim", "2", "--count", str(count),
                          "--center", repr(center), "--epsilon",
                          repr(epsilon), "--seed", str(seed),
                          "--out", str(out))
        assert code == 0
        samples = read_vectors(out)
        assert samples.shape == (count, 2)
        assert (np.linalg.norm(samples - center, axis=1) <= epsilon).all()

    def test_gen_then_run_pipeline(self, tmp_path):
        stream = tmp_path / "ball.bin"
        code, _ = run_cli("gen", "--design", "ball", "--dim", "2",
                          "--count", "500", "--center", "2,2",
                          "--epsilon", "1", "--mu", "0.1",
                          "--seed", "42", "--out", str(stream))
        assert code == 0
        samples = read_vectors(stream)
        assert samples.shape == (500, 2)
        assert (np.linalg.norm(samples - [2, 2], axis=1) <= 0.9).all()
        code, _ = run_cli("run", "--mode", "fixed", "--epsilon", "1",
                          "--input", str(stream),
                          "--output", str(tmp_path / "o.csv"))
        assert code == 0

    def test_gen_csv_matches_binary(self, tmp_path):
        args = ["gen", "--design", "ball", "--dim", "3", "--count", "50",
                "--center", "1.5", "--epsilon", "1", "--mu", "0.1",
                "--seed", "7"]
        assert run_cli(*args, "--out", str(tmp_path / "s.bin"))[0] == 0
        assert run_cli(*args, "--out", str(tmp_path / "s.csv"))[0] == 0
        a = read_vectors(tmp_path / "s.bin")
        b = read_vectors(tmp_path / "s.csv")
        assert a.tobytes() == b.tobytes()

    def test_mixture_labels(self, tmp_path):
        code, _ = run_cli("gen", "--design", "mixture", "--dim", "2",
                          "--count", "200", "--center", "2,2",
                          "--epsilon", "1", "--mu", "0.1",
                          "--fraction", "0.3", "--radius-max", "5",
                          "--seed", "3", "--out", str(tmp_path / "m.bin"),
                          "--labels-out", str(tmp_path / "labels.csv"))
        assert code == 0
        labels = (tmp_path / "labels.csv").read_text().splitlines()
        assert labels[0] == "index,is_outlier"
        assert len(labels) == 201

    def test_mixture_requires_radius(self, tmp_path):
        code, _ = run_cli("gen", "--design", "mixture", "--dim", "2",
                          "--count", "10", "--center", "2,2",
                          "--epsilon", "1", "--mu", "0.1",
                          "--fraction", "0.3", "--seed", "3",
                          "--out", str(tmp_path / "m.bin"))
        assert code == 2

    @pytest.mark.parametrize("design,extra", [
        ("ball", ["--labels-out", "labels.csv"]),
        ("ball", ["--fraction", "0.3"]),
        ("ball", ["--radius-max", "5"]),
        ("circle", ["--labels-out", "labels.csv"]),
    ])
    def test_mixture_flags_rejected_for_other_designs(self, tmp_path, capsys,
                                                      design, extra):
        out = tmp_path / "s.bin"
        code, _ = run_cli("gen", "--design", design, "--dim", "2",
                          "--count", "10", "--center", "2,2",
                          "--epsilon", "1", "--mu", "0.1", "--seed", "3",
                          "--out", str(out), *extra)
        assert code == 2
        assert extra[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_zero_count_exits_two(self, tmp_path, capsys, suffix):
        """``fado run`` refuses an empty stream, so gen must not write one."""
        out = tmp_path / f"s{suffix}"
        code, _ = run_cli("gen", "--dim", "3", "--count", "0", "--center",
                          "1", "--epsilon", "1", "--seed", "1",
                          "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: fado gen ")
        assert err[-1] == "fado gen: error: --count must be at least 1"
        assert not out.exists()

    @pytest.mark.parametrize("extra, error", [
        (["--design", "mixture", "--fraction", "2", "--radius-max", "5"],
         "--fraction must lie in [0, 1)"),
        (["--design", "mixture", "--radius-max", "0.5", "--mu", "0.1"],
         "--radius-max must exceed epsilon"),
        (["--mu", "2", "--epsilon", "1"],
         "--mu must be smaller than epsilon (empty ball otherwise)"),
        (["--design", "mixture", "--mu", "0", "--radius-max", "5"],
         "--mu must be positive in the mixture design (a zero margin makes "
         "labels ambiguous)"),
        (["--design", "circle", "--dim", "3"],
         "--dim must be 2 in the circle design (dim = 2)"),
        (["--center", "nan"], "--center contains non-finite entries"),
        (["--mu", "-0.1"], "--mu must be a nonnegative finite number"),
        (["--design", "mixture", "--radius-max", "inf", "--mu", "0.1"],
         "--radius-max must be a positive finite number"),
        (["--design", "mixture", "--radius-max", "nan", "--mu", "0.1"],
         "--radius-max must be a positive finite number"),
    ], ids=["fraction", "radius-max", "mu", "mixture-mu", "circle-dim",
            "center", "negative-mu", "infinite-radius-max",
            "nan-radius-max"])
    def test_value_the_spec_rejects_names_its_flag(self, tmp_path, capsys,
                                                   extra, error):
        """A value that GroundTruth or StreamSpec rejects is a usage error
        under its flag, not a runtime error naming a dataclass field."""
        out = tmp_path / "s.bin"
        argv = {"--dim": "2", "--count": "10", "--center": "2",
                "--epsilon": "1", "--seed": "1", "--out": str(out)}
        argv.update(zip(extra[::2], extra[1::2]))
        code, _ = run_cli("gen", *[x for kv in argv.items() for x in kv])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: fado gen ")
        assert err[-1] == f"fado gen: error: {error}"
        assert not out.exists()

    def test_center_that_is_not_a_number_names_the_flag(self, tmp_path,
                                                        capsys):
        code, _ = run_cli("gen", "--dim", "2", "--count", "10", "--center",
                          "abc", "--epsilon", "1", "--seed", "1",
                          "--out", str(tmp_path / "s.bin"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --center: could not convert string to float: 'abc'\n")

    def test_center_length_mismatch_exits_one(self, tmp_path):
        code, _ = run_cli("gen", "--design", "ball", "--dim", "3",
                          "--count", "10", "--center", "1,2",
                          "--epsilon", "1", "--mu", "0.1", "--seed", "1",
                          "--out", str(tmp_path / "s.bin"))
        assert code == 1


class TestScene:
    def test_synthetic_pipeline(self, tmp_path):
        timeline = tmp_path / "timeline.csv"
        snapshot = tmp_path / "memory.pgm"
        ckpt = tmp_path / "scene.ckpt"
        code, _ = run_cli("scene", "--synthetic", "--clips", "4",
                          "--frames-per-clip", "10", "--width", "16",
                          "--height", "16", "--noise", "5",
                          "--epsilon", "3", "--seed", "11",
                          "--timeline", str(timeline),
                          "--snapshot", str(snapshot),
                          "--checkpoint-out", str(ckpt))
        assert code == 0
        assert timeline.read_text().startswith("frame,alarm,")
        assert snapshot.read_bytes().startswith(b"P5")
        from fado.checkpoint import checkpoint_decode
        state = checkpoint_decode(ckpt.read_bytes())
        assert state.t == 40

    def test_checkpoint_dimension_must_match_frames(self, tmp_path, capsys):
        ckpt, out_ckpt = tmp_path / "c16.ckpt", tmp_path / "out.ckpt"
        timeline = tmp_path / "t.csv"
        small = ["scene", "--synthetic", "--clips", "1",
                 "--frames-per-clip", "2", "--height", "4"]
        assert run_cli(*small, "--width", "4",
                       "--checkpoint-out", str(ckpt))[0] == 0
        capsys.readouterr()
        code, _ = run_cli(*small, "--width", "5", "--checkpoint-in", str(ckpt),
                          "--timeline", str(timeline),
                          "--checkpoint-out", str(out_ckpt))
        assert code == 1
        assert capsys.readouterr().err == \
            "error: checkpoint dimension 16 does not match frames (20)\n"
        assert not timeline.exists() and not out_ckpt.exists()

    def test_pgm_input(self, tmp_path):
        from fado.scene import write_pgm
        paths = []
        for i in range(3):
            p = tmp_path / f"{i}.pgm"
            write_pgm(np.full((4, 4), 60 * i, dtype=np.uint8), p)
            paths.append(str(p))
        code, _ = run_cli("scene", *paths, "--epsilon", "0.5",
                          "--timeline", str(tmp_path / "t.csv"))
        assert code == 0

    def test_late_pgm_of_another_size_exits_one(self, tmp_path, capsys):
        """PGM frames are decoded as they are judged: a bad last file is
        still a one-line error, and no output is written."""
        from fado.scene import write_pgm
        paths = []
        for i in range(30):
            p = tmp_path / f"{i:02d}.pgm"
            write_pgm(np.full((4, 3 if i == 29 else 4), i, np.uint8), p)
            paths.append(str(p))
        timeline = tmp_path / "t.csv"
        code, _ = run_cli("scene", *paths, "--epsilon", "0.5",
                          "--timeline", str(timeline))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: frame 29: size 3x4 does not match first frame 4x4\n")
        assert not timeline.exists()

    def test_resume_keeps_global_frame_index(self, tmp_path):
        """A 20-frame pack split 10 + 10 gives the uninterrupted timeline
        rows and checkpoint bytes."""
        from fado.scene import (
            FrameSequence,
            gen_synthetic_clips,
            write_frames_packed,
        )
        frames, _ = gen_synthetic_clips(8, 8, 4, 5, 5, seed=5)
        packs = {}
        for name, part in (("full", frames.frames), ("a", frames.frames[:10]),
                           ("b", frames.frames[10:])):
            packs[name] = tmp_path / f"{name}.pack"
            write_frames_packed(FrameSequence(8, 8, part), packs[name])

        def scene(name, *extra):
            timeline = tmp_path / f"{name}.csv"
            ckpt = tmp_path / f"{name}.ckpt"
            assert run_cli("scene", "--packed", str(packs[name]), *extra,
                           "--timeline", str(timeline),
                           "--checkpoint-out", str(ckpt))[0] == 0
            rows = [ln for ln in timeline.read_text().splitlines()[1:]
                    if not ln.startswith("#")]
            return rows, ckpt.read_bytes()

        full_rows, full_ckpt = scene("full", "--epsilon", "2")
        a_rows, _ = scene("a", "--epsilon", "2")
        b_rows, b_ckpt = scene("b", "--checkpoint-in",
                               str(tmp_path / "a.ckpt"))
        assert b_rows[0].startswith("10,")
        assert a_rows + b_rows == full_rows
        assert b_ckpt == full_ckpt

    def test_resumed_synthetic_transitions_use_global_index(self, tmp_path):
        scene = ["scene", "--synthetic", "--clips", "2",
                 "--frames-per-clip", "5", "--width", "8", "--height", "8",
                 "--noise", "2", "--seed", "3"]
        ckpt, timeline = tmp_path / "s.ckpt", tmp_path / "t.csv"
        assert run_cli(*scene, "--epsilon", "2",
                       "--checkpoint-out", str(ckpt))[0] == 0
        assert run_cli(*scene, "--checkpoint-in", str(ckpt),
                       "--timeline", str(timeline))[0] == 0
        lines = timeline.read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        assert [int(r[0]) for r in rows] == list(range(10, 20))
        assert [int(r[0]) for r in rows if r[4] == "1"] == [15]
        assert any(ln.startswith("# transition_latency,15,")
                   for ln in lines)

    @pytest.mark.parametrize("flag", ["--width", "--height", "--clips",
                                      "--frames-per-clip", "--noise",
                                      "--seed"])
    def test_synthetic_flags_rejected_for_packed_frames(self, tmp_path,
                                                        capsys, flag):
        from fado.scene import gen_synthetic_clips, write_frames_packed
        frames, _ = gen_synthetic_clips(4, 4, 1, 3, 2, seed=1)
        pack = tmp_path / "p.pack"
        write_frames_packed(frames, pack)
        timeline = tmp_path / "t.csv"
        code, _ = run_cli("scene", "--packed", str(pack), flag, "5",
                          "--timeline", str(timeline))
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("fado scene: error: ") and flag in err[-1]
        assert not timeline.exists()

    def test_synthetic_flags_rejected_for_pgm_frames(self, tmp_path):
        from fado.scene import write_pgm
        path = tmp_path / "0.pgm"
        write_pgm(np.zeros((4, 4), dtype=np.uint8), path)
        assert run_cli("scene", str(path), "--seed", "3")[0] == 2
        assert run_cli("scene", str(path), "--epsilon", "1")[0] == 0

    def test_requires_exactly_one_source(self):
        code, _ = run_cli("scene")
        assert code == 2

    def test_defaults_are_case_study_values(self, tmp_path):
        """A fresh detector judges against radius 100 with unit gain."""
        from fado.checkpoint import checkpoint_decode
        timeline, ckpt = tmp_path / "t.csv", tmp_path / "s.ckpt"
        assert run_cli("scene", "--synthetic", "--clips", "2",
                       "--frames-per-clip", "2", "--timeline", str(timeline),
                       "--checkpoint-out", str(ckpt))[0] == 0
        rows = [ln.split(",") for ln in timeline.read_text().splitlines()[1:]
                if not ln.startswith("#")]
        assert len(rows) == 4 and {r[3] for r in rows} == {"100.0"}
        state = checkpoint_decode(ckpt.read_bytes())
        assert state.schedule.gamma == 1.0


class TestSweep:
    def test_margin_sweep_csv_and_exit_zero(self, tmp_path):
        out = tmp_path / "margin.csv"
        code, _ = run_cli("sweep", "margin", "--seeds", "2",
                          "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("parameter,value,variant,seed,m_T,")
        assert "mu,0.001," in text

    def test_json_output(self, tmp_path):
        out = tmp_path / "adaptive.json"
        code, _ = run_cli("sweep", "adaptive", "--seeds", "2",
                          "--count", "1500", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["parameter"] == "mu"
        assert doc["checks"]["audits"] == {"passed": True}
        assert all(c["passed"] for c in doc["checks"].values())

    @pytest.mark.parametrize("flags", [
        ["--count", "1"],
        # the fitted slope is a rounding error below zero
        ["--count", "2", "--base-seed", "3"]])
    def test_undefined_fit_writes_strict_json(self, tmp_path, flags):
        """Tiny streams make the same mistake count at every fraction, so
        R**2 is undefined: it is written null, not NaN, and the failed
        check is a JSON false."""
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        out = tmp_path / "contamination.json"
        assert run_cli("sweep", "contamination", "--seeds", "1", *flags,
                       "--out", str(out))[0] == 1
        doc = json.loads(out.read_text(), parse_constant=refuse)
        fit = doc["checks"]["linear_fit"]
        assert fit["r2"] is None and fit["passed"] is False

    @pytest.mark.parametrize("base_seed", range(1, 11))
    def test_epsilon_sweep_passes_at_any_base_seed(self, base_seed):
        """The radius sweep's check is exact, so no base seed fails it (the
        Spearman band it replaced failed at base seed 6 at these flags)."""
        assert run_cli("sweep", "epsilon", "--base-seed", str(base_seed),
                       "--seeds", "2", "--count", "1500")[0] == 0

    def test_suffix_in_any_case_picks_json(self, tmp_path):
        out = tmp_path / "adaptive.JSON"
        code, _ = run_cli("sweep", "adaptive", "--seeds", "2",
                          "--count", "1500", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["parameter"] == "mu"

    @pytest.mark.parametrize("flags,named", [
        (["--seeds", "0"], "--seeds"),
        (["--seeds", "-1"], "--seeds"),
        (["--count", "0"], "--count"),
        (["--seeds", "0", "--count", "0"], "--seeds and --count"),
    ])
    def test_empty_sweep_exits_two(self, tmp_path, capsys, flags, named):
        """A bad flag value is a usage error, not a failed paper check."""
        out = tmp_path / "margin.csv"
        code, _ = run_cli("sweep", "margin", *flags, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: fado sweep ")
        assert err[-1] == f"fado sweep: error: {named} must be at least 1"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["margin", "center", "dim", "epsilon",
                                      "contamination", "adaptive"])
    def test_absent_flags_leave_the_sweep_its_defaults(self, monkeypatch,
                                                       kind):
        """Only the flags given are passed on, so each sweep keeps its own
        seeds, count and base seed."""
        import fado.cli as cli
        import fado.experiments as experiments
        from fado.experiments import SweepResult
        calls = []

        def recording_sweep(**kwargs):
            calls.append(kwargs)
            return SweepResult(parameter=kind, grid=[], records=[])

        monkeypatch.setattr(experiments, cli._SWEEPS[kind], recording_sweep)
        assert run_cli("sweep", kind)[0] == 0
        assert run_cli("sweep", kind, "--seeds", "3", "--count", "7",
                       "--base-seed", "9")[0] == 0
        assert calls == [{}, {"n_seeds": 3, "count": 7, "base_seed": 9}]

    def test_failed_assertions_exit_one(self, monkeypatch, tmp_path):
        import fado.experiments as experiments
        from fado.experiments import SweepResult

        def failing_sweep(**kwargs):
            return SweepResult(parameter="mu", grid=[], records=[],
                               checks={"bound_dominance": {"passed": False}})

        # fado.cli imports the sweeps when the command runs
        monkeypatch.setattr(experiments, "sweep_margin", failing_sweep)
        code, _ = run_cli("sweep", "margin", "--out",
                          str(tmp_path / "m.csv"))
        assert code == 1

    def test_an_out_in_a_missing_directory_fails_before_the_sweep(
            self, monkeypatch, tmp_path, capsys):
        """The results file is staged before the sweep runs, so a path that
        cannot be written exits 1 at once, on one line."""
        import fado.experiments as experiments
        calls = []
        monkeypatch.setattr(experiments, "sweep_epsilon",
                            lambda **kwargs: calls.append(kwargs))
        out = tmp_path / "missing" / "x.json"
        assert run_cli("sweep", "epsilon", "--out", str(out))[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert calls == [] and not out.parent.exists()

    def test_a_failed_write_keeps_an_existing_out(self, monkeypatch,
                                                   tmp_path):
        """An ``emit_results`` that writes part of the file and then fails
        leaves the results file that was there byte for byte, and no
        temporary beside it."""
        import fado.experiments as experiments
        from fado.experiments import SweepResult

        def partial_write(result, path):
            Path(path).write_text("parameter,val")
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(experiments, "sweep_margin", lambda **kwargs:
                            SweepResult(parameter="mu", grid=[], records=[]))
        monkeypatch.setattr(experiments, "emit_results", partial_write)
        out = tmp_path / "m.csv"
        out.write_bytes(b"parameter,value\nmu,0.1\n")
        assert run_cli("sweep", "margin", "--out", str(out))[0] == 1
        assert out.read_bytes() == b"parameter,value\nmu,0.1\n"
        assert os.listdir(tmp_path) == ["m.csv"]


# Runs fado.cli on sys.argv[2:], through console if sys.argv[1] is
# "console", else as ``python -m fado.cli`` runs it, and prints, as one JSON
# line, its exit code (a returned one or a SystemExit's) and gc's freeze
# count before and after it.
_CONSOLE_PROBE = """
import gc, json, runpy, sys
entry = sys.argv.pop(1)
before = gc.get_freeze_count()
try:
    if entry == "console":
        from fado.cli import console
        code = console(sys.argv[1:])
    else:
        runpy.run_module("fado.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "before": before,
                  "after": gc.get_freeze_count()}))
"""


class TestConsole:
    """The ``fado`` script and ``python -m fado.cli`` run ``console``: it
    returns what ``main`` returns, or lets its ``SystemExit`` through, and
    freezes the heap on the way out; ``main`` leaves the collector alone."""

    @pytest.fixture
    def commands(self, tmp_path):
        """argv giving exit 0, 1 (a missing input) and 2 (a usage error)."""
        stream = tmp_path / "s.bin"
        write_vectors(np.random.default_rng(3).normal(size=(40, 3)), stream)
        run = ["run", "--mode", "fixed", "--epsilon", "1", "--output",
               str(tmp_path / "o.csv")]
        return {0: [*run, "--input", str(stream)],
                1: [*run, "--input", str(tmp_path / "missing.bin")],
                2: [*run, "--input", str(stream), "--no-such-flag"]}

    @pytest.mark.parametrize("entry", ["console", "-m"])
    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_console_returns_mains_code_and_freezes(self, commands, code,
                                                    entry):
        proc = subprocess.run(
            [sys.executable, "-c", _CONSOLE_PROBE, entry, *commands[code]],
            env=child_env(), capture_output=True, text=True, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        assert probe["code"] == code
        assert probe["before"] == 0 < probe["after"]

    def test_main_leaves_the_freeze_count_alone(self, commands):
        before = gc.get_freeze_count()
        for code, argv in commands.items():
            assert run_cli(*argv)[0] == code
            assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_module_entry_matches_main(self, commands, code, tmp_path,
                                       capsys):
        """Same exit code, stdout, stderr and output bytes."""
        output = tmp_path / "o.csv"
        got, stdout = run_cli(*commands[code])
        in_process = (got, stdout, capsys.readouterr().err,
                      output.exists() and output.read_bytes())
        output.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "fado.cli", *commands[code]],
            env=child_env(), capture_output=True, text=True)
        assert in_process[0] == code
        assert (proc.returncode, proc.stdout, proc.stderr,
                output.exists() and output.read_bytes()) == in_process

    def test_console_script_names_the_entry_function(self):
        text = (Path(__file__).resolve().parents[1]
                / "pyproject.toml").read_text()
        target = re.search(r'^fado = "fado\.cli:(\w+)"$', text, re.M)
        assert target and getattr(fado.cli, target[1]) is console


# Runs fado.cli on sys.argv[1:] as ``python -m fado.cli`` runs it, and at
# exit, after the command's own exit and before the interpreter's teardown,
# prints as one JSON line whether it reaped a child that used CPU time.
_REAPED_PROBE = """
import atexit, json, resource, runpy
def report():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(json.dumps({"reaped_child":
                      children.ru_utime + children.ru_stime > 0}))
atexit.register(report)
runpy.run_module("fado.cli", run_name="__main__", alter_sys=True)
"""

# The one line of stderr that ``fado run`` and ``fado scene`` print
_SUMMARY = re.compile(r"(processed (\d+) transactions|(\d+) frames), "
                      r"(\d+) alarms( \(rate [\d.]+\))?\n")


@pytest.mark.skipif(not HAVE_TASKS or not hasattr(os, "fork")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs os.fork, /proc/self/task and two CPUs: "
                           "elsewhere the fork rule keeps the work in "
                           "process")
class TestModuleEntryExit:
    """``python -X dev -W error::ResourceWarning -m fado.cli`` after a
    forked multi-block ``run`` and a wide ``scene``, which forks nothing:
    exit 0, the one summary line on stderr and nothing printed at exit,
    the run's helper reaped, and the bytes ``main`` writes in a child of
    its own."""

    @staticmethod
    def check(argv, outputs, reaped):
        """Run ``argv`` through ``main`` in a child, then through the
        module entry under ``-X dev``, with OpenBLAS left to fado; each
        reaps a child if ``reaped``.  Return the summary line's match."""
        expected = main_in_child(argv, OPENBLAS_NUM_THREADS=None)
        assert (expected["code"], expected["reaped_child"]) == (0, reaped)
        written = [path.read_bytes() for path in outputs]
        for path in outputs:
            path.unlink()
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
             "-c", _REAPED_PROBE, *map(str, argv)],
            env=child_env(OPENBLAS_NUM_THREADS=None), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        summary = _SUMMARY.fullmatch(proc.stderr)
        assert summary and proc.stderr == expected["stderr"], proc.stderr
        assert json.loads(proc.stdout) == {"reaped_child": reaped}
        assert [path.read_bytes() for path in outputs] == written
        return summary

    def test_a_forked_multi_block_run(self, tmp_path):
        stream, outcomes = tmp_path / "s.bin", tmp_path / "o.csv"
        assert main(["gen", "--design", "mixture", "--dim", "10", "--count",
                     "40000", "--center", "2,2,0,0,0,0,0,0,0,0",
                     "--epsilon", "1", "--mu", "0.1", "--fraction", "0.05",
                     "--radius-max", "5", "--seed", "1",
                     "--out", str(stream)]) == 0
        assert 40000 > 3 * SCAN_CHUNK_BYTES // (8 * 10)  # four blocks
        summary = self.check(["run", "--mode", "fixed", "--epsilon", "1",
                              "--input", stream, "--output", outcomes],
                             [outcomes], reaped=True)
        assert summary[2] == "40000" and 0 < int(summary[4])

    def test_a_wide_scene_in_one_process(self, tmp_path):
        pack = tmp_path / "wide.pack"
        subprocess.run([sys.executable,
                        Path(__file__).resolve().parents[1] / "perfbench"
                        / "make_pack.py", "400", "400", "4", "10", "10", "1",
                        pack], env=child_env(), check=True)
        outputs = [tmp_path / name
                   for name in ("t.csv", "snapshot.pgm", "c.ckpt")]
        summary = self.check(["scene", "--packed", pack, "--epsilon", "215",
                              "--timeline", outputs[0], "--snapshot",
                              outputs[1], "--checkpoint-out", outputs[2]],
                             outputs, reaped=False)
        assert 0 < int(summary[4]) < int(summary[3]) == 40


class TestRunGainFlags:
    """A fresh ``fado run`` rejects the gain flags of the other schedule."""

    @pytest.mark.parametrize("argv", [
        ["--mode", "fixed", "--epsilon", "1", "--gamma", "5"],
        ["--mode", "adaptive", "--gamma", "5"],
        ["--mode", "constant-gain", "--epsilon", "1", "--gamma0", "3"],
        ["--mode", "constant-gain", "--epsilon", "1", "--tau", "0.4"],
        ["--mode", "constant-gain", "--epsilon", "1", "--gamma0", "3",
         "--tau", "0.4"],
    ])
    def test_other_schedules_flags_exit_two(self, tmp_path, argv, capsys):
        stream = tmp_path / "s.csv"
        write_vectors(np.ones((3, 2)), stream)
        out = tmp_path / "o.csv"
        code, _ = run_cli("run", *argv, "--input", str(stream),
                          "--output", str(out))
        assert code == 2
        assert "not used by mode" in capsys.readouterr().err
        assert not out.exists()


class TestRunResume:
    """What a resumed ``fado run`` takes from the checkpoint and logs."""

    def _segments(self, tmp_path):
        rng = np.random.default_rng(6)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        write_vectors(rng.normal(size=(300, 3)) * 3, first)
        write_vectors(rng.normal(size=(200, 3)) * 3, second)
        ckpt = tmp_path / "a.ckpt"
        assert run_cli("run", "--mode", "constant-gain", "--epsilon", "5",
                       "--input", str(first), "--output",
                       str(tmp_path / "a.csv"),
                       "--checkpoint-out", str(ckpt))[0] == 0
        return second, ckpt

    def test_logs_this_runs_alarm_count(self, tmp_path, capsys):
        second, ckpt = self._segments(tmp_path)
        capsys.readouterr()
        out = tmp_path / "b.csv"
        assert run_cli("run", "--checkpoint-in", str(ckpt), "--input",
                       str(second), "--output", str(out))[0] == 0
        rows = out.read_text().splitlines()[1:]
        alarms = sum(int(row.split(",")[1]) for row in rows)
        assert 0 < alarms < len(rows)
        assert capsys.readouterr().err.strip() == \
            f"processed 200 transactions, {alarms} alarms"

    def test_checkpoint_dimension_must_match_stream(self, tmp_path, capsys):
        """A 3-d checkpoint on a 5-d stream is named before any output is
        opened: exit 1, no outcome file and no checkpoint written."""
        _, ckpt = self._segments(tmp_path)
        stream = tmp_path / "s5.bin"
        write_vectors(np.random.default_rng(5).normal(size=(50, 5)), stream)
        out, out_ckpt = tmp_path / "o.csv", tmp_path / "o.ckpt"
        capsys.readouterr()
        code, _ = run_cli("run", "--checkpoint-in", str(ckpt), "--input",
                          str(stream), "--output", str(out),
                          "--checkpoint-out", str(out_ckpt))
        assert code == 1
        assert capsys.readouterr().err == \
            "error: checkpoint dimension 3 does not match stream (5)\n"
        assert not out.exists() and not out_ckpt.exists()

    @pytest.mark.parametrize("flag", ["--gamma0", "--tau", "--gamma"])
    def test_gain_flags_conflict_with_checkpoint(self, tmp_path, flag):
        second, ckpt = self._segments(tmp_path)
        code, _ = run_cli("run", "--checkpoint-in", str(ckpt), flag, "0.3",
                          "--input", str(second))
        assert code == 2

    @pytest.mark.parametrize("mode,defaults", [
        (["--mode", "fixed", "--epsilon", "1"], ["--gamma0", "1", "--tau",
                                                 "0.25"]),
        (["--mode", "adaptive"], ["--gamma0", "1", "--tau", "0.25"]),
        (["--mode", "constant-gain", "--epsilon", "1"], ["--gamma", "1"]),
    ])
    def test_fresh_detector_gain_defaults(self, tmp_path, mode, defaults):
        stream = tmp_path / "s.bin"
        write_vectors(np.random.default_rng(9).normal(size=(300, 3)) * 3,
                      stream)
        blobs = []
        for extra in ([], defaults):
            ckpt = tmp_path / f"{len(extra)}.ckpt"
            assert run_cli("run", *mode, *extra, "--input", str(stream),
                           "--output", str(tmp_path / "o.csv"),
                           "--checkpoint-out", str(ckpt))[0] == 0
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize("argv, gain", [
    (["run", "--mode", "fixed", "--epsilon", "1", "--gamma0", "1e160"],
     "gamma0=1e+160"),
    (["scene", "--synthetic", "--epsilon", "1", "--gamma", "1e200"],
     "gamma=1e+200"),
], ids=["run", "scene"])
def test_overflowing_gain_exits_one_without_checkpoint(tmp_path, argv, gain):
    """A gain whose square overflows leaves trace sums a checkpoint refuses:
    one ``error:`` line naming the gain, exit 1, no checkpoint written."""
    ckpt = tmp_path / "state.ckpt"
    argv = [*argv, "--checkpoint-out", str(ckpt)]
    if argv[0] == "run":
        stream = tmp_path / "s.csv"
        write_vectors(np.random.default_rng(3).normal(size=(3000, 10)) + 2.0,
                      stream)
        argv += ["--input", str(stream), "--output", str(tmp_path / "o.csv")]
    proc = subprocess.run([sys.executable, "-m", "fado.cli", *argv],
                          capture_output=True, text=True, env=child_env())
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "overflows" in lines[0] and gain in lines[0]
    assert not ckpt.exists()


def test_infinite_distance_exits_one_without_checkpoint(tmp_path):
    """A finite row whose squared distance overflows would be an alarm with
    no step; the run refuses it rather than log a gain it never applied."""
    stream, ckpt = tmp_path / "s.csv", tmp_path / "state.ckpt"
    stream.write_text("1e200,1e200\n0.5,0\n3,0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fado.cli", "run", "--mode", "fixed",
         "--epsilon", "1", "--input", str(stream),
         "--output", str(tmp_path / "o.csv"), "--checkpoint-out", str(ckpt)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ("error: distance to the center overflows float "
                           "range by step 1\n")
    assert not ckpt.exists()


@pytest.mark.parametrize("argv, error", [
    (["scene", "--synthetic", "--width", "0"], "--width must be at least 1"),
    (["scene", "--synthetic", "--height", "-2"],
     "--height must be at least 1"),
    (["scene", "--synthetic", "--clips", "0"], "--clips must be at least 1"),
    (["scene", "--synthetic", "--frames-per-clip", "0", "--clips", "-1"],
     "--clips and --frames-per-clip must be at least 1"),
    (["scene", "--synthetic", "--noise", "-1"], "--noise must be at least 0"),
    (["gen", "--dim", "0", "--count", "5", "--center", "1", "--epsilon", "1",
      "--seed", "1"], "--dim must be at least 1"),
], ids=["width", "height", "clips", "frames-per-clip", "noise", "dim"])
def test_size_flag_out_of_range_exits_two(tmp_path, capsys, argv, error):
    """A size flag out of range is a usage error naming the flag, not a
    runtime error naming a function parameter."""
    out = tmp_path / "out.csv"
    code, _ = run_cli(*argv, "--out" if argv[0] == "gen" else "--timeline",
                      str(out))
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: fado {argv[0]} ")
    assert err[-1] == f"fado {argv[0]}: error: {error}"
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    (["run", "--mode", "fixed", "--epsilon", "-1"],
     "--epsilon must be a nonnegative finite number"),
    (["run", "--mode", "fixed", "--epsilon", "1", "--tau", "0.6"],
     "--tau must lie strictly between 0 and 1/2"),
    (["run", "--mode", "adaptive", "--gamma0", "0"],
     "--gamma0 must be a positive finite number"),
    (["run", "--mode", "constant-gain", "--epsilon", "1", "--gamma", "inf"],
     "--gamma must be a positive finite number"),
    (["scene", "--synthetic", "--gamma", "0"],
     "--gamma must be a positive finite number"),
    (["scene", "--synthetic", "--epsilon", "-3"],
     "--epsilon must be a nonnegative finite number"),
    (["bounds", "--wnorm", "1", "--mu", "0.1", "--tau", "0.6"],
     "--tau must lie strictly between 0 and 1/2"),
    (["bounds", "--wnorm", "1", "--mu", "0.1", "--gamma0", "-1"],
     "--gamma0 must be a positive finite number"),
    (["bounds", "--wnorm", "-1", "--mu", "0.1"],
     "--wnorm must be a positive finite number"),
    (["bounds", "--wnorm", "1", "--mu", "-0.1"],
     "--mu must be a positive finite number"),
    (["bounds", "--wnorm", "1", "--mu", "0.1", "--sigma", "-1"],
     "--sigma must be a nonnegative finite number"),
    (["bounds", "--wnorm", "1", "--mu", "0.1", "--epsilon", "-1"],
     "--epsilon must be a positive finite number"),
], ids=["run-epsilon", "run-tau", "run-gamma0", "run-gamma", "scene-gamma",
        "scene-epsilon", "bounds-tau", "bounds-gamma0", "bounds-wnorm",
        "bounds-mu", "bounds-sigma", "bounds-epsilon"])
def test_value_a_library_type_rejects_names_its_flag(tmp_path, capsys, argv,
                                                     error):
    """``run``, ``scene`` and ``bounds`` report a value that a detector
    type rejects as ``gen`` does: exit 2 under the flag, no output."""
    stream, out = tmp_path / "s.csv", tmp_path / "out.csv"
    write_vectors(np.ones((3, 2)), stream)
    extra = {"run": ["--input", str(stream), "--output", str(out)],
             "scene": ["--timeline", str(out)], "bounds": []}[argv[0]]
    assert run_cli(*argv, *extra) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: fado {argv[0]} ")
    assert err[-1] == f"fado {argv[0]}: error: {error}"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["scene", "--synthetic", "--width", "10000000", "--height", "10000000",
     "--clips", "1", "--frames-per-clip", "1"],
    ["gen", "--dim", "1000000", "--count", "100000000", "--center", "0",
     "--epsilon", "1", "--seed", "1"],
], ids=["scene", "gen"])
def test_out_of_memory_exits_one(tmp_path, capsys, argv):
    """Sizes whose arrays exceed the 47-bit address space fail their first
    allocation at once, whatever the overcommit policy: one ``error:``
    line and exit 1, not a traceback."""
    out = tmp_path / "out.csv"
    code, _ = run_cli(*argv, "--out" if argv[0] == "gen" else "--timeline",
                      str(out))
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: Unable to allocate ")
    assert not out.exists()


class TestBlasThreads:
    """``main`` runs OpenBLAS on one thread unless the caller chose a count
    or numpy was loaded before it; neither ``main`` nor importing fado
    leaves an environment variable changed."""

    @pytest.fixture
    def run_argv(self, tmp_path):
        stream = tmp_path / "s.csv"
        write_vectors(np.random.default_rng(1).normal(size=(50, 3)), stream)
        return ["run", "--mode", "fixed", "--epsilon", "1", "--input",
                str(stream), "--output", str(tmp_path / "o.csv")]

    @pytest.mark.skipif(not HAVE_TASKS, reason="needs /proc/self/task")
    def test_unset_count_runs_one_thread(self, run_argv):
        probe = main_in_child(run_argv, OPENBLAS_NUM_THREADS=None)
        assert probe["code"] == 0
        assert probe["tasks"] == 1
        assert probe["blas_env"] is None

    @pytest.mark.skipif(not HAVE_TASKS or len(os.sched_getaffinity(0)) < 2,
                        reason="needs /proc/self/task and two CPUs")
    def test_explicit_count_is_honoured(self, run_argv):
        probe = main_in_child(run_argv, OPENBLAS_NUM_THREADS="2")
        assert probe["code"] == 0
        assert probe["tasks"] == 2
        assert probe["blas_env"] == "2"

    def test_imports_load_no_numpy_and_set_nothing(self):
        code = ("import os, sys, fado, fado.cli; "
                "print('numpy' in sys.modules, 'json' in sys.modules, "
                "os.environ.get('OPENBLAS_NUM_THREADS'))")
        proc = subprocess.run([sys.executable, "-c", code], text=True,
                              env=child_env(OPENBLAS_NUM_THREADS=None),
                              capture_output=True, check=True)
        assert proc.stdout.split() == ["False", "False", "None"]

    def test_main_after_numpy_leaves_environment_alone(self, run_argv,
                                                       monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run_cli(*run_argv)[0] == 0
        assert "OPENBLAS_NUM_THREADS" not in os.environ


@pytest.mark.skipif(not HAVE_TASKS or not hasattr(os, "fork")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs os.fork, /proc/self/task and two CPUs")
class TestScanAhead:
    """``fado run`` scans a stream's second block onward in a forked child
    when the process runs one thread; a second OpenBLAS thread keeps the
    scan in process.  Both paths write the same bytes and fail alike."""

    @staticmethod
    def both_paths(argv, *files, forks=True, prelude=""):
        """Run ``main(argv)`` with OpenBLAS left to fado's one thread, where
        it forks if ``forks``, then in process (two OpenBLAS threads), each
        after the code ``prelude``.  For each: the exit code, stdout, stderr
        and the bytes of each of ``files`` (None if absent)."""
        results = []
        for threads in (None, "2"):
            for path in files:
                path.unlink(missing_ok=True)
            probe = main_in_child(argv, prelude, OPENBLAS_NUM_THREADS=threads)
            assert probe["reaped_child"] is (forks and threads is None)
            results.append((probe["code"], probe["stdout"], probe["stderr"],
                            *(path.read_bytes() if path.exists() else None
                              for path in files)))
        return results

    @pytest.fixture(scope="class")
    def streams(self, tmp_path_factory):
        """A 4000 x 100 stream as .bin (4 blocks) and .csv (25 blocks), and
        a checkpoint of an adaptive detector of that dimension."""
        tmp = tmp_path_factory.mktemp("ahead")
        rows = np.random.default_rng(22).normal(size=(4000, 100)) + 0.5
        assert rows.nbytes > 3 * SCAN_CHUNK_BYTES
        for suffix in (".bin", ".csv"):
            write_vectors(rows, tmp / f"s{suffix}")
        write_vectors(rows[:50] + 3.0, tmp / "head.csv")
        assert run_cli("run", "--mode", "adaptive", "--input",
                       str(tmp / "head.csv"), "--checkpoint-out",
                       str(tmp / "head.ckpt"))[0] == 0
        return tmp

    @pytest.mark.parametrize("argv, sink", [
        (["--mode", "fixed", "--epsilon", "10.5", "--input", "s.bin"],
         "file"),
        (["--mode", "adaptive", "--input", "s.bin"], "file"),
        (["--mode", "constant-gain", "--epsilon", "10.5", "--gamma", "0.5",
          "--input", "s.bin"], "file"),
        (["--mode", "fixed", "--epsilon", "10.5", "--input", "s.csv"],
         "file"),
        (["--mode", "adaptive", "--input", "s.bin"], "stdout"),
        (["--checkpoint-in", "head.ckpt", "--input", "s.csv"], "file"),
    ], ids=["fixed", "adaptive", "constant-gain", "csv-input", "stdout",
            "resume"])
    def test_both_paths_write_the_same_bytes(self, streams, tmp_path, argv,
                                             sink):
        out, ckpt = tmp_path / "out.csv", tmp_path / "out.ckpt"
        argv = ["run", *(streams / a if a in ("s.bin", "s.csv", "head.ckpt")
                         else a for a in argv), "--checkpoint-out", ckpt]
        if sink == "file":
            argv += ["--output", out]
        forked, in_process = self.both_paths(argv, out, ckpt)
        assert forked == in_process
        code, stdout, stderr, text, state = forked
        assert code == 0 and state is not None
        assert (stdout if sink == "stdout" else text.decode()).count("\n") \
            >= 4000
        assert stderr.startswith("processed 4000 transactions")

    def test_a_refused_fork_scans_in_process(self, streams, tmp_path):
        """At a limit on processes ``os.fork`` fails; the run goes on in
        process and writes the same bytes."""
        refuse = ("import errno, os, sys\n"
                  "def fork():\n"
                  "    raise BlockingIOError(errno.EAGAIN, 'refused')\n"
                  "os.fork = fork\n"
                  "from fado.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        outputs = []
        for name, prelude in (("refused", ["-c", refuse]),
                              ("forked", ["-m", "fado.cli"])):
            out = tmp_path / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, *prelude, "run", "--mode", "adaptive",
                 "--input", str(streams / "s.bin"), "--output", str(out)],
                capture_output=True, text=True, timeout=60,
                env=child_env(OPENBLAS_NUM_THREADS=None))
            assert proc.returncode == 0, proc.stderr
            outputs.append((out.read_bytes(), proc.stderr))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_a_bad_last_row_fails_as_in_process(self, tmp_path, suffix):
        """The child meets the fault; the parent reports it on one line,
        exit 1, and leaves no outcome CSV, no checkpoint and no temporary
        file."""
        rows = np.random.default_rng(4).integers(-3, 4, size=(40_000, 10))
        rows = rows.astype(np.float64)
        rows[-1, 3] = np.nan
        stream = tmp_path / f"s{suffix}"
        out, ckpt = tmp_path / "out.csv", tmp_path / "out.ckpt"
        write_vectors(rows, stream)
        forked, in_process = self.both_paths(
            ["run", "--mode", "fixed", "--epsilon", "1", "--input", stream,
             "--output", out, "--checkpoint-out", ckpt], out, ckpt)
        assert forked == in_process
        code, _, stderr, text, state = forked
        assert (code, stderr, text, state) == (
            1, "error: stream item 39999: transaction contains non-finite "
               "entries\n", None, None)
        assert [path.name for path in tmp_path.iterdir()] == [stream.name]

    @pytest.fixture(scope="class")
    def resumable(self, tmp_path_factory):
        """A 40,000 x 10 mixture (four blocks), the same with a NaN in its
        last row, and the checkpoint of a fixed-radius run over a 1000-row
        mixture of the same design."""
        tmp = tmp_path_factory.mktemp("resumable")
        design = ["--design", "mixture", "--dim", "10",
                  "--center", "2,2,0,0,0,0,0,0,0,0", "--epsilon", "1",
                  "--mu", "0.1", "--fraction", "0.05", "--radius-max", "5"]
        for name, count, seed in (("head", 1000, 1), ("s", 40_000, 2)):
            assert run_cli("gen", *design, "--count", str(count), "--seed",
                           str(seed), "--out", str(tmp / f"{name}.bin"))[0] == 0
        rows = read_vectors(tmp / "s.bin")
        assert rows.nbytes > 3 * SCAN_CHUNK_BYTES
        rows[-1, 3] = np.nan
        write_vectors(rows, tmp / "nan.bin")
        assert run_cli("run", "--mode", "fixed", "--epsilon", "1",
                       "--input", str(tmp / "head.bin"),
                       "--output", str(tmp / "head.csv"),
                       "--checkpoint-out", str(tmp / "head.ckpt"))[0] == 0
        return tmp

    def test_a_resumed_run_logs_its_own_alarms(self, resumable, tmp_path):
        """A checkpoint resumed on several blocks logs this run's alarm
        count, the sum of its CSV's alarm column, on both paths."""
        out = tmp_path / "out.csv"
        forked, in_process = self.both_paths(
            ["run", "--checkpoint-in", resumable / "head.ckpt",
             "--input", resumable / "s.bin", "--output", out], out)
        assert forked == in_process
        code, _, stderr, text = forked
        rows = text.decode().splitlines()[1:]
        alarms = sum(int(row.split(",")[1]) for row in rows)
        assert code == 0 and rows[0].startswith("1001,")
        assert len(rows) == 40_000 and 0 < alarms < len(rows)
        assert stderr == f"processed 40000 transactions, {alarms} alarms\n"

    def test_a_resumed_runs_bad_last_row_is_named_in_its_input(self,
                                                               resumable,
                                                               tmp_path):
        """The row is named by its index in this run's input, not by the
        step the checkpoint had reached, on both paths."""
        out = tmp_path / "out.csv"
        forked, in_process = self.both_paths(
            ["run", "--checkpoint-in", resumable / "head.ckpt",
             "--input", resumable / "nan.bin", "--output", out], out)
        assert forked == in_process
        code, _, stderr, text = forked
        assert (code, stderr, text) == (
            1, "error: stream item 39999: transaction contains non-finite "
               "entries\n", None)

    def test_a_fault_in_the_second_block_fails_as_in_process(self, tmp_path):
        """The second block is read before the fork; its fault is raised
        after the first block's rows are written, no child starts, and no
        output file is left."""
        lines = [",".join(map(repr, row)) for row in
                 np.random.default_rng(9).normal(size=(40_000, 10)).tolist()]
        lines[2000] = "1,2"  # a .csv block of 10 values a row is 1638 rows
        stream = tmp_path / "s.csv"
        stream.write_text("\n".join(lines) + "\n")
        out, ckpt = tmp_path / "out.csv", tmp_path / "out.ckpt"
        forked, in_process = self.both_paths(
            ["run", "--mode", "fixed", "--epsilon", "1", "--input", stream,
             "--output", out, "--checkpoint-out", ckpt], out, ckpt,
            forks=False)
        assert forked == in_process
        code, _, stderr, text, state = forked
        assert (code, stderr, text, state) == (
            1, f"error: {stream}:2001: expected 10 values, found 2\n", None,
            None)
        assert [path.name for path in tmp_path.iterdir()] == [stream.name]

    @pytest.mark.parametrize("suffix", [".bin", ".csv"])
    def test_an_overflow_in_a_later_block_fails_as_in_process(self, tmp_path,
                                                              suffix):
        """A ``1e200,1e200`` row in a later block: the child's
        OverflowError is raised by the parent as the same one line."""
        rows = np.random.default_rng(5).normal(size=(140_000, 2))
        rows[-7] = 1e200
        stream = tmp_path / f"s{suffix}"
        out, ckpt = tmp_path / "out.csv", tmp_path / "out.ckpt"
        write_vectors(rows, stream)
        forked, in_process = self.both_paths(
            ["run", "--mode", "adaptive", "--input", stream, "--output", out,
             "--checkpoint-out", ckpt], out, ckpt)
        assert forked == in_process
        code, _, stderr, _, state = forked
        assert (code, stderr, state) == (
            1, "error: distance to the center overflows float range by "
               "step 139994\n", None)

    def test_a_fault_of_fados_own_in_a_later_block_fails_as_in_process(
            self, streams, tmp_path):
        """A ``TypeError`` in the third block's scan (in the child, when it
        forks) is raised by the parent after the rows before it, as the
        in-process scan raises it, and no output file is left."""
        # the prelude loads numpy, so it keeps OpenBLAS to one thread
        # unless the run gives two, as main would
        fault = ("import os\n"
                 "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')\n"
                 "from fado.detector import Detector\n"
                 "scan, calls = Detector._scan, []\n"
                 "def _scan(self, block):\n"
                 "    calls.append(None)\n"
                 "    if len(calls) == 3:\n"
                 "        raise TypeError('a fault of fado')\n"
                 "    return scan(self, block)\n"
                 "Detector._scan = _scan\n")
        out, ckpt = tmp_path / "out.csv", tmp_path / "out.ckpt"
        forked, in_process = self.both_paths(
            ["run", "--mode", "adaptive", "--input", streams / "s.bin",
             "--output", out, "--checkpoint-out", ckpt], out, ckpt,
            prelude=fault)
        for code, _, stderr, text, state in (forked, in_process):
            assert (code, stderr.splitlines()[-1], text, state) == (
                1, "TypeError: a fault of fado", None, None)
        assert not any(tmp_path.iterdir())

    def test_a_child_that_dies_mid_stream_fails_on_one_line(self, streams,
                                                            tmp_path):
        """The child exits on its second block: the parent reports it on
        one line, exit 1, writes no checkpoint and leaves no process."""
        die = ("import os, sys\n"
               "from fado.detector import Detector\n"
               "scan, parent, calls = Detector._scan, os.getpid(), []\n"
               "def _scan(self, block):\n"
               "    if os.getpid() != parent:\n"
               "        calls.append(None)\n"
               "        if len(calls) == 2:\n"
               "            os._exit(1)\n"
               "    return scan(self, block)\n"
               "Detector._scan = _scan\n"
               "from fado.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")
        stream, ckpt = streams / "s.bin", tmp_path / "out.ckpt"
        proc = subprocess.run(
            [sys.executable, "-c", die, "run", "--mode", "adaptive",
             "--input", str(stream), "--output", str(tmp_path / "out.csv"),
             "--checkpoint-out", str(ckpt)],
            capture_output=True, text=True, timeout=60,
            env=child_env(OPENBLAS_NUM_THREADS="1"))
        assert (proc.returncode, proc.stderr) == (
            1, "error: the scan-ahead process ended before the stream did\n")
        assert not ckpt.exists()
        assert subprocess.run(["pgrep", "-f", str(stream)]).returncode == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs os.sched_setaffinity")
    def test_one_cpu_scans_in_process(self, streams, tmp_path):
        """Pinned to one CPU, the run scans in process, one thread, and
        writes the bytes of the forked run."""
        outputs = []
        for prelude in ("", "import os\nos.sched_setaffinity(0, "
                            "{min(os.sched_getaffinity(0))})\n"):
            out = tmp_path / "out.csv"
            probe = main_in_child(
                ["run", "--mode", "adaptive", "--input", streams / "s.bin",
                 "--output", out], prelude, OPENBLAS_NUM_THREADS=None)
            assert (probe["code"], probe["tasks"]) == (0, 1)
            assert probe["reaped_child"] is (not prelude)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_a_full_output_device_fails_on_one_line(self, tmp_path):
        """The parent's write fails while the child scans ahead: exit 1
        with one line, within a timeout, as the parent kills the child
        rather than wait for it to finish the stream."""
        stream = tmp_path / "s.bin"
        # blocks of 65 wide rows: the first block's rows fit in the
        # output's buffer, so the child starts before a write fails
        write_vectors(np.random.default_rng(7).normal(size=(1000, 2000)),
                      stream)
        proc = subprocess.run(
            [sys.executable, "-m", "fado.cli", "run", "--mode", "fixed",
             "--epsilon", "1", "--input", str(stream), "--output",
             "/dev/full"], capture_output=True, text=True, timeout=60,
            env=child_env(OPENBLAS_NUM_THREADS=None))
        assert (proc.returncode, proc.stderr) == (
            1, "error: [Errno 28] No space left on device\n")

    def test_no_fork_from_a_threaded_process(self, tmp_path):
        """Python warns when a process with threads forks; with two
        OpenBLAS threads ``run`` scans in process, so it passes with the
        warning made an error."""
        stream = tmp_path / "s.bin"
        write_vectors(np.random.default_rng(8).normal(size=(40_000, 10)),
                      stream)
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::DeprecationWarning",
             "-m", "fado.cli", "run", "--mode", "fixed", "--epsilon", "1",
             "--input", str(stream), "--output", str(tmp_path / "o.csv")],
            capture_output=True, text=True, timeout=60,
            env=child_env(OPENBLAS_NUM_THREADS="2"))
        assert proc.returncode == 0, proc.stderr


def test_each_block_is_yielded_before_the_next_is_read(monkeypatch):
    """``_outcome_blocks`` yields a block's columns before it asks for the
    next block, also where it may fork, so a live stream's rows are not
    held back until more input comes."""
    import contextlib

    from fado import detector as detector_module
    from fado.detector import _outcome_blocks

    @contextlib.contextmanager
    def in_process(child):
        yield None

    monkeypatch.setattr(detector_module, "_may_fork", lambda: True)
    monkeypatch.setattr(detector_module, "_forked", in_process)
    rows = np.random.default_rng(3).normal(size=(30, 2))
    events = []

    def blocks():
        for k, block in enumerate(np.split(rows, 3)):
            events.append(("read", k))
            yield block

    detector = Detector(2, FixedRadius(1.0), PowerDecay())
    stream = blocks()
    for k, columns in enumerate(_outcome_blocks(detector, next(stream),
                                                stream)):
        events.append(("yield", k))
    assert events == [(event, k) for k in range(3)
                      for event in ("read", "yield")]
    alone = Detector(2, FixedRadius(1.0), PowerDecay())
    assert [alone.step(row).alarm for row in rows][20:] == \
        columns.alarm.tolist()
    assert checkpoint_encode(detector) == checkpoint_encode(alone)


# Runs ``fado gen`` and ``fado scene --synthetic`` with fado.cli.main in
# one fresh interpreter, counting the threads they start, then polls
# /proc/self/task for up to a second until one thread is left (a joined
# thread can stay listed for a moment), then runs ``fado run`` there.
_SPLIT_THEN_FORK = """
import json, os, resource, sys, threading, time
from fado.cli import main
started = []
real_start = threading.Thread.start
def start(self):
    started.append(self)
    real_start(self)
threading.Thread.start = start
gen, scene, run = json.loads(sys.argv[1])
codes = [main(gen), main(scene)]
threads = len(started)
deadline = time.monotonic() + 1.0
while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
    time.sleep(0.01)
tasks = len(os.listdir("/proc/self/task"))
codes.append(main(run))
children = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"codes": codes, "threads": threads, "tasks": tasks,
    "reaped_child": children.ru_utime + children.ru_stime > 0}))
"""


@pytest.mark.skipif(not HAVE_TASKS or not hasattr(os, "fork")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs os.fork, /proc/self/task and two CPUs")
def test_split_generation_leaves_one_thread_to_fork(tmp_path):
    """Generation joins the thread that draws half of it, so after a
    split ``fado gen`` and ``fado scene --synthetic`` the process runs one
    thread again, and a later ``fado run`` in it may fork (a warning made
    an error would catch a fork from a threaded process)."""
    stream = tmp_path / "s.bin"
    argvs = [["gen", "--design", "mixture", "--dim", "10", "--count",
              "30000", "--center", "1", "--epsilon", "1", "--mu", "0.1",
              "--fraction", "0.05", "--radius-max", "5", "--seed", "2",
              "--out", str(stream)],
             ["scene", "--synthetic", "--width", "400", "--height", "400",
              "--clips", "2", "--frames-per-clip", "2", "--timeline",
              str(tmp_path / "t.csv")],
             ["run", "--mode", "fixed", "--epsilon", "1", "--input",
              str(stream), "--output", str(tmp_path / "o.csv")]]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::DeprecationWarning",
         "-c", _SPLIT_THEN_FORK, json.dumps(argvs)],
        env=child_env(OPENBLAS_NUM_THREADS=None), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0, 0]
    assert probe["threads"] == 2  # the mixture's normal rows, the frames
    assert probe["tasks"] == 1
    assert probe["reaped_child"]


class TestPackageExports:
    """``fado`` loads its public names from their modules on first use."""

    def test_every_export_is_its_home_modules_object(self):
        import importlib
        for name in fado.__all__:
            value = getattr(fado, name)
            if name != "__version__":
                home = importlib.import_module(value.__module__)
                assert getattr(home, name) is value, name

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from fado import *", namespace)
        assert set(fado.__all__) <= set(namespace)

    def test_readme_quick_start_runs(self, capsys):
        """The README's library example uses only public names that
        exist, so removing one cannot leave the README stale."""
        readme = (Path(__file__).resolve().parents[1] / "README.md"
                  ).read_text(encoding="utf-8")
        section = readme.split("\n## Library quick start\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        exec(compile(code, "README.md", "exec"), {})
        assert capsys.readouterr().out

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fado.no_such_name
        with pytest.raises(ImportError):
            exec("from fado import no_such_name", {})

    @pytest.mark.parametrize("module",
                             ["bounds", "checkpoint", "detector", "streams"])
    def test_home_module_is_an_attribute_before_any_name(self, module):
        # A fresh interpreter, so no earlier test has imported the module.
        code = (f"import fado, sys; m = fado.{module}; "
                f"print(m is sys.modules['fado.{module}'])")
        proc = subprocess.run([sys.executable, "-c", code], text=True,
                              env=child_env(), capture_output=True,
                              check=True)
        assert proc.stdout.split() == ["True"]
