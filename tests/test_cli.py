import json
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import fado
from fado.bounds import mistake_bound_realizable, riemann_zeta
from fado.checkpoint import checkpoint_encode
from fado.cli import main
from fado.detector import SCAN_CHUNK_BYTES, Detector, FixedRadius, PowerDecay
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

    def test_bad_domain_exits_one(self):
        code, _ = run_cli("bounds", "--wnorm", "-1.0", "--mu", "0.1")
        assert code == 1

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

    @pytest.mark.parametrize("flags, culprit", [
        (["--wnorm", "1e200", "--mu", "0.1"], "norm_w_bar = 1e+200"),
        (["--wnorm", "1", "--mu", "0.1", "--sigma", "1e308"],
         "sigma_T = 1e+308"),
    ], ids=["wnorm", "sigma"])
    def test_overflowing_cap_names_the_input(self, flags, culprit, capsys):
        """An infinite right-hand side is reported before any search."""
        code, out = run_cli("bounds", *flags)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == \
            f"error: mistake cap overflows float range at {culprit}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--gamma0", "1e160"],
         "gain energy overflows float range at gamma0 = 1e+160"),
        (["--gamma0", "1.3e154"],
         "gain energy overflows float range at gamma0 = 1.3e+154"),
        (["--tau", "0"], "tau must lie strictly between 0 and 1/2"),
    ], ids=["gamma0-squared", "gamma0-times-zeta", "tau"])
    def test_bad_gain_schedule_names_the_flag(self, flags, message, capsys):
        code, out = run_cli("bounds", "--wnorm", "1", "--mu", "0.1", *flags)
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

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
        (["sweep", "margin", "--seeds", "0"], "--seeds must be at least 1"),
        (["scene", "--synthetic", "--packed", "p.pack"],
         "give exactly one of: PGM frames, --packed, --synthetic"),
        (["gen", "--design", "mixture", "--dim", "2", "--count", "10",
          "--center", "2", "--epsilon", "1", "--mu", "0.1", "--seed", "1",
          "--out", "s.bin"], "--radius-max is required for the mixture "
                             "design"),
        (["bounds", "--wnorm", "1", "--mu", "0.1", "--m-t", "0"],
         "--m-t must be at least 1"),
    ], ids=["run", "sweep", "scene", "gen", "bounds"])
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

    def test_missing_input_exits_one(self, tmp_path):
        code, _ = run_cli("run", "--mode", "fixed", "--epsilon", "1",
                          "--input", str(tmp_path / "absent.bin"))
        assert code == 1

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
        assert all(c["passed"] for c in doc["checks"].values())

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


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fado.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0


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
                "print('numpy' in sys.modules, "
                "os.environ.get('OPENBLAS_NUM_THREADS'))")
        proc = subprocess.run([sys.executable, "-c", code], text=True,
                              env=child_env(OPENBLAS_NUM_THREADS=None),
                              capture_output=True, check=True)
        assert proc.stdout.split() == ["False", "None"]

    def test_main_after_numpy_leaves_environment_alone(self, run_argv,
                                                       monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run_cli(*run_argv)[0] == 0
        assert "OPENBLAS_NUM_THREADS" not in os.environ


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
