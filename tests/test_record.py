"""bench/record.py: alternating runs, the BENCH file layout and the report.

perfbench itself is replaced by a stub, so these tests start no process.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


@pytest.fixture
def checkouts(tmp_path):
    dirs = {}
    for label in ("parent", "head"):
        (tmp_path / label / "perfbench").mkdir(parents=True)
        dirs[label] = tmp_path / label
    return dirs


@pytest.fixture
def calls(monkeypatch, checkouts):
    """Stub perfbench: every end-to-end metric is seed * scale, where the
    head's scale is 0.5 and the parent's 1.0; log each call."""
    log = []
    scale = {checkouts["parent"].resolve(): 1.0,
             checkouts["head"].resolve(): 0.5}

    def perfbench(checkout, *args):
        opts = dict(zip(args[::2], args[1::2]))
        log.append((checkout.name, opts))
        env = {"python": "3", "src_lines": 100 if checkout.name == "parent"
               else 90, "workload": opts["--workload"], "seed": opts["--seed"],
               "openblas_threads": {"libopenblas.so": 2}}
        if "--trace" in opts:
            return env, {"correct": True,
                         "metrics": {"cli.import_s": {"unit": "s",
                                                      "value": 0.1}}}
        value = opts["--seed"] * scale[checkout]
        return env, {"correct": True, "attempted": 4, "failed": 0,
                     "metrics": {name: {"unit": spec["unit"], "value": value}
                                 for name, spec in record.BOUNDS.items()}}

    monkeypatch.setattr(record, "perfbench", perfbench)
    monkeypatch.setattr(record, "revision", lambda checkout: checkout.name)
    return log


def _main(tmp_path, checkouts, *extra):
    out = tmp_path / "BENCH.json"
    code = record.main(["--out", str(out), "--seeds", "3",
                        "--checkout", f"parent={checkouts['parent']}",
                        "--checkout", f"head={checkouts['head']}", *extra])
    return code, json.loads(out.read_text())


def test_runs_alternate_and_use_the_benchmark_length(tmp_path, checkouts,
                                                     calls):
    assert _main(tmp_path, checkouts)[0] == 0
    timed = [(label, opts) for label, opts in calls if "--trace" not in opts]
    assert len(timed) == 2 * 3 * len(record.WORKLOADS)
    firsts = [label for label, _ in timed[::2]]
    assert firsts[:4] == ["parent", "head", "parent", "head"]
    assert {opts["--seconds"] for _, opts in calls} == {
        record.SPEC["run_seconds"]}
    assert [opts["--workload"] for _, opts in timed[::6]] == record.WORKLOADS
    traced = [label for label, opts in calls if "--trace" in opts]
    assert traced == ["parent", "head"]


def test_bench_file_holds_one_section_per_checkout(tmp_path, checkouts,
                                                   calls):
    _, doc = _main(tmp_path, checkouts)
    assert doc["seeds"] == 3
    assert doc["seconds"] == record.SPEC["run_seconds"]
    assert record.sections(doc) == ["parent", "head"]
    head = doc["head"]
    assert head["revision"] == "head"
    assert head["src_sha256"] == record.tree_hash(checkouts["head"])
    assert head["src_lines"] == 90
    assert "workload" not in head["env"] and "seed" not in head["env"]
    # perfbench's count is of its driver process, and is labelled so
    assert head["env"]["driver_openblas_threads"] == {"libopenblas.so": 2}
    assert "openblas_threads" not in head["env"]
    assert head["layers"]["metrics"]["cli.import_s"]["value"] == 0.1
    assert set(head["workloads"]) == set(record.WORKLOADS)
    row = head["workloads"][record.WORKLOADS[0]]
    assert (row["runs"], row["correct"], row["attempted"],
            row["failed"]) == (3, True, 12, 0)
    wall = row["metrics"]["wall_s"]
    assert wall["values"] == [0.5, 1.0, 1.5]
    assert (wall["q1"], wall["median"], wall["q3"]) == (0.75, 1.0, 1.25)
    assert wall["iqr"] == 0.5


def test_report_compares_last_section_with_first_and_other(
        tmp_path, checkouts, calls, capsys):
    other = tmp_path / "OTHER.json"
    other.write_text(json.dumps({"base": {"workloads": {
        "stream-resume": {"failed": 1, "attempted": 4, "correct": True,
                          "metrics": {"cpu_s": {"median": 0.5,
                                                "iqr": 0.0}}}}}}))
    assert _main(tmp_path, checkouts, "--compare", str(other))[0] == 0
    out = capsys.readouterr().out
    assert "BENCH.json: parent -> head" in out
    assert "OTHER.json -> " in out and "base -> head" in out
    lines = out.splitlines()
    # src_lines is reported once, for the two sections that both hold it
    assert [line for line in lines if "src_lines" in line] == [
        "  src_lines 100 -> 90 (-10)"]
    assert lines[1] == "  src_lines 100 -> 90 (-10)"
    halved = [line for line in lines if " wall_s " in line]
    assert len(halved) == len(record.WORKLOADS)
    assert all("-50.0%" in line and "better" in line for line in halved)
    rows = [line for line in lines if "rows_per_s" in line]
    assert all("beyond bound" in line for line in rows)
    # Against OTHER only the one metric both files hold is compared.
    tail = lines[lines.index(next(x for x in lines if "base -> head" in x)):]
    assert [line.split()[1] for line in tail[2:]] == ["cpu_s", "failed"]
    assert "+100.0%" in tail[2]


def test_report_against_another_file_gives_no_verdict(tmp_path, checkouts,
                                                      calls, capsys):
    """Sections of two BENCH files come from different sessions, between
    which the host may drift past a bound: each change is printed, with
    neither bound nor verdict, under a line that says why."""
    other = tmp_path / "OTHER.json"
    _main(tmp_path, checkouts)
    (tmp_path / "BENCH.json").rename(other)
    capsys.readouterr()
    _main(tmp_path, checkouts, "--compare", str(other))
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(next(x for x in lines if "OTHER.json -> " in x))
    same, cross = lines[:start], lines[start:]
    assert cross[1] == ("  recorded in different sessions: changes include "
                        "host drift, so no verdict")
    changes = [line for line in cross if "%" in line]
    assert len(changes) == len(record.WORKLOADS) * len(record.BOUNDS)
    assert all(line.endswith("+0.0%") for line in changes)
    assert not any(word in line for line in cross
                   for word in ("bound", "better", "IQR"))
    # the pair recorded together keeps its verdicts
    assert all("(bound " in line for line in same if "%" in line)
    assert not any("different sessions" in line for line in same)


def test_incorrect_output_fails_the_exit_status(tmp_path, checkouts, calls,
                                                monkeypatch):
    stub = record.perfbench

    def wrong(checkout, *args):
        env, result = stub(checkout, *args)
        return env, {**result, "correct": checkout.name == "parent"}

    monkeypatch.setattr(record, "perfbench", wrong)
    code, doc = _main(tmp_path, checkouts)
    assert code == 1
    assert not doc["head"]["workloads"][record.WORKLOADS[0]]["correct"]


@pytest.mark.parametrize("argv", [
    ["--checkout", "nolabel"],
    ["--checkout", "x=/nonexistent"],
    ["--checkout", "x=.", "--seeds", "0"],
    [],
])
def test_bad_arguments_exit_two(tmp_path, argv, calls):
    with pytest.raises(SystemExit) as exc:
        record.main(["--out", str(tmp_path / "B.json"), *argv])
    assert exc.value.code == 2
    assert calls == []


def test_summary_of_one_value():
    assert record.summary([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                     "iqr": 0.0, "values": [2.0]}


def _tree(root, files):
    for name, data in files.items():
        (root / "src" / name).parent.mkdir(parents=True, exist_ok=True)
        (root / "src" / name).write_bytes(data)
    return root


def test_equal_trees_hash_equal_and_a_one_byte_edit_does_not(tmp_path):
    """The hash covers each ``src/**/*.py`` file's relative path and
    bytes, wherever the checkout lies, and nothing else."""
    files = {"fado/__init__.py": b"", "fado/cli.py": b"x = 1\n"}
    a = record.tree_hash(_tree(tmp_path / "a", files))
    b = _tree(tmp_path / "b", files)
    (b / "src" / "fado" / "__pycache__").mkdir()
    (b / "src" / "fado" / "__pycache__" / "cli.pyc").write_bytes(b"\0")
    (b / "src" / "notes.txt").write_bytes(b"not code")
    assert record.tree_hash(b) == a
    assert len(a) == 64 and a != record.tree_hash(tmp_path / "empty")
    edited = {**files, "fado/cli.py": b"x = 2\n"}
    assert record.tree_hash(_tree(tmp_path / "c", edited)) != a
    moved = {"fado/__init__.py": b"", "fado/main.py": b"x = 1\n"}
    assert record.tree_hash(_tree(tmp_path / "d", moved)) != a


_SOURCE = b'''"""A module docstring,
over two lines."""
# a comment

import os


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        s = """a string,
not a docstring"""
        return x  # a trailing comment
'''


def test_code_lines_count_lines_that_hold_code(tmp_path):
    """Blank, comment and docstring lines are not counted; each line of a
    string that is not a docstring is, in every ``src/**/*.py`` file."""
    root = _tree(tmp_path, {"fado/a.py": _SOURCE, "fado/sub/b.py": b"x = 1\n",
                            "fado/notes.txt": b"y = 2\n"})
    # import, class, def, the string's two lines, return; and b.py's line
    assert record.code_lines(root) == 6 + 1
    assert record.code_lines(tmp_path / "empty") == 0


def test_each_section_records_its_code_lines_and_the_report_compares_them(
        tmp_path, checkouts, calls, capsys):
    _tree(checkouts["parent"], {"fado/a.py": _SOURCE + b"y = 2\n"})
    _tree(checkouts["head"], {"fado/a.py": _SOURCE})
    _, doc = _main(tmp_path, checkouts)
    assert (doc["parent"]["code_lines"], doc["head"]["code_lines"]) == (7, 6)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["  src_lines 100 -> 90 (-10)",
                          "  code_lines 7 -> 6 (-1)"]
