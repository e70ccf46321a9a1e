#!/usr/bin/env python3
"""Record perfbench results of one or more fado checkouts into a BENCH file.

Run from the root of a fado checkout:

    python3 bench/record.py --out BENCH.json \
        --checkout parent=../fado-parent --checkout head=.

For each workload of ``BENCHMARK.json`` and each of ``--seeds`` seeds
(1, 2, ...), every checkout runs ``perfbench/run.py --workload W --seed S
--seconds T`` in its own directory, T being ``BENCHMARK.json``'s
``run_seconds``.  The checkouts take turns, and the one that goes first
alternates from run to run, so that drift of the host falls on both sides
alike.  Then each checkout makes one ``--trace 1`` run for the per-layer
metrics.

perfbench prints the run's environment on its second-to-last stdout line
and its result on the last; the BENCH file keeps, per checkout (one
section per label) and workload, the median, quartiles and IQR of each
end-to-end metric, every run's value, ``correct``, ``attempted``,
``failed``, the environment and ``src_lines``; and per checkout its
``revision`` and ``src_sha256``, a hash of its ``src/`` tree that names
the code measured even where the revision is unknown or dirty.
perfbench's ``openblas_threads`` is the thread count of its own driver
process, not of the ``fado`` processes it times, so the BENCH file names
it ``driver_openblas_threads``.

After recording, the script prints each end-to-end metric's change from
the first section of ``--out`` to its last, and with ``--compare
OTHER.json`` from the last section of OTHER to the last of ``--out``, next
to the bound that ``BENCHMARK.json`` allows, after the change in
``src_lines``.  This is a report: the exit status says only whether
recording worked and every output was correct.

Standard library only; perfbench itself needs numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]


def perfbench(checkout: Path, *args) -> tuple[dict, dict]:
    """One perfbench run in ``checkout``: (environment, result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)], cwd=checkout,
        capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"perfbench {' '.join(map(str, args))} in "
                           f"{checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def revision(checkout: Path):
    """``git describe --always --dirty`` of the checkout, or None."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or None


def tree_hash(checkout: Path) -> str:
    """SHA-256 of the checkout's ``src/**/*.py``: for each file, in sorted
    order of its path relative to ``src``, that path and its bytes, each
    after its length, so that equal trees hash equal wherever they lie."""
    digest = hashlib.sha256()
    src = checkout / "src"
    files = {path.relative_to(src).as_posix(): path
             for path in src.rglob("*.py")}
    for name in sorted(files):
        for part in (name.encode(), files[name].read_bytes()):
            digest.update(len(part).to_bytes(8, "little") + part)
    return digest.hexdigest()


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def record(checkouts: dict, seeds: int) -> dict:
    labels = list(checkouts)
    results = {label: {w: [] for w in WORKLOADS} for label in labels}
    envs = {}
    turn = 0
    for workload in WORKLOADS:
        for seed in range(1, seeds + 1):
            order = labels[turn % len(labels):] + labels[:turn % len(labels)]
            turn += 1
            for label in order:
                env, result = perfbench(
                    checkouts[label], "--workload", workload, "--seed", seed,
                    "--seconds", SECONDS)
                envs.setdefault(label, env)
                results[label][workload].append(result)
                print(f"{label} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), file=sys.stderr)
    doc = {"seconds": SECONDS, "seeds": seeds}
    for label in labels:
        env = {("driver_" + k if k == "openblas_threads" else k): v
               for k, v in envs[label].items()
               if k not in ("workload", "seed", "trace")}
        section = {"revision": revision(checkouts[label]),
                   "src_sha256": tree_hash(checkouts[label]),
                   "src_lines": env["src_lines"], "env": env,
                   "workloads": {}}
        for workload, runs in results[label].items():
            section["workloads"][workload] = {
                "runs": len(runs),
                "correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                                   **summary([r["metrics"][name]["value"]
                                              for r in runs])}
                            for name in runs[0]["metrics"]}}
        _, result = perfbench(checkouts[label], "--workload", WORKLOADS[0],
                              "--seed", 1, "--seconds", SECONDS, "--trace", 1)
        section["layers"] = {"correct": result["correct"],
                             "metrics": result["metrics"]}
        doc[label] = section
    return doc


def sections(doc: dict) -> list:
    return [key for key, value in doc.items()
            if isinstance(value, dict) and "workloads" in value]


def compare(old: dict, new: dict, title: str) -> None:
    """Print the change in ``src_lines``, when both sections hold it, and
    each end-to-end metric's median change beside its bound."""
    print(title)
    if "src_lines" in old and "src_lines" in new:
        a, b = old["src_lines"], new["src_lines"]
        print(f"  src_lines {a} -> {b} ({b - a:+d})")
    for workload, after in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for name, spec in BOUNDS.items():
            a, b = before["metrics"].get(name), after["metrics"].get(name)
            if a is None or b is None or a["median"] == 0:
                continue
            change = b["median"] / a["median"] - 1.0
            worse = change if spec["better"] == "lower" else -change
            verdict = ("beyond bound" if worse > spec["bound"]
                       else "better" if worse < 0 else "within bound")
            if abs(b["median"] - a["median"]) <= a["iqr"]:
                verdict += ", within the base's IQR"
            print(f"  {workload:14} {name:13} {a['median']:12.5g} -> "
                  f"{b['median']:12.5g} {spec['unit']:4} {change:+7.1%} "
                  f"(bound {spec['bound']:.0%}; {verdict})")
        print(f"  {workload:14} failed {before['failed']}/"
              f"{before['attempted']} -> {after['failed']}/"
              f"{after['attempted']}, correct {before['correct']} -> "
              f"{after['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path,
                        help="BENCH file to write")
    parser.add_argument("--checkout", action="append", required=True,
                        metavar="LABEL=DIR",
                        help="a fado checkout to record, under LABEL "
                             "(repeatable)")
    parser.add_argument("--seeds", type=int, default=3,
                        help="seeds per workload (default 3)")
    parser.add_argument("--compare", type=Path, metavar="OTHER.json",
                        help="also report against this BENCH file")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    checkouts = {}
    for item in args.checkout:
        label, sep, path = item.partition("=")
        if not sep or not label or not (Path(path) / "perfbench").is_dir():
            parser.error(f"--checkout {item}: want LABEL=DIR, DIR holding "
                         f"perfbench/")
        checkouts[label] = Path(path).resolve()
    doc = record(checkouts, args.seeds)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    labels = sections(doc)
    if len(labels) > 1:
        compare(doc[labels[0]], doc[labels[-1]],
                f"{args.out}: {labels[0]} -> {labels[-1]}")
    if args.compare:
        other = json.loads(args.compare.read_text())
        compare(other[sections(other)[-1]], doc[labels[-1]],
                f"{args.compare} -> {args.out}: {sections(other)[-1]} -> "
                f"{labels[-1]}")
    correct = all(w["correct"] for label in labels
                  for w in doc[label]["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
