#!/usr/bin/env python3
"""Full-shape run of `lrsd analyze` and `lrsd decompose`, appended to a BENCH record.

    python3 scripts/bench_full.py [--rows 466423] [--seed 7] [--out BENCH_analyze_full.json]

Builds the benchmark's study panel (`perfbench/inputs.make_panel`, 32
studies over `--rows` SNPs) in a temporary directory, then runs, three
times in turn, each in a child process with one BLAS thread and `src/` on
its path:

  lrsd analyze --min-coverage 16 on the panel, then
  lrsd decompose on the `z.tsv` that analyze wrote.

A single run per command would sit inside the machine's drift between
runs: on a 2-vCPU VM two runs of analyze ten minutes apart differed by a
fifth. It appends one record to `--out` (a JSON list): the commit and
whether tracked files differ from it (both null outside a git checkout),
the machine, and per command the median over its runs of its wall and CPU
time, of each `time_<stage>_s` of its manifest, of its `ru_maxrss` and
`ru_minflt` (minor page faults, which show the copy-on-write cost of the
forked TSV writers) from `os.wait4` and of the bytes of each output file,
with every run itself under `runs`; then analyze's entry F1 against the
planted signal and its optimality residual over alpha, from
`perfbench/checks.check_analyze`, which also checks its outputs. Run it
from anywhere; at the full shape it takes ten minutes or more and about
1.5 GB of temporary disk.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import check_analyze  # noqa: E402
from inputs import MIN_COVERAGE, load_truth, make_panel  # noqa: E402
from run import child_env, machine  # noqa: E402

RUNS = 3   # runs per command, alternating analyze and decompose
PEAK_NOTE = ("ru_maxrss is the peak of the largest single process, the child or one of "
             "the TSV writers it forks; the writers' memory, held beside the child's, "
             "is not counted")


def run_child(args: list[str], out: Path) -> dict:
    """Run one `lrsd` command in a child process; its times, peak, minor page
    faults and output bytes."""
    env = dict(child_env(), PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "lrsd.cli", *args, "--out", str(out)], env=env)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"error: lrsd {args[0]} exited {code}")
    with open(out / "manifest.txt") as fh:
        manifest = dict(line.rstrip("\n").partition("=")[::2] for line in fh)
    return dict(
        wall_s=round(wall, 3),
        cpu_s=round(ru.ru_utime + ru.ru_stime, 3),
        ru_minflt=ru.ru_minflt,
        ru_maxrss_mb=round(ru.ru_maxrss / 1024, 1),
        stages={k: float(v) for k, v in manifest.items()
                if k.startswith("time_") or k == "duration_s"},
        output_bytes={p.name: p.stat().st_size for p in sorted(out.iterdir())},
    )


def medians(runs: list[dict]) -> dict:
    """The runs' records with each number replaced by its median over the runs."""
    return {key: medians([r[key] for r in runs]) if isinstance(value, dict)
            else statistics.median(r[key] for r in runs)
            for key, value in runs[0].items()}


def git_state(root: Path = ROOT) -> tuple[str | None, bool | None]:
    """The commit checked out at `root` and whether tracked files differ from
    it; (None, None) when git is missing or `root` is not in a git checkout,
    so that a record of such a copy claims no commit and no clean code."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", type=int, default=466_423, help="SNPs in the panel")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_analyze_full.json")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        panel, an, dec = Path(tmp, "panel"), Path(tmp, "analyze"), Path(tmp, "decompose")
        panel.mkdir()
        t0 = time.perf_counter()
        make_panel(panel, args.seed, n=args.rows)
        setup_s = time.perf_counter() - t0
        runs = dict(analyze=[], decompose=[])
        for _ in range(RUNS):   # each run writes over the files of the one before
            runs["analyze"].append(run_child(["analyze", "--manifest", str(panel / "studies.txt"),
                                              "--min-coverage", str(MIN_COVERAGE)], an))
            runs["decompose"].append(run_child(["decompose", "--input", str(an / "z.tsv")], dec))
        residual_rel, (f1,) = check_analyze(an, dict(truth=load_truth(panel)))

    commit, dirty = git_state()
    record = dict(
        commit=commit,
        # tracked files differ from the commit: the record measures uncommitted code
        dirty=dirty,
        date=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        rows=args.rows,
        seed=args.seed,
        machine=machine(),
        setup_s=round(setup_s, 3),
        **{command: dict(medians(r), runs=r) for command, r in runs.items()},
        entry_f1=f1,
        residual_rel=residual_rel,
        peak_note=PEAK_NOTE,
    )
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    records.append(record)
    args.out.write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
