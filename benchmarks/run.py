#!/usr/bin/env python3
"""Benchmark of ttscheck: one workload per process, driven through
`ttscheck.cli.main` on generated inputs.

    python3 benchmarks/run.py --workload scale-pass --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
workload's invocations are repeated, in passes, until `--seconds` seconds
have passed, and every report is checked against the workload's expected
verdicts (see `verify.py`).
The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`:

- `--trace 0`: the end-to-end metrics `wall_s` (median wall time of one pass
  over the invocations), `setup_s` (median over fresh processes of importing
  `ttscheck.cli` and loading and validating the inputs) and `peak_rss_mb`.
  Both times are rescaled to a fixed reference speed of the machine, measured
  by a fixed unit of work timed inside each pass and in each set-up process
  (see `calibrate.py`); the raw times are printed above the JSON line.
  `error_rate` and `wrong_verdicts` are printed above the JSON line; they
  are `failed` / `attempted` and the reason `correct` is false.
- `--trace 1`: per-layer self times and counters from spans recorded around
  ttscheck's functions (see `tracing.py`), alternating untraced and traced
  passes; `trace_overhead_s` is the median, over pairs of adjacent passes,
  of the traced minus the untraced wall time.

`--workload all` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh processes timed for `setup_s`: a few before each pass, so that the
# samples spread over the run, and more at the end up to SETUP_RUNS.
SETUP_PER_PASS = 3
SETUP_RUNS = 21
# ttscheck exit codes of a failed invocation: input error, exhausted budget.
FAILED_EXITS = (2, 3)

SETUP_CODE = """\
import sys, time
src, bench = sys.argv[1:3]
sys.path.insert(0, src)
t0 = time.perf_counter()
import ttscheck.cli
from ttscheck.model import load_tts
from ttscheck.patterns import parse_pattern_file, validate_pattern
for model, patterns in zip(sys.argv[3::2], sys.argv[4::2]):
    m = load_tts(model)
    if patterns:
        with open(patterns, encoding="utf-8") as f:
            for p in parse_pattern_file(f.read()):
                if validate_pattern(p, m):
                    sys.exit(f"invalid pattern in {patterns}")
elapsed = time.perf_counter() - t0
if not ttscheck.cli.__file__.startswith(src):
    sys.exit("ttscheck was not imported from " + src)
sys.path.insert(0, bench)
import calibrate
calibrate.unit()
units = [calibrate.time_unit() for _ in range(4)]
print(repr(elapsed), repr(sum(units) / len(units)))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class SetupTimer:
    """Set-up time of fresh processes on the workload's inputs."""

    def __init__(self, invocations):
        args = []
        for inv in invocations:
            args += [str(inv.model), str(inv.pattern_file or "")]
        self.cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE)] + args
        self.samples = []  # (raw set-up time, unit time) per process
        self._run()  # fills the bytecode cache, as a user's first run would

    def _run(self) -> tuple:
        done = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        raw, unit = map(float, done.stdout.split())
        return raw, unit

    def sample(self, n: int) -> None:
        self.samples += [self._run() for _ in range(n)]

    def scaled(self) -> list:
        return [calibrate.scale(raw, [unit]) for raw, unit in self.samples]


def run_invocations(cli, invocations, tracer=None):
    """Call `cli.main` once per invocation.

    Returns the wall time from the first call to the end of the last, and
    (exit code or None after a traceback, stdout, stderr) per invocation.
    """
    results = []
    t0 = time.perf_counter()
    for inv in invocations:
        if tracer is not None:
            tracer.command = inv.command
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(inv.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
        results.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - t0, results


class Tally:
    """Invocations attempted and failed, and wrong outcomes, over a run."""

    def __init__(self, wrong_outcomes):
        self.wrong_outcomes = wrong_outcomes
        self.attempted = self.failed = self.wrong = 0

    def add(self, invocations, results) -> None:
        for inv, (code, stdout, stderr) in zip(invocations, results):
            self.attempted += 1
            if code is None or code in FAILED_EXITS:
                self.failed += 1
                print(f"failed: ttscheck {' '.join(inv.argv)} -> {code}\n{stderr}",
                      file=sys.stderr)
            wrong = self.wrong_outcomes(inv, stdout)
            if wrong:
                print(f"wrong: {wrong} outcome(s) of ttscheck {' '.join(inv.argv)}",
                      file=sys.stderr)
            self.wrong += wrong


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_per_edge", "_per_class")):
        return "ratio"
    if name == "peak_rss_mb":
        return "MB"
    return "count"


def measure(args, workdir: Path) -> dict:
    from ttscheck import cli
    from verify import wrong_outcomes

    outdir = workdir / "out"
    invocations = workloads.generate(args.workload, args.seed, workdir / "inputs",
                                     outdir)
    setup = None if args.trace else SetupTimer(invocations)
    tally = Tally(wrong_outcomes)
    walls, scaled_walls, all_units, traced_walls, layers = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if setup is not None:
            setup.sample(SETUP_PER_PASS)
        shutil.rmtree(outdir, ignore_errors=True)
        if args.trace:
            wall, results = run_invocations(cli, invocations)
        else:
            with calibrate.ticking() as units:
                wall, results = run_invocations(cli, invocations)
            wall -= sum(units)
            scaled_walls.append(calibrate.scale(wall, units))
            all_units += units
        walls.append(wall)
        tally.add(invocations, results)
        if args.trace:
            shutil.rmtree(outdir, ignore_errors=True)
            tracer = tracing.Tracer()
            with tracer.installed():
                wall, results = run_invocations(cli, invocations, tracer)
            traced_walls.append(wall)
            layers.append(tracing.layer_metrics(tracer, wall))
            del tracer
            tally.add(invocations, results)
        if time.perf_counter() >= deadline:
            break

    print(f"{args.workload} seed={args.seed}: {len(walls)} pass(es) of "
          f"{len(invocations)} invocation(s)")
    print(f"  raw wall        {statistics.median(walls):.6f} s    median of "
          f"{len(walls)} passes: " + " ".join(f"{w:.4f}" for w in walls))
    if args.trace:
        metrics = {name: statistics.median(run[name] for run in layers)
                   for name in layers[0]}
        metrics["trace_overhead_s"] = statistics.median(
            traced - plain for plain, traced in zip(walls, traced_walls))
        for name in sorted(metrics):
            print(f"  {name:34} {metrics[name]:.6g} {unit_of(name)}")
    else:
        setup.sample(SETUP_RUNS - len(setup.samples))
        wall_s = statistics.median(scaled_walls)
        setup_s = statistics.median(setup.scaled())
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"  wall_s          {wall_s:.6f} s    median of {len(walls)} scaled "
              "passes: " + " ".join(f"{w:.4f}" for w in scaled_walls))
        print(f"  calibration     {statistics.median(all_units):.6f} s    median "
              f"of {len(all_units)} units in passes (reference "
              f"{calibrate.REFERENCE_S} s)")
        print(f"  raw setup       {statistics.median(r for r, _ in setup.samples):.6f} s"
              f"    median of {len(setup.samples)} fresh processes")
        print(f"  setup_s         {setup_s:.6f} s    median of "
              f"{len(setup.samples)} scaled fresh processes")
        print(f"  peak_rss_mb     {metrics['peak_rss_mb']:.1f} MB")
        print(f"  error_rate      {tally.failed / tally.attempted:g}    "
              f"{tally.failed} of {tally.attempted} invocations failed")
        print(f"  wrong_verdicts  {tally.wrong} count")
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def run_all(args) -> int:
    worst = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, timeout=600)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "ttscheck" / "cli.py").is_file():
        print(f"error: no ttscheck sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
