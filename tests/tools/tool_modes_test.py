#!/usr/bin/env python3
"""The bench_explore and minicc tool modes, end to end.

Usage: tool_modes_test.py BENCH_EXPLORE MINICC BENCH_VM_THROUGHPUT VALIDATOR
                          COUNT_BENCH...

Runs, in a fresh temporary directory, every tool mode the CI smoke
steps run — --repro with --trace/--metrics/--timeline, --diagnose,
--record-replay + --minimize then --replay on both engines, --fix with
and without a token, a two-kernel smoke campaign with live telemetry,
and minicc --app --fix — checks their exit codes, checks that malformed
command lines (bench_vm_throughput's and those of the COUNT_BENCH
paper benches, whose only flags are positive counts, too) exit 2 with
a one-line error,
and finally runs the artifact validator (scripts/validate_artifacts.py)
over what they wrote.
"""
import os
import subprocess
import sys
import tempfile

FAILURES = []


def run(cmd, want_rc=0, want_out=None):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    shown = " ".join(os.path.basename(c) if i == 0 else c
                     for i, c in enumerate(cmd))
    if p.returncode != want_rc:
        FAILURES.append(f"{shown}: exit {p.returncode}, want {want_rc}\n"
                        f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
    elif want_out and want_out not in p.stdout:
        FAILURES.append(f"{shown}: stdout lacks {want_out!r}")
    elif want_rc == 2 and len(p.stderr.strip().splitlines()) < 1:
        FAILURES.append(f"{shown}: exit 2 without an error line")
    else:
        print(f"ok  {shown}")
    return p


def main(argv):
    if len(argv) < 5:
        print(__doc__, file=sys.stderr)
        return 2
    explore, minicc, vm_bench, validator = map(os.path.abspath, argv[1:5])
    count_benches = [os.path.abspath(b) for b in argv[5:]]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        run([vm_bench, "--smoke", "--runs", "1",
             "--profile", "vm_profile.speedscope.json"])
        run([explore, "--smoke", "--no-speedup", "--apps", "ZSNES,MySQL1",
             "--serve", "0", "--trace", "smoke_trace.json",
             "--metrics", "smoke_metrics.json",
             "--profile", "campaign_profile.speedscope.json"],
            want_out="wrote BENCH_explore.json")
        run([explore, "--repro", "ZSNES", "pct:d2:s2",
             "--trace", "repro_trace.json", "--metrics", "repro_metrics.json",
             "--timeline"], want_out="recovery timeline")
        run([explore, "--diagnose", "ZSNES", "pct:d2:s2",
             "--diagnose-json", "repro_diagnosis.json"],
            want_out="diagnosing the hardened leg")
        run([explore, "--repro", "ZSNES", "pct:d2:s2",
             "--record-replay", "zsnes.replay", "--minimize"],
            want_out="wrote zsnes.replay")
        for engine in ("reference", "fused"):
            run([explore, "--replay", "zsnes.replay", "--engine", engine],
                want_out="replay FAITHFUL")
        run([explore, "--fix", "ZSNES", "pct:d2:s2", "--seeds", "4",
             "--fix-json", "zsnes_fix.json"], want_out="VALIDATED")
        run([explore, "--fix", "MySQL1", "--seeds", "4",
             "--fix-json", "mysql1_fix.json"], want_out="VALIDATED")
        run([minicc, "--app", "ZSNES", "--fix"], want_out="wait-for-value")

        for bad in (["--help"], ["--bogus-flag"], ["--smoke", "--seeds", "x"],
                    ["--smoke", "--seeds", "99999999999999999999"],
                    ["--smoke", "--workers", "4x"],
                    ["--smoke", "--guided-budget", "-1"],
                    ["--smoke", "--serve", "http"],
                    ["--repro", "ZSNES"], ["--diagnose"], ["stray"]):
            run([explore] + bad, want_rc=2)
        for bad in (["--help"], ["--app", "ZSNES", "--seed", "banana"],
                    ["--app", "ZSNES", "--quantum", "1e3"],
                    ["--app", "ZSNES", "--max-steps", "99999999999999999999"],
                    ["--app", "ZSNES", "--serve", "1", "--serve-seconds", "x"],
                    ["--app", "ZSNES", "--delay", "1:x"]):
            run([minicc] + bad, want_rc=2)
        for bad in (["--help"], ["--bogus-flag"], ["--runs"],
                    ["--smoke", "--runs", "x"], ["--smoke", "--runs", "0"],
                    ["--smoke", "--runs", "-1"],
                    ["--smoke", "--runs", "99999999999999999999"]):
            run([vm_bench] + bad, want_rc=2)
        # Each paper bench takes --runs, or --reps for the analysis-time
        # bench; none may start work on a malformed count.
        for bench in count_benches:
            flag = ("--reps" if "analysis_time" in os.path.basename(bench)
                    else "--runs")
            for bad in (["--help"], ["--bogus-flag"], [flag], [flag, "x"],
                        [flag, "0"], [flag, "-1"],
                        [flag, "99999999999999999999"]):
                run([bench] + bad, want_rc=2)

        run([sys.executable, validator, tmp], want_out="speedscope exports")
    for f in FAILURES:
        print(f"FAIL {f}", file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
