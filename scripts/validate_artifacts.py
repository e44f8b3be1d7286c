#!/usr/bin/env python3
"""Validate the observability JSON artifacts of one smoke run.

Usage: scripts/validate_artifacts.py DIR

DIR holds the files the smoke steps write (docs/TESTING.md):

  bench_vm_throughput --smoke --profile vm_profile.speedscope.json
  bench_explore --smoke --serve 0 --trace smoke_trace.json \\
      --metrics smoke_metrics.json \\
      --profile campaign_profile.speedscope.json
  bench_explore --repro ZSNES pct:d2:s2 --trace repro_trace.json \\
      --metrics repro_metrics.json --timeline
  bench_explore --diagnose ZSNES pct:d2:s2 \\
      --diagnose-json repro_diagnosis.json
  bench_explore --fix ZSNES pct:d2:s2 --fix-json zsnes_fix.json
  bench_explore --fix MySQL1 --fix-json mysql1_fix.json

Every check is an assertion; the first failing one exits 1 with a
traceback naming it.  CI and the tool_modes ctest both run this script.
"""
import json
import os
import re
import sys
import traceback


def load(path):
    with open(path) as f:
        return json.load(f)


def validate():
    # A campaign smoke run may find no failing schedule, in which case
    # no smoke trace is written; the repro artifacts must always exist.
    for path, required in [("repro_trace.json", True),
                           ("repro_metrics.json", True),
                           ("repro_diagnosis.json", True),
                           ("smoke_trace.json", False),
                           ("smoke_metrics.json", False),
                           ("BENCH_explore.json", True),
                           ("BENCH_vm.json", True)]:
        if not os.path.exists(path):
            assert not required, f"missing artifact {path}"
            continue
        load(path)
        print(f"{path}: valid JSON ({os.path.getsize(path)} bytes)")
    trace = load("repro_trace.json")
    events = trace["traceEvents"]
    assert events, "repro trace has no events"
    kinds = {e.get("ph") for e in events}
    assert "M" in kinds and "i" in kinds, f"trace phases: {kinds}"
    assert any(e.get("name", "").startswith("recovery x")
               for e in events), "no recovery episode in trace"
    # Postmortem diagnosis: the ZSNES repro must carry at least one
    # episode with a racy pair and a non-unknown verdict.
    diag = load("repro_diagnosis.json")
    episodes = diag["episodes"]
    assert episodes, "diagnosis has no recovery episodes"
    ep = episodes[0]
    assert ep["verdict"] != "unknown", ep["verdict"]
    assert ep["variable"], "no racing variable named"
    assert "racing_access" in ep, "no racing access reconstructed"
    print(f'diagnosis: {ep["verdict"]} on {ep["variable"]}')
    # Prometheus exposition: --metrics writes FILE plus FILE with a
    # .prom extension in text format 0.0.4.
    prom = open("repro_metrics.prom").read()
    assert "# TYPE" in prom, "no TYPE lines in exposition"
    assert '_bucket{le="+Inf"}' in prom, "no +Inf bucket"
    assert "_count" in prom and "_sum" in prom, "histogram " \
        "summary series missing"
    print(f"repro_metrics.prom: {len(prom)} bytes, "
          f"{prom.count(chr(10))} lines")
    # Replay corpus: every kernel whose failure the smoke campaign
    # rediscovered must carry a cross-engine-verified minimised replay
    # log on disk.
    bench = load("BENCH_explore.json")
    corpus = 0
    for k in bench["kernels"]:
        if not k["first_failure"]:
            continue
        rl = k["replay_log"]
        assert "error" not in rl, f'{k["name"]}: {rl["error"]}'
        assert rl["cross_engine_verified"], k["name"]
        assert os.path.exists(rl["path"]), rl["path"]
        head = open(rl["path"]).readline().strip()
        assert head == "conair-replay v1", head
        corpus += 1
    assert corpus > 0, "smoke campaign produced no replay logs"
    print(f"replay corpus: {corpus} verified minimised logs")
    # Interleaving coverage: every kernel row carries nonzero distinct
    # edges, a well-formed digest, and a growth curve.
    for k in bench["kernels"]:
        cov = k["coverage"]
        assert cov["distinct_edges"] > 0, k["name"]
        assert re.fullmatch(r"[0-9a-f]{16}", cov["digest"]), \
            f'{k["name"]}: {cov["digest"]}'
        assert cov["growth"], k["name"]
        assert 0.0 <= cov["novelty_rate"] <= 1.0, k["name"]
    print(f'coverage: nonzero edges on all '
          f'{len(bench["kernels"])} kernels')
    # The telemetry server ran alongside this campaign: the
    # no-interference guard row must be present and populated.
    guard = bench["serve_guard"]
    assert guard["scrapers"] == 64 and guard["scrapes"] > 0
    assert guard["bare_sched_per_sec"] > 0
    assert guard["loaded_sched_per_sec"] > 0
    print(f'serve guard: {guard["scrapes"]} scrapes, '
          f'{guard["ratio"]}x throughput under load')
    # Fix pass: every kernel the smoke campaign diagnosed must carry a
    # validated patch document (the --fix-json schema: synthesis +
    # replay check + patched campaign + overhead bound).
    fixed = 0
    for k in bench["kernels"]:
        if "fix" not in k:
            continue
        fx = k["fix"]
        assert fx["ok"], f'{k["name"]}: {fx["error"]}'
        val = fx["validation"]
        assert val["ok"], f'{k["name"]}: {val["error"]}'
        assert fx["strategy"] in ("wait-for-value", "lock-guard",
                                  "lock-order"), fx["strategy"]
        assert val["replayChecked"] and val["replayFailureGone"]
        assert val["campaignRan"] and val["schedules"] > 0
        assert val["failing"] == 0
        assert val["deadlocks"] == 0
        assert val["divergences"] == 0
        assert val["overheadOk"] and val["overhead"] <= 1.3
        fixed += 1
    assert fixed > 0, "smoke campaign attempted no fixes"
    print(f"fix pass: {fixed} kernels patched and validated")
    # Standalone --fix-json reports.
    for path in ("zsnes_fix.json", "mysql1_fix.json"):
        fx = load(path)
        assert fx["ok"], fx.get("error")
        assert fx["edits"], "fix has no edits"
        assert fx["validation"]["ok"], fx["validation"]
    assert load("zsnes_fix.json")["strategy"] == "wait-for-value"
    m1 = load("mysql1_fix.json")
    assert m1["strategy"] == "lock-guard", m1["strategy"]
    assert m1["usedExistingMutex"], "MySQL1 must reuse log_lock"
    print("fix reports: zsnes + mysql1 validated")
    # Recovery-cost profiles: every kernel row and the campaign top
    # level carry a ProfileAgg; somewhere in the smoke matrix the
    # recovery tax must be nonzero (ZSNES trips early).
    taxed = 0
    for k in bench["kernels"]:
        prof = k["profile"]
        for key in ("total", "policies", "wall"):
            assert key in prof, f'{k["name"]}: missing {key}'
        assert prof["total"]["runs"] > 0, k["name"]
        taxed += prof["total"]["recovery_tax"]["episodes"]
    top = bench["profile"]
    assert top["runs"] > 0, "empty campaign profile"
    assert top["total_ticks"] > 0, "empty campaign profile"
    assert taxed > 0, "smoke campaign booked no recovery tax"
    print(f"profiles: {taxed} recovery episodes across kernels")
    # The standalone speedscope exports parse and carry frames.
    for path in ("vm_profile.speedscope.json",
                 "campaign_profile.speedscope.json"):
        sp = load(path)
        assert sp["$schema"].endswith("file-format-schema.json")
        assert sp["shared"]["frames"] and sp["profiles"], path
    print("speedscope exports: valid")


def main(argv):
    if len(argv) != 2:
        print("usage: validate_artifacts.py DIR", file=sys.stderr)
        return 2
    os.chdir(argv[1])
    try:
        validate()
    except (AssertionError, KeyError, OSError, ValueError):
        # The traceback names the failing check's line.
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
