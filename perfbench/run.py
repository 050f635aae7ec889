#!/usr/bin/env python3
"""Build the perfbench runner from source and run one workload.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the lines
before it give the provenance (host, toolchain, revision, seed, input
sizes, warm-up and trial counts) and the exact model counts.  A full
record per run, and the spans of a traced run, go to .perfbench/.

Exit codes: 0 correct; 1 an oracle rejected an output, or an exact count
did not repeat across runs of the same seed; 2 the benchmark could not be
built or run.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
EXE = ROOT / "_build" / "default" / "perfbench" / "perfbench.exe"

DEFAULT_SEED = 1
# Never used while the benchmark was written; a claim made on other seeds
# can be confirmed on it.
HELD_OUT_SEED = 9973
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def find_dune():
    """dune from PATH, else from the active or any opam switch."""
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    if os.environ.get("OPAM_SWITCH_PREFIX"):
        candidates.append(os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    die("dune not found on PATH or in an opam switch")


def build():
    for need in ("dune-project", "lib"):
        if not (ROOT / need).exists():
            die(f"{ROOT / need} is missing: run from a full checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [find_dune(), "build", "--root", str(ROOT), "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if proc.returncode != 0 or not EXE.exists():
        sys.stderr.write(proc.stdout)
        die("build failed")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_exe(args):
    try:
        proc = subprocess.run(
            [str(EXE), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s: {' '.join(args)}")
    return proc.returncode, proc.stdout.splitlines()


def source_digest():
    """Content hash of the sources the result depends on, so a result can be
    tied to its code when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "dune-project", ROOT / "BENCHMARK.json"]
    for d in ("lib", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return None
    return rev.stdout.strip() or None


def exercised(workload, trace):
    """The metric names the runner prints for a workload: every end-to-end
    metric untraced; traced, the per-layer metrics layers.json says the
    workload exercises."""
    decl = declared()
    if not trace:
        return {m["name"] for m in decl["end_to_end"]}
    layers = json.loads((HERE / "layers.json").read_text())
    return {name for name, row in layers.items() if workload in row["heavy_on"] + row["light_on"]}


def attach_units(workload, trace, result):
    """Give each printed value the unit BENCHMARK.json declares, print a
    declared per-layer metric the workload does not exercise as 0, and
    return the errors: a result key, or a printed metric name, that is not
    the declared one."""
    decl = declared()["per_layer" if trace else "end_to_end"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    printed, want = set(result["metrics"]), exercised(workload, trace)
    for name in sorted(printed - want):
        errors.append(f"metric {name} printed but not declared for {workload}")
    for name in sorted(want - printed):
        errors.append(f"metric {name} declared for {workload} but not printed")
    result["metrics"] = {
        m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]} for m in decl
    }
    return errors


def run_instance(workload, seed, seconds, trace, size, instance=0):
    """One runner process: returns (exit code, provenance, exact, result)."""
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    code, lines = run_exe([
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--size", size, "--instance", str(instance),
        "--out", str(OUT / "spans"),
    ])
    parsed = []
    for line in lines:
        try:
            parsed.append(json.loads(line))
        except ValueError:
            pass
    if code not in (0, 1) or len(parsed) < 3:
        die(f"{workload}: runner exited {code} without a result")
    return code, parsed[-3]["provenance"], parsed[-2]["exact"], parsed[-1]


def combine(parts):
    """The end-to-end result from the instances of an untraced run, one
    runner process each.  setup_s is the median over instances; run_s (each
    instance's median warm call) and time_to_solution_s are means over
    instances, the expected cost over the workload's inputs, which varies
    less from seed to seed than their median; model counts are means;
    heap_peak_mb is the largest process's."""
    figures = [result["metrics"] for _, _, _, result in parts]
    exacts = [exact for _, _, exact, _ in parts]
    attempted = sum(result["attempted"] for _, _, _, result in parts)
    failed = sum(result["failed"] for _, _, _, result in parts)
    mean = statistics.fmean
    run_s = mean(f["run_s"] for f in figures)
    messages = mean(e["messages"] for e in exacts)
    return {
        "correct": all(result["correct"] for _, _, _, result in parts),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(f["setup_s"] for f in figures),
            "run_s": run_s,
            "time_to_solution_s": mean(f["time_to_solution_s"] for f in figures),
            "msgs_per_s": messages / run_s,
            "requests_per_s": mean(f["answered"] for f in figures) / run_s,
            "rounds": mean(e["rounds"] for e in exacts),
            "messages": messages,
            "latency_p99_rounds": mean(e["latency_p99_rounds"] for e in exacts),
            "success_frac": 1 - failed / attempted,
            "heap_peak_mb": max(f["heap_peak_mb"] for f in figures),
        },
    }


def bench_once(workload, seed, seconds, trace, size="full"):
    """One run: returns (exit code, provenance, exact, result, errors).
    Traced, one runner process; untraced, one per instance."""
    first = run_instance(workload, seed, seconds, trace, size)
    parts = [first]
    if not trace:
        parts += [
            run_instance(workload, seed, seconds, trace, size, instance=i)
            for i in range(1, first[1]["instances"])
        ]
    code = max(part[0] for part in parts)
    prov, exact = first[1], first[2]
    result = first[3] if trace else combine(parts)
    errors = attach_units(workload, trace, result)
    # exact counts must repeat across runs of one seed and one source tree,
    # traced or not
    counts = {str(part[1]["instance"]): part[2] for part in parts}
    digest = source_digest()
    ledger = OUT / f"exact-{workload}-{size}-seed{seed}-{digest}.json"
    before = json.loads(ledger.read_text()) if ledger.exists() else {}
    for i in sorted(set(before) & set(counts)):
        for k in sorted(set(before[i]) | set(counts[i])):
            if before[i].get(k) != counts[i].get(k):
                errors.append(
                    f"instance {i}: exact count {k} differs from an earlier run: "
                    f"{before[i].get(k)} then {counts[i].get(k)}"
                )
    ledger.write_text(json.dumps({**counts, **before}, sort_keys=True))
    if not trace:
        samples = {k: [part[3]["metrics"][k] for part in parts] for k in ("setup_s", "time_to_solution_s", "run_s")}
        samples["warm_s"] = [part[1]["samples"]["warm_s"] for part in parts]
        prov.update(samples=samples, trials=sum(part[1]["trials"] for part in parts), warmup=len(parts))
    prov.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        git_revision=git_revision(),
        source_digest=digest,
    )
    return code, prov, exact, result, errors


def report(workload, args):
    """Run one workload, print its three lines, return the exit code."""
    code, prov, exact, result, errors = bench_once(workload, args.seed, args.seconds, args.trace)
    if errors:
        for e in errors:
            print(f"perfbench: {e}", file=sys.stderr)
        result["correct"] = False
        result["failed"] += 1
        code = 1
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, "exact": exact, "result": result}, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"exact": exact}))
    print(json.dumps(result), flush=True)
    return code


def main_run(args):
    build()
    names = [args.workload]
    if args.workload == "all":
        names = [w["name"] for w in declared()["workloads"]]
    sys.exit(max(report(w, args) for w in names))


def selftest():
    """Tiny sizes, seconds in total: every workload on the default and the
    held-out seed, traced and untraced, prints exactly the declared metrics
    and passes its oracle; every oracle rejects a tampered answer; the layer
    map covers exactly the declared per-layer metrics."""
    build()
    decl = declared()
    failures = []
    code, lines = run_exe(["--selftest"])
    print("\n".join(lines))
    if code != 0:
        failures.append("oracle self-test")
    names = [w["name"] for w in decl["workloads"]]
    for w in names:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                code, _, _, result, errors = bench_once(w, seed, 0.2, trace, size="tiny")
                ok = code == 0 and result["correct"] and not errors
                print(f"{w:14} seed {seed:<5} trace {trace}  {'ok' if ok else 'FAILED'}")
                for e in errors:
                    print(f"  {e}")
                if not ok:
                    failures.append(f"{w} seed {seed} trace {trace}")
    layers = json.loads((HERE / "layers.json").read_text())
    e2e = {m["name"] for m in decl["end_to_end"]}
    layer_errors = []
    if set(layers) != {m["name"] for m in decl["per_layer"]}:
        layer_errors.append("layers.json and BENCHMARK.json per_layer name different metrics")
    for name, row in layers.items():
        if not row["heavy_on"] + row["light_on"]:
            layer_errors.append(f"{name}: no workload exercises it")
        for m in row["moves"]:
            if m not in e2e:
                layer_errors.append(f"{name}: moves unknown metric {m}")
        for w in row["heavy_on"] + row["light_on"]:
            if w not in names:
                layer_errors.append(f"{name}: unknown workload {w}")
    print(f"{'layers.json':14} {'ok' if not layer_errors else 'FAILED'}")
    for e in layer_errors:
        print(f"  {e}")
    failures += layer_errors
    if failures:
        die(f"self-test failed: {'; '.join(failures)}", code=1)
    print("self-test ok")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="a workload of BENCHMARK.json, or all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="measuring time (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest()
    elif args.workload:
        if args.seconds is None:
            args.seconds = declared()["run_seconds"]
        main_run(args)
    else:
        p.error("--workload or --selftest is required")


if __name__ == "__main__":
    main()
