#!/usr/bin/env python3
"""Benchmark of ``tma``: four workloads, end-to-end metrics, and a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-flow --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures one workload for ``--seconds`` seconds, a closed loop
of passes from this process, and reports the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` replays every workload once with a span
around each call into a public ``tma`` function and reports the per-layer
metrics; ``--workload`` then names the workload whose tracing overhead is
reported.  ``--workload all`` runs each workload untraced and then one traced
run, in fresh processes, prints every metric by name with its unit, and
exits non-zero if any output was wrong.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, with
each per-layer metric's tail percentile and sample count, the provenance,
and the spans of a traced run, go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

from provenance import THREAD_VARS

# One BLAS/OpenMP thread per process, set before NumPy loads; pool workers
# inherit it, so no run uses more threads than the machine has cores.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep-flow", "sweep-legendre", "grid-explicit", "grid-implicit")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 900


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="length of the measured loop (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time import and input set-up, print them, and exit")
    return ap.parse_args(argv)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _import_tma() -> float:
    """Import the package from this checkout's ``src``; return the seconds it took."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    try:
        import tma
    except ImportError as e:
        print(f"error: cannot import tma from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    seconds = time.perf_counter() - t0
    if not os.path.abspath(tma.__file__).startswith(SRC + os.sep):
        print(f"error: tma was imported from {tma.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return seconds


def _setup(workload: str, seed: int, run_dir: str):
    import_s = _import_tma()
    import workloads

    t0 = time.perf_counter()
    target = workloads.FACTORIES[workload](seed, os.path.join(run_dir, workload))
    return import_s, time.perf_counter() - t0, target


def _setup_probes(workload: str, seed: int) -> list:
    """Set-up timed again in fresh processes, one after another."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
        sample = json.loads(res.stdout.strip().splitlines()[-1])
        out.append((sample["import_s"], sample["inputs_s"]))
    return out


def _load_digests(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def _measure(target, ledger, seconds: int) -> dict:
    """The closed loop: rounds of passes back to back until ``seconds`` have elapsed.

    A serial workload runs one pass on each CPU per round, pinned in turn,
    and a sample is the round's mean.  The CPUs of a shared machine can run
    at different speeds; left to the scheduler, which CPU a run happened to
    use would decide its median.  A pooled workload already uses every CPU,
    so its rounds are single passes.
    """
    cpus = sorted(os.sched_getaffinity(0))
    rotate = target.workers == 1 and len(cpus) > 1
    per_round = len(cpus) if rotate else 1
    passes = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            if rotate:
                os.sched_setaffinity(0, {cpus[len(passes) % per_round]})
            passes.append(target.run_pass(ledger))
            if time.perf_counter() >= deadline and len(passes) % per_round == 0:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    rounds = [passes[i:i + per_round] for i in range(0, len(passes), per_round)]
    return {
        "passes": passes,
        "round_s": [sum(p[0] for p in r) / per_round for r in rounds],
        "round_work_per_s": [sum(p[1] for p in r) / sum(p[2] for p in r) for r in rounds],
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _traced(workload: str, target, seed: int, run_dir: str, ledger) -> dict:
    import workloads as wl
    from tracer import Tracer

    targets = {workload: target}
    for name in WORKLOADS:
        if name not in targets:
            targets[name] = wl.FACTORIES[name](seed, os.path.join(run_dir, name))
    pass_s = {name: targets[name].run_pass(ledger)[0] for name in WORKLOADS}

    tracer = Tracer(enabled=True)
    for name in ("sweep-flow", "sweep-legendre"):
        targets[name].serial_suites(tracer, ledger)

    def untraced_replay() -> float:
        t0 = time.perf_counter()
        target.replay(Tracer(enabled=False), ledger)
        return time.perf_counter() - t0

    def traced_replay(name: str) -> float:
        t0 = time.perf_counter()
        targets[name].replay(tracer, ledger)
        return time.perf_counter() - t0

    # Two untraced replays bracket the traced one, so a drift in machine
    # speed during the run does not read as tracing overhead.
    before = untraced_replay()
    traced = {workload: traced_replay(workload)}
    untraced = 0.5 * (before + untraced_replay())
    for name in WORKLOADS:
        if name != workload:
            traced[name] = traced_replay(name)

    samples = wl.layer_samples(tracer, targets["grid-explicit"])
    single = {}
    for name in ("grid-explicit", "grid-implicit"):
        single.update(targets[name].alloc_probes())
    flow_draws = sum(sum(tracer.durations("sweep.draw", s))
                     for s in wl.COMPLEX_SUITES + ("real-complexify",))
    single["cli.pool_efficiency"] = flow_draws / (2.0 * pass_s["sweep-flow"])
    single["trace.overhead_share"] = (traced[workload] - untraced) / untraced
    return {"tracer": tracer, "samples": samples, "single": single,
            "pass_s": pass_s, "replay_untraced_s": untraced, "replay_traced_s": traced,
            "targets": targets}


def _emit(spec_key: str, spec: dict, stats: dict, ledger) -> dict:
    """Metrics in the order BENCHMARK.json lists them; a missing one is a failure."""
    metrics = {}
    for entry in spec[spec_key]:
        name = entry["name"]
        if name not in stats:
            ledger.record(f"metric {name}", "no samples were measured")
            continue
        metrics[name] = {"value": stats[name]["median"], "unit": entry["unit"]}
    for name in stats:
        if name not in metrics and not any(e["name"] == name for e in spec[spec_key]):
            ledger.record(f"metric {name}", "measured but not listed in BENCHMARK.json")
    return metrics


def _one(stat: float) -> dict:
    return {"median": stat, "tail": stat, "tail_pct": 100, "n": 1}


def run_workload(args) -> int:
    spec = _load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        import_s, inputs_s, target = _setup(args.workload, args.seed, run_dir)
        if args.setup_probe:
            print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
            return 0
        return _run(args, spec, seconds, run_dir, target, import_s, inputs_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, spec, seconds, run_dir, target, import_s, inputs_s) -> int:
    import provenance
    import workloads as wl
    from tracer import summary

    digests_path = os.path.join(OUT, "digests.json")
    ledger = wl.Ledger(_load_digests(digests_path))
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": seconds}
    known_attempted = known_failed = 0
    if args.trace == 0:
        m = _measure(target, ledger, seconds)
        if args.workload == "grid-implicit":
            known_attempted = 1
            try:
                problem = target.known_defect()
            except Exception as e:  # any failure of the probe is still the defect showing
                problem = f"{type(e).__name__}: {e}"
            known_failed = int(problem is not None)
            result["known_defect"] = {"probe": "rigidity suite at 65 nodes", "problem": problem}
        result["passes"] = m["passes"]
    else:
        t = _traced(args.workload, target, args.seed, run_dir, ledger)
        result.update({k: t[k] for k in ("pass_s", "replay_untraced_s", "replay_traced_s")})
    _write_json(digests_path, ledger.store)

    setups = [(import_s, inputs_s)] + _setup_probes(args.workload, args.seed)
    stats = {}
    if args.trace == 0:
        stats["setup_s"] = summary([a + b for a, b in setups])
        stats["wall_s"] = summary(m["round_s"])
        stats["work_per_s"] = summary(m["round_work_per_s"])
        stats["peak_rss_mb"] = _one(m["peak_rss_mb"])
        kinds_ok = sum(ledger.kinds.values()) + known_attempted - known_failed
        stats["pass_share"] = _one(kinds_ok / (len(ledger.kinds) + known_attempted))
        metrics = _emit("end_to_end", spec, stats, ledger)
    else:
        for name, (samples, scale) in t["samples"].items():
            if samples:
                stats[name] = summary(samples, scale)
        for name, value in t["single"].items():
            stats[name] = _one(value)
        stats["setup.import_s"] = summary([a for a, _ in setups])
        stats["setup.inputs_s"] = summary([b for _, b in setups])
        metrics = _emit("per_layer", spec, stats, ledger)
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        t["tracer"].dump(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"))

    prov = provenance.collect(ROOT, SRC)
    l2 = (prov["caches"].get("L2") or {}).get("bytes")
    sets = {}
    for w in (t["targets"].values() if args.trace else [target]):
        if hasattr(w, "working_set"):
            sets[w.name] = w.working_set(l2)
    attempted = ledger.attempted + known_attempted
    correct = ledger.failed == 0
    result.update({"correct": correct, "attempted": attempted, "failed": ledger.failed,
                   "errors": ledger.errors, "stats": stats, "setup_samples": setups,
                   "provenance": prov, "working_set_bytes": sets})
    _write_json(os.path.join(OUT, "results",
                             f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), result)

    for line in ledger.errors:
        print(f"FAILED {line}")
    if known_failed:
        print(f"known defect still present: {result['known_defect']['problem']}")
    for name, entry in metrics.items():
        s = stats[name]
        tail = f", p{s['tail_pct']} {s['tail']:.6g}" if s["n"] > 1 else ""
        print(f"{name} = {entry['value']:.6g} {entry['unit']} (n={s['n']}{tail})")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if sets:
        print("working_set_bytes " + json.dumps(sets, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": ledger.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced, then one traced run, each in a fresh process."""
    runs = [(w, 0) for w in WORKLOADS] + [(WORKLOADS[0], 1)]
    ok = True
    for workload, trace in runs:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--trace", str(trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        print(f"== {workload} trace={trace}", flush=True)
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        ok = ok and res.returncode == 0
    print(json.dumps({"correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
