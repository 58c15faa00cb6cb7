#!/usr/bin/env python3
"""seer-bench: end-to-end CloudSeer benchmark, raw log lines to verdicts.

Usage (from the repository root):

    python3 seerbench/run.py --workload paper-mix --seed 1 \
        --seconds 20 --trace 0

Builds seer_bench (seerbench/CMakeLists.txt, CloudSeer sources from
src/) into $CARGO_TARGET_DIR or .bench_build, checks the workload's
stream fingerprint, then replays the seed's stream in fresh processes
for about --seconds:

  --trace 0  measured runs (seer_bench --mode replay): a fixed number of
             processes per --seconds (process_seconds in expected.json),
             each line timed as its minimum over them; prints the
             end-to-end metrics.
  --trace 1  traced runs: spans around each layer's public entry points,
             rounds of one process per configuration until --seconds
             have passed; prints the per-layer metrics. One untraced
             replay per round checks that tracing changed no verdict.

Every stdout line but the last is information; the last is the result
object {"correct", "attempted", "failed", "metrics"}. The run exits 1
after printing a result with "correct": false when the fingerprint,
the verdict digest, the malformed-line count, the failed-execution
ceilings or the reconciliation check fails, and exits 2 without a
result when the program cannot be built or run.

--spin-ns N adds an N ns busy-wait to every line inside the timed
region (the sensitivity check, see sensitivity.py); it is not part of
the benchmark command.
"""

import argparse
import array
import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = json.loads((BENCH / "expected.json").read_text())
# Metric names and units come from the benchmark's declaration.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Processes per measured run never go below this, whatever --seconds is.
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150
BUILD_JOBS = "3"
# personality(2) flag that turns address-space randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000
LIBC = ctypes.CDLL(None, use_errno=True)


def info(obj):
    print(json.dumps(obj, sort_keys=True), flush=True)


def fail_hard(msg):
    print("seer-bench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build seer_bench; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_hard("no CloudSeer sources next to seerbench/ (src/ missing)")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail_hard("cmake configure failed")
    made = subprocess.run(
        ["cmake", "--build", str(out), "--target", "seer_bench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        fail_hard("build failed")
    return out / "seer_bench"


def environment():
    """hw threads, compiler, build type, commit and a source digest."""
    env = {"hw_threads": os.cpu_count()}
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    env["git_commit"] = commit
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py", ".json"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    env["source_sha256"] = digest.hexdigest()[:16]
    return env


def seer_bench(binary, workload, seed, mode, extra=(), cpu=None,
               fixed_layout=False):
    """Run one seer_bench process, pinned to `cpu` when given, and with
    address-space randomisation off when `fixed_layout` is set."""
    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--workdir", str(work), *extra]

    def prepare():
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        if fixed_layout:
            persona = LIBC.personality(0xFFFFFFFF)
            if persona == -1 or LIBC.personality(
                    persona | ADDR_NO_RANDOMIZE) == -1:
                raise OSError(ctypes.get_errno(), "personality")
    try:
        got = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=PROCESS_TIMEOUT_S, preexec_fn=prepare)
    except subprocess.TimeoutExpired:
        fail_hard(f"{mode} process timed out")
    except (OSError, subprocess.SubprocessError) as err:
        fail_hard(f"{mode} process could not start: {err}")
    if got.returncode != 0 or not got.stdout.strip():
        sys.stderr.write(got.stderr)
        fail_hard(f"{mode} process failed (exit {got.returncode})")
    return json.loads(got.stdout.strip().splitlines()[-1])


def check_shape(problems, label, shape, expected, band):
    """Compare a stream shape with the recorded one: exactly when band is
    0, else within that relative band (executions always exactly)."""
    pairs = [(k, shape[k], v) for k, v in expected.items() if k != "faults"]
    pairs += [("faults." + k, shape["faults"][k], v)
              for k, v in expected["faults"].items()]
    for key, got, want in pairs:
        if band == 0 or key == "executions":
            ok = got == want
        else:
            ok = abs(got - want) <= band * max(abs(want), 1)
        if not ok:
            problems.append(f"{label} {key}: {got} (expected {want})")


def median(values):
    return statistics.median(values) if values else 0.0


def gates(problems, workload, results):
    """Digest, malformed-line and failed-execution gates over a set of
    runs."""
    digests = {r["digest"] for r in results}
    if len(digests) != 1:
        problems.append(f"verdict digests differ across runs: "
                        f"{sorted(digests)}")
    for r in results:
        if r["malformed"] != 0:
            problems.append(f"{r['mode']}: {r['malformed']} malformed lines")
    ceiling = EXPECTED["failed_ceiling"][workload]
    worst = max(r["failed"] for r in results)
    if worst > ceiling:
        problems.append(f"{worst} executions failed, above the recorded "
                        f"ceiling of {ceiling}")


def quantile(sorted_values, q):
    return sorted_values[int(q * (len(sorted_values) - 1) + 0.5)]


def end_to_end(binary, args, problems):
    """Measured runs: N fresh processes, per-line best of N.

    Every process replays the identical stream through a deterministic
    program, so line i does the same work in each of them; what differs
    is interference from the rest of the host (shared caches, SMT
    siblings), which only ever adds time. Each line's service time is
    therefore taken as its minimum over the N processes, and throughput
    and percentiles are computed over those per-line times. Processes are
    pinned round-robin over the CPUs the run may use. N depends only on
    --seconds and the workload, never on how fast the machine is.
    """
    count = max(MIN_PROCESSES, round(
        args.seconds / EXPECTED["process_seconds"][args.workload]))
    cpus = sorted(os.sched_getaffinity(0))
    dump = build_dir() / "work" / f"lines-{os.getpid()}.bin"
    extra = ["--line-times", str(dump)]
    if args.spin_ns:
        extra += ["--spin-ns", str(args.spin_ns)]
    runs = []
    best = None
    for i in range(count):
        runs.append(seer_bench(binary, args.workload, args.seed, "replay",
                               extra, cpus[i % len(cpus)]))
        times = array.array("q", dump.read_bytes())
        best = times if best is None else array.array(
            "q", map(min, best, times))
    dump.unlink()
    # Peak RSS growth depends on where address-space randomisation puts
    # the heap: processes of one stream read one of a few values up to
    # 8% apart. One more replay with randomisation off reads the same
    # value on every run of a seed.
    memory = seer_bench(binary, args.workload, args.seed, "replay",
                        cpu=cpus[0], fixed_layout=True)
    gates(problems, args.workload, runs + [memory])

    finish = min(r["finish_ns"] for r in runs)
    ordered = sorted(best)
    # Set-up does the same work every time and the host only adds to
    # its time. Consecutive processes on one CPU ran it at one of two
    # speeds ~40% apart, so a median over processes followed the share
    # that caught the slow one; setup_s is the run's fastest set-up.
    setups = [s for r in runs for s in r["setup_s"]]
    metrics = {
        "throughput_lps": len(best) / ((sum(best) + finish) / 1e9),
        "line_p50_us": quantile(ordered, 0.50) / 1e3,
        "line_p99_us": quantile(ordered, 0.99) / 1e3,
        "setup_s": min(setups),
        "peak_rss_mb": memory["rss_growth_mb"],
        "verdict_ok_frac": 1.0 - runs[0]["fail_frac"],
    }
    info({"processes": count, "cpus": cpus,
          "line_samples": len(best), "line_observations": len(best) * count,
          "lines_beyond_p99": len(best) - 1 - int(0.99 * (len(best) - 1)
                                                  + 0.5),
          "setup_samples": len(setups),
          "setup_median_s": median(setups),
          "median_process_throughput_lps":
              median([r["throughput_lps"] for r in runs]),
          "fail_frac": runs[0]["fail_frac"],
          "executions": runs[0]["executions"], "faulted": runs[0]["faulted"],
          "correct_missed": runs[0]["correct_missed"],
          "faulted_missed": runs[0]["faulted_missed"],
          "digest": runs[0]["digest"]})
    return runs, metrics


def traced(binary, args, problems):
    """Traced runs: rounds of one fresh process per role, back to back.

    Layer times use the measured run's estimator: a line's time in a span
    is its minimum over the rounds, and a layer's cost per line is the
    sum of those minima over the lines, divided by the line count.
    """
    durable = EXPECTED["durable"][args.workload]
    # "bare", "flight" and "vault" add the flight recorder and the vault
    # to the workload's ingest configuration one at a time; "own" is the
    # one the measured run uses. "layers" re-drives feedLine layer by
    # layer; on the durable workload, whose ingest guards stand between
    # parse and the checker, it splits only decode from the rest, and
    # "unguarded" times parse and the checker without the guards.
    own = "vault" if durable else "bare"
    roles = ["replay", "bare", "flight", "vault", "layers"]
    if durable:
        roles.append("unguarded")
    spans_dir = build_dir() / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    work = build_dir() / "work"
    cpu = max(os.sched_getaffinity(0))
    best = {}
    rounds = []
    deadline = time.monotonic() + args.seconds
    while not rounds or time.monotonic() < deadline:
        got = {}
        for role in roles:
            base = f"trace-{os.getpid()}.{role}"
            dump = work / base
            extra = ["--line-times", str(dump)]
            if role != "replay":
                extra += ["--spans",
                          str(spans_dir / f"{args.workload}.{role}.tsv")]
            got[role] = seer_bench(binary, args.workload, args.seed, role,
                                   extra, cpu)
            # A replay dumps its line times; a traced pass one file per
            # span name.
            files = ({"line": dump} if role == "replay" else
                     {p.name[len(base) + 1:]: p
                      for p in work.glob(base + ".*")})
            for name, path in files.items():
                times = array.array("q", path.read_bytes())
                path.unlink()
                key = (role, name)
                best[key] = times if key not in best else array.array(
                    "q", map(min, best[key], times))
        rounds.append(got)
    # Every role but "unguarded" must reproduce the monitor's verdicts.
    compared = [role for role in roles if role != "unguarded"]
    everything = [r[role] for r in rounds for role in roles]
    gates(problems, args.workload, [r[role] for r in rounds
                                    for role in compared])

    lines = rounds[0][own]["lines"]

    def per_line(role, span):
        return sum(best.get((role, span), ())) / lines

    def counter(name, role=own):
        return median([r[role]["counters"].get(name, 0.0) for r in rounds])

    bare = per_line("bare", "monitor.feed")
    flight = per_line("flight", "monitor.feed")
    split = "unguarded" if durable else "layers"
    m = {
        "logging.decode_ns": per_line("layers", "logging.decode"),
        "logging.parse_ns": per_line(split, "logging.parse"),
        "checker.sweep_ns": per_line(split, "checker.sweep"),
        "checker.feed_ns": per_line(split, "checker.feed"),
        "monitor.feed_ns": bare,
        "flight.overhead_ns": flight - bare,
        "vault.append_ns": per_line("vault", "monitor.feed") - flight,
        "monitor.report_json_ns": per_line(own, "monitor.report_json"),
        "vault.checkpoint_ms": (
            per_line("vault", "vault.checkpoint") * lines / 1e6
            / rounds[0]["vault"]["spans"]["vault.checkpoint"]["count"]),
        "mining.build_ms": median([median(r[own]["mining_ms"])
                                   for r in rounds]),
        "analysis.verify_ms": counter("analysis.verify_ms", "bare"),
    }
    # Everything after decode: one measured layer on the durable
    # workload, the sum of the split layers elsewhere.
    m["monitor.ingest_ns"] = (
        per_line("layers", "monitor.ingest") if durable else
        m["logging.parse_ns"] + m["checker.sweep_ns"] + m["checker.feed_ns"])
    m["monitor.unattributed_ns"] = bare - (m["logging.decode_ns"]
                                           + m["monitor.ingest_ns"])
    for name in ("vault.wal_bytes_per_line", "vault.checkpoint_bytes",
                 "vault.recover_ms"):
        m[name] = counter(name, "vault")
    for name in ("checker.groups_mean", "checker.groups_peak",
                 "checker.decisive_frac",
                 "checker.consume_attempts_per_line",
                 "checker.recoveries_per_kline", "logging.interner_entries",
                 "monitor.reports_per_kline.accepted",
                 "monitor.reports_per_kline.error",
                 "monitor.reports_per_kline.timeout",
                 "monitor.reports_per_kline.degraded"):
        m[name] = counter(name)
    m["flight.bundle_bytes"] = counter("flight.bundle_bytes", "flight")

    fraction = EXPECTED["reconcile_fraction"]
    share = abs(m["monitor.unattributed_ns"]) / max(bare, 1e-9)
    if share > fraction:
        problems.append(f"layer self-times leave {share:.1%} of "
                        f"monitor.feed unattributed (limit {fraction:.0%})")
    info({"rounds": len(rounds), "roles": roles, "own_role": own,
          "unattributed_share": share, "reconcile_limit": fraction,
          "spans_dir": os.path.relpath(spans_dir, ROOT)})
    return everything, m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(EXPECTED["fingerprint"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spin-ns", type=int, default=0)
    args = parser.parse_args()

    binary = build()
    env = environment()

    problems = []
    # The stream at the fingerprint seed, replayed once (untimed): its
    # shape must match exactly and its failed executions stay at or
    # below the count recorded with the benchmark.
    canonical = seer_bench(binary, args.workload,
                           EXPECTED["fingerprint_seed"], "replay")
    check_shape(problems, "fingerprint", canonical["shape"],
                EXPECTED["fingerprint"][args.workload], 0)
    recorded = EXPECTED["fingerprint_failed"][args.workload]
    if canonical["failed"] > recorded or canonical["malformed"] != 0:
        problems.append(f"fingerprint seed: {canonical['failed']} failed "
                        f"executions (recorded {recorded}), "
                        f"{canonical['malformed']} malformed lines")
    info({"fingerprint_seed": EXPECTED["fingerprint_seed"],
          "fingerprint_failed": canonical["failed"],
          "fingerprint_digest": canonical["digest"]})
    own = seer_bench(binary, args.workload, args.seed, "shape")["shape"]
    check_shape(problems, f"seed {args.seed} shape", own,
                EXPECTED["fingerprint"][args.workload],
                EXPECTED["shape_band"])
    info({"workload": args.workload, "seed": args.seed, "shape": own})

    if args.trace:
        runs, values = traced(binary, args, problems)
        declared = DECLARED["per_layer"]
    else:
        runs, values = end_to_end(binary, args, problems)
        declared = DECLARED["end_to_end"]
    env.update(runs[0]["env"])
    info({"env": env})
    for problem in problems:
        print("seer-bench: FAIL " + problem, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["lines"] for r in runs),
        "failed": sum(r["malformed"] for r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
