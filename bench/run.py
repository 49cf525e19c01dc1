"""nk-triad benchmark: cold-start workloads over the library's public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md): tables-golden, identity-sweep,
analyze-irreducible.  Each sample is a fresh interpreter (bench/child.py), so
module caches start cold: it times set-up (import plus building the plan's
algebras) and then one timed pass over the seeded item list, checking every
item.  Samples run one at a time with BLAS on one thread, and times are CPU
seconds of the sample's process.

A shared host runs a busy thread up to a third slower for seconds to minutes
at a time, as other tenants load it.  So the child runs a fixed speed probe
(bench/speed.py) after each set-up step and every item, and from a CPU-time
timer within them, and times are scaled to the reference speed
REFERENCE_PROBE_S, each step and item by the probes around and within it.

--trace 0 makes max(1, round(S / SAMPLE_COST_S[workload])) timed samples: the
count follows --seconds, never the speed of the code measured.  run_s is the
median scaled pass and peak_rss_mb the median peak RSS.  setup_s is the median
scaled set-up of SETUPS cold set-ups: those of the timed samples, topped up
with set-up-only samples.

--trace 1 makes an untraced, a traced and an untraced sample and reports the
per-layer metrics of the traced one, with trace.overhead_s its scaled pass
minus the untraced median, all scaled by the bursts between items alone.

The last line of standard output is the JSON result; the full record (seed,
item list, machine, every sample) is written to bench/out/.
"""

from __future__ import annotations

import argparse
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
WORKLOADS = ("tables-golden", "identity-sweep", "analyze-irreducible")
RUN_LIMIT_S = 170.0
# nominal seconds of one timed sample, set-up included, on a 2-core Xeon VM
SAMPLE_COST_S = {"tables-golden": 18.0, "identity-sweep": 13.0,
                 "analyze-irreducible": 13.0}
SETUPS = 3
# CPU seconds of one speed probe (bench/speed.py) on a quiet 2-core Xeon VM;
# scaled times are the CPU seconds on a host that runs the probe this fast
REFERENCE_PROBE_S = 0.018
# more BLAS threads than the cores a shared host gives would time its scheduler
CHILD_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SampleFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, timeout: float, *flags: str) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"sample exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def machine_record() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "git_commit": commit, "src_sha256": digest.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(cpu_s: list[float], bursts: list[list[float]], fired: list[list[float]]) -> float:
    """Step CPU times summed at the reference speed.

    Step i is scaled by the mean of the probes around and within it: the
    bursts just before and after it, bursts[i] and bursts[i + 1], and those
    the timer fired while it ran, fired[i].
    """
    return sum(cpu * REFERENCE_PROBE_S / statistics.fmean(bursts[i] + fired[i] + bursts[i + 1])
               for i, cpu in enumerate(cpu_s))


def scaled_setup(sample: dict) -> float:
    return scaled(sample["setup_cpu_s"], sample["setup_probe_s"], sample["setup_fired_s"])


def median_pass(samples: list[dict], timer: bool = True) -> float:
    """Median scaled pass; with ``timer`` off, scaled by the bursts between
    items alone, as a traced sample (which runs no timer) has to be."""
    return statistics.median(
        scaled(s["item_cpu_s"], s["probe_s"], s["item_fired_s"] if timer else
               [[] for _ in s["item_cpu_s"]]) for s in samples)


def e2e_metrics(samples: list[dict], setups: list[dict]) -> dict:
    return {
        "run_s": metric(median_pass(samples), "s"),
        "setup_s": metric(statistics.median(scaled_setup(s) for s in setups), "s"),
        "peak_rss_mb": metric(statistics.median(s["maxrss_mb"] for s in samples), "MB"),
    }


def layer_metrics(samples: list[dict]) -> dict:
    from layers import per_layer

    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    derived = {
        "process.cpu_s": statistics.median(s["pass_cpu_s"] for s in plain),
        "process.pass_wall_s": statistics.median(s["pass_wall_s"] for s in plain),
        "speed.probe_s": statistics.median(t for s in plain
                                           for b in s["probe_s"] + s["item_fired_s"] for t in b),
        "process.blas_threads": plain[0]["software"]["blas"]["threads"],
        "trace.overhead_s": median_pass(traced) - median_pass(plain, timer=False),
    }
    out = {}
    for entry in per_layer():
        name = entry["name"]
        value = derived[name] if name in derived else \
            statistics.median(s["layers"][name] for s in traced)
        out[name] = metric(value, entry["unit"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nk_triad" / "__init__.py").is_file():
        print(f"error: no nk_triad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = time.monotonic()

    def sample(*flags: str) -> dict:
        return run_child(args.workload, args.seed,
                         RUN_LIMIT_S - (time.monotonic() - t0), *flags)

    # the traced sample sits between untraced ones: the first sample of a run
    # tends to be the slowest
    traced = [0, 1, 0] if args.trace else \
        [0] * max(1, round(args.seconds / SAMPLE_COST_S[args.workload]))
    try:
        samples = [sample("--trace", str(t)) for t in traced]
        setups = [s for s in samples if not s["traced"]]
        if not args.trace:
            setups += [sample("--setup-only") for _ in range(SETUPS - len(setups))]
    except SampleFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    metrics = layer_metrics(samples) if args.trace else e2e_metrics(samples, setups)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "algebras": samples[0]["algebras"], "items": samples[0]["items"],
        "machine": dict(machine_record(), software=samples[0]["software"]),
        "samples": [{k: v for k, v in s.items() if k not in ("software", "algebras", "items")}
                    for s in samples],
        "setup_samples": [{k: s[k] for k in ("setup_s", "setup_wall_s", "setup_cpu_s",
                                             "setup_fired_s", "setup_probe_s")}
                          for s in setups],
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "metrics": metrics,
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(samples)} samples, "
          f"items: {'; '.join(samples[0]['items'])}")
    for name, m in metrics.items():
        print(f"  {name:<58} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<58} {failed / attempted:.6g} ({failed}/{attempted} items)")
    for s in samples:
        for msg in s["failures"][:5]:
            print(f"  FAILED {msg}")
    sw = samples[0]["software"]
    print(f"  machine: {record['machine']['nproc']} cpus, {record['machine']['cpu_model']}, "
          f"python {sw['python']}, numpy {sw['numpy']}, scipy {sw['scipy']}, "
          f"{sw['blas']['numpy_blas']} {sw['blas']['numpy_blas_version']} "
          f"({sw['blas']['threads']} threads), commit {record['machine']['git_commit']}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
