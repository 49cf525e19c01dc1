"""One cold sample of a workload, run in a fresh interpreter by run.py.

    python3 bench/child.py --workload NAME --seed N --trace 0|1 [--setup-only]

Set-up (importing nk_triad and building the plan's algebras with
``tables.cached_algebra``) and the timed phase (every item of the plan, each
checked) are timed step by step, in CPU seconds of this process and in wall
seconds, with bursts of the host-speed probe (bench/speed.py) between the
steps; run.py scales each step by the bursts around it.  The last line of
standard output is a JSON report; the library's own printing is captured,
never shown.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()
CPU_START = time.process_time()

import argparse  # noqa: E402 - the clock starts before any import
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# host-speed probes (bench/speed.py) after the imports, after each algebra
# built in set-up, after each item of the timed pass, and one every
# PROBE_EVERY_CPU_S of CPU time within a step (about 5% more CPU)
PROBES_AFTER_IMPORT = 8
PROBES_PER_ALGEBRA = 1
PROBES_PER_ITEM = 4
PROBE_EVERY_CPU_S = 0.4


def blas_info() -> dict:
    """OpenBLAS version and thread count of every OpenBLAS loaded into this process."""
    import numpy as np

    libs = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get is not None and "threads" not in entry:
                    get.restype = ctypes.c_int
                    entry["threads"] = get()
                if conf is not None and "config" not in entry:
                    conf.restype = ctypes.c_char_p
                    entry["config"] = conf().decode()
        libs[Path(path).name] = entry
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = [e["threads"] for e in libs.values() if "threads" in e]
    return {"numpy_blas": blas.get("name"), "numpy_blas_version": blas.get("version"),
            "libraries": libs, "threads": max(threads) if threads else None}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import nk_triad
    if Path(nk_triad.__file__).resolve().parent != src / "nk_triad":
        print(f"error: imported nk_triad from {nk_triad.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer
        tracer = Tracer()
        layers.install(tracer)

    algebras, items = workloads.plan(args.workload, args.seed)
    # set-up steps: the imports and the plan above, then one cached_algebra
    # per algebra
    t_import, cpu_import = time.perf_counter(), time.process_time()
    from speed import Prober
    # the timer's probes would land in the spans of a traced sample
    prober = Prober(None if args.trace else PROBE_EVERY_CPU_S)
    # bursts[i] and bursts[i + 1] of setup_probe_s (set-up) and probe_s (the
    # timed pass) are the probes just before and just after step i, and
    # fired[i] those the timer fired during it; nothing is probed before or
    # during the imports
    setup_cpu_s, setup_wall_s = [cpu_import - CPU_START], [t_import - T_START]
    setup_fired_s = [[]]
    setup_probe_s = [[], prober.burst(PROBES_AFTER_IMPORT)]
    for family, rank in algebras:
        _, cpu, wall, fired = prober.step(workloads.tables.cached_algebra, family, rank)
        setup_cpu_s.append(cpu)
        setup_wall_s.append(wall)
        setup_fired_s.append(fired)
        setup_probe_s.append(prober.burst(PROBES_PER_ALGEBRA))
    setup = {"setup_s": sum(setup_cpu_s), "setup_wall_s": sum(setup_wall_s),
             "setup_cpu_s": setup_cpu_s, "setup_fired_s": setup_fired_s,
             "setup_probe_s": setup_probe_s}
    if args.setup_only:
        prober.close()
        print(json.dumps(setup))
        return 0

    probe_s = [setup_probe_s[-1]]
    failures = []
    failed = 0
    item_cpu_s, item_wall_s, item_fired_s = [], [], []
    for item in items:
        msgs, cpu, wall, fired = prober.step(workloads.run_item, args.workload, item, args.seed)
        item_cpu_s.append(cpu)
        item_wall_s.append(wall)
        item_fired_s.append(fired)
        probe_s.append(prober.burst(PROBES_PER_ITEM))
        failed += bool(msgs)
        failures += [f"{workloads.item_label(item)}: {m}" for m in msgs]
    prober.close()

    import numpy
    import scipy
    report = {
        **setup,
        "pass_cpu_s": sum(item_cpu_s),
        "pass_wall_s": sum(item_wall_s),
        "item_cpu_s": item_cpu_s,
        "item_fired_s": item_fired_s,
        "probe_s": probe_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(items),
        "failed": failed,
        "failures": failures,
        "algebras": [f"{f}{r}" for f, r in algebras],
        "items": [workloads.item_label(it) for it in items],
        "traced": bool(args.trace),
        "software": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "blas": blas_info()},
    }
    if tracer is not None:
        report["layers"] = layers.span_metrics(tracer)
        report["spans"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
