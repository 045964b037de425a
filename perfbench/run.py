"""The repository benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload svc_hot --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  It builds nothing: the program is the
pure-Python package under ``src/``.  Human-readable lines go to stdout as
the run proceeds; the last line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` a separate, traced run reports the
per-layer ones (see ``perfbench/README.md``).  Any failed output check
makes ``correct`` false; a missing program or a crash exits non-zero
without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("svc_hot", "svc_churn", "mediation", "fleet_usability")

#: Each end-to-end metric's unit, and the power of the run's host
#: slowdown (:mod:`hostspeed`) it is scaled by: times are divided by it,
#: rates multiplied, memory left alone.
UNITS = {
    "setup_s": ("s", -1),
    "rate_per_s": ("1/s", 1),
    "peak_rss_mb": ("MB", 0),
}


def log(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    os.chdir(ROOT)
    run_dir = os.path.join(".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir)
    # A SIGTERM unwinds like an exception, so every daemon and fleet pool
    # is stopped by the ``finally`` that owns it and the run directory is
    # removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Keep any temporary file the program or its workers make inside the
    # checkout.
    os.environ["TMPDIR"] = os.path.abspath(run_dir)
    try:
        if args.trace:
            import tracing

            result = tracing.traced_workload(args.workload, ROOT, run_dir, args.seed,
                                             args.seconds, log)
        else:
            result = untraced(args.workload, run_dir, args.seed, args.seconds)
    except Exception:  # noqa: BLE001 - report the crash, print no result
        traceback.print_exc()
        return 1
    finally:
        stop_helper_processes()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_run")
        except OSError:
            pass  # another run still uses it

    for problem in result["problems"]:
        log(f"CHECK FAILED: {problem}")
    for name, (value, unit) in sorted(result.get("info", {}).items()):
        log(f"  {name} = {value:g} {unit}")
    metrics = {
        name: {"value": value, "unit": result["units"][name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0


def stop_helper_processes() -> None:
    """Stop and reap every process ``multiprocessing`` started in this run.

    The fleet's workers are joined by ``run_fleet``; any still alive are
    ended here.  Its shared-memory rings also start the resource tracker,
    a helper process that otherwise outlives the benchmark by a moment
    and is left unreaped.  Closing its pipe ends it and ``_stop`` waits
    for it.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def untraced(workload: str, run_dir: str, seed: int, seconds: float) -> dict:
    """The end-to-end run: the workload's figures as measured, then scaled
    to the reference host's speed."""
    from hostspeed import HostSpeed

    log(f"perfbench {workload}: seed {seed}, {seconds:g} s measured")
    host = HostSpeed(sorted(os.sched_getaffinity(0)))
    host.sample()
    if workload in ("svc_hot", "svc_churn"):
        import svc

        result = svc.svc_workload(workload, ROOT, run_dir, seed, seconds, host, log)
    elif workload == "mediation":
        import mediation

        result = mediation.mediation_workload(seed, seconds, host, log)
    else:
        import fleetwl

        result = fleetwl.fleet_workload(run_dir, seed, seconds, host, log)
    host.sample()
    slowdown = host.slowdown()
    measured = result["metrics"]
    result["metrics"] = {
        name: value * slowdown ** UNITS[name][1] for name, value in measured.items()
    }
    result["units"] = {name: unit for name, (unit, _) in UNITS.items()}
    result["info"].update({
        f"measured.{name}": (value, UNITS[name][0]) for name, value in measured.items()
    })
    result["info"]["host.slowdown"] = (slowdown, "ratio")
    result["info"]["host.samples"] = (len(host.samples_ms), "count")
    return result


if __name__ == "__main__":
    sys.exit(main())
