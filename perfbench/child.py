"""One hurstab CLI call in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py '<json spec>'

The spec holds ``src`` (the directory holding the ``hurstab`` package),
``argv`` (passed to ``hurstab.cli.run``), ``t0`` (the parent's
``time.perf_counter()`` just before the spawn; on Linux both processes read
the same monotonic clock), and optionally ``trace`` (a path for the span
dump) or ``probe`` (stop before ``cli.run``).  The last line of stdout is a
JSON object with ``setup_s``, ``solve_s``, ``calib_s``, ``t_run``,
``t_end``, ``rc``, ``error`` and ``maxrss_kb``; ``t_run`` and ``t_end`` are
``time.perf_counter()`` readings around ``cli.run``.
"""

import json
import os
import resource
import sys
import time
import traceback

CALIBRATION_ROUNDS = 200_000


def calibrate():
    """A fixed pure-Python loop; its time tracks how fast the host runs
    interpreted code at this moment."""
    x = 0
    for i in range(CALIBRATION_ROUNDS):
        x = (x * 31 + i) % 1_000_003
    return x


def main():
    spec = json.loads(sys.argv[1])
    c0 = time.perf_counter()
    calibrate()
    c1 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from hurstab import cli

    loaded_from = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if loaded_from != os.path.abspath(spec["src"]):
        raise SystemExit(f"hurstab was imported from {loaded_from}, not {spec['src']}")
    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer().install()
    argv = list(spec["argv"])
    result = {"calib_s": c1 - c0, "error": None, "rc": None, "solve_s": 0.0}
    result["t_run"] = t_run = time.perf_counter()
    result["setup_s"] = (c0 - spec["t0"]) + (t_run - c1)
    if not spec.get("probe"):
        try:
            result["rc"] = cli.run(argv)
        except Exception:  # a traceback is a failed solve, reported to the parent
            result["error"] = traceback.format_exc()
        result["solve_s"] = time.perf_counter() - t_run
    result["t_end"] = t_run + result["solve_s"]
    if tracer is not None:
        tracer.dump(spec["trace"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
