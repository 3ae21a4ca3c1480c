"""Benchmark for hurstab: exact-homology solves through ``hurstab.cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload dense-z --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

``--workload all`` runs every workload in round-robin order, one solve of
each per round, so host drift lands on all of them alike.  ``--trace 0``
reports the end-to-end metrics of untraced solves.  ``--trace 1`` alternates
untraced and traced solves and reports the per-layer metrics from the
traced ones (see ``tracer.py``).  Workload argv, the use of the seed and the
metric-to-workload predictions are in ``design.json``; the metric names and
units come from ``BENCHMARK.json`` at the repository root.

Every solve is one ``cli.run(argv)`` call in a fresh child interpreter
(``child.py``), one child at a time.  Each output is checked against the
digests in ``reference.json``; the universal-coefficient identity is checked
once per run between the Z and F_2 reports, outside the timed part.  The
readable report comes first on stdout; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

HARD_LIMIT_S = 170.0  # no child is started, or left running, past this
SETUP_PROBES = 5  # extra set-up-only children per grid workload and run

# Host-speed sampling; see HostSpeed.  SAMPLE_REF_S fixes the scale of the
# rescaled seconds: it is about the median sample time on the 2-vCPU Linux
# host (Python 3.11) where the benchmark was written, so rescaled seconds read
# close to wall seconds there.
SAMPLE_PERIOD_S = 0.2
SAMPLE_ROUNDS = 20_000
SAMPLE_REF_S = 0.0016
SAMPLE_MARGIN_S = 1.0

sys.path.insert(0, HERE)
import tracer  # noqa: E402


class HostSpeed:
    """Times a short fixed pure-Python loop every SAMPLE_PERIOD_S seconds on
    a thread of the benchmark process, while the children run.

    A shared host can change speed by a quarter or more within a minute
    while CPU time tracks wall time, so wall times of identical solves drift
    with it.  Scaling a child's interval by SAMPLE_REF_S over the median
    sample taken during it (plus SAMPLE_MARGIN_S either side) cancels most of
    that drift: on the host above, the spread of 30-second-window medians of
    the dense-fp2 solve fell from 22% (raw) and 11% (scaled by a loop timed
    in the child before and after the solve) to 4%.  The loop keeps one CPU
    busy under 1% of the time.
    """

    def __init__(self):
        self.starts = []
        self.seconds = []
        self.stopped = threading.Event()
        self.thread = threading.Thread(target=self.sample, daemon=True)
        self.thread.start()

    def sample(self):
        while not self.stopped.wait(SAMPLE_PERIOD_S):
            t = time.perf_counter()
            x = 0
            for i in range(SAMPLE_ROUNDS):
                x = (x * 31 + i) % 1_000_003
            self.seconds.append(time.perf_counter() - t)
            self.starts.append(t)

    def stop(self):
        self.stopped.set()
        self.thread.join()

    def rescale(self, seconds, t_from, t_to):
        """``seconds`` measured between two perf_counter readings, at the
        reference speed."""
        n = len(self.starts)  # the sampler appends to seconds first
        lo = bisect.bisect_left(self.starts, t_from - SAMPLE_MARGIN_S, 0, n)
        hi = bisect.bisect_right(self.starts, t_to + SAMPLE_MARGIN_S, 0, n)
        window = self.seconds[lo:hi] or self.seconds[-5:] or [SAMPLE_REF_S]
        return seconds * SAMPLE_REF_S / statistics.median(window)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def output_digest(data, fmt):
    """sha256 of a TSV output's bytes, or of a JSON output without its
    ``config`` block (which carries the version); also the parsed JSON."""
    if fmt == "tsv":
        return hashlib.sha256(data).hexdigest(), None
    doc = json.loads(data)
    doc.pop("config", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest(), doc


def layer_metrics(stats, counters, names):
    """The per-layer metrics of one traced solve, from span statistics."""

    def get(span, field):
        return stats.get(span, {}).get(field, 0)

    gets = counters["cli.cache.gets"]
    values = {
        "experiments.stability_table.self_s": get("experiments.stability_table", "self_s"),
        "homology.induced_map.self_s": get("homology.induced_map", "self_s"),
        "homology.map_flags.s": sum(
            get(f"homology.{fn}", "s")
            for fn in ("map_is_injective", "map_is_surjective", "is_split_injective")
        ),
        "cli.cache.get_s": get("cli.ResultCache.get", "s"),
        "cli.cache.put_s": get("cli.ResultCache.put", "s"),
        "cli.cache.hit_ratio": counters["cli.cache.hits"] / gets if gets else 0.0,
        "cli.render.s": sum(
            get(f"cli.{fn}", "s") for fn in ("render_json", "_tsv_from_report_json", "emit")
        ),
    }
    for name in names:
        if name in values or name.startswith("bench."):
            continue
        span, _, field = name.rpartition(".")
        if name in counters:
            values[name] = counters[name]
        elif field in ("s", "calls") and span in tracer.SPAN_NAMES:
            values[name] = get(span, field)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return values


def merge_traces(docs):
    """Sum span statistics and counters over the children of one unit."""
    stats = {}
    counters = {}
    for doc in docs:
        for name, entry in tracer.summarize(doc).items():
            acc = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in entry.items():
                acc[field] += value
        for key, value in doc["counters"].items():
            if key.endswith(".max_bits"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return stats, counters


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


class WorkloadState:
    def __init__(self, name, spec):
        self.name = name
        self.spec = spec
        self.solve_s = []  # wall seconds per solve
        self.norm_s = []  # the same, rescaled to the reference host speed
        self.traced_norm_s = []
        self.setup_s = []  # rescaled like norm_s
        self.setup_wall_s = []
        self.calib_s = []
        self.rss_kb = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.live = {}  # op id -> parsed JSON output of the latest solve
        self.raw = {}  # op id -> set of sha256 of the whole output, traced or not
        self.layers = []  # per traced unit: metric -> value
        self.counts = []  # per traced unit: the exact counters and call counts


class Bench:
    def __init__(self, seed, seconds, trace):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.design = load_json(os.path.join(HERE, "design.json"))
        self.reference = load_json(os.path.join(HERE, "reference.json"))
        self.metrics_spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        self.work = os.path.join(WORK_ROOT, f"{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.work)
        self.counter = 0
        # children import hurstab from SRC only, never read a user cache, and
        # cache bytecode as an installed CLI does, whatever the caller's setting
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("HURSTAB_CACHE", "PYTHONPATH", "PYTHONSTARTUP",
                                 "PYTHONDONTWRITEBYTECODE")}
        self.env["XDG_CACHE_HOME"] = self.work
        self.problems = []  # run-level correctness failures
        self.host = HostSpeed()

    def close(self):
        self.host.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it, or it holds leftovers

    def remaining(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def fresh(self, stem):
        self.counter += 1
        return os.path.join(self.work, f"{stem}-{self.counter}")

    def spawn(self, argv, trace_path=None, probe=False):
        """Run child.py once; returns (child report or None, parent wall s,
        error text or None)."""
        timeout = self.remaining()
        if timeout <= 0:
            return None, 0.0, "time limit reached before spawn"
        spec = {"src": SRC, "argv": argv, "trace": trace_path, "probe": probe}
        spec["t0"] = t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)], cwd=self.work, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, time.perf_counter() - t0, "child killed at the time limit"
        wall = time.perf_counter() - t0
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, wall, f"child exited {proc.returncode}: {err.strip()[-500:]}"
        report = json.loads(lines[-1])
        report["t0"] = t0
        return report, wall, None

    def run_op(self, state, op, cache_dir, trace_path=None):
        """One checked CLI call; returns (child report or None, parent wall s)."""
        out_path = self.fresh("out")
        argv = [a.replace("{seed}", str(self.seed)).replace("{cache}", cache_dir)
                for a in op["argv"]] + ["--out", out_path]
        report, wall, error = self.spawn(argv, trace_path)
        state.attempted += 1
        if error is None and report["error"] is not None:
            error = report["error"].strip().splitlines()[-1]
        if error is None and report["rc"] != 0:
            error = f"exit code {report['rc']}"
        if error is None:
            with open(out_path, "rb") as fh:
                data = fh.read()
            state.raw.setdefault(op["id"], set()).add(hashlib.sha256(data).hexdigest())
            digest, doc = output_digest(data, op["format"])
            if digest != self.reference["digests"][op["id"]]:
                error = "output differs from the reference"
            elif op["id"] == "aux-mix/monodromy" and doc.get("passed") is not True:
                error = "monodromy-check did not pass"
            elif doc is not None:
                state.live[op["id"]] = doc
        if os.path.exists(out_path):
            os.remove(out_path)
        if error is not None:
            state.failed += 1
            state.errors.append(f"{op['id']}: {error}")
            return None, wall
        return report, wall

    def run_unit(self, state, traced):
        """One solve (one pass for aux-mix); returns the parent wall time."""
        wall_total = 0.0
        cache_dir = self.fresh("cache")
        os.makedirs(cache_dir)
        setup = setup_wall = 0.0
        for op in state.spec["setup"]:
            report, wall = self.run_op(state, op, cache_dir)
            if report is not None:
                setup += self.host.rescale(wall, report["t0"], report["t0"] + wall)
            setup_wall += wall
            wall_total += wall
        solve = norm = 0.0
        ok = True
        docs = []
        reports = []
        for op in state.spec["ops"]:
            trace_path = self.fresh("trace") if traced else None
            report, wall = self.run_op(state, op, cache_dir, trace_path)
            wall_total += wall
            if report is None:
                ok = False
                continue
            reports.append(report)
            solve += report["solve_s"]
            norm += self.host.rescale(report["solve_s"], report["t_run"], report["t_end"])
            setup += self.host.rescale(report["setup_s"], report["t0"], report["t_run"])
            setup_wall += report["setup_s"]
            if traced:
                docs.append(load_json(trace_path))
                os.remove(trace_path)
        shutil.rmtree(cache_dir, ignore_errors=True)
        if ok:
            if traced:
                state.traced_norm_s.append(norm)
                stats, counters = merge_traces(docs)
                names = [m["name"] for m in self.metrics_spec["per_layer"]]
                state.layers.append(layer_metrics(stats, counters, names))
                state.counts.append(
                    (counters, {n: s["calls"] for n, s in sorted(stats.items())}))
            else:
                state.solve_s.append(solve)
                state.norm_s.append(norm)
                state.setup_s.append(setup)
                state.setup_wall_s.append(setup_wall)
                state.calib_s.extend(r["calib_s"] for r in reports)
                state.rss_kb.extend(r["maxrss_kb"] for r in reports)
        return wall_total

    def probe_setup(self, state):
        report, _, error = self.spawn([], probe=True)
        if error is None:
            state.setup_s.append(
                self.host.rescale(report["setup_s"], report["t0"], report["t_run"]))
            state.setup_wall_s.append(report["setup_s"])
            state.calib_s.append(report["calib_s"])
        else:
            self.problems.append(f"{state.name}: set-up probe failed: {error}")

    def measure(self, names):
        states = [WorkloadState(n, self.design["workloads"][n]) for n in names]
        # the first child compiles the package's bytecode; users do not pay
        # that on every call, so it is not timed
        self.spawn([], probe=True)
        for state in states:
            if not state.spec["setup"]:
                for _ in range(SETUP_PROBES):
                    self.probe_setup(state)
        budget = self.seconds * len(states)
        begun = time.perf_counter()
        rounds = []
        while True:
            t = 0.0
            for state in states:
                t += self.run_unit(state, traced=False)
                if self.trace:
                    t += self.run_unit(state, traced=True)
            rounds.append(t)
            estimate = statistics.median(rounds)
            # start another round only if it is expected to end within the
            # budget, and well inside the hard limit
            if time.perf_counter() - begun + estimate > budget:
                break
            if self.remaining() < 2 * estimate + 5:
                break
        return states

    def check_universal_coefficients(self, states):
        """Check dim_Fp H_i against the Z report for every pair with a side
        produced in this run; the other side may come from reference.json."""
        live = {}
        for state in states:
            live.update(state.live)
        stored = self.reference["reports"]
        sys.path.insert(0, SRC)
        from hurstab import experiments, homology

        def as_report(doc):
            return SimpleNamespace(cells={
                tuple(int(x) for x in key.split(",")):
                    homology.HomologyGroup(cell["free"], tuple(cell["torsion"]))
                for key, cell in doc["report"]["cells"].items()
            })

        for pair in self.design["universal_coefficient_pairs"]:
            z_id, fp_id = pair["z"], pair["fp"]
            if z_id not in live and fp_id not in live:
                continue
            z_doc = live.get(z_id) or stored.get(z_id)
            fp_doc = live.get(fp_id) or stored.get(fp_id)
            if z_doc is None or fp_doc is None:
                self.problems.append(f"no report to pair with {z_id} / {fp_id}")
                continue
            failures = experiments.universal_coefficient_check(
                as_report(z_doc), as_report(fp_doc), pair["p"])
            if failures:
                self.problems.append(
                    f"universal coefficients fail for {z_id} / {fp_id}: {failures[:3]}")

    def check_traced(self, state):
        """Traced and untraced outputs must be byte-identical, and the counts
        of two traced solves of the same input must repeat exactly."""
        for op_id, digests in state.raw.items():
            if len(digests) > 1:
                self.problems.append(f"{op_id}: outputs differ between solves")
        if any(c != state.counts[0] for c in state.counts[1:]):
            self.problems.append(f"{state.name}: traced call counts differ between solves")

    def end_to_end(self, state):
        if not state.solve_s:
            return None
        return {
            "solve_norm_s_p50": statistics.median(state.norm_s),
            "peak_rss_mb": max(state.rss_kb) / 1024.0,
            "setup_s": statistics.median(state.setup_s),
        }

    def per_layer(self, state):
        if not state.layers or not state.solve_s:
            return None
        out = {}
        for spec in self.metrics_spec["per_layer"]:
            name = spec["name"]
            if name == "bench.calib_s":
                out[name] = statistics.median(state.calib_s)
            elif name == "bench.trace_overhead_frac":
                out[name] = (statistics.median(state.traced_norm_s)
                             / statistics.median(state.norm_s) - 1.0)
            else:
                out[name] = statistics.median(unit[name] for unit in state.layers)
        return out


def print_report(bench, state, metrics):
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in bench.metrics_spec[key]}
    print(f"== {state.name}  seed={bench.seed} trace={bench.trace} seconds={bench.seconds}")
    frac = state.failed / state.attempted if state.attempted else 0.0
    print(f"  {'ops_failed_frac':40s} {frac:.4f}  ({state.failed} of {state.attempted} CLI calls)")
    n = len(state.solve_s)
    print(f"  {'solve_s_p50':40s} "
          + (f"{statistics.median(state.solve_s):.4f} s  (n={n} solves)" if n else "n/a"))
    if n:
        print(f"  {'solve_norm_s_p50':40s} {statistics.median(state.norm_s):.4f} s  "
              f"(n={n}; rescaled by host-speed samples, see HostSpeed)")
    if 0 < n <= 12:
        print(f"  {'solve_s each':40s} " + " ".join(f"{v:.3f}" for v in state.solve_s))
    t = tail(state.solve_s)
    print(f"  {'solve_s_tail':40s} "
          + (f"{t[0]:.4f} s  (p{t[1]:.1f} of n={n}, 10 beyond it)" if t
             else f"n/a  (n={n}; needs at least 11 solves)"))
    if state.rss_kb:
        print(f"  {'peak_rss_mb':40s} {max(state.rss_kb) / 1024:.2f} MiB  "
              f"(max of n={len(state.rss_kb)} children)")
    if state.setup_s:
        print(f"  {'setup_s':40s} {statistics.median(state.setup_s):.4f} s  "
              f"(n={len(state.setup_s)}; rescaled like solve_norm_s_p50)")
        print(f"  {'setup_wall_s':40s} {statistics.median(state.setup_wall_s):.4f} s  "
              f"(n={len(state.setup_wall_s)})")
    if state.calib_s:
        print(f"  {'bench.calib_s':40s} {statistics.median(state.calib_s):.4f} s  "
              f"(n={len(state.calib_s)} children)")
    if bench.trace and metrics:
        print(f"  per-layer medians over n={len(state.layers)} traced solves:")
        for name, value in metrics.items():
            print(f"    {name:44s} {value:.6g} {units.get(name, '')}")
    for error in state.errors[:5]:
        print(f"  FAILED {error}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hurstab", "cli.py")):
        print(f"hurstab sources not found under {SRC}", file=sys.stderr)
        return 2
    design = load_json(os.path.join(HERE, "design.json"))
    names = list(design["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in design["workloads"] for n in names):
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(design['workloads'])} or all", file=sys.stderr)
        return 64
    bench = Bench(args.seed, args.seconds, args.trace)
    try:
        states = bench.measure(names)
        bench.check_universal_coefficients(states)
        results = {}
        for state in states:
            bench.check_traced(state)
            metrics = bench.per_layer(state) if args.trace else bench.end_to_end(state)
            if metrics is None:
                bench.problems.append(f"{state.name}: no successful solve")
            results[state.name] = metrics or {}
            print_report(bench, state, metrics)
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"FAILED {problem}")
    units = {m["name"]: m["unit"] for m in bench.metrics_spec[
        "per_layer" if args.trace else "end_to_end"]}
    attempted = sum(s.attempted for s in states)
    failed = sum(s.failed for s in states)
    if len(states) == 1:
        metrics = {name: {"value": results[states[0].name].get(name), "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {f"{w}.{name}": {"value": results[w].get(name), "unit": unit}
                   for w in results for name, unit in units.items()}
    correct = (failed == 0 and not bench.problems
               and all(m["value"] is not None for m in metrics.values()))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
