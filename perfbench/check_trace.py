"""Checks of the benchmark's tracer and workloads.

They spawn real solves (about a minute in all), so they are not
collected by a plain ``pytest`` run; run them explicitly from the
repository root:

    python3 -m pytest -q perfbench/check_trace.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import tracer  # noqa: E402

sys.path.insert(0, run.SRC)

# layer metrics each workload exists to exercise, and those it bypasses
EXERCISED = {
    "dense-z": ["intmat.smith_normal_form.calls", "intmat.solve_int.calls",
                "intmat.smith_normal_form.max_bits", "homology.map_flags.s"],
    "dense-fp2": ["intmat.field_rref.calls", "intmat.field_solve_in_rowspace.calls"],
    "singleton-z": ["resolution.salvetti_complex.calls",
                    "garside.form_from_positive_permutation.calls",
                    "intmat.sparse_invariant_factors.calls", "homology.homology.s"],
    "aux-mix": ["braid.orbits.tuples", "coeffsys.build_hurwitz_system.s",
                "coeffsys.delta.calls", "monodromy.compose.calls",
                "monodromy.act.calls", "cli.cache.hit_ratio", "cli.render.s"],
}
BYPASSED = {
    "dense-z": ["intmat.field_rref.calls", "intmat.field_solve_in_rowspace.calls",
                "monodromy.compose.calls", "cli.cache.hit_ratio"],
    "dense-fp2": ["intmat.smith_normal_form.calls", "intmat.solve_int.calls",
                  "intmat.smith_normal_form.entries", "monodromy.compose.calls"],
    "singleton-z": ["intmat.field_rref.calls", "braid.orbits.tuples"],
    # every stability call of the pass is a cache hit, so no grid is solved
    "aux-mix": ["resolution.salvetti_complex.calls", "intmat.smith_normal_form.calls",
                "cli.cache.put_s"],
}


@pytest.fixture(scope="module")
def traced_runs():
    """Per workload: one untraced solve and two traced solves."""
    bench = run.Bench(seed=7, seconds=0, trace=1)
    states = {}
    try:
        for name, spec in bench.design["workloads"].items():
            state = run.WorkloadState(name, spec)
            bench.run_unit(state, traced=False)
            bench.run_unit(state, traced=True)
            bench.run_unit(state, traced=True)
            bench.check_traced(state)
            states[name] = state
    finally:
        bench.close()
    return bench, states


def test_patches_every_lookup_site(tmp_path):
    from hurstab import braid, cli, experiments, homology, intmat

    tr = tracer.Tracer().install()
    try:
        for fn in (homology.smith_normal_form, intmat.smith_normal_form,
                   cli.orbits, experiments.orbits, braid.orbits,
                   cli.ResultCache.get, cli.ResultCache.put):
            assert hasattr(fn, "__wrapped__"), fn
        assert cli.run(["orbits", "--group", "sym:3", "--class", "rep:1",
                        "--k", "1..3", "--out", str(tmp_path / "o.tsv")]) == 0
        assert cli.run(["selftest", "--out", str(tmp_path / "s.json")]) == 0
    finally:
        tr.uninstall()
    assert not hasattr(homology.smith_normal_form, "__wrapped__")
    assert not hasattr(cli.orbits, "__wrapped__")
    calls = {name: entry["calls"] for name, entry in tracer.summarize(tr.to_json()).items()}
    # orbits is reached through cli's by-name import; three of the selftest's
    # SNFs through homology's by-name import, three more through solve_int
    assert calls["braid.orbits"] == 3 + 2
    assert calls["intmat.solve_int"] == 3
    assert calls["intmat.smith_normal_form"] == 3 + 3
    assert tr.counters["braid.orbits.tuples"] == 3 + 9 + 27 + 3 + 9


def test_summarize_self_and_inclusive_time():
    doc = {
        "names": ["a", "b"],
        "span_name": [0, 1, 0, 1],
        "start": [0.0, 1.0, 2.0, 5.0],
        "end": [10.0, 4.0, 3.0, 6.0],
        "parent": [-1, 0, 1, -1],
        "counters": {},
    }
    stats = tracer.summarize(doc)
    assert stats["a"] == {"calls": 2, "s": 10.0, "self_s": 7.0 + 1.0}
    assert stats["b"] == {"calls": 2, "s": 4.0, "self_s": 2.0 + 1.0}


def test_traced_outputs_identical_to_untraced(traced_runs):
    bench, states = traced_runs
    for name, state in states.items():
        assert state.failed == 0, state.errors
        assert state.raw and all(len(d) == 1 for d in state.raw.values()), name
    assert not bench.problems, bench.problems


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_named_layers_nonzero(traced_runs, workload):
    layers = traced_runs[1][workload].layers[0]
    for metric in EXERCISED[workload]:
        assert layers[metric] > 0, (workload, metric)
    if workload == "aux-mix":
        assert layers["cli.cache.hit_ratio"] == 1.0


@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_bypassed_layers_zero(traced_runs, workload):
    layers = traced_runs[1][workload].layers[0]
    for metric in BYPASSED[workload]:
        assert layers[metric] == 0, (workload, metric)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counts_repeat_across_traced_solves(traced_runs, workload):
    first, second = traced_runs[1][workload].counts
    assert first == second


def test_per_layer_names_match_benchmark_json(traced_runs):
    bench, states = traced_runs
    names = {m["name"] for m in bench.metrics_spec["per_layer"]}
    for state in states.values():
        assert names == set(bench.per_layer(state))


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-z", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
