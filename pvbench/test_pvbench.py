"""Tests of the benchmark itself: generators, output checker, tracer.

Run from the repository root with ``python -m pytest pvbench``.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pauliverify import cli  # noqa: E402


def installed_wrappers() -> list[str]:
    """Names in pauliverify namespaces that are still tracer wrappers."""
    found = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "pauliverify" or key.startswith("pauliverify.")):
            continue
        for attr, value in list(vars(mod).items()):
            candidates = [value]
            if isinstance(value, type):
                candidates = [
                    v.fget if isinstance(v, property) else v for v in vars(value).values()
                ]
            for c in candidates:
                if getattr(c, "__qualname__", "").startswith("Tracer._wrap"):
                    found.append(f"{key}.{attr}")
    return found


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic(name, tmp_path):
    generate = workloads.GENERATORS[name]
    runs = []
    for sub in ("a", "b"):
        work = tmp_path / sub
        work.mkdir()
        op = generate(11, 3, work)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        argv = [a.replace(str(work), "WORK") for a in op.argv]
        runs.append((files, argv))
    assert runs[0] == runs[1]
    work = tmp_path / "c"
    work.mkdir()
    generate(12, 3, work)
    assert (work / "target.json").read_bytes() != runs[0][0]["target.json"]


def _hyper_k_output(tmp_path, index=0):
    op = workloads.gen_hyper_k(5, index, tmp_path)
    assert cli.main(op.argv) == 0
    return op, op.out.read_text()


def test_checker_accepts_a_genuine_report(tmp_path):
    op, out = _hyper_k_output(tmp_path)
    assert op.expect["prover"]["kind"] == "honest"
    assert checks.check_output(op.expect, out, checks.exact_ppass(op.expect)) == []


def test_checker_flags_tampered_accepted_and_passes(tmp_path):
    op, out = _hyper_k_output(tmp_path)
    ppass = checks.exact_ppass(op.expect)

    doc = json.loads(out)
    doc["reports"][0]["accepted"] = not doc["reports"][0]["accepted"]
    assert checks.check_output(op.expect, json.dumps(doc), ppass)

    doc = json.loads(out)
    group = doc["reports"][1]["groups"][2]
    group["passes"] -= 60  # now below the 19/20 threshold, yet still marked passed
    assert checks.check_output(op.expect, json.dumps(doc), ppass)

    doc = json.loads(out)
    for rep in doc["reports"]:  # lower every count a little, keeping verdicts
        rep["groups"][0]["passes"] -= 20
    assert any("pooled rate" in p for p in checks.check_output(op.expect, json.dumps(doc), ppass))


def test_checker_flags_a_tampered_sweep(tmp_path):
    op = workloads.gen_circuit_sweep(5, 0, tmp_path)
    op.argv[op.argv.index("--runs") + 1] = "2"
    op.expect["runs"] = 2
    assert cli.main(op.argv) == 0
    out = op.out.read_text()
    assert checks.check_output(op.expect, out) == []
    doc = json.loads(out)
    doc["points"][1]["per_group_ppass"][0]["value"] += 1e-3
    assert checks.check_output(op.expect, json.dumps(doc))


def test_tracer_leaves_no_wrapper_installed(tmp_path):
    import pauliverify.protocol as protocol
    import pauliverify.states as states
    from pauliverify.paulis import PauliString

    originals = (states.measure_in_bases, protocol.measure_in_bases,
                 PauliString.__dict__["axes"], cli.main)
    op = workloads.gen_ground_runs(5, 0, tmp_path)
    t = tracer.Tracer()
    t.op = 1
    with t:
        assert installed_wrappers()
        assert protocol.measure_in_bases is not originals[1]
        assert cli.main(op.argv) == 0
    assert installed_wrappers() == []
    assert (states.measure_in_bases, protocol.measure_in_bases,
            PauliString.__dict__["axes"], cli.main) == originals
    totals = t.totals()
    assert totals["protocol.run"][0] == workloads.GROUND_RUNS["runs"]
    assert totals["hamiltonians.exact_diagonalize"][0] > 1
    assert t.counters["reporting.csv_rows"] == workloads.GROUND_RUNS["runs"] * 200
    assert all(s.self_s >= -1e-9 for s in t.spans)


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + [
        ("analysis.sweep", "analysis", "robustness_sweep_merged_away", False),
    ])
    t = tracer.Tracer()
    with t:
        pass
    assert t.absent == ["analysis.robustness_sweep_merged_away"]
    assert installed_wrappers() == []


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.GENERATORS) == sorted(workloads.PARAMS)
