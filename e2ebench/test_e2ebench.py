"""The benchmark's own tests: every output check rejects a corrupted
answer, and the command runs end to end in its smoke mode.

Run from the root of a checkout::

    python3 -m pytest -q e2ebench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402


def _envelope(payload: dict, cached: bool) -> dict:
    return {"command": "execute", "ok": True, "data": payload["data"],
            "metrics": payload["metrics"], "trace": payload["trace"],
            "cached": cached, "coalesced": False}


@pytest.fixture(scope="module")
def experiment():
    """A real timed class-member run and its envelope."""
    from repro import api
    from repro.serve.protocol import payload_for
    from repro.specs import ExperimentSpec, WorkloadSpec

    spec = ExperimentSpec(
        protocols=("moesi", "berkeley", "dragon"),
        workload=WorkloadSpec(processors=3, references=300, seed=5),
        timed=True,
    )
    payload = payload_for(spec, api.execute(spec, workers=1))
    return spec, payload


@pytest.fixture(scope="module")
def batch():
    from repro.perf.batch import run_batch_specs
    from repro.specs import BatchSpec

    spec = BatchSpec(protocols=("moesi", "dragon"), rows=6,
                     events_per_row=30, seed=3, n_units=2)
    rows = run_batch_specs([spec])[0]
    response = {"command": "execute", "ok": True,
                "data": {"kind": "batch", "rows": rows}}
    return spec, response


# ---------------------------------------------------------------------------
# serve-hits
# ---------------------------------------------------------------------------
def test_hit_accepts_a_memo_hit(experiment):
    from repro.specs import canonical_json

    _, payload = experiment
    fill = canonical_json(payload["data"])
    assert checks.check_hit(_envelope(payload, True), fill) == []
    assert checks.check_fill(_envelope(payload, False), payload) == []


def test_hit_rejects_cached_false(experiment):
    from repro.specs import canonical_json

    _, payload = experiment
    problems = checks.check_hit(_envelope(payload, False),
                                canonical_json(payload["data"]))
    assert any("memo" in p for p in problems)


def test_hit_and_fill_reject_altered_data(experiment):
    from repro.specs import canonical_json

    _, payload = experiment
    fill = canonical_json(payload["data"])
    bad = copy.deepcopy(payload)
    bad["data"]["report"]["accesses"] += 1
    assert checks.check_hit(_envelope(bad, True), fill)
    assert checks.check_fill(_envelope(bad, False), payload)


# ---------------------------------------------------------------------------
# serve-misses
# ---------------------------------------------------------------------------
def test_miss_accepts_a_real_run(experiment):
    spec, payload = experiment
    assert checks.check_miss(spec, 300, _envelope(payload, False)) == []


def test_miss_rejects_wrong_accesses(experiment):
    spec, payload = experiment
    assert any("accesses" in p for p in checks.check_miss(
        spec, 301, _envelope(payload, False)))


@pytest.mark.parametrize("key", ["bus.reads", "bus.by_event.CACHE_READ"])
def test_miss_rejects_bus_counts_that_do_not_sum(experiment, key):
    spec, payload = experiment
    bad = copy.deepcopy(payload)
    bad["data"]["report"]["bus"][key] = (
        bad["data"]["report"]["bus"].get(key, 0) + 1
    )
    assert checks.check_miss(spec, 300, _envelope(bad, False))


def test_miss_rejects_violations_and_elapsed(experiment):
    spec, payload = experiment
    bad = copy.deepcopy(payload)
    bad["data"]["ok"] = False
    bad["data"]["violations"] = ["stale read"]
    assert checks.check_miss(spec, 300, _envelope(bad, False))
    bad = copy.deepcopy(payload)
    bad["data"]["report"]["elapsed_ns"] = 0.0
    assert any("elapsed" in p for p in checks.check_miss(
        spec, 300, _envelope(bad, False)))


def test_miss_rejects_a_memoized_answer(experiment):
    spec, payload = experiment
    assert checks.check_miss(spec, 300, _envelope(payload, True))


def test_control_rejects_success_and_memoized_failure():
    refused = {"ok": False, "error": "execution", "detail": "gap"}
    assert checks.check_control(refused) == []
    assert checks.check_control({"ok": True, "data": {}})
    assert checks.check_control(None)
    assert checks.check_control(dict(refused, cached=True))


# ---------------------------------------------------------------------------
# serve-batch
# ---------------------------------------------------------------------------
def test_batch_accepts_real_rows(batch):
    spec, response = batch
    assert checks.check_batch(spec, response) == []
    rows = response["data"]["rows"]
    assert checks.check_batch_reference(rows, copy.deepcopy(rows)) == []


def test_batch_rejects_dropped_row(batch):
    spec, response = batch
    bad = copy.deepcopy(response)
    bad["data"]["rows"].pop()
    assert checks.check_batch(spec, bad)
    assert checks.check_batch_reference(bad["data"]["rows"],
                                        response["data"]["rows"])


@pytest.mark.parametrize("field,delta", [("events", -1), ("crashes", 1)])
def test_batch_rejects_altered_row(batch, field, delta):
    spec, response = batch
    bad = copy.deepcopy(response)
    bad["data"]["rows"][1][field] += delta
    assert checks.check_batch(spec, bad)


def test_batch_reference_rejects_altered_transitions(batch):
    _, response = batch
    rows = response["data"]["rows"]
    bad = copy.deepcopy(rows)
    bad[0]["transitions"] += 1
    assert checks.check_batch_reference(bad, rows)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------
REPORT = {"command": "fuzz", "ok": True,
          "data": {"seeds": 10, "seeds_run": 10, "steps_run": 120,
                   "transitions_checked": 200, "failures": []}}


def test_campaign_accepts_a_clean_report():
    assert checks.check_campaign(REPORT, 10) == []


def test_campaign_rejects_a_planted_failure():
    bad = copy.deepcopy(REPORT)
    bad["data"]["failures"] = [{"seed": 3, "failure": "stale read"}]
    assert checks.check_campaign(bad, 10)
    bad["ok"] = False
    assert checks.check_campaign(bad, 10)
    assert checks.check_inject(bad) == []


def test_campaign_rejects_short_report():
    assert checks.check_campaign(REPORT, 11)
    assert checks.check_inject(REPORT)


# ---------------------------------------------------------------------------
# Inputs and the command.
# ---------------------------------------------------------------------------
def test_inputs_are_pure_functions_of_the_seed():
    first = [s.canonical() for s in inputs.miss_round(4, 2)]
    assert first == [s.canonical() for s in inputs.miss_round(4, 2)]
    assert first != [s.canonical() for s in inputs.miss_round(5, 2)]
    oversized = [s for s in inputs.miss_round(4, 2)
                 if len(s.canonical()) > inputs.READLINE_LIMIT]
    assert len(oversized) == 1
    assert oversized[0].canonical() == inputs.oversized_spec(2).canonical()


def _python_processes() -> set:
    """Pids of every Python process, zombies included (by command name)."""
    pids = set()
    for name in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        if stat[stat.find(b"(") + 1:stat.rfind(b")")].startswith(b"python"):
            pids.add(int(name))
    return pids


def _run(args, cwd=ROOT):
    """Run the command; it must leave no process behind, not even a
    zombie of a pool worker or a resource tracker."""
    before = _python_processes()
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    assert _python_processes() - before == set()
    return done


@pytest.mark.parametrize("workload", ["serve-hits", "serve-misses",
                                      "serve-batch", "campaign"])
def test_smoke_run_prints_a_result(workload):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--smoke"])
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    known = {"serve-misses": 1, "campaign": 1}.get(workload, 0)
    assert result["failed"] == known
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"] for m in json.load(handle)["end_to_end"]}
    assert set(result["metrics"]) == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


LAYER_SPANS = {
    "serve.client.roundtrip", "specs.parse_hash", "serve.cache.get",
    "serve.protocol.encode", "serve.client.decode",
    "serve.server.queue_wait", "perf.engine.dispatch",
    "perf.engine.dispatch_one", "serve.jobs.execute_payload",
    "workloads.build", "system.run", "serve.protocol.payload",
    "serve.admission.window_wait", "serve.jobs.batch_job",
    "perf.batch.synthesize", "perf.batch.kernel", "perf.shared.publish",
    "campaign.cli", "cli.import", "perf.engine.pool_start",
    "fuzz.campaign", "fuzz.generate", "fuzz.run_scenario",
}


def test_traced_smoke_run_reports_every_layer():
    done = _run(["--workload", "serve-hits", "--seed", "3", "--seconds",
                 "1", "--trace", "1", "--smoke"])
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    assert set(result["metrics"]) == declared
    from repro.obs.export import validate_chrome_trace

    with open(os.path.join(ROOT, ".e2ebench_out",
                           "trace-serve-hits-3.json")) as handle:
        trace = json.load(handle)
    assert validate_chrome_trace(trace) == []
    names = {event["name"] for event in trace["traceEvents"]}
    assert LAYER_SPANS <= names, LAYER_SPANS - names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(["--workload", "serve-hits", "--seed", "1", "--seconds",
                 "1", "--trace", "0"], cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
