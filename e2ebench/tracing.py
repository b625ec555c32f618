"""The traced mode: spans around every layer call, per-layer metrics.

It replays a fixed prefix of every workload's inputs twice: once
untraced, on the shipped daemon and CLI as subprocesses (the same code
path as the end-to-end runs), and once traced.  The traced serve replays
run an in-process :class:`repro.serve.server.ReproServer` whose public
``dispatcher``/``batch_dispatcher`` hooks are wrapped, so the time each
request's job spent on the pool is observed where it happens.  Layers
that run inside pool workers or inside the daemon's request path are
re-timed in this process on the same inputs, by wrapping the public
functions they call (module attributes, at run time; no file of the
program changes).  Every span carries a name, start, end, parent and
request id; all spans go to one Chrome trace-event file when the run
ends.

A layer's self time is its span's duration minus the part its child
spans cover; a request's unexplained residual is the self time of its
root span.  Tracing overhead is the traced minus the untraced replay.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import checks
import common
import inputs
import workloads

#: Rounds replayed per workload (whole rounds, as in the untraced runs).
REPLAY_ROUNDS = {"serve-hits": 4, "serve-misses": 1, "serve-batch": 2}
#: Seeds in the traced campaign replay, and in its in-process re-run.
CAMPAIGN_REPLAY_SEEDS = 1000
#: The traced campaign runs under a fixed hash seed, so that its counts
#: repeat exactly (see the README's first known fault).
CAMPAIGN_HASH_SEED = 0
#: Fresh processes timed for the start-up layers.
STARTUP_SAMPLES = 3


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------
class Spans:
    """Spans kept in memory: ``(name, start, end, parent, request,
    workload, retimed)``; ``parent`` is an index into the list."""

    def __init__(self) -> None:
        self.records: list = []
        self.lock = threading.Lock()

    def add(self, name, start, end, parent=None, request=None,
            workload=None, retimed=False) -> int:
        with self.lock:
            self.records.append(
                (name, start, end, parent, request, workload, retimed)
            )
            return len(self.records) - 1

    def place(self, name, start, seconds, parent, request, workload,
              limit=None) -> tuple:
        """Add a re-timed span of ``seconds`` at ``start`` (clipped to
        ``limit``); returns ``(index, end)``."""
        end = start + seconds
        if limit is not None:
            end = min(end, limit)
            start = min(start, end)
        return self.add(name, start, end, parent, request, workload,
                        retimed=True), end

    def self_times(self) -> list:
        """Self seconds of every span: its duration minus the union of
        its children's intervals (clipped to it)."""
        children: dict = {}
        for index, record in enumerate(self.records):
            if record[3] is not None:
                children.setdefault(record[3], []).append(index)
        out = []
        for index, (name, start, end, *_rest) in enumerate(self.records):
            covered, cursor = 0.0, start
            intervals = sorted(
                (max(self.records[c][1], start), min(self.records[c][2], end))
                for c in children.get(index, ())
            )
            for lo, hi in intervals:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(max(0.0, end - start - covered))
        return out

    def chrome(self, origin: float) -> dict:
        events = []
        for index, (name, start, end, parent, request, workload,
                    retimed) in enumerate(self.records):
            events.append({
                "name": name, "ph": "X", "pid": 1,
                "tid": str(workload), "ts": (start - origin) * 1e6,
                "dur": max(0.0, end - start) * 1e6,
                "args": {"span": index, "parent": parent,
                         "request": request, "retimed": retimed},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


@contextlib.contextmanager
def wrapped(owner, attribute: str, sink: list):
    """Temporarily wrap ``owner.attribute`` so each call appends
    ``(start, end)`` to ``sink``."""
    original = getattr(owner, attribute)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((start, time.perf_counter()))

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# An in-process daemon with observed dispatcher hooks.
# ---------------------------------------------------------------------------
class InProcessDaemon:
    """A :class:`ReproServer` on a private event-loop thread, default
    settings, with its dispatcher hooks wrapped to record when each job
    ran.  Offers the same surface as :class:`common.Daemon`."""

    def __init__(self, jobs: list) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.jobs import dispatch_batch_job, dispatch_job
        from repro.serve.server import ReproServer, ServeConfig

        self.launched = time.perf_counter()

        def dispatcher(canonical, deadline_s):
            start = time.perf_counter()
            try:
                return dispatch_job(canonical, deadline_s)
            finally:
                jobs.append(((canonical,), start, time.perf_counter()))

        def batch_dispatcher(canonicals, deadline_s):
            from repro.perf.shared import tables_for_epoch

            start = time.perf_counter()
            try:
                return dispatch_batch_job(canonicals, deadline_s,
                                          tables_shm=tables_for_epoch())
            finally:
                jobs.append((tuple(canonicals), start, time.perf_counter()))

        self.server = ReproServer(ServeConfig(
            port=0, dispatcher=dispatcher, batch_dispatcher=batch_dispatcher,
        ))
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            ready.set()
            self.loop.run_until_complete(self.server.serve_forever())

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()
        if not ready.wait(30):
            raise common.BenchError("in-process daemon never started")
        self.port = self.server.endpoints["port"]
        self.client = ServeClient(port=self.port)

    def status(self) -> dict:
        return self.client.status()["data"]

    def peak_rss_mb(self) -> float:
        return common.tree_peak_rss_mb(os.getpid())

    def close(self) -> None:
        if self.thread.is_alive():
            self.client.shutdown()
            self.thread.join(30)
        self.loop.close()


# ---------------------------------------------------------------------------
# Re-timing the request path and the worker-side layers in-process.
# ---------------------------------------------------------------------------
def retime_request_path(spec, response: dict, payload: dict) -> dict:
    """Seconds for the daemon's request-path steps and the client's
    decode, on this request's own bytes."""
    from repro.serve.cache import MemoCache
    from repro.serve.protocol import response_envelope
    from repro.specs import canonical_json, spec_from_dict

    line = json.dumps({"command": "execute", "spec": spec.to_dict()})

    def parse_hash():
        parsed = spec_from_dict(json.loads(line)["spec"])
        return parsed.canonical(), parsed.content_hash()

    parse_s, (_, key) = _timed(parse_hash)
    cache = MemoCache(128)
    cache.put(key, payload)
    get_s, _ = _timed(cache.get, key)

    def encode():
        envelope = response_envelope(
            "execute", True, data=payload["data"],
            metrics=payload.get("metrics"), hash=key,
            cached=response.get("cached"), coalesced=False, streamed=False,
            trace=payload.get("trace"),
        )
        return (canonical_json(envelope) + "\n").encode("ascii")

    encode_s, encoded = _timed(encode)
    decode_s, _ = _timed(json.loads, encoded.decode("ascii"))
    return {"parse_hash": parse_s, "cache_get": get_s, "encode": encode_s,
            "decode": decode_s, "bytes": len(encoded)}


def retime_execute_payload(canonical: str) -> dict:
    """``execute_payload`` in-process, with its public callees wrapped:
    total, workload build, simulation, payload serialization."""
    import repro.api
    import repro.serve.protocol
    from repro.serve.jobs import execute_payload
    from repro.specs import WorkloadSpec

    build, run, payload = [], [], []
    with wrapped(WorkloadSpec, "build", build), \
            wrapped(repro.api, "execute", run), \
            wrapped(repro.serve.protocol, "payload_for", payload):
        start = time.perf_counter()
        result = execute_payload(canonical)
        end = time.perf_counter()
    return {"start": start, "end": end, "build": build, "execute": run,
            "payload": payload, "result": result}


def retime_batch_job(canonicals: tuple) -> dict:
    """``execute_batch_payloads`` in-process with population synthesis
    and the kernel wrapped."""
    import repro.perf.batch as batch
    from repro.serve.jobs import execute_batch_payloads

    synth, kernel = [], []
    with wrapped(batch, "make_synthetic_population", synth), \
            wrapped(batch, "run_population", kernel):
        start = time.perf_counter()
        payloads = execute_batch_payloads(canonicals)
        end = time.perf_counter()
    events = sum(row["events"] for p in payloads for row in p["data"]["rows"])
    return {"start": start, "end": end, "synth": synth, "kernel": kernel,
            "events": events}


def _total(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# Traced serve replays.
# ---------------------------------------------------------------------------
class ServeReplay:
    """Collects one traced serve workload's requests and jobs."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.requests: list = []
        self.jobs: list = []
        self.lock = threading.Lock()

    def observe(self, spec, start, end, response) -> None:
        with self.lock:
            self.requests.append((spec, start, end, response))

    def run(self, seed: int, rounds: int):
        return workloads.WORKLOADS[self.name](
            seed, math.inf, starts=1, max_rounds=rounds,
            launch=lambda: InProcessDaemon(self.jobs), observe=self.observe,
        )


def build_serve_spans(replay: ServeReplay, spans: Spans) -> dict:
    """Compose each timed request's span tree; returns layer figures.
    (Cold-start requests and the serve-hits memo fill are not observed,
    so every request here belongs to the timed sequence.)"""
    from repro.specs import canonical_json

    name = replay.name
    jobs_by_canonical: dict = {}
    for canonicals, start, end in replay.jobs:
        for canonical in canonicals:
            jobs_by_canonical.setdefault(canonical, []).append(
                (canonicals, start, end)
            )
    figures: dict = {"path": [], "queue_wait": [], "build": [],
                     "payload": [], "batch_job": [], "window_wait": [],
                     "synth": [], "kernel": [], "kernel_events": 0,
                     "shapes": {}, "accesses": 0, "sim_seconds": 0.0,
                     "bus": {}, "roundtrip": []}
    retimed_batches: dict = {}
    for request_id, (spec, start, end, response) in enumerate(
        replay.requests
    ):
        root = spans.add("serve.client.roundtrip", start, end, None,
                         request_id, name)
        figures["roundtrip"].append(end - start)
        if response is None or response.get("ok") is not True:
            continue  # known faults and controls: no payload to re-time
        payload = {"data": response["data"],
                   "metrics": response.get("metrics"),
                   "trace": response.get("trace")}
        path = retime_request_path(spec, response, payload)
        figures["path"].append(path)
        cursor = start
        _, cursor = spans.place("specs.parse_hash", cursor,
                                path["parse_hash"], root, request_id,
                                name, end)
        _, cursor = spans.place("serve.cache.get", cursor,
                                path["cache_get"], root, request_id, name,
                                end)
        canonical = canonical_json(spec.to_dict())
        job = None
        if not response.get("cached"):
            candidates = jobs_by_canonical.get(canonical) or []
            job = next((j for j in candidates
                        if start <= j[1] <= end), None)
        if job is not None:
            canonicals, job_start, job_end = job
            batched = spec.kind == "batch"
            wait_name = ("serve.admission.window_wait" if batched
                         else "serve.server.queue_wait")
            spans.add(wait_name, min(cursor, job_start), job_start, root,
                      request_id, name, retimed=True)
            figures["window_wait" if batched else "queue_wait"].append(
                max(0.0, job_start - cursor)
            )
            job_name = ("serve.jobs.batch_job" if batched
                        else "perf.engine.dispatch")
            job_span = spans.add(job_name, job_start, job_end, root,
                                 request_id, name)
            if batched:
                figures["batch_job"].append(job_end - job_start)
                if canonicals not in retimed_batches:
                    retimed_batches[canonicals] = retime_batch_job(
                        canonicals
                    )
                    again = retimed_batches[canonicals]
                    figures["synth"].append(_total(again["synth"]))
                    figures["kernel"].append(_total(again["kernel"]))
                    figures["kernel_events"] += again["events"]
                again = retimed_batches[canonicals]
                child = job_start
                for label, key in (("perf.batch.synthesize", "synth"),
                                   ("perf.batch.kernel", "kernel")):
                    _, child = spans.place(label, child,
                                           _total(again[key]), job_span,
                                           request_id, name, job_end)
            else:
                again = retime_execute_payload(canonical)
                total = again["end"] - again["start"]
                shape = inputs.spec_shape(spec)
                figures["shapes"].setdefault(shape, []).append(total)
                figures["build"].append(_total(again["build"]))
                figures["payload"].append(_total(again["payload"]))
                report = again["result"]["data"]["report"]
                figures["accesses"] += report["accesses"]
                figures["sim_seconds"] += _total(again["execute"])
                bus = figures["bus"]
                for key, value in (
                    ("bus.transactions", report["bus"]["bus.transactions"]),
                    ("bus.retries", report["bus"]["bus.retries"]),
                    ("cache.invalidations", report["invalidations"]),
                    ("cache.write_backs", report["write_backs"]),
                ):
                    bus[key] = bus.get(key, 0) + value
                execute_span, _ = spans.place(
                    "serve.jobs.execute_payload", job_start, total,
                    job_span, request_id, name, job_end,
                )
                child = job_start
                for label, key in (("workloads.build", "build"),
                                   ("system.run", "execute"),
                                   ("serve.protocol.payload", "payload")):
                    seconds = _total(again[key])
                    if key == "execute":
                        # execute() includes the build; keep them disjoint.
                        seconds -= _total(again["build"])
                    _, child = spans.place(label, child, seconds,
                                           execute_span, request_id, name,
                                           job_end)
            cursor = job_end
        _, cursor = spans.place("serve.protocol.encode", cursor,
                                path["encode"], root, request_id, name, end)
        spans.place("serve.client.decode", max(cursor, end - path["decode"]),
                    path["decode"], root, request_id, name, end)
    return figures


def campaign_replay(seed: int, spans: Spans) -> dict:
    """One traced CLI campaign and an in-process re-run of its seeds."""
    from repro import api
    from repro.fuzz.campaign import CampaignConfig
    from repro.fuzz.runner import run_scenario
    from repro.fuzz.scenario import ScenarioConfig, generate_scenario

    base = inputs.campaign_base(seed, 0, 0)
    args = ["--seeds", str(CAMPAIGN_REPLAY_SEEDS), "--seed-base", str(base),
            "--workers", str(inputs.CAMPAIGN_WORKERS)]
    start = time.perf_counter()
    wall, _, envelope, _ = common.run_fuzz_cli(
        args, hash_seed=CAMPAIGN_HASH_SEED
    )
    root = spans.add("campaign.cli", start, start + wall, None, 0,
                     "campaign")
    import_s = startup_sample("import repro.cli")
    pool_s = startup_sample("from repro import api; api.warm_pool()")
    config = CampaignConfig(seeds=CAMPAIGN_REPLAY_SEEDS, seed_base=base,
                            scenario=ScenarioConfig())
    pooled_s, _ = _timed(api.fuzz_campaign, config=config,
                         workers=inputs.CAMPAIGN_WORKERS)
    cursor = start
    for label, seconds in (("cli.import", import_s),
                           ("perf.engine.pool_start", pool_s),
                           ("fuzz.campaign", pooled_s)):
        _, cursor = spans.place(label, cursor, seconds, root, 0,
                                "campaign", start + wall)
    # Serial re-run, scenario by scenario, as its own root.
    generate, run = [], []
    serial_start = time.perf_counter()
    scenario_config = ScenarioConfig()
    for scenario_seed in range(base, base + CAMPAIGN_REPLAY_SEEDS):
        seconds, scenario = _timed(generate_scenario, scenario_seed,
                                   scenario_config)
        generate.append(seconds)
        seconds, _ = _timed(run_scenario, scenario)
        run.append(seconds)
    serial_s = time.perf_counter() - serial_start
    serial_root = spans.add("fuzz.serial_rerun", serial_start,
                            serial_start + serial_s, None, 1, "campaign",
                            retimed=True)
    spans.place("fuzz.generate", serial_start, sum(generate), serial_root,
                1, "campaign")
    spans.place("fuzz.run_scenario", serial_start + sum(generate), sum(run),
                serial_root, 1, "campaign")
    data = envelope["data"]
    return {
        "wall": wall, "import": import_s, "pool": pool_s,
        "generate_us": _mean(generate) * 1e6,
        "run_ms": _mean(run) * 1e3,
        "efficiency": serial_s / (inputs.CAMPAIGN_WORKERS * pooled_s),
        "steps": data["steps_run"],
        "transitions": data["transitions_checked"],
        "problems": checks.check_campaign(envelope, CAMPAIGN_REPLAY_SEEDS),
    }


def startup_sample(statement: str) -> float:
    """Median seconds a fresh interpreter spends on ``statement``."""
    code = ("import time; t = time.perf_counter(); " + statement
            + "; print(time.perf_counter() - t)")
    samples = []
    for _ in range(STARTUP_SAMPLES):
        proc = common.launch([sys.executable, "-c", code],
                             stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=120)
        finally:
            common.end_group(proc)
        if proc.returncode != 0:
            raise common.BenchError(f"{statement!r} exited "
                                    f"{proc.returncode}")
        samples.append(float(out.strip().splitlines()[-1]))
    return statistics.median(samples)


def dispatch_overhead_ms(canonicals: list, spans: Spans) -> float:
    """``dispatch_one(execute_payload)`` minus in-process
    ``execute_payload`` on the same specs (median of the differences)."""
    from repro.perf.engine import dispatch_one
    from repro.serve.jobs import execute_payload

    differences = []
    for request, canonical in enumerate(canonicals):
        start = time.perf_counter()
        dispatch_one(execute_payload, canonical)
        middle = time.perf_counter()
        execute_payload(canonical)
        end = time.perf_counter()
        spans.add("perf.engine.dispatch_one", start, middle, None, request,
                  "serve-misses", retimed=True)
        spans.add("serve.jobs.execute_payload.local", middle, end, None,
                  request, "serve-misses", retimed=True)
        differences.append((middle - start) - (end - middle))
    return statistics.median(differences) * 1e3


def publish_ms(spans: Spans) -> float:
    from repro.perf.shared import publish_tables, unlink_tables

    start = time.perf_counter()
    name = publish_tables()
    end = time.perf_counter()
    unlink_tables(name)
    spans.add("perf.shared.publish", start, end, None, None, "serve-batch",
              retimed=True)
    return (end - start) * 1e3


# ---------------------------------------------------------------------------
# The mode.
# ---------------------------------------------------------------------------
#: Roots of request trees: their self time is the unexplained residual.
REQUEST_ROOTS = ("serve.client.roundtrip", "campaign.cli")


def layer_self_times(spans: Spans) -> dict:
    """Per workload: self ms per span name, and the residual of its
    request trees with its share of their time."""
    selfs = spans.self_times()
    out: dict = {}
    for index, record in enumerate(spans.records):
        name, start, end, parent, _, workload, _ = record
        entry = out.setdefault(workload, {"self_ms": {}, "root_ms": 0.0,
                                          "residual_ms": 0.0})
        entry["self_ms"][name] = entry["self_ms"].get(name, 0.0) \
            + selfs[index] * 1e3
        if name in REQUEST_ROOTS:
            entry["root_ms"] += (end - start) * 1e3
            entry["residual_ms"] += selfs[index] * 1e3
    for entry in out.values():
        entry["residual_share"] = (entry["residual_ms"] / entry["root_ms"]
                                   if entry["root_ms"] else 0.0)
    return out


def run(workload: str, seed: int, smoke: bool = False):
    """Replay every workload's inputs traced and untraced; returns an
    :class:`workloads.Outcome` carrying the per-layer metrics."""
    from repro import api
    from repro.perf.engine import pool_stats

    spans = Spans()
    origin = time.perf_counter()
    rounds = {name: 1 if smoke else count
              for name, count in REPLAY_ROUNDS.items()}
    tally = workloads.Tally()
    metrics: dict = {}
    facts: dict = {"overhead_ms": {}, "untraced_ms": {}}
    replays = {}
    try:
        stats_before = pool_stats()
        for name in ("serve-hits", "serve-misses", "serve-batch"):
            untraced = workloads.WORKLOADS[name](seed, math.inf, starts=1,
                                                 max_rounds=rounds[name])
            replay = ServeReplay(name)
            traced = replay.run(seed, rounds[name])
            replays[name] = (replay, traced)
            for outcome in (untraced, traced):
                tally.problems.extend(outcome.problems)
            tally.attempted += traced.attempted
            tally.failed += traced.failed
            untraced_ms = untraced.facts["timed_seconds"] * 1e3
            traced_ms = traced.facts["timed_seconds"] * 1e3
            facts["untraced_ms"][name] = untraced_ms
            facts["overhead_ms"][name] = traced_ms - untraced_ms
            metrics[f"trace.overhead_pct.{name}"] = (
                100.0 * (traced_ms - untraced_ms) / untraced_ms, "%")
        stats_after = pool_stats()

        hits_replay, hits = replays["serve-hits"]
        hit_figures = build_serve_spans(hits_replay, spans)
        misses_replay, _ = replays["serve-misses"]
        miss_figures = build_serve_spans(misses_replay, spans)
        batch_replay, batch = replays["serve-batch"]
        batch_figures = build_serve_spans(batch_replay, spans)

        path = hit_figures["path"]
        roundtrip_us = _mean(hit_figures["roundtrip"]) * 1e6
        parts_us = sum(_mean([p[k] for p in path]) * 1e6 for k in
                       ("parse_hash", "cache_get", "encode", "decode"))
        cache = hits.facts["cache"]
        lookups = cache["hits"] + cache["misses"]
        metrics.update({
            "serve.client.roundtrip_us": (roundtrip_us, "us"),
            "specs.parse_hash_us": (
                _mean([p["parse_hash"] for p in path]) * 1e6, "us"),
            "serve.cache.get_us": (
                _mean([p["cache_get"] for p in path]) * 1e6, "us"),
            "serve.protocol.encode_us": (
                _mean([p["encode"] for p in path]) * 1e6, "us"),
            "serve.client.decode_us": (
                _mean([p["decode"] for p in path]) * 1e6, "us"),
            "serve.transport_us": (roundtrip_us - parts_us, "us"),
            "serve.response_bytes": (_mean([p["bytes"] for p in path]),
                                     "bytes"),
            "serve.cache.hits": (cache["hits"], "count"),
            "serve.cache.misses": (cache["misses"], "count"),
            "serve.cache.evictions": (cache["evictions"], "count"),
            "serve.cache.hit_ratio": (cache["hits"] / lookups, "ratio"),
            "serve.cache.lookups": (lookups, "count"),
        })

        miss_canonicals = [
            spec.canonical() for spec in inputs.miss_round(seed, 0)
            if inputs.spec_shape(spec).startswith("recipe")
        ][:3 if smoke else 6]
        metrics.update({
            "perf.engine.dispatch_overhead_ms": (
                dispatch_overhead_ms(miss_canonicals, spans), "ms"),
            "serve.server.queue_wait_ms": (
                _mean(miss_figures["queue_wait"]) * 1e3, "ms"),
            "perf.engine.dispatches": (
                stats_after["dispatches"] - stats_before["dispatches"],
                "count"),
            "perf.engine.dispatch_degraded": (
                stats_after["dispatch_degraded"]
                - stats_before["dispatch_degraded"], "count"),
            "perf.engine.pool_refreshes": (
                stats_after["pool_refreshes"]
                - stats_before["pool_refreshes"], "count"),
        })
        for shape in inputs.SHAPES:
            metrics[f"serve.jobs.execute_payload_ms.{shape}"] = (
                _mean(miss_figures["shapes"].get(shape, [])) * 1e3, "ms")
        metrics.update({
            "workloads.build_ms": (_mean(miss_figures["build"]) * 1e3, "ms"),
            "serve.protocol.payload_ms": (
                _mean(miss_figures["payload"]) * 1e3, "ms"),
            "system.us_per_access": (
                miss_figures["sim_seconds"] * 1e6
                / max(1, miss_figures["accesses"]), "us"),
        })
        for key in ("bus.transactions", "bus.retries",
                    "cache.invalidations", "cache.write_backs"):
            metrics[key] = (miss_figures["bus"].get(key, 0), "count")

        admission = batch.facts["batch"]
        kernel_s = sum(batch_figures["kernel"])
        metrics.update({
            "perf.batch.synthesize_ms": (
                _mean(batch_figures["synth"]) * 1e3, "ms"),
            "perf.batch.kernel_ms": (
                _mean(batch_figures["kernel"]) * 1e3, "ms"),
            "perf.batch.kernel_events_per_s": (
                batch_figures["kernel_events"] / kernel_s
                if kernel_s else 0.0, "events/s"),
            "serve.jobs.batch_job_ms": (
                _mean(batch_figures["batch_job"]) * 1e3, "ms"),
            "serve.admission.window_wait_ms": (
                _mean(batch_figures["window_wait"]) * 1e3, "ms"),
            "serve.admission.populations": (admission["populations"],
                                            "count"),
            "serve.admission.mean_population": (
                admission["mean_population"] or 0.0, "rows"),
            "serve.admission.scalar_path": (admission["scalar_path"],
                                            "count"),
            "perf.shared.publish_ms": (publish_ms(spans), "ms"),
        })

        untraced_wall, _, envelope, _ = common.run_fuzz_cli(
            ["--seeds", str(CAMPAIGN_REPLAY_SEEDS), "--seed-base",
             str(inputs.campaign_base(seed, 0, 0)), "--workers",
             str(inputs.CAMPAIGN_WORKERS)],
            hash_seed=CAMPAIGN_HASH_SEED,
        )
        tally.problems.extend(checks.check_campaign(envelope,
                                                    CAMPAIGN_REPLAY_SEEDS))
        campaign = campaign_replay(seed, spans)
        tally.attempted += 1
        tally.problems.extend(campaign["problems"])
        facts["untraced_ms"]["campaign"] = untraced_wall * 1e3
        facts["overhead_ms"]["campaign"] = (campaign["wall"]
                                            - untraced_wall) * 1e3
        metrics["trace.overhead_pct.campaign"] = (
            100.0 * (campaign["wall"] - untraced_wall) / untraced_wall, "%")
        metrics.update({
            "fuzz.generate_us": (campaign["generate_us"], "us"),
            "fuzz.run_scenario_ms": (campaign["run_ms"], "ms"),
            "perf.engine.parallel_efficiency": (campaign["efficiency"],
                                                "ratio"),
            "perf.engine.parallel_workers": (inputs.CAMPAIGN_WORKERS,
                                             "count"),
            "fuzz.steps_run": (campaign["steps"], "count"),
            "fuzz.transitions_checked": (campaign["transitions"], "count"),
            "cli.import_s": (campaign["import"], "s"),
            "perf.engine.pool_start_s": (campaign["pool"], "s"),
        })
    finally:
        api.shutdown_pool(wait=True)

    breakdown = layer_self_times(spans)
    for name, entry in breakdown.items():
        metrics[f"trace.residual_pct.{name}"] = (
            100.0 * entry["residual_share"], "%")
    facts["self_ms"] = {name: {k: round(v, 3) for k, v in
                               sorted(entry["self_ms"].items())}
                        for name, entry in breakdown.items()}
    facts["residual_ms"] = {name: round(entry["residual_ms"], 3)
                            for name, entry in breakdown.items()}
    path = os.path.join(common.OUT_DIR, f"trace-{workload}-{seed}.json")
    with open(path, "w") as handle:
        json.dump(spans.chrome(origin), handle)
    facts["chrome_trace"] = os.path.relpath(path, common.ROOT)
    facts["spans"] = len(spans.records)
    return workloads.Outcome(tally, metrics, facts)
