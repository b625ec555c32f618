"""The four workloads, untraced.  End-to-end metrics come only from here.

Every workload is a closed loop of whole rounds: a round is a fixed,
seeded list of operations, a new round starts only while the measuring
time lasts, and a started round always runs to its end.  The share of
failed operations is therefore the same in every run, whatever the seed
and however many rounds fit.
"""

from __future__ import annotations

import collections
import math
import threading
import time

import checks
import common
import inputs

#: The percentile printed as the reference figure ``latency_tail_ms`` on
#: each workload: the highest one with at least ten samples beyond it in
#: a normal run.  On serve-misses one request in 26 is a known failure
#: (+inf latency), so p99 there is never finite; campaign has fewer than
#: forty samples, so its tail is the median alone.  It is not a gated
#: metric: on the reference host its spread between runs exceeds 0.25.
TAIL_PERCENTILE = {
    "serve-hits": 99,
    "serve-misses": 90,
    "serve-batch": 90,
    "campaign": 50,
}
#: Cold starts per run; ``setup_s`` is their median.
SETUP_STARTS = 3


class Tally:
    """Operations attempted/failed, latencies and output problems,
    shared by the client threads of one closed loop."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.latencies: list = []
        self.problems: list = []
        self.events = 0

    def record(self, seconds: float, problems: list, events: int = 0,
               failed: bool = False) -> None:
        with self.lock:
            self.attempted += 1
            if failed:
                # A failed operation misses every latency limit.
                self.failed += 1
                self.latencies.append(math.inf)
            else:
                self.latencies.append(seconds)
                self.events += events
            self.problems.extend(problems)


class Feeder:
    """Hands out the operations of whole rounds to the client threads."""

    def __init__(self, make_round, seconds: float,
                 max_rounds: int | None = None) -> None:
        self.make_round = make_round
        self.end = time.perf_counter() + seconds
        self.max_rounds = max_rounds
        self.rounds = 0
        self._queue: collections.deque = collections.deque()
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            if not self._queue:
                if self.rounds and (
                    time.perf_counter() >= self.end
                    or self.rounds == self.max_rounds
                ):
                    return None
                self._queue.extend(self.make_round(self.rounds))
                self.rounds += 1
            return self._queue.popleft()


def closed_loop(port: int, connections: int, feeder: Feeder, handle) -> float:
    """Run ``handle(client, item)`` over the feeder from ``connections``
    threads, each with its own :class:`ServeClient`; returns wall
    seconds."""
    from repro.serve.client import ServeClient

    errors: list = []

    def worker() -> None:
        client = ServeClient(port=port)
        try:
            while True:
                item = feeder.next()
                if item is None:
                    return
                handle(client, item)
        except BaseException as error:  # surfaced after the join
            errors.append(error)
            raise

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return wall


def timed_execute(client, spec, observe=None):
    """One request; returns ``(seconds, envelope or None, error)``.
    ``observe(spec, start, end, envelope)`` sees every request (the
    traced mode records its spans from it)."""
    start = time.perf_counter()
    response = error = None
    try:
        response = client.execute(spec)
    except (OSError, ValueError) as caught:
        error = caught
    end = time.perf_counter()
    if observe is not None:
        observe(spec, start, end, response)
    return end - start, response, error




class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self, tally: Tally, metrics: dict, facts: dict) -> None:
        self.attempted = tally.attempted
        self.failed = tally.failed
        self.problems = tally.problems
        self.metrics = metrics
        self.facts = facts


def _finish(name, tally, wall, setup_s, rss_mb, facts) -> Outcome:
    p50 = common.percentile(tally.latencies, 50)
    tail = common.percentile(tally.latencies, TAIL_PERCENTILE[name])
    if not math.isfinite(p50) or not math.isfinite(tail):
        raise common.BenchError(
            f"{name}: a latency percentile lands on failed operations"
        )
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / wall, "ops/s"),
        "latency_p50_ms": (common.ms(p50), "ms"),
        "sim_events_per_s": (tally.events / wall, "events/s"),
        "rss_mb": (rss_mb, "MB"),
    }
    facts.update(
        samples=len(tally.latencies),
        latency_tail_ms=common.ms(tail),
        tail_percentile=TAIL_PERCENTILE[name],
        timed_seconds=wall,
    )
    return Outcome(tally, metrics, facts)


# ---------------------------------------------------------------------------
# serve-hits
# ---------------------------------------------------------------------------
def serve_hits(seed: int, seconds: float, starts: int = SETUP_STARTS,
               max_rounds: int | None = None, launch=common.Daemon,
               observe=None) -> Outcome:
    from repro import api
    from repro.serve.protocol import payload_for
    from repro.specs import canonical_json

    specs = inputs.hit_specs(seed)
    tally = Tally()
    setup_s, daemon = common.setup_median(
        lambda d: d.client.execute(inputs.warmup_experiment()), starts,
        launch
    )
    try:
        # Fill the memo once, untimed, and check each fill against an
        # in-process recompute.
        fill_data = []
        for spec in specs:
            response = daemon.client.execute(spec)
            reference = payload_for(spec, api.execute(spec, workers=1))
            tally.problems.extend(checks.check_fill(response, reference))
            fill_data.append(response.get("data"))
        fill_json = [canonical_json(data) for data in fill_data]
        first_round: list = []

        def handle(client, index):
            seconds_, response, error = timed_execute(client, specs[index],
                                                      observe)
            if response is None or response.get("ok") is not True:
                tally.record(seconds_, [f"hit failed: {error}"],
                             failed=True)
                return
            # Parsed canonical JSON compared as values (equal values are
            # equal bytes, up to 1 vs 1.0); the first round byte for byte.
            problems = []
            if response.get("cached") is not True:
                problems.append("hit was not served from the memo")
            if response.get("data") != fill_data[index]:
                problems.append("hit data differs from the fill response")
            if len(first_round) < len(specs):
                first_round.append((index, response))
            tally.record(seconds_, problems,
                         response["data"]["report"]["accesses"])

        feeder = Feeder(lambda index: inputs.hit_order(seed, index,
                                                       len(specs)),
                        seconds, max_rounds)
        wall = closed_loop(daemon.port, 1, feeder, handle)
        for index, response in first_round:
            tally.problems.extend(checks.check_hit(response,
                                                   fill_json[index]))
        status = daemon.status()
        facts = {"cache": status["cache"], "rounds": feeder.rounds}
        return _finish("serve-hits", tally, wall, setup_s,
                       daemon.peak_rss_mb(), facts)
    finally:
        daemon.close()


# ---------------------------------------------------------------------------
# serve-misses
# ---------------------------------------------------------------------------
def serve_misses(seed: int, seconds: float, starts: int = SETUP_STARTS,
                 max_rounds: int | None = None, launch=common.Daemon,
                 observe=None) -> Outcome:
    tally = Tally()
    control = inputs.out_of_class_spec()
    setup_s, daemon = common.setup_median(
        lambda d: d.client.execute(inputs.warmup_experiment()), starts,
        launch
    )
    try:
        def make_round(index):
            items = [("miss", spec) for spec in inputs.miss_round(seed,
                                                                  index)]
            # The negative control rides in every round, so the share of
            # failed operations stays fixed.
            items.insert(len(items) // 2, ("control", control))
            return items

        def handle(client, item):
            kind, spec = item
            if kind == "control":
                # Twice in a row on one connection: the second must be a
                # recompute, not a memoized or shared failure.
                for _ in range(2):
                    seconds_, response, error = timed_execute(
                        client, spec, observe
                    )
                    problems = checks.check_control(response)
                    tally.record(seconds_, problems, failed=bool(problems))
                return
            seconds_, response, error = timed_execute(client, spec, observe)
            if response is None or response.get("ok") is not True:
                # The oversized trace is the known fault: connection reset,
                # no envelope.  Any other failure is a failed check too.
                known = len(spec.canonical()) > inputs.READLINE_LIMIT
                tally.record(seconds_, [] if known else [
                    f"request failed: {error or response.get('error')}"
                ], failed=True)
                return
            expected = inputs.expected_accesses(spec)
            tally.record(seconds_, checks.check_miss(spec, expected,
                                                     response),
                         events=response["data"]["report"]["accesses"])

        feeder = Feeder(make_round, seconds, max_rounds)
        wall = closed_loop(daemon.port, 2, feeder, handle)
        status = daemon.status()
        errors = status["counters"]["errors"]
        if errors != 2 * feeder.rounds:
            tally.problems.append(
                f"daemon counted {errors} errors for "
                f"{2 * feeder.rounds} out-of-class requests"
            )
        facts = {"cache": status["cache"], "rounds": feeder.rounds,
                 "pool": status["pool"]}
        return _finish("serve-misses", tally, wall, setup_s,
                       daemon.peak_rss_mb(), facts)
    finally:
        daemon.close()


# ---------------------------------------------------------------------------
# serve-batch
# ---------------------------------------------------------------------------
#: Answered specs recomputed on the pure-Python backend, four rounds'
#: worth (~33 ms a spec on the reference host; all of a 20-s run would
#: add ~10 s to it).
BATCH_REFERENCE_SPECS = 4 * inputs.BATCH_ROUND


def batch_reference_problems(answered: list) -> list:
    """Recompute the first answered specs on the pure-Python kernel
    backend, and replay sampled rows on the object engine."""
    from repro.perf.batch import (
        BatchGeometry,
        make_synthetic_population,
        run_batch_specs,
        run_population,
        verify_rows,
    )

    problems = []
    for spec, rows in answered[:BATCH_REFERENCE_SPECS]:
        # One spec at a time: the served rows came out of merged
        # populations, so this also checks the de-multiplexing.
        want = run_batch_specs([spec], backend="python")[0]
        problems.extend(checks.check_batch_reference(rows, want))
    # Sampled rows: the first protocol of one spec in 16, two rows.
    for spec, _ in answered[::inputs.BATCH_ROUND]:
        pop = make_synthetic_population(
            rows=spec.rows, units=(spec.protocols[0],) * spec.n_units,
            geometry=BatchGeometry(*spec.geometry),
            events_per_row=spec.events_per_row, seed=spec.seed,
        )
        result = run_population(pop)
        for mismatch in verify_rows(pop, result, rows=(0, spec.rows - 1)):
            problems.append(f"row replay mismatch {mismatch}")
    return problems


def serve_batch(seed: int, seconds: float, starts: int = SETUP_STARTS,
                max_rounds: int | None = None, launch=common.Daemon,
                observe=None) -> Outcome:
    tally = Tally()
    setup_s, daemon = common.setup_median(
        lambda d: d.client.execute(inputs.warmup_batch()), starts, launch
    )
    try:
        answered: list = []
        backends: set = set()

        def handle(client, pair):
            # Two concurrent connections per burst (the client's own
            # execute_many), so the pair lands in one admission window.
            failure = None
            start = time.perf_counter()
            try:
                responses = client.execute_many(pair, concurrency=2)
            except (OSError, ValueError) as error:
                responses = [None] * len(pair)
                failure = error
            end = time.perf_counter()
            for spec, response in zip(pair, responses):
                if observe is not None:
                    observe(spec, start, end, response)
                problems = checks.check_batch(spec, response) if response \
                    else [f"no envelope: {failure}"]
                events = 0
                if not problems:
                    rows = response["data"]["rows"]
                    answered.append((spec, rows))
                    backends.update(row["backend"] for row in rows)
                    events = sum(row["events"] for row in rows)
                tally.record(end - start, problems, events,
                             failed=bool(problems))

        def make_round(index):
            specs = inputs.batch_round(seed, index)
            return [specs[i:i + 2] for i in range(0, len(specs), 2)]

        feeder = Feeder(make_round, seconds, max_rounds)
        wall = closed_loop(daemon.port, 1, feeder, handle)
        status = daemon.status()
        outcome = _finish("serve-batch", tally, wall, setup_s,
                          daemon.peak_rss_mb(), {
            "rounds": feeder.rounds,
            "batch": status["batch"],
            "kernel_backend": sorted(backends),
        })
    finally:
        daemon.close()
    outcome.problems.extend(batch_reference_problems(answered))
    return outcome


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------
def inject_problems() -> list:
    """Every injectable bug is found in a fixed seed range."""
    from repro.fuzz.scenario import INJECTABLE_BUGS

    problems = []
    for bug in sorted(INJECTABLE_BUGS):
        _, _, envelope, _ = common.run_fuzz_cli(
            ["--seeds", str(inputs.INJECT_SEEDS), "--inject", bug,
             "--no-shrink"]
        )
        problems.extend(f"{bug}: {p}" for p in checks.check_inject(envelope))
    return problems


def campaign(seed: int, seconds: float, starts: int = SETUP_STARTS,
             max_rounds: int | None = None) -> Outcome:
    tally = Tally()
    tally.problems.extend(inject_problems())
    setup_times = []
    for _ in range(starts):
        wall_, _, envelope, _ = common.run_fuzz_cli(
            ["--seeds", "1", "--seed-base", str(inputs.SETUP_SEED_BASE)]
        )
        setup_times.append(wall_)
        tally.problems.extend(checks.check_campaign(envelope, 1))
    peaks = []
    steps = 0
    feeder = Feeder(lambda index: [("campaign", index, i) for i in
                                   range(inputs.CAMPAIGNS_PER_ROUND)]
                    + [("repro", index, None)], seconds, max_rounds)
    start = time.perf_counter()
    while True:
        item = feeder.next()
        if item is None:
            break
        kind, round_index, position = item
        if kind == "campaign":
            base = inputs.campaign_base(seed, round_index, position)
            wall_, _, envelope, peak = common.run_fuzz_cli(
                ["--seeds", str(inputs.CAMPAIGN_SEEDS), "--seed-base",
                 str(base), "--workers", str(inputs.CAMPAIGN_WORKERS)],
                sample_rss=True,
            )
            peaks.append(peak)
            problems = checks.check_campaign(envelope,
                                             inputs.CAMPAIGN_SEEDS)
            events = envelope["data"]["steps_run"] if not problems else 0
            tally.record(wall_, problems, events, failed=bool(problems))
            continue
        # The reproducibility operation: one fixed campaign in two fresh
        # processes under two hash seeds; the reports must be equal byte
        # for byte.  Known fault: they differ today.
        outputs = []
        for hash_seed in inputs.REPRO_HASH_SEEDS:
            _, out, envelope, _ = common.run_fuzz_cli(
                list(inputs.REPRO_ARGS), hash_seed=hash_seed
            )
            tally.problems.extend(checks.check_campaign(
                envelope, int(inputs.REPRO_ARGS[1])
            ))
            steps += envelope["data"]["steps_run"]
            outputs.append(out)
        # Its latency is not a campaign's: it enters the count only.
        with tally.lock:
            tally.attempted += 1
            if outputs[0] != outputs[1]:
                tally.failed += 1
    wall = time.perf_counter() - start
    tally.events += steps
    facts = {"rounds": feeder.rounds}
    return _finish("campaign", tally, wall, common.median(setup_times),
                   max(peaks), facts)

WORKLOADS = {
    "serve-hits": serve_hits,
    "serve-misses": serve_misses,
    "serve-batch": serve_batch,
    "campaign": campaign,
}
