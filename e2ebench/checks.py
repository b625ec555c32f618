"""Output checks.  Each returns a list of problems (empty = correct).

Every check compares the program's answer with an independent
computation (the benchmark's own count of what it sent, an in-process
recompute, the pure-Python kernel backend) or with a property the paper
or the wire contract requires -- never with a stored copy of an earlier
answer.
"""

from __future__ import annotations

from repro.specs import canonical_json


def _envelope_ok(response: dict) -> list:
    if not isinstance(response, dict):
        return [f"not an envelope: {type(response).__name__}"]
    if response.get("ok") is not True:
        return [f"error envelope: {response.get('error')} "
                f"{str(response.get('detail'))[:200]}"]
    return []


def _same(label: str, got, expected) -> list:
    if canonical_json(got) != canonical_json(expected):
        return [f"{label} differs from the reference"]
    return []


# ---------------------------------------------------------------------------
# serve-hits
# ---------------------------------------------------------------------------
def check_fill(response: dict, reference: dict) -> list:
    """The response that filled the cache equals the in-process
    ``payload_for(spec, api.execute(spec))``."""
    problems = _envelope_ok(response)
    if problems:
        return problems
    if response.get("cached") is not False:
        problems.append("fill response was not computed (cached != false)")
    for field in ("data", "metrics", "trace"):
        problems += _same(f"fill {field}", response.get(field),
                          reference.get(field))
    return problems


def check_hit(response: dict, fill_data_json: str) -> list:
    """A timed hit is a memo hit whose data is byte-identical to the
    response that filled the cache."""
    problems = _envelope_ok(response)
    if problems:
        return problems
    if response.get("cached") is not True:
        problems.append("hit was not served from the memo (cached != true)")
    if canonical_json(response.get("data")) != fill_data_json:
        problems.append("hit data differs from the fill response")
    return problems


# ---------------------------------------------------------------------------
# serve-misses
# ---------------------------------------------------------------------------
def check_miss(spec, expected_accesses: int, response: dict) -> list:
    """A class-member run: consistent, counted, and internally summed."""
    problems = _envelope_ok(response)
    if problems:
        return problems
    if response.get("cached") is not False:
        problems.append("a distinct spec was answered from the memo")
    data = response.get("data") or {}
    if data.get("ok") is not True or data.get("violations"):
        problems.append(
            f"class-member mix inconsistent: {data.get('violations')}"
        )
    report = data.get("report") or {}
    if report.get("accesses") != expected_accesses:
        problems.append(
            f"accesses {report.get('accesses')} != {expected_accesses} sent"
        )
    bus = report.get("bus") or {}
    total = bus.get("bus.transactions")
    parts = (bus.get("bus.reads", 0) + bus.get("bus.writes", 0)
             + bus.get("bus.address_only", 0))
    if total is None or parts != total:
        problems.append(f"reads+writes+address-only {parts} != "
                        f"bus.transactions {total}")
    by_event = sum(value for key, value in bus.items()
                   if key.startswith("bus.by_event."))
    if by_event != total:
        problems.append(f"per-event counts {by_event} != "
                        f"bus.transactions {total}")
    elapsed = report.get("elapsed_ns")
    timed = spec.timed or spec.discipline is not None
    if timed and not (isinstance(elapsed, (int, float)) and elapsed > 0):
        problems.append(f"timed run reports elapsed_ns {elapsed}")
    if not timed and elapsed != 0:
        problems.append(f"atomic run reports elapsed_ns {elapsed}")
    return problems


def check_control(response: dict) -> list:
    """An out-of-class mix is refused with an error envelope, and is
    recomputed (never answered from the memo or a shared flight)."""
    if not isinstance(response, dict) or response.get("ok") is not False:
        return ["out-of-class mix was not refused"]
    problems = []
    if response.get("error") != "execution":
        problems.append(f"out-of-class mix refused as "
                        f"{response.get('error')!r}, not 'execution'")
    if response.get("cached") or response.get("coalesced"):
        problems.append("out-of-class failure was memoized or coalesced")
    return problems


# ---------------------------------------------------------------------------
# serve-batch
# ---------------------------------------------------------------------------
def check_batch(spec, response: dict) -> list:
    """Every protocol row ran every event of every row, crash-free."""
    problems = _envelope_ok(response)
    if problems:
        return problems
    rows = (response.get("data") or {}).get("rows")
    if not isinstance(rows, list) or len(rows) != len(spec.protocols):
        return [f"expected {len(spec.protocols)} protocol rows, "
                f"got {rows if not isinstance(rows, list) else len(rows)}"]
    for protocol, row in zip(spec.protocols, rows):
        if row.get("protocol") != protocol:
            problems.append(f"row for {row.get('protocol')!r} where "
                            f"{protocol!r} was asked")
        if row.get("rows") != spec.rows:
            problems.append(f"{protocol}: rows {row.get('rows')} != "
                            f"{spec.rows}")
        if row.get("events") != spec.rows * spec.events_per_row:
            problems.append(f"{protocol}: events {row.get('events')} != "
                            f"{spec.rows} x {spec.events_per_row}")
        if row.get("crashes") != 0:
            problems.append(f"{protocol}: {row.get('crashes')} crashes")
    return problems


def check_batch_reference(served_rows: list, reference_rows: list) -> list:
    """Served rows equal a pure-Python-backend ``run_batch_specs`` of the
    same spec in events, transitions and crashes."""
    problems = []
    if len(served_rows) != len(reference_rows):
        return [f"{len(served_rows)} rows served, "
                f"{len(reference_rows)} in the reference"]
    for got, want in zip(served_rows, reference_rows):
        for field in ("protocol", "events", "transitions", "crashes"):
            if got.get(field) != want.get(field):
                problems.append(
                    f"{want.get('protocol')}: {field} {got.get(field)} != "
                    f"python-backend {want.get(field)}"
                )
    return problems


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------
def check_campaign(envelope: dict, seeds: int) -> list:
    """A campaign over class members ran every seed and found nothing."""
    if not isinstance(envelope, dict) or envelope.get("command") != "fuzz":
        return ["not a fuzz report"]
    data = envelope.get("data") or {}
    problems = []
    if envelope.get("ok") is not True:
        problems.append("campaign report is not ok")
    if data.get("seeds_run") != seeds:
        problems.append(f"seeds_run {data.get('seeds_run')} != {seeds}")
    if data.get("failures"):
        problems.append(f"{len(data['failures'])} failures, first: "
                        f"{str(data['failures'][0])[:200]}")
    if not data.get("steps_run"):
        problems.append("campaign ran no steps")
    return problems


def check_inject(envelope: dict) -> list:
    """A campaign with a planted bug must find it."""
    data = (envelope or {}).get("data") or {}
    if envelope.get("ok") is not False or not data.get("failures"):
        return ["planted bug went undetected"]
    return []
