"""Seeded inputs for every workload.  The program sees only these specs.

Every generator is a pure function of its arguments: the same ``seed``
(and round index) gives the same specs in any process.
"""

from __future__ import annotations

import random

#: The MOESI-class members of the protocol registry.
CLASS_MEMBERS = (
    "moesi", "moesi-invalidate", "moesi-update", "moesi-random",
    "moesi-round-robin", "moesi-adaptive-threshold",
    "moesi-adaptive-competitive", "berkeley", "dragon", "write-through",
    "write-through-alloc", "non-caching",
)
DISCIPLINES = ("fcfs", "priority", "round-robin")
#: Batch-lowerable class members (``repro.perf.batch.batchable_specs``).
BATCH_MEMBERS = (
    "moesi", "moesi-invalidate", "moesi-update", "berkeley", "dragon",
    "write-through", "write-through-alloc", "non-caching",
)
BATCH_GEOMETRIES = ((2, 2, 32, 8), (4, 2, 32, 8), (4, 1, 32, 12),
                    (8, 2, 32, 16), (4, 4, 32, 16))

#: Request lines above this many bytes are refused by the daemon's
#: stream reader (asyncio's default limit).
READLINE_LIMIT = 64 * 1024
#: One oversized literal trace per serve-misses round (~70 KB request).
OVERSIZED_REFERENCES = 4000
OVERSIZED_SEED = 20260
HITS_RECIPES = 40
#: References in each literal trace of serve-hits (20-40 KB requests).
HITS_LITERAL_SIZES = (1200, 1400, 1600, 1800, 2000, 2200)
MISSES_ROUND = 24
#: References per recipe spec on serve-misses.
MISS_REFERENCES = 2000
BATCH_ROUND = 16
BATCH_ROWS = 16
BATCH_EVENTS_PER_ROW = 64


def _literal_records(rng: random.Random, units: int, count: int) -> tuple:
    """A shared-heavy reference stream over a few dozen lines."""
    records = []
    for _ in range(count):
        unit = f"cpu{rng.randrange(units)}"
        op = "W" if rng.random() < 0.3 else "R"
        address = 32 * rng.randrange(48) + 4 * rng.randrange(8)
        records.append((unit, op, address))
    return tuple(records)


def _mix(rng: random.Random, members: tuple, units: int) -> tuple:
    if rng.random() < 0.5:
        return (rng.choice(members),) * units
    return tuple(rng.choice(members) for _ in range(units))


def _experiment(rng, members, workload, units, mode):
    from repro.specs import ExperimentSpec, GeometrySpec

    geometry = GeometrySpec(
        num_sets=rng.choice((16, 32, 64)),
        associativity=rng.choice((1, 2, 4)),
    )
    return ExperimentSpec(
        protocols=_mix(rng, members, units),
        workload=workload,
        geometry=geometry,
        timed=(mode == "timed"),
        discipline=mode if mode in DISCIPLINES else None,
    )


def _recipe(rng, members, seed, references, mode, units=None):
    from repro.specs import WorkloadSpec

    units = units or rng.randint(2, 4)
    workload = WorkloadSpec(
        processors=units, references=references, seed=seed,
        p_shared=rng.choice((0.2, 0.3, 0.5)),
        p_write=rng.choice((0.2, 0.3, 0.4)),
    )
    return _experiment(rng, members, workload, units, mode)


def _literal(rng, members, count, mode=None, units=None):
    from repro.specs import WorkloadSpec

    units = units or rng.randint(2, 4)
    workload = WorkloadSpec(
        source="literal", records=_literal_records(rng, units, count)
    )
    return _experiment(rng, members, workload, units,
                       mode or rng.choice(("atomic", "timed")))


def expected_accesses(spec) -> int:
    """References the benchmark generated or sent for an experiment."""
    if spec.workload.source == "literal":
        return len(spec.workload.records)
    return spec.workload.references


SHAPES = ("recipe-atomic", "recipe-timed", "literal-atomic",
          "literal-timed")


def spec_shape(spec) -> str:
    """``recipe``/``literal`` x ``atomic``/``timed`` (arbitrated runs
    are timed)."""
    source = "literal" if spec.workload.source == "literal" else "recipe"
    timed = spec.timed or spec.discipline is not None
    return f"{source}-{'timed' if timed else 'atomic'}"


def warmup_experiment():
    """The fixed first request of a serve cold start (not seeded)."""
    from repro.specs import ExperimentSpec, WorkloadSpec

    return ExperimentSpec(
        protocol="moesi",
        workload=WorkloadSpec(processors=2, references=100, seed=1),
    )


def warmup_batch():
    """The fixed first request of a serve-batch cold start."""
    from repro.specs import BatchSpec

    return BatchSpec(protocols=("moesi",), rows=4, events_per_row=20,
                     seed=1, n_units=2)


# ---------------------------------------------------------------------------
# serve-hits: a fixed set, cycled.
# ---------------------------------------------------------------------------
def hit_specs(seed: int) -> list:
    """Distinct small recipe specs plus a minority of 20-40 KB literal
    traces over the class members.  Sizes, board counts
    and modes follow a fixed schedule (the tail percentile sits on the
    largest literal trace); the seed draws members, geometries and
    reference streams."""
    rng = random.Random(f"hits:{seed}")
    modes = ("atomic", "timed") + DISCIPLINES
    specs = []
    for index in range(HITS_RECIPES):
        specs.append(_recipe(rng, CLASS_MEMBERS,
                             seed * 1000 + index, 200 + 10 * index,
                             modes[index % len(modes)],
                             units=2 + index % 3))
    for index, count in enumerate(HITS_LITERAL_SIZES):
        specs.append(_literal(rng, CLASS_MEMBERS, count,
                              ("atomic", "timed")[index % 2],
                              units=2 + index % 3))
    return specs


def hit_order(seed: int, round_index: int, count: int) -> list:
    order = list(range(count))
    random.Random(f"hits-order:{seed}:{round_index}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# serve-misses: every spec distinct.
# ---------------------------------------------------------------------------
def oversized_spec(round_index: int):
    """The known-fault request: a literal trace whose request line
    exceeds the daemon's 64 KiB line limit.  Independent of the seed."""
    from repro.specs import ExperimentSpec, WorkloadSpec

    rng = random.Random(f"oversized:{OVERSIZED_SEED}:{round_index}")
    workload = WorkloadSpec(
        source="literal",
        records=_literal_records(rng, 4, OVERSIZED_REFERENCES),
    )
    return ExperimentSpec(protocols=("moesi", "berkeley", "dragon",
                                     "write-through"),
                          workload=workload)


def miss_round(seed: int, round_index: int,
               size: int = MISSES_ROUND) -> list:
    """One round: recipe specs over every mode (atomic, timed, the three
    disciplines), three literal traces, and one oversized trace.

    Sizes, board counts and modes follow a fixed schedule, so every round
    asks for about the same work; the seed draws the members, geometries,
    reference streams and order."""
    rng = random.Random(f"misses:{seed}:{round_index}")
    modes = ("atomic", "timed") + DISCIPLINES
    specs = []
    for index in range(size - 4):
        specs.append(_recipe(
            rng, CLASS_MEMBERS,
            (seed * 100_000 + round_index) * 100 + index,
            MISS_REFERENCES, modes[index % len(modes)],
            units=2 + index % 3,
        ))
    for units, (count, mode) in enumerate(
        ((800, "atomic"), (1100, "timed"), (1400, None)), start=2
    ):
        specs.append(_literal(rng, CLASS_MEMBERS, count, mode, units))
    specs.append(oversized_spec(round_index))
    rng.shuffle(specs)
    return specs


def out_of_class_spec():
    """Negative control: Illinois beside Dragon is not consistent."""
    from repro.specs import ExperimentSpec, WorkloadSpec

    return ExperimentSpec(
        protocols=("illinois", "dragon"),
        workload=WorkloadSpec(processors=2, references=300, seed=1),
    )


# ---------------------------------------------------------------------------
# serve-batch: distinct compatible BatchSpecs (equal n_units).
# ---------------------------------------------------------------------------
def batch_round(seed: int, round_index: int,
                size: int = BATCH_ROUND) -> list:
    from repro.specs import BatchSpec

    rng = random.Random(f"batch:{seed}:{round_index}")
    specs = []
    for index in range(size):
        specs.append(BatchSpec(
            protocols=tuple(rng.sample(BATCH_MEMBERS, 2)),
            rows=BATCH_ROWS,
            events_per_row=BATCH_EVENTS_PER_ROW,
            seed=(seed * 100_000 + round_index) * 100 + index,
            n_units=2,
            geometry=rng.choice(BATCH_GEOMETRIES),
        ))
    return specs


# ---------------------------------------------------------------------------
# campaign: successive fresh seed ranges of the default scenario config.
# ---------------------------------------------------------------------------
CAMPAIGN_SEEDS = 1000
CAMPAIGNS_PER_ROUND = 3
#: ``nproc`` of the host the benchmark was tuned on.
CAMPAIGN_WORKERS = 2
#: The one-seed campaign timed as campaign set-up (not seeded).
SETUP_SEED_BASE = 1
#: The reproducibility operation: one fixed campaign (independent of the
#: seed) run under two fixed hash seeds.  Seed 454 is in the range.
REPRO_ARGS = ("--seeds", "100", "--seed-base", "400", "--workers", "2")
REPRO_HASH_SEEDS = (1, 3)
INJECT_SEEDS = 100


def campaign_base(seed: int, round_index: int, position: int) -> int:
    """First seed of a timed campaign: fresh, disjoint ranges."""
    index = round_index * CAMPAIGNS_PER_ROUND + position
    return 1_000_000 + seed * 100_000_000 + index * CAMPAIGN_SEEDS
