"""Hypothesis properties over random programs: faithfulness + determinism."""

import random

from hypothesis import given, settings, strategies as st

from repro.lang import DEFAULT_LATTICE
from repro.machine import Memory
from repro.hardware import (
    NoFillHardware,
    NullHardware,
    PartitionedHardware,
    StandardHardware,
    tiny_machine,
)
from repro.semantics import (
    check_adequacy,
    check_sequential_composition,
    check_sleep_accuracy,
    execute,
    run_core,
)
from repro.testing import GeneratorConfig, ProgramGenerator, standard_gamma
from repro.typesystem import infer_labels

LAT = DEFAULT_LATTICE
GAMMA = standard_gamma(LAT)

HARDWARE = [
    lambda: NullHardware(LAT),
    lambda: StandardHardware(LAT, tiny_machine()),
    lambda: NoFillHardware(LAT, tiny_machine()),
    lambda: PartitionedHardware(LAT, tiny_machine()),
]


def generated(seed):
    gen = ProgramGenerator(
        GAMMA, random.Random(seed),
        GeneratorConfig(max_depth=2, max_block_length=3),
    )
    program = gen.program()
    infer_labels(program, GAMMA)
    return program, gen.memory()


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_adequacy_random_programs(seed):
    # Property 1 on every hardware model (adequacy doesn't need security).
    program, memory = generated(seed)
    for factory in HARDWARE:
        assert check_adequacy(program, memory, factory()) == []


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_sequential_composition_random(seed):
    p1, memory = generated(seed)
    p2, _ = generated(seed + 424242)
    for factory in HARDWARE:
        assert check_sequential_composition(p1, p2, memory, factory()) == []


@given(st.lists(st.integers(min_value=-50, max_value=200), min_size=1,
                max_size=5))
@settings(max_examples=30, deadline=None)
def test_sleep_accuracy_random_durations(durations):
    for factory in HARDWARE:
        assert check_sleep_accuracy(durations, factory()) == []


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_full_semantics_deterministic(seed):
    # Property 2 lifted to whole programs: everything about two identical
    # runs coincides.
    program, memory = generated(seed)
    for factory in HARDWARE:
        r1 = execute(program, memory.copy(), factory())
        r2 = execute(program, memory.copy(), factory())
        assert r1.time == r2.time
        assert r1.events == r2.events
        assert r1.memory == r2.memory
        assert (r1.environment.full_state() == r2.environment.full_state())


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_cached_step_table_matches_a_fresh_compile(seed):
    # The second run of one program object reuses its compiled step table;
    # an identical program built anew compiles its own.  All three runs
    # must agree on everything they show.
    program, memory = generated(seed)
    twin, _ = generated(seed)
    for factory in HARDWARE:
        runs = [execute(p, memory.copy(), factory())
                for p in (program, program, twin)]
        shown = [(r.time, r.steps, r.events, r.memory,
                  [(m.level, m.start_time, m.end_time)
                   for m in r.mitigations],
                  r.environment.full_state()) for r in runs]
        assert shown[0] == shown[1] == shown[2]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_core_and_full_memory_agree(seed):
    program, memory = generated(seed)
    core_mem = run_core(program, memory.copy())
    full = execute(program, memory.copy(), NullHardware(LAT))
    assert core_mem == full.memory


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_event_times_strictly_positive_and_monotone(seed):
    program, memory = generated(seed)
    r = execute(program, memory.copy(),
                PartitionedHardware(LAT, tiny_machine()))
    last = 0
    for event in r.events:
        assert event.time >= last
        last = event.time
    assert last <= r.time
