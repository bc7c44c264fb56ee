"""Soundness battery for the SC oracle's reduced search.

The oracle (:mod:`repro.fuzz.oracle`) does not branch on loads: it takes
a load whose value is already in memory without branching (forced
loads), and it abandons a state as soon as some read needs a value that
can never return to its slot (dead reads). Both rules rest on every store
identity being written at most once. This file checks them against a
brute-force reference that enumerates every interleaving of tiny
programs. On every observation drawn here the verdict must equal the
reference's, and every witness must replay to the observation exactly.
"""

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.types import MemOpKind
from repro.fuzz.generator import FuzzKnobs, FuzzOp, FuzzProgram, \
    generate_program
from repro.fuzz.oracle import INIT, UNKNOWN, Observation, explain
from repro.fuzz.toy import broken_store_buffer_executor, \
    reference_sc_executor

#: Warp keys the drawn programs use: two cores, one with two warps.
WARP_KEYS = [(0, 0), (0, 1), (1, 0)]
SEM_KINDS = [MemOpKind.LOAD, MemOpKind.STORE, MemOpKind.ATOMIC]

Outcome = Tuple[Tuple[Tuple, ...], Tuple]


# ----------------------------------------------------------------------
# Brute-force reference
# ----------------------------------------------------------------------

def semantic_ops(program: FuzzProgram):
    """Per warp key: its memory ops as ``(ident, op)``, in order."""
    return {key: [((key[0], key[1], i), op)
                  for i, op in enumerate(ops) if op.is_mem]
            for key, ops in sorted(program.warps.items())}


def all_outcomes(program: FuzzProgram) -> Set[Outcome]:
    """Every (reads, final) pair some SC interleaving produces."""
    sem = semantic_ops(program)
    keys = sorted(sem)
    outcomes: Set[Outcome] = set()

    def walk(pcs: List[int], mem: Dict[int, object],
             reads: Dict[Tuple[int, int], List]) -> None:
        moved = False
        for w, key in enumerate(keys):
            if pcs[w] == len(sem[key]):
                continue
            moved = True
            ident, op = sem[key][pcs[w]]
            old = mem.get(op.slot, INIT)
            if op.kind is not MemOpKind.STORE:
                reads[key].append(old)
            if op.kind is not MemOpKind.LOAD:
                mem[op.slot] = ident
            pcs[w] += 1
            walk(pcs, mem, reads)
            pcs[w] -= 1
            mem[op.slot] = old
            if op.kind is not MemOpKind.STORE:
                reads[key].pop()
        if not moved:
            outcomes.add((
                tuple(tuple(reads[k]) for k in keys),
                tuple(mem.get(s, INIT) for s in range(program.n_addrs))))

    walk([0] * len(keys), {}, {k: [] for k in keys})
    return outcomes


def outcome_of(program: FuzzProgram, obs: Observation) -> Outcome:
    keys = sorted(program.warps)
    return (tuple(tuple(obs.reads.get(k, [])) for k in keys),
            tuple(obs.final_of(s) for s in range(program.n_addrs)))


def replay(program: FuzzProgram, steps) -> Outcome:
    """Run a witness on flat memory; it must be a full interleaving that
    keeps every warp's program order."""
    sem = semantic_ops(program)
    pcs = {key: 0 for key in sem}
    mem: Dict[int, object] = {}
    reads: Dict[Tuple[int, int], List] = {key: [] for key in sem}
    for key, op in steps:
        ident, want = sem[key][pcs[key]]
        assert (op.ident, op.slot, op.kind) == (ident, want.slot, want.kind)
        pcs[key] += 1
        if op.kind is not MemOpKind.STORE:
            reads[key].append(mem.get(op.slot, INIT))
        if op.kind is not MemOpKind.LOAD:
            mem[op.slot] = op.ident
    assert all(pcs[key] == len(sem[key]) for key in sem)
    keys = sorted(sem)
    return (tuple(tuple(reads[k]) for k in keys),
            tuple(mem.get(s, INIT) for s in range(program.n_addrs)))


def assert_matches_reference(program: FuzzProgram,
                             obs: Observation) -> bool:
    steps = explain(program, obs)
    want = outcome_of(program, obs)
    assert (steps is not None) == (want in all_outcomes(program))
    if steps is not None:
        assert replay(program, steps) == want
    return steps is not None


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def programs(draw) -> FuzzProgram:
    """≤3 warps, ≤8 memory ops over ≤3 slots, with stray fences (which
    shift program indices but carry no semantics)."""
    n_addrs = draw(st.integers(1, 3))
    n_warps = draw(st.integers(1, 3))
    ops = draw(st.lists(
        st.tuples(st.integers(0, n_warps - 1), st.sampled_from(SEM_KINDS),
                  st.integers(0, n_addrs - 1), st.booleans()),
        min_size=1, max_size=8))
    warps: Dict[Tuple[int, int], List[FuzzOp]] = {}
    for w, kind, slot, fence_first in ops:
        seq = warps.setdefault(WARP_KEYS[w], [])
        if fence_first:
            seq.append(FuzzOp(MemOpKind.FENCE))
        seq.append(FuzzOp(kind, slot=slot))
    return FuzzProgram(n_addrs=n_addrs, warps=warps, name="drawn")


def mutant_values(program: FuzzProgram, key, sem_index: int, slot: int):
    """Values a read or final slot can be mutated to, each one unlikely
    to be explainable: INIT, unknown provenance, a store to another
    slot, and a store later in the reading warp."""
    sem = semantic_ops(program)
    values = [INIT, UNKNOWN]
    values += [ident for ops in sem.values() for ident, op in ops
               if op.kind is not MemOpKind.LOAD and op.slot != slot]
    if key is not None:
        values += [ident for ident, op in sem[key][sem_index:]
                   if op.kind is not MemOpKind.LOAD and op.slot == slot]
    return values


@st.composite
def mutated(draw, program: FuzzProgram) -> Observation:
    """An SC observation with one read or final value replaced."""
    seed = draw(st.integers(0, 1_000))
    obs = reference_sc_executor(seed).run_program(program)
    reads = {k: list(v) for k, v in obs.reads.items()}
    final = dict(obs.final)
    sem = semantic_ops(program)
    # (warp key, read index, op index) per read; (None, slot, None) per
    # final slot.
    sites = [(None, slot, None) for slot in range(program.n_addrs)]
    for key, ops in sem.items():
        sem_reads = [n for n, (_, op) in enumerate(ops)
                     if op.kind is not MemOpKind.STORE]
        sites += [(key, j, n) for j, n in enumerate(sem_reads)]
    key, j, n = draw(st.sampled_from(sites))
    if key is None:
        final[j] = draw(st.sampled_from(mutant_values(program, None, 0, j)))
    else:
        slot = sem[key][n][1].slot
        reads[key][j] = draw(st.sampled_from(
            mutant_values(program, key, n, slot)))
    return Observation(reads=reads, final=final)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

@given(programs(), st.integers(0, 1_000))
@settings(max_examples=150, deadline=None)
def test_reference_executor_outcomes_are_explained(program, seed):
    obs = reference_sc_executor(seed).run_program(program)
    assert assert_matches_reference(program, obs)


@given(programs(), st.data())
@settings(max_examples=150, deadline=None)
def test_every_sc_outcome_is_explained(program, data):
    reads, final = data.draw(st.sampled_from(
        sorted(all_outcomes(program), key=repr)))
    keys = sorted(program.warps)
    obs = Observation(reads={k: list(r) for k, r in zip(keys, reads)},
                      final=dict(enumerate(final)))
    assert assert_matches_reference(program, obs)


@given(programs(), st.integers(1, 2), st.integers(0, 1_000),
       st.sampled_from(["roundrobin", "random"]))
@settings(max_examples=150, deadline=None)
def test_store_buffer_outcomes_match_reference(program, depth, seed,
                                               schedule):
    ex = broken_store_buffer_executor(depth=depth, schedule_seed=seed,
                                      schedule=schedule)
    assert_matches_reference(program, ex.run_program(program))


@given(programs().flatmap(lambda p: st.tuples(st.just(p), mutated(p))))
@settings(max_examples=300, deadline=None)
def test_mutated_observations_match_reference(case):
    program, obs = case
    assert_matches_reference(program, obs)


# ----------------------------------------------------------------------
# The reduction itself
# ----------------------------------------------------------------------

def test_forced_loads_cost_no_states():
    """Loads that read what memory holds never branch, so a load-only
    program is explained without visiting a single state."""
    loads = [FuzzOp(MemOpKind.LOAD, slot=s % 2) for s in range(6)]
    program = FuzzProgram(n_addrs=2, warps={k: list(loads)
                                            for k in WARP_KEYS})
    obs = Observation(reads={k: [INIT] * 6 for k in WARP_KEYS})
    steps = explain(program, obs, max_states=1)
    assert steps is not None and len(steps) == 18


def test_unreturnable_reads_are_refused_before_the_search():
    """A read of "?", of a store to another slot, or of a store later in
    its own warp is dead in every state: no state is visited."""
    program = FuzzProgram(n_addrs=2, warps={
        (0, 0): [FuzzOp(MemOpKind.STORE, slot=0),
                 FuzzOp(MemOpKind.LOAD, slot=1),
                 FuzzOp(MemOpKind.STORE, slot=1)],
        (1, 0): [FuzzOp(MemOpKind.STORE, slot=1)] * 4})
    for value in (UNKNOWN, (0, 0, 0), (0, 0, 2)):
        obs = Observation(reads={(0, 0): [value]})
        assert explain(program, obs, max_states=1) is None


def test_long_program_is_explained_without_recursion():
    """1,200 ops used to recurse once per op and overflow the stack."""
    program = generate_program(3, FuzzKnobs(
        n_cores=2, warps_per_core=2, ops_per_warp=300, n_addrs=3,
        fence_density=0.0))
    obs = reference_sc_executor().run_program(program)
    steps = explain(program, obs)
    assert steps is not None
    assert replay(program, steps) == outcome_of(program, obs)
