"""Reference SC oracle: is an observed execution explainable by *any*
sequentially consistent interleaving?

The witness checker (:mod:`repro.consistency.checker`) validates a run
against the protocol's own timestamps; this oracle is independent of them.
It takes only the *architectural observation* — the value every load (and
every atomic's read half) returned, plus the final memory state — and
searches the space of SC interleavings of the program for one that
reproduces the observation exactly. If none exists, the execution is not
SC, full stop — no protocol metadata can excuse it. Running both checkers
differentially means a protocol bug must fool two unrelated validators to
slip through.

Values are *normalized*: a store is identified by ``(core, warp,
prog_index)`` and the initial value by :data:`INIT`, so observations from
different protocols (whose raw data tokens differ) are comparable.

The search is a memoized depth-first search over interleaving states
``(per-warp pcs, per-slot last writer)``, run on an explicit stack so
that long programs cannot overflow Python's. It is reduced by two rules.
Both rest on one fact: every store identity is written at most once, and
:data:`INIT` never returns to a slot once the slot is overwritten. So a
value that has left its slot is gone for good.

1. **Forced loads.** If a warp's next op is a load whose slot holds the
   expected value right now, the load is taken without branching. In any
   successful completion the load reads that same value later, so no
   store to the slot runs before it (the value could not come back), and
   the load commutes to the front.
2. **Dead reads.** If a warp's next load or atomic expects a value that
   can never appear in its slot again, the state is dead: the value is
   :data:`INIT` and the slot was overwritten, or its writer already ran
   and the slot no longer holds it, or no store writes it (such as
   :data:`UNKNOWN`), or it belongs to a store to another slot or to a
   later op of the same warp.
   The last three hold in every state, so such an observation is refused
   before the search starts.

Branching is then only over stores and enabled atomics. A state budget
bounds pathological cases: exceeding it raises :class:`OracleExhausted`
rather than mislabeling the run. The witness returned is one valid
interleaving, not necessarily the one the execution took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.common.types import MemOpKind
from repro.consistency.checker import is_init_value
from repro.errors import ReproError
from repro.fuzz.generator import FuzzProgram

#: Normalized "initial value" marker.
INIT = "init"

#: Normalized "value of unknown provenance" marker — never explainable.
UNKNOWN = "?"

WarpKey = Tuple[int, int]
#: A store's normalized identity.
StoreId = Tuple[int, int, int]


class OracleExhausted(ReproError):
    """The oracle hit its state budget before proving either way."""


@dataclass
class Observation:
    """Architectural outcome of one execution, normalized for comparison.

    ``reads`` lists, per warp in program order, the value every load and
    atomic read half returned; ``final`` maps address slots to the
    identity of their last writer (slots still holding their initial
    value may be absent or map to :data:`INIT`).
    """

    reads: Dict[WarpKey, List[Any]] = field(default_factory=dict)
    final: Dict[int, Any] = field(default_factory=dict)

    def final_of(self, slot: int) -> Any:
        return self.final.get(slot, INIT)


def observation_from_records(
        program: FuzzProgram, records: Iterable[Any],
        final_memory: Optional[Dict[int, Any]] = None,
        block_bytes: int = 128) -> Observation:
    """Normalize a simulator run (``MemOpRecord`` list + final memory)
    into an :class:`Observation` for ``program``.

    Store data tokens are mapped back to ``(core, warp, prog_index)``
    through the store records themselves; tokens that match no store
    become :data:`UNKNOWN` (and thus guaranteed oracle failures).
    """
    records = [r for r in records if r.kind.is_global_mem]
    ident: Dict[Any, StoreId] = {}
    for r in records:
        if r.kind.is_write and r.value is not None:
            ident[r.value] = (r.core_id, r.warp_id, r.prog_index)

    def norm(v: Any) -> Any:
        if is_init_value(v):
            return INIT
        return ident.get(v, UNKNOWN)

    per_warp: Dict[WarpKey, List[Tuple[int, Any]]] = {}
    for r in records:
        if r.kind in (MemOpKind.LOAD, MemOpKind.ATOMIC):
            per_warp.setdefault((r.core_id, r.warp_id), []).append(
                (r.prog_index, norm(r.read_value)))
    reads = {k: [v for _, v in sorted(vals)] for k, vals in per_warp.items()}

    final: Dict[int, Any] = {}
    if final_memory is not None:
        slot_of = {program.addr_of_slot(s, block_bytes): s
                   for s in range(program.n_addrs)}
        for block, token in final_memory.items():
            slot = slot_of.get(block)
            if slot is not None:
                final[slot] = norm(token)
    return Observation(reads=reads, final=final)


# ----------------------------------------------------------------------
# The interleaving search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _SemOp:
    """One op with SC semantics (fences/compute are skipped up front)."""

    kind: MemOpKind
    slot: int
    ident: StoreId          # identity if this op writes
    read_cursor: int        # index into the warp's observed reads, or -1


def _semantic_ops(program: FuzzProgram) -> Dict[WarpKey, List[_SemOp]]:
    out: Dict[WarpKey, List[_SemOp]] = {}
    for key in sorted(program.warps):
        sem: List[_SemOp] = []
        cursor = 0
        for i, op in enumerate(program.warps[key]):
            if not op.is_mem:
                continue
            rc = -1
            if op.kind in (MemOpKind.LOAD, MemOpKind.ATOMIC):
                rc = cursor
                cursor += 1
            sem.append(_SemOp(op.kind, op.slot, (key[0], key[1], i), rc))
        out[key] = sem
    return out


def explain(program: FuzzProgram, obs: Observation,
            max_states: int = 500_000
            ) -> Optional[List[Tuple[WarpKey, _SemOp]]]:
    """Search for an SC interleaving reproducing ``obs``.

    Returns the interleaving as a list of ``(warp key, op)`` steps, or
    ``None`` if the observation is not sequentially consistent. Raises
    :class:`OracleExhausted` past ``max_states`` explored states; a
    state counts once its forced loads are taken, so the loads
    themselves cost nothing.
    """
    sem = _semantic_ops(program)
    keys = sorted(sem)
    ops = [sem[k] for k in keys]
    expected = [list(obs.reads.get(k, [])) for k in keys]

    # An observation with the wrong number of read values can never be
    # explained (an op was dropped or duplicated by the execution).
    for i, k in enumerate(keys):
        want = sum(1 for o in ops[i]
                   if o.kind in (MemOpKind.LOAD, MemOpKind.ATOMIC))
        if len(expected[i]) != want:
            return None

    # Where each store identity sits: (warp index, op index, slot).
    writer = {op.ident: (i, pc, op.slot)
              for i, seq in enumerate(ops) for pc, op in enumerate(seq)
              if op.kind is not MemOpKind.LOAD}
    # Per op: (is load, slot, expected value, source, op). ``source`` is
    # the (warp index, op index) of the expected value's writer, or None
    # for INIT; stores expect None. A read whose value no store to its
    # slot writes, or whose writer its own warp has not reached yet, is
    # dead in every state (rule 2), so the observation is refused here.
    table = []
    for i, seq in enumerate(ops):
        row = []
        for pc, op in enumerate(seq):
            want = source = None
            if op.read_cursor >= 0:
                want = expected[i][op.read_cursor]
                if want != INIT:
                    w = writer.get(want)
                    if (w is None or w[2] != op.slot
                            or (w[0] == i and w[1] >= pc)):
                        return None
                    source = w[:2]
            row.append((op.kind is MemOpKind.LOAD, op.slot, want, source,
                        op))
        table.append(row)

    n_warps = len(keys)
    lens = [len(seq) for seq in ops]
    done = tuple(lens)
    goal = tuple(obs.final_of(s) for s in range(program.n_addrs))
    pcs = tuple([0] * n_warps)
    mem = tuple([INIT] * program.n_addrs)
    path: List[Tuple[WarpKey, _SemOp]] = []
    dead: set = set()
    visited = 0
    # DFS frames: (state, iterator over its moves, path length there).
    stack: List[Tuple[Any, Any, int]] = []
    while True:
        # Enter (pcs, mem): take every forced load (rule 1), then judge
        # the state.
        forced = list(pcs)
        for i in range(n_warps):
            pc, row = forced[i], table[i]
            while pc < lens[i]:
                is_load, slot, want, _, op = row[pc]
                if not is_load or mem[slot] != want:
                    break
                path.append((keys[i], op))
                pc += 1
            forced[i] = pc
        pcs = tuple(forced)
        state = (pcs, mem)
        if pcs == done:
            if mem == goal:
                return path
        elif state not in dead:
            visited += 1
            if visited > max_states:
                raise OracleExhausted(
                    f"oracle exceeded {max_states} states on {program.name}")
            moves = []
            for i in range(n_warps):
                pc = pcs[i]
                if pc == lens[i]:
                    continue
                is_load, slot, want, source, op = table[i][pc]
                if want is not None and mem[slot] != want:
                    if source is None or pcs[source[0]] > source[1]:
                        # The value this read needs is gone for good
                        # (rule 2).
                        dead.add(state)
                        break
                    continue  # a load still waiting for its store
                if not is_load:
                    moves.append((i, op))
            else:
                stack.append((state, iter(moves), len(path)))
        # Take the next untried move, backtracking out of spent frames.
        while stack:
            (pcs, mem), moves, depth = stack[-1]
            del path[depth:]
            move = next(moves, None)
            if move is not None:
                i, op = move
                path.append((keys[i], op))
                pcs = pcs[:i] + (pcs[i] + 1,) + pcs[i + 1:]
                mem = mem[:op.slot] + (op.ident,) + mem[op.slot + 1:]
                break
            dead.add(stack.pop()[0])
        else:
            return None


def sc_explainable(program: FuzzProgram, obs: Observation,
                   max_states: int = 500_000) -> bool:
    """True iff some SC interleaving of ``program`` reproduces ``obs``."""
    return explain(program, obs, max_states=max_states) is not None
