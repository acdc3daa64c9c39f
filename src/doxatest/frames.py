"""Finite Kripke structures with Lewis-style selection functions.

States are indexed 0..n-1 and events are int bitmasks over those indices
(bit i = state i), which keeps the exhaustive sweeps cheap.  A frame carries
a serial belief relation and a *partial* selection table, stored as one
dense row per state over the events 0..full, -1 where no row is defined.
The rows are the table's only store: `Frame.selection` copies the defined
entries out as an (s, E) dict, and rows of any other shape are refused.
Operations that need an entry fail loudly when it is missing rather than
inventing one.  A model adds a valuation mapping atom names to events.

The conditional reading implemented by `support_of`: after receiving input
with truth set E, the agent at state s believes exactly the formulas true
throughout the union of f(s', E) over the belief-accessible states s'.
A belief set is its support event: a formula is believed iff the support
is contained in its truth set.
"""

from __future__ import annotations

import functools
import gc
import json
import struct
from collections import defaultdict
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import InputFormatError, UndefinedSelectionError, UnknownAtomError
from .formulas import ATOM_RE, Classification, Formula, Implies, classify, denote
from .limits import COMPLETION_STATE_LIMIT, DEFAULT_MAX_CELLS, FRAME_STATE_LIMIT, refuse_beyond

Event = int


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def subsets_of(mask: int) -> list[int]:
    """All subsets of a bitmask in ascending order, the empty set first.

    Knuth's submask step ``g = (g - mask) & mask`` (TAOCP 4A §7.1.3) moves
    from each subset to the next larger one and wraps to 0 after ``mask``.
    """
    out = [0]
    g = -mask & mask
    while g:
        out.append(g)
        g = (g - mask) & mask
    return out


PackError = struct.error  # what `pack` raises for a value that does not fit its field


def _fields(count: int, w: int) -> str:
    """The `struct` format of ``count`` unsigned little-endian w-bit fields."""
    return f"<{count}{'BHIQ'[w.bit_length() - 4]}"


def pack(values: Sequence[int], w: int) -> int:
    """``values`` as consecutive w-bit fields from bit 0, so an event-indexed
    table (frame row, Sup table or change-table results) packs to one int,
    its value at E in field E; ``pack(row[1:], w) << w`` leaves field 0
    empty.  A value negative or too wide for its field raises `PackError`."""
    return int.from_bytes(struct.pack(_fields(len(values), w), *values), "little")


def unpack(p: int, w: int, count: int) -> list[int]:
    """The first ``count`` w-bit fields of ``p``, as `pack` lays them out;
    ``p`` must fit in them."""
    return list(struct.unpack(_fields(count, w), p.to_bytes(count * w // 8, "little")))


@functools.cache  # a few ints per state count, read at every row or belief set
def grid(n: int) -> tuple[int, int, int, tuple[int, ...]]:
    """For tables packed over n states or worlds (frame rows, Sup tables,
    change-table results): the field width w, the least of 8, 16, 32 and 64
    that holds n bits; the packed events (field E holds E); bit 0 of every
    field; and per state x the fields E ∌ x filled with n bits."""
    w, ev, ones = max(8, 1 << (n - 1).bit_length()), 0, 1
    for x in range(n):  # field E + {x} holds E + {x} for every E < {x}
        ev |= ev + (ones << x) << (w << x)
        ones |= ones << (w << x)
    return w, ev, ones, tuple((~ev >> x & ones) * ((1 << n) - 1) for x in range(n))


@dataclass(frozen=True)
class Frame:
    """States, a serial belief relation, and a partial selection table.

    The table is ``rows``, its only store: per state s, one tuple of
    f(s, E) for E = 0..full, -1 where s has no row at E (at E = 0 unless the
    table keys the empty event); `selection` is a fresh (s, E) dict copied
    from it.  Rows other than n rows of full + 1 entries each raise
    `ValueError`.  An (s, E) mapping may stand in for the rows; a key
    outside the states 0..n-1 and events 0..full, or a negative value,
    raises `ValueError`, and so does a negative belief mask (one beyond full
    is kept: `validate_frame` reports it as ``belief-range``).  Rows are
    never mutated: `sup_table` builds on them once.  Dense rows bound a
    frame to `FRAME_STATE_LIMIT` states.  `_oracle` belongs to the formula
    oracle alone (`axioms.axiom_status_via_formulas`): the last pool's
    contexts, one per truth-set family, shared by the frame's models; no
    reduction reads it.
    """

    states: tuple[str, ...]
    belief: tuple[int, ...]
    rows: Sequence[Sequence[int]]
    _sup: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _oracle: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        if len(self.belief) != len(self.states):
            raise ValueError("belief must assign an event to every state")
        refuse_beyond(self.n, FRAME_STATE_LIMIT, "states in a frame")
        if self.belief and min(self.belief) < 0:
            raise ValueError("belief masks must not be negative")
        rows = self.rows
        if isinstance(rows, Mapping):
            rows = [[-1] * (1 << self.n) for _ in self.states]
            for (s, event), value in self.rows.items():
                if not (0 <= s < self.n and 0 <= event <= self.full and value >= 0):
                    raise ValueError(f"selection entry {(s, event)}: {value} is outside the frame")
                rows[s][event] = value
        elif len(rows) != self.n or any(len(row) != self.full + 1 for row in rows):
            raise ValueError(f"selection rows must be {self.n} rows of {self.full + 1} entries each")
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))  # a tuple row is kept, not copied

    @property
    def selection(self) -> dict[tuple[int, int], int]:
        """A fresh dict {(s, E): f(s, E)} of the defined entries, in (s, E)
        order: a copy, so editing it leaves the frame unchanged."""
        return {(s, e): v for s, row in enumerate(self.rows) for e, v in enumerate(row) if v >= 0}

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def full(self) -> int:
        return (1 << len(self.states)) - 1

    def index(self, state_id: str) -> int:
        try:
            return self.states.index(state_id)
        except ValueError:
            raise InputFormatError(f"unknown state id {state_id!r}") from None

    def sel(self, s: int, event: Event) -> Event:
        """f(s, E); `UndefinedSelectionError` where s has no row at E, and
        for a state or an event outside the frame, negative ones included."""
        try:
            got = self.rows[s][event]
        except IndexError:  # a state or an event beyond the frame
            got = -1
        if got >= 0 <= s | event:  # a negative index would read from the end
            return got
        # outside the frame there are no ids to name: the index or the mask
        state = self.states[s] if 0 <= s < self.n else s
        ids = self.event_ids(event) if 0 <= event <= self.full else (f"mask {event}",)
        raise UndefinedSelectionError(state, ids)

    def sup_table(self, bmask: int) -> Sequence[int]:
        """Sup(B, E) for every event E = 0..full, -1 where a state of
        ``bmask`` has no row at E (so at E = 0, unless the table keys the
        empty event).  Memoized and shared: callers must not mutate it.  A
        negative mask raises `ValueError`, here and in `sup`.

        A one-state table is that state's row itself, not a copy (a state
        beyond the frame has none: -1 everywhere); a larger B's table is the
        elementwise OR of its states' tables, and -1 | x = -1 carries a
        missing row through.
        """
        table = self._sup.get(bmask)
        if table is None:
            if bmask < 0:  # infinitely many bits set: walking them never ends
                raise ValueError(f"mask {bmask} is negative")
            low = bmask & -bmask
            if bmask != low:
                table = self.sup_table(low)
                for i in bits(bmask ^ low):
                    table = list(map(int.__or__, table, self.sup_table(1 << i)))
            elif low >> self.n:
                table = (-1,) * (self.full + 1)
            elif bmask:
                table = self.rows[low.bit_length() - 1]
            else:
                table = (0,) * (self.full + 1)
            self._sup[bmask] = table
        return table

    def sup(self, bmask: int, event: Event) -> Event:
        """Sup(B, E): the union of f(i, E) over the states i in ``bmask``."""
        try:
            got = self._sup[bmask][event]
        except KeyError:  # the first read at bmask builds its table
            self.sup_table(bmask)
            return self.sup(bmask, event)
        except IndexError:  # an event beyond full
            got = -1
        if got >= 0 <= event:
            return got
        # A missing row raises in `sel`, at the lowest believed state that
        # lacks it.
        got = 0
        for i in bits(bmask):
            got |= self.sel(i, event)
        return got

    def event_ids(self, mask: Event) -> tuple[str, ...]:
        if mask < 0 or mask >> self.n:
            raise ValueError(f"mask {mask} is {'negative' if mask < 0 else 'beyond the frame'}")
        return tuple(self.states[i] for i in bits(mask))

    def event_mask(self, ids: Iterable[str]) -> Event:
        return mask_of(self.index(i) for i in ids)


@dataclass(frozen=True)
class Model:
    """A frame plus a valuation: atom name -> event where the atom is true.

    `valuation` must not be mutated after construction: `_oracle` points,
    for the last pool only, to the formula oracle's context on the frame for
    the pool's truth sets under it (see `axioms.axiom_status_via_formulas`).
    """

    frame: Frame
    valuation: Mapping[str, int]
    _oracle: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        full = self.frame.full
        for name, ev in self.valuation.items():
            if not ATOM_RE.match(name):
                raise ValueError(f"bad atom name {name!r}")
            if ev & ~full:
                raise ValueError(f"valuation of {name!r} mentions unknown states")

    @property
    def atom_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.valuation))


# ---------------------------------------------------------------------------
# validation and completion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One broken frame invariant, as data: which clause, where."""

    clause: str
    state: str | None
    event: tuple[str, ...] | None
    detail: str

    def to_obj(self) -> dict:
        obj: dict = {"clause": self.clause}
        if self.state is not None:
            obj["s"] = self.state
        if self.event is not None:
            obj["event"] = list(self.event)
        obj["detail"] = self.detail
        return obj


def validate_frame(frame: Frame) -> list[Violation]:
    """Check the frame invariants on every defined selection entry.

    Clauses: seriality of the belief relation, and per selection entry
    consistency (nonempty value), success (value inside the event) and weak
    centering (a state inside the event selects itself among the result).
    Violations come back as data, entries in (s, E) order and the clauses
    of one entry in that order; an empty list means the frame conforms.
    """
    out: list[Violation] = []
    full = frame.full
    for s, b in enumerate(frame.belief):
        if b == 0:
            out.append(Violation("seriality", frame.states[s], None, "belief set is empty"))
        elif b & ~full:
            out.append(Violation("belief-range", frame.states[s], None, "belief set outside the state set"))
    if _rows_conform(frame):
        return out

    def flag(clause: str, detail: str) -> None:
        out.append(Violation(clause, frame.states[s], frame.event_ids(event), detail))

    for s, row in enumerate(frame.rows):
        for event, value in enumerate(row):
            if value < 0:
                continue
            if event == 0:
                flag("event-nonempty", "selection keyed on the empty event")
            elif value == 0:
                flag("consistency", "f(s,E) is empty")
            else:
                if value & ~event:
                    flag("success", "f(s,E) is not contained in E")
                if (event >> s) & 1 and not (value >> s) & 1:
                    flag("weak-centering", "s in E but s not in f(s,E)")
    return out


def _rows_conform(frame: Frame) -> bool:
    """True when every entry keeps consistency, success and weak centering,
    decided per packed row p (see `grid`): no 0 among the values, p & ~ev = 0,
    and bit s in every field E ∋ s.  A row missing everywhere is skipped; a
    partial row, a keyed empty event or a value too wide answers False."""
    w, ev, ones, _ = grid(frame.n)
    for s, row in enumerate(frame.rows):
        if row[1] < 0 and max(row) < 0:
            continue
        tail = row[1:]
        if row[0] >= 0 or min(tail) <= 0:
            return False
        try:
            p = pack(tail, w) << w
        except PackError:
            return False
        if p & ~ev or (ev >> s & ones) & ~(p >> s):
            return False
    return True


def _default_rule(s: int, event: Event) -> Event:
    if (event >> s) & 1:
        return 1 << s
    return event & -event  # lowest-index member


@functools.lru_cache(maxsize=4)  # alternating sizes hit; later sizes evict a big frame's rows
def _default_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Per state s of an n-state frame, the default rule's f(s, E) for
    E = 0..full, -1 at the empty event."""
    return tuple((-1, *(_default_rule(s, event) for event in range(1, 1 << n))) for s in range(n))


def complete_selection(frame: Frame, max_states: int = COMPLETION_STATE_LIMIT) -> Frame:
    """Fill every missing (state, nonempty event) selection entry by the
    default rule, the only one: {s} when s is in the event and otherwise the
    lowest-index member, which satisfies all frame invariants.  The rule's
    rows are built once per state count and kept for the last few counts.
    """
    refuse_beyond(frame.n, max_states, "states in a selection completion")
    rows = [
        [d if v < 0 else v for v, d in zip(row, rule)]
        for row, rule in zip(frame.rows, _default_rows(frame.n))
    ]
    return Frame(frame.states, frame.belief, rows)


# ---------------------------------------------------------------------------
# truth sets, cells, definable events
# ---------------------------------------------------------------------------

def truth_set(model: Model, formula: Formula) -> Event:
    """The event where the formula holds: its denotation over the states,
    with the valuation as the atom columns."""
    try:
        return denote(formula, model.valuation, model.frame.full)
    except KeyError as exc:
        raise UnknownAtomError(
            f"atom {exc.args[0]!r} is not interpreted by the model"
        ) from None


def cells_of(masks: Iterable[Event], full: Event) -> tuple[Event, ...]:
    """Partition of the states in ``full`` by their profile over the atom
    columns ``masks``: the nonempty meets of signed columns, ordered by
    lowest member."""
    blocks = [full] if full else []
    for m in masks:
        blocks = [c for b in blocks for c in (b & m, b & ~m) if c]
    return tuple(sorted(blocks, key=lambda c: c & -c))


def cells(model: Model) -> tuple[Event, ...]:
    """Partition of the states by atom profile, ordered by lowest member."""
    return cells_of(model.valuation.values(), model.frame.full)


def cell_closure(event: Event, cell_masks: Sequence[Event]) -> Event:
    """Smallest definable event containing ``event``: the union of all cells
    it meets."""
    out = 0
    for c in cell_masks:
        if c & event:
            out |= c
    return out


def definable_events(cell_masks: Sequence[Event], max_cells: int = DEFAULT_MAX_CELLS) -> list[Event]:
    """All nonempty unions of the cells, ascending as cell-index sets.
    Within a model these are exactly the truth sets of formulas, so
    quantifying over them realizes quantification over formulas."""
    refuse_beyond(len(cell_masks), max_cells, "cells in the definable events")
    # entry `choice` of the doubled list is the union of the cells at the set
    # bits of `choice`
    out = [0]
    for c in cell_masks:
        out += [x | c for x in out]
    return out[1:]


# ---------------------------------------------------------------------------
# belief supports
# ---------------------------------------------------------------------------

def support_of(model: Model, s: int, event: Event) -> Event:
    """Union of f(s', event) over the states s' believed possible at s: the
    belief set at s after an input whose truth set is ``event``.  A missing
    row raises UndefinedSelectionError naming it."""
    return model.frame.sup(model.frame.belief[s], event)


def _truth_set_total(model: Model, formula: Formula) -> Event:
    """Truth set under the totalized valuation: atoms the model leaves
    uninterpreted hold nowhere.  Keeps `extended_member` total on arbitrary
    formulas while `truth_set` stays strict for every other caller."""
    return denote(formula, defaultdict(int, model.valuation), model.frame.full)


def extended_member(model: Model, s: int, phi: Formula, psi: Formula) -> bool:
    """Conditional belief membership extended to inputs with an empty truth set.

    Nonempty truth set: the selection-based verdict.  Empty truth set with
    phi satisfiable over its own atoms: psi must be a tautological
    consequence of phi.  phi a contradiction: everything is believed.

    Both formulas are read under the totalized valuation (uninterpreted
    atoms hold nowhere), so the verdict is defined for every formula pair.
    """
    event = _truth_set_total(model, phi)
    if event:
        return support_of(model, s, event) & ~_truth_set_total(model, psi) == 0
    if classify(phi) is Classification.CONTRADICTION:
        return True
    return classify(Implies(phi, psi)) is Classification.TAUTOLOGY


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def frame_to_obj(frame: Frame) -> dict:
    return {
        "states": list(frame.states),
        "belief": {
            frame.states[s]: list(frame.event_ids(frame.belief[s]))
            for s in range(frame.n)
        },
        "selection": [
            {
                "s": frame.states[s],
                "event": list(frame.event_ids(event)),
                "selects": list(frame.event_ids(value)),
            }
            for s, row in enumerate(frame.rows)
            for event, value in enumerate(row)
            if value >= 0
        ],
    }


def model_to_obj(model: Model) -> dict:
    obj = frame_to_obj(model.frame)
    obj["valuation"] = {
        atom: list(model.frame.event_ids(model.valuation[atom]))
        for atom in sorted(model.valuation)
    }
    return obj


def _expect_list_of_str(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputFormatError(f"{what} must be a list of state ids")
    return value


def _state_mask(index: Mapping[str, int], ids: list[str], what: str, *args) -> int:
    """The mask of a list of state ids known to ``index`` (id -> position).
    An error names the field as ``what.format(*args)``, built only when
    raising; a non-id anywhere in the list is reported before an unknown id."""
    if isinstance(ids, list):
        out = 0
        try:
            for sid in ids:
                out |= 1 << index[sid]
            return out
        except (KeyError, TypeError):
            pass
    label = what.format(*args)
    _expect_list_of_str(ids, label)
    unknown = next(sid for sid in ids if sid not in index)
    raise InputFormatError(f"{label} mentions unknown state {unknown!r}")


def frame_from_obj(obj: dict) -> Frame:
    if not isinstance(obj, dict):
        raise InputFormatError("top level must be an object")
    states = obj.get("states")
    if not isinstance(states, list) or not states or not all(isinstance(s, str) for s in states):
        raise InputFormatError("'states' must be a nonempty list of ids")
    if len(set(states)) != len(states):
        raise InputFormatError("duplicate state ids")
    refuse_beyond(len(states), FRAME_STATE_LIMIT, "states in a frame")
    index = {sid: i for i, sid in enumerate(states)}
    bit = {sid: 1 << i for i, sid in enumerate(states)}

    belief_obj = obj.get("belief", {})
    if not isinstance(belief_obj, dict):
        raise InputFormatError("'belief' must be an object keyed by state id")
    for sid in belief_obj:
        if sid not in index:
            raise InputFormatError(f"'belief' mentions unknown state {sid!r}")
    belief = tuple(
        _state_mask(index, belief_obj.get(sid, []), "belief[{}]", sid) for sid in states
    )

    rows = [[-1] * (1 << len(states)) for _ in states]
    entries = obj.get("selection", [])
    if not isinstance(entries, list):
        raise InputFormatError("'selection' must be a list of entries")
    for k, entry in enumerate(entries):
        # One pass decodes a well-formed entry of the exact types `json`
        # builds; anything else, an empty or repeated event included, goes
        # through the checks in `_checked_entry`.
        try:
            s, ids, chosen = index[entry["s"]], entry["event"], entry["selects"]
            if not (type(entry) is dict and type(ids) is list and type(chosen) is list):
                raise TypeError
            event = value = 0
            for sid in ids:
                event |= bit[sid]
            for sid in chosen:
                value |= bit[sid]
            if event == 0 or rows[s][event] >= 0:
                raise KeyError
        except (KeyError, TypeError):
            s, event, value = _checked_entry(index, rows, k, entry)
        rows[s][event] = value
    return Frame(tuple(states), belief, rows)


def _checked_entry(index: Mapping[str, int], rows: Sequence[list[int]], k: int, entry) -> tuple[int, int, int]:
    """(s, event, selects) of selection entry k, each field checked in the
    order the error messages rank them; the first fault raises."""
    if not isinstance(entry, dict) or not {"s", "event", "selects"} <= set(entry):
        raise InputFormatError(f"selection entry {k} needs 's', 'event' and 'selects'")
    sid = entry["s"]
    if not isinstance(sid, str):
        raise InputFormatError(f"selection entry {k} 's' must be a state id")
    if sid not in index:
        raise InputFormatError(f"selection entry {k} names unknown state {sid!r}")
    event = _state_mask(index, entry["event"], "selection entry {} event", k)
    if event == 0:
        raise InputFormatError(f"selection entry {k} has an empty event")
    if rows[index[sid]][event] >= 0:
        raise InputFormatError(
            f"duplicate selection entry for state {sid!r} and event {sorted(entry['event'])}"
        )
    return index[sid], event, _state_mask(index, entry["selects"], "selection entry {} selects", k)


def model_from_obj(obj: dict) -> Model:
    frame = frame_from_obj(obj)
    val_obj = obj.get("valuation")
    if not isinstance(val_obj, dict):
        raise InputFormatError("'valuation' must be an object keyed by atom name")
    index = {sid: i for i, sid in enumerate(frame.states)}
    valuation: dict[str, int] = {}
    for atom, ids in val_obj.items():
        if not isinstance(atom, str) or not ATOM_RE.match(atom):
            raise InputFormatError(f"bad atom name {atom!r}")
        valuation[atom] = _state_mask(index, ids, "valuation[{}]", atom)
    return Model(frame, valuation)


def structure_from_obj(obj: dict) -> Frame | Model:
    """A model when 'valuation' is present, a bare frame otherwise."""
    if isinstance(obj, dict) and "valuation" in obj:
        return model_from_obj(obj)
    return frame_from_obj(obj)


def load_structure(path: str) -> Frame | Model:
    """The frame or model in the JSON file at ``path``.

    The cyclic garbage collector is paused from the start of `json.load`
    until the decoded tree has become a `Frame` or `Model` and been dropped,
    and the caller's collector state (enabled or not) is restored on every
    exit.  This is safe because `json` builds fresh dicts, lists and
    strings, so the tree holds no cycle for a collection to free; it is
    worth it because a running collector walks the tree's containers, a few
    thousand in an 8-state file, at each young collection and promotes them
    to the oldest generation, which then sets off full collections.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the tree is only this call's argument: it is freed when the call
        # returns, before the collector resumes
        return structure_from_obj(_decode(path))
    finally:
        if enabled:
            gc.enable()


def _decode(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise InputFormatError(f"{path} is not valid JSON: {e}") from None
