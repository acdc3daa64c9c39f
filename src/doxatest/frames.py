"""Finite Kripke structures with Lewis-style selection functions.

States are indexed 0..n-1 and events are int bitmasks over those indices
(bit i = state i), which keeps the exhaustive sweeps cheap.  A frame carries
a serial belief relation and a *partial* selection table keyed by
(state index, event mask); operations that need an entry fail loudly when it
is missing rather than inventing one.  A model adds a valuation mapping atom
names to events.

The conditional reading implemented by `ri_support`: after receiving input
with truth set E, the agent at state s believes exactly the formulas true
throughout the union of f(s', E) over the belief-accessible states s'.
Belief sets are always represented by their support event (`BeliefRepr`):
a formula is believed iff the support is contained in its truth set.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputFormatError, UndefinedSelectionError, UnknownAtomError
from .formulas import ATOM_RE, Classification, Formula, Implies, classify, denote
from .limits import COMPLETION_STATE_LIMIT, DEFAULT_MAX_CELLS, refuse_beyond

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


@dataclass(frozen=True)
class Frame:
    """States, a serial belief relation, and a partial selection table.

    `selection` must not be mutated after construction: the Sup tables of
    `sup_table` are built from it once and kept.
    """

    states: tuple[str, ...]
    belief: tuple[int, ...]
    selection: Mapping[tuple[int, int], int]
    _sup: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        if len(self.belief) != len(self.states):
            raise ValueError("belief must assign an event to every state")

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
        try:
            return self.selection[(s, event)]
        except KeyError:
            raise UndefinedSelectionError(self.states[s], self.event_ids(event)) from None

    def sup_table(self, bmask: int) -> list[int]:
        """Sup(B, E) for every event E = 0..full, -1 where a state of
        ``bmask`` has no row at E (so at E = 0, unless the selection keys the
        empty event).  Memoized and shared: callers must not mutate it.

        A one-state table is read off `selection`; a larger B's table is the
        elementwise OR of its states' tables, and -1 | x = -1 carries a
        missing row through.
        """
        table = self._sup.get(bmask)
        if table is None:
            low = bmask & -bmask
            if bmask != low:
                table = self.sup_table(low)
                for i in bits(bmask ^ low):
                    table = list(map(int.__or__, table, self.sup_table(1 << i)))
            elif bmask:
                i, get = low.bit_length() - 1, self.selection.get
                table = [get((i, e), -1) for e in range(self.full + 1)]
            else:
                table = [0] * (self.full + 1)
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
        # lacks it; an event outside 0..full is read off `selection`.
        got = 0
        for i in bits(bmask):
            got |= self.sel(i, event)
        return got

    def has_sel(self, s: int, event: Event) -> bool:
        return (s, event) in self.selection

    def event_ids(self, mask: Event) -> tuple[str, ...]:
        return tuple(self.states[i] for i in bits(mask))

    def event_mask(self, ids: Iterable[str]) -> Event:
        return mask_of(self.index(i) for i in ids)


@dataclass(frozen=True)
class Model:
    """A frame plus a valuation: atom name -> event where the atom is true.

    `valuation` must not be mutated after construction: `_oracle` holds the
    formula oracle's per-pool state (see `axioms.axiom_status_via_formulas`),
    computed from it.
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
    Violations come back as data; an empty list means the frame conforms.
    """
    out: list[Violation] = []
    full = frame.full
    for s, b in enumerate(frame.belief):
        if b == 0:
            out.append(Violation("seriality", frame.states[s], None, "belief set is empty"))
        elif b & ~full:
            out.append(Violation("belief-range", frame.states[s], None, "belief set outside the state set"))

    broken: list[tuple[int, Event, str, str]] = []

    def flag(clause: str, s: int, event: Event, detail: str) -> None:
        broken.append((s, event, clause, detail))

    for (s, event), value in frame.selection.items():
        if event == 0:
            flag("event-nonempty", s, event, "selection keyed on the empty event")
        elif event & ~full:
            flag("event-range", s, event, "event outside the state set")
        elif value == 0:
            flag("consistency", s, event, "f(s,E) is empty")
        else:
            if value & ~event:
                flag("success", s, event, "f(s,E) is not contained in E")
            if (event >> s) & 1 and not (value >> s) & 1:
                flag("weak-centering", s, event, "s in E but s not in f(s,E)")
    # Only the entries that break a clause are sorted, by (s, E); the sort is
    # stable, so the clauses of one entry keep their order.
    broken.sort(key=lambda v: v[:2])
    out += [Violation(c, frame.states[s], frame.event_ids(e & full), d) for s, e, c, d in broken]
    return out


def _default_rule(s: int, event: Event) -> Event:
    if (event >> s) & 1:
        return 1 << s
    return event & -event  # lowest-index member


def complete_selection(frame: Frame, max_states: int = COMPLETION_STATE_LIMIT) -> Frame:
    """Fill every missing (state, nonempty event) selection entry by the
    default rule, the only one: {s} when s is in the event and otherwise the
    lowest-index member, which satisfies all frame invariants.
    """
    refuse_beyond(frame.n, max_states, "states in a selection completion")
    filled = dict(frame.selection)
    for s in range(frame.n):
        for event in range(1, frame.full + 1):
            if (s, event) not in filled:
                filled[(s, event)] = _default_rule(s, event)
    return Frame(frame.states, frame.belief, filled)


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


def cell_closure(model: Model, event: Event, cell_masks: Sequence[Event] | None = None) -> Event:
    """Smallest definable event containing ``event``: the union of all cells
    it meets."""
    if cell_masks is None:
        cell_masks = cells(model)
    out = 0
    for c in cell_masks:
        if c & event:
            out |= c
    return out


def definable_events(
    model: Model,
    max_cells: int = DEFAULT_MAX_CELLS,
    cell_masks: Sequence[Event] | None = None,
) -> list[Event]:
    """All nonempty unions of cells, ascending as cell-index sets.  Within a
    model these are exactly the truth sets of formulas, so quantifying over
    them realizes quantification over formulas."""
    cs = cells(model) if cell_masks is None else cell_masks
    refuse_beyond(len(cs), max_cells, "cells in the definable events")
    # entry `choice` of the doubled list is the union of the cells at the set
    # bits of `choice`
    out = [0]
    for c in cs:
        out += [x | c for x in out]
    return out[1:]


# ---------------------------------------------------------------------------
# belief supports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeliefRepr:
    """A deductively closed belief set, represented by its support event.

    membership(psi)  iff  support is contained in the truth set of psi.
    On conforming frames the support is nonempty, making the set consistent.
    """

    model: Model
    support: Event

    def member(self, formula: Formula) -> bool:
        return self.support & ~truth_set(self.model, formula) == 0

    def member_event(self, event: Event) -> bool:
        return self.support & ~event == 0

    def support_ids(self) -> tuple[str, ...]:
        return self.model.frame.event_ids(self.support)


def support_of(model: Model, s: int, event: Event) -> Event:
    """Union of f(s', event) over the states s' believed possible at s."""
    return model.frame.sup(model.frame.belief[s], event)


def belief_support(model: Model, s: int) -> BeliefRepr:
    """The unconditional belief set at s, supported by B(s)."""
    return BeliefRepr(model, model.frame.belief[s])


def ri_support(model: Model, s: int, event: Event) -> BeliefRepr:
    """The belief set after receiving an input whose truth set is ``event``.

    Requires the event to be nonempty and the selection to be defined at
    (s', event) for every s' in B(s); a missing entry raises
    UndefinedSelectionError naming it.
    """
    if event == 0:
        raise ValueError("conditional belief support needs a nonempty event")
    return BeliefRepr(model, support_of(model, s, event))


def expansion_member(model: Model, s: int, phi: Formula, psi: Formula) -> bool:
    """Whether psi is in the expansion of the belief set at s by phi:
    B(s) intersected with the truth set of phi supports psi."""
    b = model.frame.belief[s]
    return (b & truth_set(model, phi)) & ~truth_set(model, psi) == 0


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
# relabeling
# ---------------------------------------------------------------------------

def relabel_frame(frame: Frame, perm: Sequence[int]) -> Frame:
    """Rename states by a permutation; ``perm[old] = new`` index."""
    n = frame.n
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the state indices")

    def remap(mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << perm[i]
        return out

    states = [""] * n
    belief = [0] * n
    for old in range(n):
        states[perm[old]] = frame.states[old]
        belief[perm[old]] = remap(frame.belief[old])
    selection = {
        (perm[s], remap(event)): remap(value)
        for (s, event), value in frame.selection.items()
    }
    return Frame(tuple(states), tuple(belief), selection)


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
            for (s, event), value in sorted(frame.selection.items())
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
    index = {sid: i for i, sid in enumerate(states)}

    belief_obj = obj.get("belief", {})
    if not isinstance(belief_obj, dict):
        raise InputFormatError("'belief' must be an object keyed by state id")
    for sid in belief_obj:
        if sid not in index:
            raise InputFormatError(f"'belief' mentions unknown state {sid!r}")
    belief = tuple(
        _state_mask(index, belief_obj.get(sid, []), "belief[{}]", sid) for sid in states
    )

    selection: dict[tuple[int, int], int] = {}
    entries = obj.get("selection", [])
    if not isinstance(entries, list):
        raise InputFormatError("'selection' must be a list of entries")
    for k, entry in enumerate(entries):
        # One pass decodes a well-formed entry; any fault, an empty or repeated
        # event included, sends it through the checks in `_checked_entry`.
        try:
            s, ids, chosen = index[entry["s"]], entry["event"], entry["selects"]
            if not (isinstance(entry, dict) and isinstance(ids, list) and isinstance(chosen, list)):
                raise TypeError
            event = value = 0
            for sid in ids:
                event |= 1 << index[sid]
            for sid in chosen:
                value |= 1 << index[sid]
            if event == 0 or (s, event) in selection:
                raise KeyError
        except (KeyError, TypeError):
            s, event, value = _checked_entry(index, selection, k, entry)
        selection[(s, event)] = value
    return Frame(tuple(states), belief, selection)


def _checked_entry(index: Mapping[str, int], selection: Mapping, k: int, entry) -> tuple[int, int, int]:
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
    if (index[sid], event) in selection:
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
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise InputFormatError(f"{path} is not valid JSON: {e}") from None
    return structure_from_obj(obj)
