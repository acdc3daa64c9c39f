r"""Frame-level conditions characterizing update and revision behaviour.

Each property quantifies over states and events of a bare frame, and its
condition is written once, as a violation predicate in `_CONDITIONS`: given
the frame and a belief set B(s), it maps an instance (E, F) to the mask of
believed states s' at which the instance breaks the property.  One finder
and `recheck_witness` both read that predicate.

Checks are exhaustive over the event space (guarded by a size bound) and
deterministic: the witness returned for a failing property is the first
violation in canonical order — states by index, then E ascending, then F
ascending, then s' as the lowest violating believed state.  Witnesses
re-check: feeding one back into `recheck_witness` must confirm the violation,
and a witness naming an s' outside B(s) never does.

The finder skips instances it can prove redundant, and each skip keeps the
first witness (and, on partial frames, the first missing row) unchanged:

- *One decision per belief set.*  A predicate reads s only through B(s), so
  a later state with an already decided B(s) reads the same rows: it holds
  there, or the earlier state already failed or raised.
- *One row table per belief set.*  A predicate reads only believed rows
  f(i, ·).  A property with a holds test copies B's table r(E) = Sup(B, E),
  one list over the events, from `Frame.sup_table`: the memo its scan reads
  through `Frame.sup`, built once per frame and belief set.
  Its gate (every believed row is defined, and r(E) ⊆ E at every E) decides
  at each belief set alone whether the next two skips apply.
- *F through E∩F.*  Past the gate, PD57, PD57_STRONG, PD9 and PR8 read F
  only through G = E∩F, so F runs over the subsets of E (3ⁿ pairs, not
  4ⁿ).  Each G first turns up at F = G (any F with E∩F = G contains G), in
  ascending order: the first hit is the same instance.
- *A holds test, else the scan.*  Past the gate, each of the six pair
  properties first runs an exact test on the table (PD57_STRONG: on each
  Sup({i}, ·)).  It reads every nonempty event's believed rows, as a scan
  that ends without error does, so its "holds" skips the scan; otherwise
  the scan alone reports.  PD6 and PD7, symmetric in (E, F), always run F
  from E up: their first violation has E ≤ F, and a pair with F < E reads
  no row that the scan has not read at (F, E) or at row E's first pair.
  The shapes of the tests:

  - Inside (PD57, and PD7 at B = {i}; PD57_STRONG per believed state): no
    G ⊆ E with r(E) ∩ G ⊄ r(G).  Gated (PR8, and PD9, which is PR8 at
    B = {i} and nowhere else): no G ⊆ E with r(E) meeting G and
    r(G) ⊄ r(E).  One OR over supersets (the zeta transform of the subset
    lattice, n·2ⁿ⁻¹ steps) decides either: the union of r(E) over E ⊇ G for
    the inside shape; for the gated one, per state x, the union of ¬r(E)
    over E ⊇ G with x in r(E).
  - Cumulative (PD6, r = Sup(B, ·)): PD6 is reciprocity, r(E) ⊆ F and
    r(F) ⊆ E imply r(E) = r(F).  Under success it is equivalent to
    cumulativity, r(E) ⊆ G ⊆ E implies r(G) = r(E) (Kraus, Lehmann &
    Magidor 1990): take F = G one way; the other way, r(E) and r(F) both
    lie in G = E∩F, so both equal r(G) (or are ∅ when G is).  Cumulativity
    follows from its one-element steps by removing E \ G one state at a
    time: r(E \ {x}) = r(E) for each x ∈ E \ r(E) with E \ {x} ≠ ∅, at
    most n·2ⁿ row comparisons.

PD57 is decided through its quantifier-eliminated form: for every pair of
events E, F with nonempty intersection, each selected-within-E part that
meets F must sit inside the union of the selections at E∩F.  The literal
three-event formulation is also implemented (`check_pd57_literal`) so the
two can be played against each other on small frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .frames import Frame, Violation, bits, mask_of, subsets_of, validate_frame
from .limits import DEFAULT_MAX_STATES, refuse_beyond


class PropertyId(str, Enum):
    BASE = "BASE"
    PD2 = "PD2"
    PD57 = "PD57"
    PD57_STRONG = "PD57_STRONG"
    PD6 = "PD6"
    PD7 = "PD7"
    PD9 = "PD9"
    PR4 = "PR4"
    PR8 = "PR8"


class FrameClass(str, Enum):
    UPDATE = "UPDATE"
    STRONG_UPDATE = "STRONG_UPDATE"
    REVISION_DEF12 = "REVISION_DEF12"
    REVISION_STRICT = "REVISION_STRICT"


CLASS_PROPERTIES: dict[FrameClass, tuple[PropertyId, ...]] = {
    FrameClass.UPDATE: (
        PropertyId.BASE,
        PropertyId.PD2,
        PropertyId.PD57,
        PropertyId.PD6,
        PropertyId.PD7,
    ),
    FrameClass.STRONG_UPDATE: (
        PropertyId.BASE,
        PropertyId.PD2,
        PropertyId.PD57,
        PropertyId.PD9,
    ),
    FrameClass.REVISION_DEF12: (
        PropertyId.BASE,
        PropertyId.PR4,
        PropertyId.PR8,
    ),
    FrameClass.REVISION_STRICT: (
        PropertyId.BASE,
        PropertyId.PR4,
        PropertyId.PD57,
        PropertyId.PR8,
    ),
}


@dataclass(frozen=True)
class PropertyWitness:
    """Location of a property violation; fields not used by the property
    stay None.  `clause` is set only for BASE failures."""

    property: PropertyId
    s: int | None = None
    s_prime: int | None = None
    e: int | None = None
    f: int | None = None
    clause: str | None = None

    def to_obj(self, frame: Frame) -> dict:
        obj: dict = {}
        if self.clause is not None:
            obj["clause"] = self.clause
        if self.s is not None:
            obj["s"] = frame.states[self.s]
        if self.s_prime is not None:
            obj["sPrime"] = frame.states[self.s_prime]
        if self.e is not None:
            obj["E"] = list(frame.event_ids(self.e))
        if self.f is not None:
            obj["F"] = list(frame.event_ids(self.f))
        return obj


@dataclass(frozen=True)
class PropertyVerdict:
    property: PropertyId
    holds: bool
    witness: PropertyWitness | None = None

    def to_obj(self, frame: Frame) -> dict:
        obj: dict = {"property": self.property.value, "holds": self.holds}
        if self.witness is not None:
            obj["witness"] = self.witness.to_obj(frame)
        return obj


@dataclass(frozen=True)
class ClassReport:
    frame_class: FrameClass
    holds: bool
    verdicts: tuple[PropertyVerdict, ...]

    def to_obj(self, frame: Frame) -> dict:
        return {
            "class": self.frame_class.value,
            "holds": self.holds,
            "properties": [v.to_obj(frame) for v in self.verdicts],
        }


# Each predicate factory takes (frame, B(s)) and returns violators(e, f): the
# mask of believed states s' at which the instance (E, F) breaks the
# property, 0 when it holds.  A factory returns None when no instance can
# break at that belief set.  Conditions that read f at E∩F skip E∩F = ∅:
# there is no selection at the empty event, even on non-conforming frames.


def _meeting(frame: Frame, b: int, event: int, mask: int) -> int:
    """The believed states i whose f(i, event) meets ``mask``; the memoized
    Sup(B, event) answers the common empty case in one lookup."""
    if not frame.sup(b, event) & mask:
        return 0
    return mask_of(i for i in bits(b) if frame.sel(i, event) & mask)


def _pd2(frame, b):
    return lambda e, f: 0 if b & ~e else _meeting(frame, b, e, ~b)


def _pd57(frame, b):
    sup = frame.sup
    return lambda e, f: e & f and _meeting(frame, b, e, f & ~sup(b, e & f))


def _pd57_strong(frame, b):
    sel = frame.sel
    return lambda e, f: e & f and mask_of(i for i in bits(b) if sel(i, e) & f & ~sel(i, e & f))


def _pd6(frame, b):
    sup = frame.sup

    def violators(e, f):
        sup_e = sup(b, e)
        if sup_e & ~f:
            return 0
        sup_f = sup(b, f)
        return b if not sup_f & ~e and sup_e != sup_f else 0

    return violators


def _pd7(frame, b):
    if b.bit_count() != 1:
        return None
    sel, i = frame.sel, b.bit_length() - 1
    return lambda e, f: b if sel(i, e | f) & ~(sel(i, e) | sel(i, f)) else 0


def _pr4(frame, b):
    return lambda e, f: b & e and _meeting(frame, b, e, ~(b & e))


def _pr8(frame, b):
    sup = frame.sup

    def violators(e, f):
        if not e & f:
            return 0
        inside = sup(b, e) & f
        return inside and _meeting(frame, b, e & f, ~inside)

    return violators


class _Second(Enum):
    """How a condition quantifies its second event F."""

    SINGLE = "no F"  # the condition reads E alone
    ALL = "every F"
    MEET = "F through E∩F"  # past the belief set's success gate
    SYMMETRIC = "F >= E"  # violators(E, F) and violators(F, E) agree


# property -> (predicate factory, quantifier over F, witness names s')
_CONDITIONS: dict[PropertyId, tuple[Callable, _Second, bool]] = {
    PropertyId.PD2: (_pd2, _Second.SINGLE, True),
    PropertyId.PD57: (_pd57, _Second.MEET, True),
    PropertyId.PD57_STRONG: (_pd57_strong, _Second.MEET, True),
    PropertyId.PD6: (_pd6, _Second.SYMMETRIC, False),
    PropertyId.PD7: (_pd7, _Second.SYMMETRIC, True),
    # PD9 is PR8 at B = {i}, where Sup(B, ·) is f(i, ·); it has no instance elsewhere
    PropertyId.PD9: (
        lambda frame, b: _pr8(frame, b) if b.bit_count() == 1 else None, _Second.MEET, True
    ),
    PropertyId.PR4: (_pr4, _Second.SINGLE, True),
    PropertyId.PR8: (_pr8, _Second.MEET, True),
}


# Holds tests at one belief set, over a row table r[E] for E = 0..full
# (r[0] = 0).  Only their "holds" is trusted.


def _rows(frame: Frame, b: int) -> list[int] | None:
    """r(E) = Sup(B, E) at every event, a copy of the `Frame.sup_table` that
    the scan reads too; None unless every believed row is there and succeeds.
    A missing row reads -1, which no event contains: the scan raises it or
    finds a violation first."""
    rows = frame.sup_table(b)[:]
    rows[0] = 0
    return None if any(r & ~e for e, r in enumerate(rows)) else rows


def _up(table: list[int]) -> list[int]:
    """OR every entry into the entries at its subsets, in place: table[G]
    becomes the union over E ⊇ G (one pass per bit)."""
    bit = 1
    while bit < len(table):
        for g in range(len(table)):
            if not g & bit:
                table[g] |= table[g | bit]
        bit <<= 1
    return table


def _inside(rows: list[int]) -> bool:
    up = _up(rows[:])
    return not any(up[g] & g & ~rows[g] for g in range(1, len(rows)))


def _gated(rows: list[int], n: int) -> bool:
    # Field x of a packed value is its n bits from bit n·x; spread[m] puts a
    # 1 in the field of each x in m, so v * spread[m] copies v into them.
    # Field x of up[G] is the union of ¬r(E) over E ⊇ G with x in r(E).
    full, spread = len(rows) - 1, [0] * len(rows)
    for m in range(1, len(rows)):
        low = m & -m
        spread[m] = spread[m ^ low] | 1 << n * (low.bit_length() - 1)
    up = _up([(full ^ r) * spread[r] for r in rows])
    return not any(up[g] & rows[g] * spread[g] for g in range(1, len(rows)))


def _cumulative(rows: list[int]) -> bool:
    # One-step cumulativity: r(E \ {x}) = r(E) at each x in E outside r(E),
    # unless E = {x}.
    bit = 1
    while bit < len(rows):
        for e in range(bit + 1, len(rows)):
            if e & bit and not rows[e] & bit and rows[e ^ bit] != rows[e]:
                return False
        bit <<= 1
    return True


_HOLDS: dict[PropertyId, Callable[[Frame, int, list[int]], bool]] = {
    PropertyId.PD57: lambda frame, b, rows: _inside(rows),
    PropertyId.PD57_STRONG: lambda frame, b, rows: all(
        _inside(_rows(frame, 1 << i)) for i in bits(b)
    ),
    PropertyId.PD6: lambda frame, b, rows: _cumulative(rows),
    # PD7 at B = {i}, past the gate, is PD57 on r = f(i, ·).  ⇐: x ∈ r(E∪F)
    # lies in E∪F, say in E, so PD57 at (E∪F, E) puts x in r(E).  ⇒: for
    # G ⊂ E, PD7 at (G, E∖G) gives r(E) ⊆ r(G) ∪ r(E∖G), and r(E∖G) ⊆ E∖G
    # misses G, so r(E) ∩ G ⊆ r(G).
    PropertyId.PD7: lambda frame, b, rows: _inside(rows),
    PropertyId.PR8: lambda frame, b, rows: _gated(rows, frame.n),
}
_HOLDS[PropertyId.PD9] = _HOLDS[PropertyId.PR8]


def _find(frame: Frame, pid: PropertyId) -> PropertyWitness | None:
    """First violation in canonical order: states, then E, then F ascending;
    s' is the lowest violating believed state."""
    factory, second, reports_s_prime = _CONDITIONS[pid]
    events = range(1, frame.full + 1)
    seconds = {
        _Second.SINGLE: lambda e: (None,),
        _Second.ALL: lambda e: events,
        _Second.MEET: subsets_of,
        _Second.SYMMETRIC: lambda e: range(e, frame.full + 1),
    }
    decided = set()
    for s in range(frame.n):
        b = frame.belief[s]
        if b in decided:
            continue  # held at an earlier state with the same belief set
        decided.add(b)
        violators = factory(frame, b)
        if violators is None:
            continue
        rows = _rows(frame, b) if pid in _HOLDS else None
        if rows is not None and _HOLDS[pid](frame, b, rows):
            continue  # the scan would find nothing
        walk = seconds[_Second.ALL if second is _Second.MEET and rows is None else second]
        for e in events:
            for f in walk(e):
                m = violators(e, f)
                if m:
                    i = (m & -m).bit_length() - 1 if reports_s_prime else None
                    return PropertyWitness(pid, s=s, s_prime=i, e=e, f=f)
    return None


def _find_base(frame: Frame) -> PropertyWitness | None:
    violations = validate_frame(frame)
    if not violations:
        return None
    v: Violation = violations[0]
    s = frame.index(v.state) if v.state is not None else None
    e = frame.event_mask(v.event) if v.event else None
    return PropertyWitness(PropertyId.BASE, s=s, e=e, clause=v.clause)


def check_property(
    frame: Frame, property_id: PropertyId, max_states: int = DEFAULT_MAX_STATES
) -> PropertyVerdict:
    """Exhaustively decide one property on the frame, over every nonempty
    event."""
    refuse_beyond(frame.n, max_states, "states in an exhaustive property check")
    if property_id is PropertyId.BASE:
        witness = _find_base(frame)
    else:
        witness = _find(frame, property_id)
    return PropertyVerdict(property_id, witness is None, witness)


def check_pd57_literal(
    frame: Frame, max_states: int = DEFAULT_MAX_STATES
) -> PropertyVerdict:
    """PD57 in its literal three-event form: for all E, F with E∩F nonempty
    and every event G, if all selections at E∩F land in G then every
    selected-within-E part that meets F lands in G.  Reference implementation
    for validating the quantifier-eliminated form."""
    refuse_beyond(frame.n, max_states, "states in an exhaustive property check")
    for s in range(frame.n):
        b = frame.belief[s]
        for e in range(1, frame.full + 1):
            for f in range(1, frame.full + 1):
                ef = e & f
                if not ef:
                    continue
                sup_ef = frame.sup(b, ef)
                for g in range(frame.full + 1):
                    if sup_ef & ~g:
                        continue  # antecedent fails for this G
                    for i in bits(b):
                        if frame.sel(i, e) & f & ~g:
                            return PropertyVerdict(
                                PropertyId.PD57,
                                False,
                                PropertyWitness(PropertyId.PD57, s=s, s_prime=i, e=e, f=f),
                            )
    return PropertyVerdict(PropertyId.PD57, True, None)


def recheck_witness(frame: Frame, witness: PropertyWitness) -> bool:
    """Confirm that a witness describes a genuine violation of its property:
    the instance breaks it, at the named s' in B(s) where one is reported."""
    pid = witness.property
    if pid is PropertyId.BASE:
        return bool(validate_frame(frame))
    factory, _, reports_s_prime = _CONDITIONS[pid]
    violators = factory(frame, frame.belief[witness.s])
    if violators is None:
        return False
    m = violators(witness.e, witness.f)
    return bool(m >> witness.s_prime & 1 if reports_s_prime else m)


def check_class(
    frame: Frame, frame_class: FrameClass, max_states: int = DEFAULT_MAX_STATES
) -> ClassReport:
    """Check every property in a frame-class recipe; all must hold."""
    verdicts = tuple(
        check_property(frame, pid, max_states=max_states)
        for pid in CLASS_PROPERTIES[frame_class]
    )
    return ClassReport(frame_class, all(v.holds for v in verdicts), verdicts)
