"""Frame-level conditions characterizing update and revision behaviour.

Each property quantifies over states and events of a bare frame.  Checks are
exhaustive over the event space (guarded by a size bound) and deterministic:
the witness returned for a failing property is the first violation in
canonical order — states by index, then events by ascending bitmask, then
belief-accessible states by index.  Witnesses re-check: feeding one back into
`recheck_witness` must confirm the violation.

PD57 is decided through its quantifier-eliminated form: for every pair of
events E, F with nonempty intersection, each selected-within-E part that
meets F must sit inside the union of the selections at E∩F.  The literal
three-event formulation is also implemented (`check_pd57_literal`) so the
two can be played against each other on small frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import SizeLimitError
from .frames import Frame, Violation, bits, validate_frame

DEFAULT_MAX_STATES = 8


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


def _sup(frame: Frame, bmask: int, event: int, cache: dict) -> int:
    key = (bmask, event)
    got = cache.get(key)
    if got is None:
        got = 0
        for i in bits(bmask):
            got |= frame.sel(i, event)
        cache[key] = got
    return got


def _events(frame: Frame, events: Sequence[int] | None) -> Sequence[int]:
    if events is not None:
        return events
    return range(1, frame.full + 1)


def _find_pd2(frame, events):
    for s in range(frame.n):
        b = frame.belief[s]
        for e in _events(frame, events):
            if b & ~e:
                continue
            for i in bits(b):
                if frame.sel(i, e) & ~b:
                    return PropertyWitness(PropertyId.PD2, s=s, s_prime=i, e=e)
    return None


def _find_pd57(frame, events):
    cache: dict = {}
    for s in range(frame.n):
        b = frame.belief[s]
        for e in _events(frame, events):
            for f in _events(frame, events):
                ef = e & f
                if not ef:
                    continue
                sup_ef = _sup(frame, b, ef, cache)
                for i in bits(b):
                    if frame.sel(i, e) & f & ~sup_ef:
                        return PropertyWitness(PropertyId.PD57, s=s, s_prime=i, e=e, f=f)
    return None


def _find_pd57_strong(frame, events):
    for s in range(frame.n):
        b = frame.belief[s]
        for e in _events(frame, events):
            for f in _events(frame, events):
                ef = e & f
                if not ef:
                    continue
                for i in bits(b):
                    if frame.sel(i, e) & f & ~frame.sel(i, ef):
                        return PropertyWitness(
                            PropertyId.PD57_STRONG, s=s, s_prime=i, e=e, f=f
                        )
    return None


def _find_pd6(frame, events):
    cache: dict = {}
    for s in range(frame.n):
        b = frame.belief[s]
        for e in _events(frame, events):
            for f in _events(frame, events):
                ok = True
                for i in bits(b):
                    if frame.sel(i, e) & ~f or frame.sel(i, f) & ~e:
                        ok = False
                        break
                if ok and _sup(frame, b, e, cache) != _sup(frame, b, f, cache):
                    return PropertyWitness(PropertyId.PD6, s=s, e=e, f=f)
    return None


def _find_pd7(frame, events):
    for s in range(frame.n):
        b = frame.belief[s]
        if b.bit_count() != 1:
            continue
        i = b.bit_length() - 1
        for e in _events(frame, events):
            for f in _events(frame, events):
                if frame.sel(i, e | f) & ~(frame.sel(i, e) | frame.sel(i, f)):
                    return PropertyWitness(PropertyId.PD7, s=s, s_prime=i, e=e, f=f)
    return None


def _find_pd9(frame, events):
    for s in range(frame.n):
        b = frame.belief[s]
        if b.bit_count() != 1:
            continue
        i = b.bit_length() - 1
        for e in _events(frame, events):
            for f in _events(frame, events):
                inter = frame.sel(i, e) & f
                if not inter:
                    continue
                if frame.sel(i, e & f) & ~inter:
                    return PropertyWitness(PropertyId.PD9, s=s, s_prime=i, e=e, f=f)
    return None


def _find_pr4(frame, events):
    for s in range(frame.n):
        b = frame.belief[s]
        for e in _events(frame, events):
            be = b & e
            if not be:
                continue
            for i in bits(b):
                if frame.sel(i, e) & ~be:
                    return PropertyWitness(PropertyId.PR4, s=s, s_prime=i, e=e)
    return None


def _find_pr8(frame, events):
    for s in range(frame.n):
        b = frame.belief[s]
        for e in _events(frame, events):
            for f in _events(frame, events):
                u = 0
                for i in bits(b):
                    u |= frame.sel(i, e) & f
                if not u:
                    continue
                ef = e & f
                for i in bits(b):
                    if frame.sel(i, ef) & ~u:
                        return PropertyWitness(PropertyId.PR8, s=s, s_prime=i, e=e, f=f)
    return None


def _find_base(frame, events):
    violations = validate_frame(frame)
    if not violations:
        return None
    v: Violation = violations[0]
    s = frame.index(v.state) if v.state is not None else None
    e = frame.event_mask(v.event) if v.event else None
    return PropertyWitness(PropertyId.BASE, s=s, e=e, clause=v.clause)


_FINDERS = {
    PropertyId.BASE: _find_base,
    PropertyId.PD2: _find_pd2,
    PropertyId.PD57: _find_pd57,
    PropertyId.PD57_STRONG: _find_pd57_strong,
    PropertyId.PD6: _find_pd6,
    PropertyId.PD7: _find_pd7,
    PropertyId.PD9: _find_pd9,
    PropertyId.PR4: _find_pr4,
    PropertyId.PR8: _find_pr8,
}


def check_property(
    frame: Frame,
    property_id: PropertyId,
    max_states: int = DEFAULT_MAX_STATES,
    events: Sequence[int] | None = None,
) -> PropertyVerdict:
    """Exhaustively decide one property on the frame.

    ``events`` restricts the event quantifiers to a subset (used for sampled
    verification of large frames); by default every nonempty event is tried.
    """
    if events is None and frame.n > max_states:
        raise SizeLimitError(
            f"{frame.n} states exceeds the exhaustive property bound {max_states}"
        )
    witness = _FINDERS[property_id](frame, events)
    return PropertyVerdict(property_id, witness is None, witness)


def check_pd57_literal(
    frame: Frame, max_states: int = DEFAULT_MAX_STATES
) -> PropertyVerdict:
    """PD57 in its literal three-event form: for all E, F with E∩F nonempty
    and every event G, if all selections at E∩F land in G then every
    selected-within-E part that meets F lands in G.  Reference implementation
    for validating the quantifier-eliminated form."""
    if frame.n > max_states:
        raise SizeLimitError(
            f"{frame.n} states exceeds the exhaustive property bound {max_states}"
        )
    cache: dict = {}
    for s in range(frame.n):
        b = frame.belief[s]
        for e in range(1, frame.full + 1):
            for f in range(1, frame.full + 1):
                ef = e & f
                if not ef:
                    continue
                sup_ef = _sup(frame, b, ef, cache)
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
    """Confirm that a witness describes a genuine violation of its property."""
    pid = witness.property
    s, i, e, f = witness.s, witness.s_prime, witness.e, witness.f
    if pid is PropertyId.BASE:
        return bool(validate_frame(frame))
    b = frame.belief[s]
    if pid is PropertyId.PD2:
        return not b & ~e and bool(frame.sel(i, e) & ~b)
    if pid is PropertyId.PD57:
        if not e & f:
            return False
        sup_ef = 0
        for j in bits(b):
            sup_ef |= frame.sel(j, e & f)
        return bool(frame.sel(i, e) & f & ~sup_ef)
    if pid is PropertyId.PD57_STRONG:
        return bool(e & f) and bool(frame.sel(i, e) & f & ~frame.sel(i, e & f))
    if pid is PropertyId.PD6:
        ok = all(
            not (frame.sel(j, e) & ~f or frame.sel(j, f) & ~e) for j in bits(b)
        )
        sup_e = sup_f = 0
        for j in bits(b):
            sup_e |= frame.sel(j, e)
            sup_f |= frame.sel(j, f)
        return ok and sup_e != sup_f
    if pid is PropertyId.PD7:
        return b == 1 << i and bool(
            frame.sel(i, e | f) & ~(frame.sel(i, e) | frame.sel(i, f))
        )
    if pid is PropertyId.PD9:
        inter = frame.sel(i, e) & f
        return b == 1 << i and bool(inter) and bool(frame.sel(i, e & f) & ~inter)
    if pid is PropertyId.PR4:
        be = b & e
        return bool(be) and bool(frame.sel(i, e) & ~be)
    if pid is PropertyId.PR8:
        u = 0
        for j in bits(b):
            u |= frame.sel(j, e) & f
        return bool(u) and bool(frame.sel(i, e & f) & ~u)
    raise ValueError(f"unknown property {pid}")


def check_class(
    frame: Frame,
    frame_class: FrameClass,
    max_states: int = DEFAULT_MAX_STATES,
    events: Sequence[int] | None = None,
) -> ClassReport:
    """Check every property in a frame-class recipe; all must hold."""
    verdicts = tuple(
        check_property(frame, pid, max_states=max_states, events=events)
        for pid in CLASS_PROPERTIES[frame_class]
    )
    return ClassReport(frame_class, all(v.holds for v in verdicts), verdicts)
