"""Revision vs update on every 3-state frame in which each state believes
B = {s0, s1}.

The frames are the product of the base clauses' choices (`_entry_choices`)
at each (state, event): 110,592 frames, all base-valid.  On each of them
PR4 implies PR8, PD2 and PR8 imply PR4, and inside `STRONG_UPDATE` PR4 and
PR8 agree (README, "Revision vs update").  Tier-1 asserts this per frame on
a seeded slice (`tests/test_properties.py`); run as a script, this module
decides every frame, asserts the counts and prints its wall time:

    PYTHONPATH=src python tests/revision_sweep.py
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from typing import NamedTuple

from doxatest.correspondence import _entry_choices
from doxatest.frames import Frame
from doxatest.properties import CLASS_PROPERTIES, FrameClass, PropertyId, check_property

STATES = ("s0", "s1", "s2")
BELIEF = (0b011,) * 3
FULL = 0b111
# one choice list per (state, event), state-major, events ascending
CHOICES = [_entry_choices(s, e) for s in range(3) for e in range(1, FULL + 1)]
FRAME_COUNT = math.prod(len(c) for c in CHOICES)


def frame_at(k: int) -> Frame:
    """Frame k of the sweep, 0 <= k < FRAME_COUNT: k's mixed-radix digits,
    the first (state, event) lowest, pick each entry from its choices."""
    picks = []
    for choices in CHOICES:
        k, j = divmod(k, len(choices))
        picks.append(choices[j])
    return Frame(STATES, BELIEF, [(-1, *picks[s * FULL:(s + 1) * FULL]) for s in range(3)])


class Verdicts(NamedTuple):
    pr4: bool
    pr8: bool
    pd2: bool
    strong: bool  # STRONG_UPDATE


def verdicts(frame: Frame) -> Verdicts:
    holds = functools.cache(lambda pid: check_property(frame, pid).holds)
    strong = all(holds(pid) for pid in CLASS_PROPERTIES[FrameClass.STRONG_UPDATE])
    return Verdicts(holds(PropertyId.PR4), holds(PropertyId.PR8), holds(PropertyId.PD2), strong)


def main() -> None:
    start = time.perf_counter()
    seen = Counter(verdicts(frame_at(k)) for k in range(FRAME_COUNT))

    def count(test) -> int:
        return sum(n for v, n in seen.items() if test(v))

    got = {
        "frames": count(lambda v: True),
        "PR4": count(lambda v: v.pr4),
        "PR8": count(lambda v: v.pr8),
        "PR4 without PR8": count(lambda v: v.pr4 and not v.pr8),
        "PR8 without PR4": count(lambda v: v.pr8 and not v.pr4),
        "PR8 without PR4, with PD2": count(lambda v: v.pr8 and not v.pr4 and v.pd2),
        "STRONG_UPDATE": count(lambda v: v.strong),
        "STRONG_UPDATE, PR4 and PR8": count(lambda v: v.strong and v.pr4 and v.pr8),
        "STRONG_UPDATE, neither": count(lambda v: v.strong and not v.pr4 and not v.pr8),
    }
    print(f"{FRAME_COUNT} frames in {time.perf_counter() - start:.1f} s")
    for name, n in got.items():
        print(f"{name}: {n}")
    assert got == {
        "frames": 110_592,
        "PR4": 768,
        "PR8": 83_712,
        "PR4 without PR8": 0,
        "PR8 without PR4": 82_944,
        "PR8 without PR4, with PD2": 0,
        "STRONG_UPDATE": 27_648,
        "STRONG_UPDATE, PR4 and PR8": 768,
        "STRONG_UPDATE, neither": 26_880,
    }, got


if __name__ == "__main__":
    main()
