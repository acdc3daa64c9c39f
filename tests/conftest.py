"""Shared helpers for building small frames and models in tests, and the
brute-force spaces and relabeling that tests compare the library against."""

import itertools
from collections.abc import Sequence

import pytest

from doxatest.changegen import _order_fault
from doxatest.frames import Frame, Model, bits, complete_selection


def frame_of(n, belief, selection=None, complete=False):
    """Frame with states s0..s{n-1}; belief and selection given as bitmasks."""
    f = Frame(
        tuple(f"s{i}" for i in range(n)),
        tuple(belief),
        dict(selection or {}),
    )
    return complete_selection(f) if complete else f


def random_frame(rng, n, pointed=False):
    """Random complete frame on n states respecting the base invariants."""
    full = (1 << n) - 1
    if pointed:
        belief = tuple(1 << rng.randrange(n) for _ in range(n))
    else:
        belief = tuple(rng.randrange(1, full + 1) for _ in range(n))
    selection = {}
    for s in range(n):
        for e in range(1, full + 1):
            t = e & rng.randrange(1, full + 1)
            if not t:
                t = e & -e
            if (1 << s) & e:
                t |= 1 << s
            selection[(s, e)] = t
    return frame_of(n, belief, selection)


def random_model(rng, n, atoms=("p", "q"), pointed=False):
    """Random complete frame with a random valuation over the given atoms."""
    frame = random_frame(rng, n, pointed=pointed)
    valuation = {a: rng.randrange(0, frame.full + 1) for a in atoms}
    return Model(frame, valuation)


def model_of(frame, **valuation):
    return Model(frame, valuation)


@pytest.fixture
def two_state_default():
    # two states believing each other, default-rule selection everywhere
    return frame_of(2, [0b10, 0b01], complete=True)


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
    rows: list = [()] * n
    for old, row in enumerate(frame.rows):
        states[perm[old]] = frame.states[old]
        belief[perm[old]] = remap(frame.belief[old])
        new = [-1] * len(row)
        for event, value in enumerate(row):
            if value >= 0:
                new[remap(event)] = remap(value)
        rows[perm[old]] = new
    return Frame(tuple(states), tuple(belief), rows)


def _valid_single_orders(n_worlds: int, w: int) -> list[tuple[int, ...]]:
    """All reflexive transitive orders on a tiny world set with w strictly lowest."""
    candidates = itertools.product(range(1 << n_worlds), repeat=n_worlds)
    return [rows for rows in candidates if _order_fault(rows, w, n_worlds) is None]


def _all_centered_families(n_worlds: int) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every valid order family on very small world sets, by
    brute force."""
    per_world = [_valid_single_orders(n_worlds, w) for w in range(n_worlds)]
    return list(itertools.product(*per_world))


def _all_order_types(n_worlds: int) -> list[tuple[int, ...]]:
    """Every ranking shape on a small world set, as rank vectors whose ranks
    are order types."""
    out = []
    for ranks in itertools.product(range(n_worlds), repeat=n_worlds):
        if min(ranks) != 0:
            continue
        levels = tuple(sorted(set(ranks)))
        if levels != tuple(range(len(levels))):
            continue
        out.append(ranks)
    return out
