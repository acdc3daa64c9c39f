"""The four benchmark workloads.

Each workload turns (seed, item index) into one item's input, deterministic
and independent of timing, runs the item through the package's public API,
and checks the verdicts against answers known from how the input was built.
Inputs are stratified: the cheap/expensive mix (belief-set sizes, frame
sizes, generator kinds) follows a fixed cycle and only the content inside
each stratum is drawn from the seed, so runs on different seeds do
comparable work.  That keeps seed-to-seed spread small without hand-picking
inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from random import Random

from doxatest import cli
from doxatest.axioms import AxiomId, ModelContext, axiom_holds, axiom_status_via_formulas
from doxatest.changegen import (
    EXPECTED_SUITE,
    WorldContext,
    audit_function,
    gen_revision,
    gen_update,
    random_family,
    random_total_order,
    roundtrip_verify,
)
from doxatest.correspondence import FrameGenSpec, build_census, enumerate_frames
from doxatest.formulas import semantic_pool
from doxatest.frames import Frame, Model, bits, frame_to_obj
from doxatest.properties import (
    FrameClass,
    PropertyId,
    PropertyWitness,
    check_pd57_literal,
    recheck_witness,
)


class ItemFailure(Exception):
    """An item's output contradicts the answer known from its construction."""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rng(seed: int, workload: str, i: int) -> Random:
    return Random(f"{seed}:{workload}:{i}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ItemFailure(message)


# --- structured frames, built the way the acceptance helpers build them ---


def _rank_min(ranks, event: int) -> int:
    best = min(ranks[i] for i in bits(event))
    return sum(1 << i for i in bits(event) if ranks[i] == best)


def _belief(rng: Random, n: int, size: int) -> int:
    return sum(1 << i for i in rng.sample(range(n), size))


def centered_order_frame(rng: Random, n: int) -> Frame:
    """Per-state total orders with the own state strictly minimal; belief
    sets differ per state.  Holds UPDATE and STRONG_UPDATE by construction."""
    full = (1 << n) - 1
    sizes = [1 + (s % (n - 1)) for s in range(n)]  # 1..n-1, never the full set
    belief = tuple(_belief(rng, n, size) for size in sizes)
    sel = {}
    for s in range(n):
        ranks = [rng.randrange(1, n + 1) for _ in range(n)]
        ranks[s] = 0
        for e in range(1, full + 1):
            sel[(s, e)] = _rank_min(ranks, e)
    return Frame(tuple(f"s{i}" for i in range(n)), belief, sel)


def uniform_revision_frame(rng: Random, n: int, k_size: int) -> Frame:
    """Uniform belief K with a faithful total ranking: believed states select
    the rank-minimal part of each event, the others select themselves when
    they can.  Holds all four frame classes by construction."""
    full = (1 << n) - 1
    k = _belief(rng, n, k_size)
    ranks = [0 if (1 << i) & k else rng.randrange(1, n + 1) for i in range(n)]
    sel = {}
    for s in range(n):
        for e in range(1, full + 1):
            if (1 << s) & k or not (1 << s) & e:
                sel[(s, e)] = _rank_min(ranks, e)
            else:
                sel[(s, e)] = 1 << s
    return Frame(tuple(f"s{i}" for i in range(n)), (k,) * n, sel)


def random_frame(rng: Random, n: int, rotate: int) -> Frame:
    """Random base-valid selection (drawn like the library's random frame
    stream); state s believes a random set of size 1 + (s + rotate) mod n,
    so every frame has the same belief-size profile."""
    full = (1 << n) - 1
    belief = tuple(_belief(rng, n, 1 + (s + rotate) % n) for s in range(n))
    sel = {}
    for s in range(n):
        for e in range(1, full + 1):
            t = e & rng.randrange(1, full + 1) or e & -e
            if (1 << s) & e:
                t |= 1 << s
            sel[(s, e)] = t
    return Frame(tuple(f"s{i}" for i in range(n)), belief, sel)


def plant_pd2_violation(rng: Random, frame: Frame) -> Frame:
    """Make one believed row keep a state outside the belief set at an event
    containing that set: PD2 (and every class containing it) must fail."""
    s = rng.choice([i for i in range(frame.n) if frame.belief[i] != frame.full])
    b = frame.belief[s]
    i = rng.choice(list(bits(b)))
    x = rng.choice([j for j in range(frame.n) if not (b >> j) & 1])
    event = b | (1 << x)
    sel = dict(frame.selection)
    sel[(i, event)] |= 1 << x
    return Frame(frame.states, frame.belief, sel)


def plant_success_violation(rng: Random, frame: Frame) -> Frame:
    """Make one selection entry reach outside its event: validation must
    report exactly one violation, of the success clause."""
    s = rng.randrange(frame.n)
    event = rng.randrange(1, frame.full)
    outside = rng.choice([j for j in range(frame.n) if not (event >> j) & 1])
    sel = dict(frame.selection)
    sel[(s, event)] |= 1 << outside
    return Frame(frame.states, frame.belief, sel)


def _default_value(s: int, event: int) -> int:
    return 1 << s if (event >> s) & 1 else event & -event


def partial_frame_obj(frame: Frame) -> dict:
    """Wire form without the rows that the ``default`` completion rule
    restores exactly, so completing the file gives back the same frame."""
    obj = frame_to_obj(frame)
    obj["selection"] = [
        entry
        for (key, value), entry in zip(sorted(frame.selection.items()), obj["selection"])
        if value != _default_value(*key)
    ]
    return obj


# --- workloads -----------------------------------------------------------


class Workload:
    name = ""
    why = ""
    setup_items = 1  # inputs prepared during set-up, before the first timed item
    cycle = 1  # items in one pass over the stratified input mix
    # slope of log item time on log calibration-kernel time, fitted over
    # 150 s of a drifting 2-core host (104 repeats of one fixed item each)
    calibration_exponent = 0.8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp, tracer):
        raise NotImplementedError

    def verify(self, inp, out) -> tuple[str, object]:
        """Raise ItemFailure on a wrong verdict; return (input digest,
        verdict record) for the reference comparison."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks spanning several items, run after the timed phase."""


# (kind, frame class, total orders or None for revision, |K| of the 8 worlds).
# Strong-update trials scan a cost fixed by |K|; with five items a cycle the
# median item is always the |K| = 4 strong-update trial.
ROUNDTRIP_CYCLE = (
    ("strong-update", FrameClass.STRONG_UPDATE, True, 2),
    ("strong-update", FrameClass.STRONG_UPDATE, True, 3),
    ("strong-update", FrameClass.STRONG_UPDATE, True, 4),
    ("update", FrameClass.UPDATE, False, 4),
    ("revision", FrameClass.REVISION_STRICT, None, 4),
)


class Roundtrip(Workload):
    name = "roundtrip-3atom"
    why = "3-atom change tables round-tripped into 8-state canonical frames; the frame-property scans dominate"
    setup_items = cycle = len(ROUNDTRIP_CYCLE)

    def make_input(self, i):
        kind, frame_class, total, k_size = ROUNDTRIP_CYCLE[i % len(ROUNDTRIP_CYCLE)]
        k_mask = _belief(_rng(self.seed, self.name, i), 8, k_size)
        return {"kind": kind, "class": frame_class, "total": total, "k": k_mask,
                "rng": f"{self.seed}:{self.name}:{i}:gen"}

    def run(self, inp, tracer):
        ctx = WorldContext(("p", "q", "r"))
        rng = Random(inp["rng"])
        with tracer.span("changegen.gen"):
            if inp["total"] is None:
                table = gen_revision(ctx, inp["k"], random_total_order(rng, ctx, inp["k"]))
            else:
                table = gen_update(ctx, inp["k"], random_family(rng, ctx, total=inp["total"]))
        trip = roundtrip_verify(table, inp["class"])
        audit = audit_function(table, EXPECTED_SUITE[inp["class"]])
        return trip, audit

    def verify(self, inp, out):
        trip, audit = out
        _require(trip.ok, f"table did not round-trip into {inp['class'].value}")
        _require(audit.ok, f"audit failed {[a.value for a in audit.failed()]}")
        _require(trip.events_checked == 255, "round-trip did not check all 255 events")
        key = digest([inp["kind"], inp["k"], inp["rng"]])
        record = [trip.ok, trip.events_checked, audit.suite,
                  "".join(v.status.value[0] for v in audit.verdicts)]
        return key, record


# kind, states: structured frames dominate, random frames take the fails path,
# the 5-state frames take the sampled-valuation branch (5 states x 3 atoms > 12)
CENSUS_CYCLE = (
    ("centered", 4), ("uniform", 4), ("random", 3), ("centered", 4), ("uniform", 4),
    ("random", 4), ("centered", 4), ("uniform", 4), ("random", 3), ("structured", 5),
)


class Census(Workload):
    name = "census-4state"
    why = "two-sided property/postulate census over 3- to 5-state frames; axiom reductions and countermodels dominate"
    setup_items = cycle = len(CENSUS_CYCLE)
    calibration_exponent = 0.75

    def make_input(self, i):
        kind, n = CENSUS_CYCLE[i % len(CENSUS_CYCLE)]
        rng = _rng(self.seed, self.name, i)
        if kind == "structured":
            kind = "centered" if (i // len(CENSUS_CYCLE)) % 2 else "uniform"
        if kind == "centered":
            frame = centered_order_frame(rng, n)
        elif kind == "uniform":
            frame = uniform_revision_frame(rng, n, 1 + i % (n - 1))
        else:
            spec = FrameGenSpec(states=n, mode="random", seed=f"{self.seed}:{i}", count=1)
            frame = next(enumerate_frames(spec))
        return {"kind": kind, "frame": frame}

    def run(self, inp, tracer):
        return build_census([inp["frame"]], atom_budget=3, seed=self.seed)

    def verify(self, inp, out):
        frame = inp["frame"]
        _require(out["summary"]["disagreements"] == 0, "census disagreement")
        row = out["frames"][0]
        classes = row["classes"]
        if inp["kind"] == "centered":
            _require(classes["UPDATE"] and classes["STRONG_UPDATE"],
                     "centered-order frame outside its update classes")
        elif inp["kind"] == "uniform":
            _require(all(classes.values()), "uniform revision frame outside a class")
        else:
            pd57 = next(p for p in row["pairs"] if p["property"] == "PD57")
            _require(pd57["propertyHolds"] == check_pd57_literal(frame).holds,
                     "PD57 disagrees with its literal three-event form")
        record = {
            "classes": [classes[c.value] for c in FrameClass],
            "pairs": [
                [p["propertyHolds"], p["agrees"], p["modelsChecked"], p.get("witness")]
                for p in row["pairs"]
            ],
        }
        return digest(frame_to_obj(frame)), record


ORACLE_STATES = 3
ORACLE_MODELS_PER_FRAME = 4**ORACLE_STATES  # every two-atom valuation


class Oracle(Workload):
    name = "oracle-agreement"
    why = "event-level reductions vs the formula-pool oracle on every 2-atom model of random 3-state frames; the oracle dominates"
    setup_items = cycle = ORACLE_MODELS_PER_FRAME

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._frames: dict = {}
        self._pools: dict = {}
        self._done: dict = {}

    def _frame(self, j: int) -> Frame:
        frame = self._frames.get(j)
        if frame is None:
            frame = self._frames[j] = random_frame(
                _rng(self.seed, self.name, j), ORACLE_STATES, rotate=j
            )
            self._frames.pop(j - 2, None)
        return frame

    def make_input(self, i):
        j, k = divmod(i, ORACLE_MODELS_PER_FRAME)
        mp, mq = divmod(k, 1 << ORACLE_STATES)
        return {"frame_index": j, "model": Model(self._frame(j), {"p": mp, "q": mq})}

    def run(self, inp, tracer):
        j = inp["frame_index"]
        pool = self._pools.get(j)
        if pool is None:
            # one pool per frame, built by the frame's first item
            pool = self._pools[j] = semantic_pool(("p", "q"), depth=3, per_class=2)
            self._pools.pop(j - 2, None)
        model = inp["model"]
        ctx = ModelContext.of(model)
        pairs = []
        for s in range(model.frame.n):
            for ax in AxiomId:
                reduced = axiom_holds(model, s, ax, ctx=ctx).status
                direct = axiom_status_via_formulas(model, s, ax, formulas=pool)
                pairs.append((reduced, direct))
        return pairs

    def verify(self, inp, out):
        model = inp["model"]
        _require(len(out) == model.frame.n * len(AxiomId), "wrong comparison count")
        bad = [k for k, (a, b) in enumerate(out) if a is not b]
        _require(not bad, f"reduction and oracle disagree at comparison {bad[:1]}")
        j = inp["frame_index"]
        self._done[j] = self._done.get(j, 0) + len(out)
        record = "".join(a.value[0] for a, _ in out)
        return digest([frame_to_obj(model.frame), model.valuation]), record

    def finish(self):
        # every frame whose models all ran was compared 4^n * n * 17 times
        expected = ORACLE_MODELS_PER_FRAME * ORACLE_STATES * len(AxiomId)
        complete = sorted(self._done)[:-1]
        for j in complete:
            _require(self._done[j] == expected, f"frame {j}: {self._done[j]} != {expected}")


# (states, construction, argv after the path, partial file + --complete default).
# Every frame has per-state belief sets.  The 8-state items are checks that
# hold, so they scan to the end at a cost fixed by the belief-set sizes.  The
# cycle has an odd length, so the median item falls inside one group of
# similar items (the 7-state PD57 checks) rather than between two.
CHECK_CYCLE = (
    (7, "centered", ("check", "--property", "pd57"), False),
    (6, "centered", ("check", "--class", "update"), False),
    (6, "planted-pd2", ("check", "--class", "update"), False),
    (7, "centered", ("check", "--class", "strong-update"), False),
    (7, "centered", ("check", "--property", "pd57"), True),
    (7, "planted-pd2", ("check", "--property", "pd2"), False),
    (8, "centered", ("check", "--property", "pd57"), True),
    (6, "centered", ("validate",), False),
    (7, "centered", ("check", "--class", "update"), False),
    (6, "planted-success", ("validate",), False),
    (8, "centered", ("check", "--class", "strong-update"), False),
)


class Check(Workload):
    name = "check-8state"
    why = "in-process CLI check/validate on 6- to 8-state frame files, mixed verdicts; loading, completion and rendering included"
    setup_items = cycle = len(CHECK_CYCLE)
    calibration_exponent = 1.0

    def make_input(self, i):
        n, construction, command, partial = CHECK_CYCLE[i % len(CHECK_CYCLE)]
        rng = _rng(self.seed, self.name, i)
        frame = centered_order_frame(rng, n)
        if construction == "planted-pd2":
            frame = plant_pd2_violation(rng, frame)
        elif construction == "planted-success":
            frame = plant_success_violation(rng, frame)
        obj = partial_frame_obj(frame) if partial else frame_to_obj(frame)
        path = os.path.join(self.workdir, f"item-{i % 64}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        argv = [command[0], path, *command[1:]]
        if partial:
            argv += ["--complete", "default"]
        argv += ["--format", "json"]
        expect = 1 if construction.startswith("planted") else 0
        return {"frame": frame, "argv": argv, "expect": expect, "obj": obj,
                "command": command, "partial": partial}

    def run(self, inp, tracer):
        buf = io.StringIO()
        code = None
        with tracer.span("cli"), contextlib.redirect_stdout(buf):
            try:
                cli.main.main(args=inp["argv"], prog_name="doxatest")
            except SystemExit as exc:
                code = exc.code
        text = buf.getvalue()
        tracer.count("cli.output_bytes", len(text.encode()))
        return code, text

    def verify(self, inp, out):
        code, text = out
        frame = inp["frame"]
        _require(code == inp["expect"], f"exit code {code}, expected {inp['expect']}")
        report = json.loads(text)
        if report["command"] == "validate":
            clauses = [v["clause"] for v in report["violations"]]
            _require(clauses == ([] if code == 0 else ["success"]), f"violations {clauses}")
            record = [code, clauses]
        else:
            verdicts = report["properties"] if report["mode"] == "class" else [report]
            for v in verdicts:
                if not v["holds"]:
                    w = v["witness"]
                    witness = PropertyWitness(
                        PropertyId[v["property"]],
                        s=frame.index(w["s"]) if "s" in w else None,
                        s_prime=frame.index(w["sPrime"]) if "sPrime" in w else None,
                        e=frame.event_mask(w["E"]) if "E" in w else None,
                        f=frame.event_mask(w["F"]) if "F" in w else None,
                    )
                    _require(recheck_witness(frame, witness),
                             f"{v['property']} witness does not re-check")
            if code == 1:
                _require(any(v["property"] == "PD2" and not v["holds"] for v in verdicts),
                         "planted PD2 violation not reported")
            record = [code, [[v["property"], v["holds"], v.get("witness")] for v in verdicts]]
        key = digest([inp["obj"], list(inp["command"]), inp["partial"]])
        return key, record


WORKLOADS = {w.name: w for w in (Roundtrip, Census, Oracle, Check)}
