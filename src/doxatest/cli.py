"""Command-line front end.

Every command builds one JSON-serialisable report dict and renders it either
as JSON or as indented text; the text view is a rendering of the same dict,
never a second code path.  Exit codes are a stable contract: 0 when all
checks pass, 1 when a semantic violation was found, 2 for usage or input
errors.
"""

from __future__ import annotations

import functools
import json
import sys
from random import Random

import click

from .axioms import AxiomId, Status, axiom_holds
from .changegen import (
    EXPECTED_SUITE,
    WorldContext,
    audit_function,
    random_revision_table,
    random_update_table,
    roundtrip_verify,
)
from .correspondence import (
    ATOM_NAMES,
    PAIRS,
    FrameGenSpec,
    build_census,
    count_base_tables,
    enumerate_frames,
    pair_for,
)
from .errors import DoxatestError
from .formulas import parse_formula, render
from .frames import (
    Model,
    bits,
    complete_selection,
    extended_member,
    load_structure,
    support_of,
    truth_set,
    validate_frame,
)
from .limits import (
    ATOM_LIMIT,
    COMPLETION_STATE_LIMIT,
    DEFAULT_MAX_STATES,
    ENUMERATION_FRAME_LIMIT,
    EXHAUSTIVE_STATE_LIMIT,
    EXHAUSTIVE_VALUATION_BITS,
    VALUATION_ATOM_LIMIT,
    refuse_beyond,
)
from .properties import FrameClass, PropertyId, check_class, check_property


def _norm(selector: str) -> str:
    return selector.strip().upper().replace("-", "_")


def _fail_usage(message: str) -> "SystemExit":
    click.echo(f"error: {message}", err=True)
    return SystemExit(2)


def _load(path: str, completion: str | None = None, max_states: int = COMPLETION_STATE_LIMIT):
    """The structure in ``path`` and its frame, the selection completed first
    when ``completion`` names the rule (refused beyond ``max_states`` states)."""
    try:
        structure = load_structure(path)
    except DoxatestError as exc:
        raise _fail_usage(f"{path}: {exc}")
    is_model = isinstance(structure, Model)
    frame = structure.frame if is_model else structure
    if completion is None:
        return structure, frame
    frame = complete_selection(frame, max_states=max_states)
    return (Model(frame, structure.valuation) if is_model else frame), frame


def _text_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if isinstance(item, dict) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(item, indent + 1))
            elif isinstance(item, list) and any(
                isinstance(x, (dict, list)) for x in item
            ):
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(item)}")
        return lines
    if isinstance(value, list):
        lines = []
        for item in value:
            if isinstance(item, (dict, list)):
                sub = _text_lines(item, indent + 1)
                if sub:
                    first = sub[0].lstrip()
                    lines.append(f"{pad}- {first}")
                    lines.extend(sub[1:])
                else:
                    lines.append(f"{pad}-")
            else:
                lines.append(f"{pad}- {_scalar(item)}")
        return lines
    return [f"{pad}{_scalar(value)}"]


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    if isinstance(value, dict) and not value:
        return "{}"
    return str(value)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        click.echo("\n".join(_text_lines(report)))


FORMAT_OPTION = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
    help="Report rendering.",
)

COMPLETE_OPTION = click.option(
    "--complete",
    "completion",
    type=click.Choice(["default"]),
    help="Fill missing selection entries first, by the default rule (the only "
    "rule): {s} when s is in the event, else the event's lowest-index state.",
)


class _EnvOption(click.Option):
    """An option whose usage errors name its variable only if read from it."""

    def consume_value(self, ctx, opts):
        value, source = super().consume_value(ctx, opts)
        ctx.set_parameter_source(self.name, source)  # click sets it after the checks
        return value, source

    def get_error_hint(self, ctx):
        if ctx and ctx.get_parameter_source(self.name) is click.core.ParameterSource.ENVIRONMENT:
            return super().get_error_hint(ctx)
        return click.Parameter.get_error_hint(self, ctx)


class _Commands(click.Group):
    """The command group: a `DoxatestError` from any command is an input
    error, reported on stderr with exit code 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except DoxatestError as exc:
            raise _fail_usage(str(exc))


@click.group(cls=_Commands)
def main() -> None:
    """Check belief-change postulates on finite pointed structures."""


@main.command()
@click.argument("path", type=click.Path())
@FORMAT_OPTION
def validate(path: str, fmt: str) -> None:
    """Validate a frame or model file against the structural rules."""
    _, frame = _load(path)
    violations = validate_frame(frame)
    report = {
        "command": "validate",
        "valid": not violations,
        "violations": [v.to_obj() for v in violations],
    }
    _emit(report, fmt)
    raise SystemExit(0 if not violations else 1)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--class", "frame_class", help="Frame class to check (e.g. revision-strict).")
@click.option("--property", "prop", help="Single frame property (e.g. PD57-strong).")
@click.option("--axiom", help="Change postulate to check at --state on a model.")
@click.option("--state", help="State id for axiom checks.")
@COMPLETE_OPTION
@click.option("--max-states", cls=_EnvOption, type=click.IntRange(1),
              default=DEFAULT_MAX_STATES, show_default=True,
              envvar="DOXATEST_MAX_STATES", show_envvar=True,
              help="Exhaustive-check size bound: states for --property, --class "
              "and --complete, cells for --axiom.")
@FORMAT_OPTION
def check(path, frame_class, prop, axiom, state, completion, max_states, fmt):
    """Check one property, one class recipe, or one postulate."""
    chosen = [x for x in (frame_class, prop, axiom) if x]
    if len(chosen) != 1:
        raise _fail_usage("pass exactly one of --class, --property, --axiom")
    structure, frame = _load(path, completion, max_states)

    if prop is not None:
        name = _norm(prop)
        if name not in PropertyId.__members__:
            raise _fail_usage(f"unknown property {prop!r}")
        verdict = check_property(frame, PropertyId[name], max_states=max_states)
        report = {"command": "check", "mode": "property", **verdict.to_obj(frame)}
        ok = verdict.holds
    elif frame_class is not None:
        name = _norm(frame_class)
        if name not in FrameClass.__members__:
            raise _fail_usage(f"unknown frame class {frame_class!r}")
        result = check_class(frame, FrameClass[name], max_states=max_states)
        report = {"command": "check", "mode": "class", **result.to_obj(frame)}
        ok = result.holds
    else:
        name = _norm(axiom)
        if name not in AxiomId.__members__:
            raise _fail_usage(f"unknown axiom {axiom!r}")
        if not isinstance(structure, Model):
            raise _fail_usage("axiom checks need a model file with a valuation")
        if state is None:
            raise _fail_usage("axiom checks need --state")
        verdict = axiom_holds(
            structure, frame.index(state), AxiomId[name], max_cells=max_states
        )
        report = {
            "command": "check",
            "mode": "axiom",
            "state": state,
            **verdict.to_obj(structure),
        }
        ok = verdict.status is not Status.FAILS
    _emit(report, fmt)
    raise SystemExit(0 if ok else 1)


@main.command()
@click.argument("path", type=click.Path(), required=False)
@click.option("--enumerate", "enum_states", type=click.IntRange(1), default=None,
              help="Run over every frame on this many states instead of a file.")
@click.option("--pairs", default="all", show_default=True,
              help='Comma list of pairings like "PR4:R4" (or "all").')
@click.option("--atom-budget", type=click.IntRange(1, VALUATION_ATOM_LIMIT), default=2,
              show_default=True,
              help="Valuation atoms used on the validity side.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the valuation sample, drawn only beyond "
                   f"{EXHAUSTIVE_VALUATION_BITS} valuation bits (states x atoms).")
@FORMAT_OPTION
def correspond(path, enum_states, pairs, atom_budget, seed, fmt):
    """Check property/postulate pairings two-sidedly over one or many frames."""
    if (path is None) == (enum_states is None):
        raise _fail_usage("pass a frame file or --enumerate N, not both")
    chosen_pairs = _parse_pairs(pairs)
    if path is not None:
        frames = [_load(path)[1]]
    else:
        n = enum_states
        refuse_beyond(n, EXHAUSTIVE_STATE_LIMIT, "states in an exhaustive enumeration")
        frame_count = count_base_tables(n) * ((1 << n) - 1) ** n
        refuse_beyond(frame_count, ENUMERATION_FRAME_LIMIT, "frames in an exhaustive census")
        frames = enumerate_frames(FrameGenSpec(states=n))
    census = build_census(
        frames, atom_budget=atom_budget, seed=seed, pairs=chosen_pairs
    )
    report = {"command": "correspond", **census}
    _emit(report, fmt)
    raise SystemExit(0 if census["summary"]["disagreements"] == 0 else 1)


def _parse_pairs(spec: str):
    if _norm(spec) == "ALL":
        return PAIRS
    chosen = []
    for item in spec.split(","):
        name = _norm(item)
        prop_name, _, axiom_name = name.partition(":")
        if prop_name not in PropertyId.__members__:
            raise _fail_usage(f"unknown property in pair {item!r}")
        try:
            pair = pair_for(PropertyId[prop_name])
        except KeyError:
            raise _fail_usage(f"property {item!r} has no paired postulate")
        if axiom_name and _norm(axiom_name) != pair.axiom.value:
            raise _fail_usage(
                f"property {prop_name} pairs with {pair.axiom.value}, not {axiom_name}"
            )
        chosen.append(pair)
    return tuple(chosen)


# each kind's frame class and its draw of one table from (rng, ctx)
KIND_SETTINGS = {
    "UPDATE": (FrameClass.UPDATE, random_update_table),
    "STRONG_UPDATE": (FrameClass.STRONG_UPDATE, functools.partial(random_update_table, total=True)),
    "REVISION": (FrameClass.REVISION_STRICT, random_revision_table),
}


@main.command()
@click.option("--atoms", type=click.IntRange(1, ATOM_LIMIT), required=True,
              help="Language size (1-4 atoms).")
@click.option("--kind", required=True,
              help="Generator family: update, strong-update, or revision.")
@click.option("--trials", type=click.IntRange(1), default=20, show_default=True,
              help="Tables to generate and check, one per trial.")
@click.option("--seed", type=int, default=0, show_default=True,
              help='Trial i draws its table from Random(f"{seed}:{i}").')
@FORMAT_OPTION
def roundtrip(atoms, kind, trials, seed, fmt):
    """Generate change functions, rebuild structures, verify class and table."""
    kind_name = _norm(kind)
    if kind_name not in KIND_SETTINGS:
        raise _fail_usage(f"unknown kind {kind!r}; expected update, strong-update or revision")
    frame_class, draw = KIND_SETTINGS[kind_name]
    suite = EXPECTED_SUITE[frame_class]
    ctx = WorldContext(ATOM_NAMES[:atoms])
    failures = []
    for trial in range(trials):
        table = draw(Random(f"{seed}:{trial}"), ctx)
        trip = roundtrip_verify(table, frame_class)
        audit = audit_function(table, suite)
        if not (trip.ok and audit.ok):
            failures.append(
                {
                    "trial": trial,
                    "roundtrip": trip.to_obj(ctx),
                    "audit": audit.to_obj(ctx),
                }
            )
    report = {
        "command": "roundtrip",
        "atoms": atoms,
        "kind": kind_name,
        "class": frame_class.value,
        "suite": suite,
        "trials": trials,
        "passed": trials - len(failures),
        "failures": failures,
    }
    _emit(report, fmt)
    raise SystemExit(0 if not failures else 1)


@main.command()
@click.argument("path", type=click.Path())
@click.option("--state", required=True, help="State id whose beliefs to condition.")
@click.option("--formula", "formula_text", required=True, help="Input formula.")
@click.option("--probe", "probes", multiple=True,
              help="Formula to test for membership in the conditional beliefs.")
@COMPLETE_OPTION
@FORMAT_OPTION
def ri(path, state, formula_text, probes, completion, fmt):
    """Show conditional beliefs at a state, reading acceptance off selection."""
    structure, frame = _load(path, completion)
    if not isinstance(structure, Model):
        raise _fail_usage("conditional-belief reports need a model file with a valuation")
    s = frame.index(state)
    phi = parse_formula(formula_text)
    phi_worlds = truth_set(structure, phi)
    probe_formulas = [parse_formula(text) for text in probes]
    # probe atoms are checked as strictly as phi's, before any work
    probe_worlds = [truth_set(structure, probe) for probe in probe_formulas]

    if phi_worlds:
        support = support_of(structure, s, phi_worlds)
        conditional = {
            "formula": render(phi),
            "branch": "selection",
            "support": list(frame.event_ids(support)),
        }
    else:
        conditional = {
            "formula": render(phi),
            "branch": "empty-input",
            "support": None,
        }
    probe_objs = []
    for probe, worlds in zip(probe_formulas, probe_worlds):
        member = extended_member(structure, s, phi, probe)
        entry = {"formula": render(probe), "member": member}
        if phi_worlds and not member:
            outside = support & ~worlds
            entry["separatingState"] = frame.states[next(bits(outside))]
        probe_objs.append(entry)
    report = {
        "command": "ri",
        "state": state,
        "belief": list(frame.event_ids(frame.belief[s])),
        "conditional": conditional,
        "probes": probe_objs,
    }
    _emit(report, fmt)
    raise SystemExit(0)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
