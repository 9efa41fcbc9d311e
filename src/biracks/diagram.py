"""Framed oriented link diagrams at semiarc granularity.

A diagram is a list of signed crossings over semiarc ids 0..E-1.  Each
crossing names the four semiarcs meeting it: the over strand enters at
over_in and leaves at over_out, the under strand at under_in/under_out.
Every semiarc ends at exactly one crossing slot and starts at exactly one,
so the successor relation (in-slot to out-slot of the same strand) is a
permutation whose orbits are the link components.  Zero-crossing components
(free loops) are single semiarcs that succeed themselves.

Virtual crossings are never represented: a virtual crossing does not split
semiarcs, so codes for virtual links enter through their classical
crossings alone.

Crossing geometry is fixed once, here, with both strands drawn upward:

  positive: the over strand runs lower-left to upper-right, and the labels
            satisfy o_out = alpha_{u_out}(o_in), u_in = beta_{o_in}(u_out);
  negative: the mirror image, o_in = alpha_{u_in}(o_out),
            u_out = beta_{o_out}(u_in).

Equivalently the sideways map eats the left-edge pair and emits the right
pair.  Kink insertion uses one canonical positive curl: the lowest-id
semiarc s of the component is cut into s -> (over) -> loop -> (under) -> s',
which forces the label to change by the kink map across the curl.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError, check_integers, records


class Crossing(NamedTuple):
    sign: int
    over_in: int
    over_out: int
    under_in: int
    under_out: int


@dataclass(frozen=True)
class LinkDiagram:
    """Immutable diagram; build with from_crossings or one of the parsers."""

    crossings: tuple[Crossing, ...]
    components: tuple[tuple[int, ...], ...]
    semiarc_component: tuple[int, ...]
    framing: tuple[int, ...]
    free_loop_semiarcs: tuple[int, ...]

    @property
    def semiarc_count(self) -> int:
        return len(self.semiarc_component)

    @property
    def component_count(self) -> int:
        return len(self.components)

    def __repr__(self):
        return (f"LinkDiagram({len(self.crossings)} crossings, "
                f"{self.component_count} components, framing={self.framing})")


def from_crossings(crossings, free_loops=()) -> LinkDiagram:
    """Validate a crossing list and derive components and framing.  Each
    component lists its semiarcs in successor order, from its least id.

    free_loops lists the semiarc ids of zero-crossing components.  Semiarc
    ids must cover 0..E-1 with each id used exactly once as an in and once
    as an out endpoint.
    """
    cleaned = []
    for c in crossings:
        sign, o_in, o_out, u_in, u_out = check_integers("crossing entries", c)
        if sign not in (1, -1):
            raise InputError(f"crossing sign must be +1 or -1, got {sign!r}")
        cleaned.append(Crossing(sign, o_in, o_out, u_in, u_out))
    free_loops = check_integers("free loop ids", free_loops)

    # each in endpoint maps to the out endpoint of its strand: a free loop
    # succeeds itself
    succ: dict[int, int] = {}
    outs: set[int] = set()
    for s in free_loops:
        if s in succ:
            raise InputError(f"semiarc {s} appears more than once as in")
        succ[s] = s
        outs.add(s)
    for c in cleaned:
        for s, s_out in ((c.over_in, c.over_out), (c.under_in, c.under_out)):
            if s in succ:
                raise InputError(f"semiarc {s} appears more than once as in")
            succ[s] = s_out
        for s in (c.over_out, c.under_out):
            if s in outs:
                raise InputError(f"semiarc {s} appears more than once as out")
            outs.add(s)

    mentioned = succ.keys() | outs
    if not mentioned:
        raise InputError("diagram has no semiarcs; declare at least a free loop")
    if min(mentioned) < 0:
        raise InputError(f"semiarc id {min(mentioned)} is negative")
    count = max(mentioned) + 1
    for s in range(count):
        if s not in succ:
            raise InputError(f"semiarc {s} has no in endpoint")
        if s not in outs:
            raise InputError(f"semiarc {s} has no out endpoint")

    component_of = [None] * count
    components = []
    for start in range(count):
        if component_of[start] is not None:
            continue
        orbit = []
        s = start
        while component_of[s] is None:
            component_of[s] = len(components)
            orbit.append(s)
            s = succ[s]
        components.append(tuple(orbit))

    framing = [0] * len(components)
    for c in cleaned:
        co = component_of[c.over_in]
        cu = component_of[c.under_in]
        if co == cu:
            framing[co] += c.sign

    return LinkDiagram(
        crossings=tuple(cleaned),
        components=tuple(components),
        semiarc_component=tuple(component_of),
        framing=tuple(framing),
        free_loop_semiarcs=tuple(sorted(free_loops)),
    )


# -- canonical text format ----------------------------------------------


def parse_crossing_list(text: str) -> LinkDiagram:
    """Parse lines `X <sign> <o_in> <o_out> <u_in> <u_out>` and `L <semiarc>`.

    L lines declare zero-crossing components; `#` starts a comment.
    """
    crossings = []
    free_loops = []
    for lineno, body in records(text):
        tokens = body.split()
        tag = tokens[0].upper()
        if tag == "X":
            if len(tokens) != 6:
                raise InputError(
                    f"line {lineno}: expected `X sign o_in o_out u_in u_out`")
            try:
                sign = int(tokens[1])
            except ValueError:
                raise InputError(
                    f"crossing sign must be +1 or -1, got {tokens[1]!r}") from None
            try:
                ids = [int(t) for t in tokens[2:]]
            except ValueError:
                raise InputError(f"line {lineno}: semiarc ids must be integers") from None
            crossings.append(Crossing(sign, *ids))
        elif tag == "L":
            if len(tokens) != 2:
                raise InputError(f"line {lineno}: expected `L semiarc`")
            try:
                free_loops.append(int(tokens[1]))
            except ValueError:
                raise InputError(f"line {lineno}: semiarc id must be an integer") from None
        else:
            raise InputError(f"line {lineno}: unknown record {tokens[0]!r}")
    return from_crossings(crossings, free_loops)


def render_crossing_list(d: LinkDiagram) -> str:
    lines = [
        f"X {c.sign:+d} {c.over_in} {c.over_out} {c.under_in} {c.under_out}"
        for c in d.crossings
    ]
    lines.extend(f"L {s}" for s in d.free_loop_semiarcs)
    return "\n".join(lines) + "\n"


# -- signed Gauss codes --------------------------------------------------

_GAUSS_TOKEN = re.compile(r"([OUou])\s*(\d+)\s*([+-])")


def parse_gauss(text: str) -> LinkDiagram:
    """Parse one signed Gauss code component per nonempty line.

    Tokens are O<k>+ / U<k>- etc.; each crossing label k must occur exactly
    once as O and once as U, with equal signs.  Semiarcs are the gaps
    between consecutive tokens of a component, numbered along orientation.
    """
    component_tokens = []
    for _, body in records(text):
        tokens = _GAUSS_TOKEN.findall(body)
        stripped = _GAUSS_TOKEN.sub("", body).strip()
        if stripped or not tokens:
            raise InputError(f"unrecognized Gauss code text: {body!r}")
        component_tokens.append(tokens)
    if not component_tokens:
        raise InputError("empty Gauss code")

    passes: dict[int, dict] = {}
    base = 0
    for tokens in component_tokens:
        m = len(tokens)
        for j, (kind, label_str, sign_str) in enumerate(tokens):
            label = int(label_str)
            sign = 1 if sign_str == "+" else -1
            entry = passes.setdefault(label, {})
            kind = kind.upper()
            if kind in entry:
                raise InputError(
                    f"crossing label {label}: appears more than once as {kind}")
            entry[kind] = (sign, base + (j - 1) % m, base + j)
        base += m

    crossings = []
    for label in sorted(passes):
        entry = passes[label]
        if "O" not in entry or "U" not in entry:
            missing = "O" if "U" in entry else "U"
            raise InputError(f"crossing label {label}: has no {missing} pass")
        o_sign, o_in, o_out = entry["O"]
        u_sign, u_in, u_out = entry["U"]
        if o_sign != u_sign:
            raise InputError(f"crossing label {label} has different signs "
                             "on its over and under passes")
        crossings.append(Crossing(o_sign, o_in, o_out, u_in, u_out))
    return from_crossings(crossings)


def render_gauss(d: LinkDiagram) -> str:
    """Write a signed Gauss code, one component per line.

    Crossings are labeled 1..c in diagram order.  Free loops cannot be
    expressed in a Gauss code.
    """
    if d.free_loop_semiarcs:
        raise InputError("Gauss codes cannot describe zero-crossing components")
    # the token of the crossing slot where each semiarc ends
    token = {}
    for i, c in enumerate(d.crossings):
        sign = "+" if c.sign > 0 else "-"
        token[c.over_in] = f"O{i + 1}{sign}"
        token[c.under_in] = f"U{i + 1}{sign}"
    # a component's code starts at the slot between its last semiarc and its first
    return "".join("".join(token[s] for s in comp[-1:] + comp[:-1]) + "\n"
                   for comp in d.components)


def parse_diagram(text: str, name: str = "") -> LinkDiagram:
    """Parse either text format: a signed Gauss code when name ends in .gauss
    or the first record starts with O or U, else a crossing list.  Files and
    bundled items alike are read by this one rule."""
    first = next(records(text), (0, ""))[1]
    if name.endswith(".gauss") or first[:1] in ("O", "U", "o", "u"):
        return parse_gauss(text)
    return parse_crossing_list(text)


def canonical_relabel(d: LinkDiagram) -> LinkDiagram:
    """Renumber semiarcs along each component starting at its lowest id.

    parse_gauss(render_gauss(d)) equals canonical_relabel(d); diagrams from
    parse_gauss are already canonical.
    """
    new_id = {}
    for comp in d.components:
        for s in comp:
            new_id[s] = len(new_id)
    crossings = [
        Crossing(c.sign, new_id[c.over_in], new_id[c.over_out],
                 new_id[c.under_in], new_id[c.under_out])
        for c in d.crossings
    ]
    return from_crossings(crossings, [new_id[s] for s in d.free_loop_semiarcs])


# -- surgery -------------------------------------------------------------


def _check_component(d: LinkDiagram, component: int):
    check_integers("component", (component,))
    if not 0 <= component < d.component_count:
        raise InputError(f"no component {component}")


def add_positive_kink(d: LinkDiagram, component: int) -> LinkDiagram:
    """Insert one positive curl on the lowest-id semiarc of a component.

    The semiarc s is cut into s -> loop -> s': the new crossing K is
    positive with over pass s -> loop and under pass loop -> s', and the
    crossing that used to consume s consumes s' instead.  Framing of that
    component rises by one.
    """
    _check_component(d, component)
    s = min(d.components[component])
    loop = d.semiarc_count
    free_loops = list(d.free_loop_semiarcs)
    if s in free_loops:
        # the strand closes straight back into the kink
        free_loops.remove(s)
        return from_crossings(d.crossings + (Crossing(+1, s, loop, loop, s),), free_loops)
    s_new = loop + 1
    crossings = [c._replace(over_in=s_new) if c.over_in == s
                 else c._replace(under_in=s_new) if c.under_in == s else c
                 for c in d.crossings]
    crossings.append(Crossing(+1, s, loop, loop, s_new))
    return from_crossings(crossings, free_loops)


def reverse_component(d: LinkDiagram, component: int) -> LinkDiagram:
    """Reverse the orientation of one component.

    Each crossing strand lying on the component swaps its in and out slots;
    a crossing between the component and a different one flips sign, while
    self-crossings and crossings not involving the component keep theirs.
    """
    _check_component(d, component)
    crossings = []
    for c in d.crossings:
        on_over = d.semiarc_component[c.over_in] == component
        on_under = d.semiarc_component[c.under_in] == component
        sign = -c.sign if on_over != on_under else c.sign
        o_in, o_out = (c.over_out, c.over_in) if on_over else (c.over_in, c.over_out)
        u_in, u_out = (c.under_out, c.under_in) if on_under else (c.under_in, c.under_out)
        crossings.append(Crossing(sign, o_in, o_out, u_in, u_out))
    return from_crossings(crossings, d.free_loop_semiarcs)
