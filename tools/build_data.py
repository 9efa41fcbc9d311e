#!/usr/bin/env python3
"""Generate the bundled data files under src/biracks/data/.

Every diagram comes from one of three kinds of record: a braid word,
closed; a signed Gauss code; or a list of crossings.  The words and codes
that earlier searches found are recorded below, and each record is checked
before anything is written: its value against the reference invariant
values, its shape (prime reduced alternating, or not), and its signature
against every earlier entry and every smaller diagram it must not be.  The
script aborts without writing if any check fails.

Run from the repository root:

    python3 tools/build_data.py           # write the files
    python3 tools/build_data.py --check   # compare them instead of writing

With --check nothing is written: the script names every file whose content
differs from what it would write, or that is missing, and exits 1 if there
is one.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys
from pathlib import Path

import biracks as bk

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "biracks" / "data"

# The two worked example biracks and their reduced 2-cocycles.
A14, A23 = (2, 4, 1, 3), (3, 1, 4, 2)
AB4 = bk.from_tables((A14, A23, A23, A14), (A23, A14, A14, A23))
A15, A25, B15 = (4, 3, 2, 5, 1), (1, 3, 2, 4, 5), (4, 2, 3, 5, 1)
AB5 = bk.from_tables((A15, A25, A25, A15, A15), (B15, A25, A25, B15, B15))
PHI4 = bk.Cochain2.from_pairs(4, [(2, 1), (2, 4), (3, 1), (3, 4)])
PHI5 = bk.Cochain2.from_pairs(5, [(1, 4), (1, 5), (5, 4)])


def dihedral(n: int) -> bk.AugmentedBirack:
    alpha = tuple(tuple(range(1, n + 1)) for _ in range(n))
    beta = tuple(
        tuple((2 * y - x) % n + 1 for x in range(n)) for y in range(n)
    )
    return bk.from_tables(alpha, beta)


# Extra biracks used only to tell candidate diagrams apart.
DIH3 = dihedral(3)
DIH5 = dihedral(5)
TSR3 = bk.tsr_birack(3, 1, 2, 2)


def P(pairs):
    return bk.LaurentPolynomial.from_pairs(pairs)


def val(d, b, phi):
    return bk.cocycle_invariant(d, b, phi).poly


def phi_z(d, b):
    return bk.counting_invariant(d, b).phi_z


def sig(d):
    """Invariant signature used to certify two diagrams are distinct."""
    r4 = bk.cocycle_invariant(d, AB4, PHI4)
    return (
        tuple(r4.poly.pairs()),
        r4.per_framing,
        tuple(val(d, AB5, PHI5).pairs()),
        phi_z(d, TSR3),
        phi_z(d, DIH3),
        phi_z(d, DIH5),
    )


def _roots(n, pairs) -> list[int]:
    """Union-find over range(n): the class representative of each element
    once every pair in pairs is merged."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(x) for x in range(n)]


# ---------------------------------------------------------------- braids

def braid_closure(word, strands) -> bk.LinkDiagram:
    """Close a braid word read downward; letter +i / -i is the positive /
    negative crossing between strand positions i and i+1 (1-based)."""
    counter = itertools.count()
    top = [next(counter) for _ in range(strands)]
    bottom = list(top)
    raw = []  # (sign, over_in, over_out, under_in, under_out) of arc ids
    for letter in word:
        i = abs(letter) - 1
        if letter == 0 or i + 1 >= strands:
            raise ValueError(f"letter {letter} needs more strands")
        a, b = bottom[i], bottom[i + 1]
        lo, hi = next(counter), next(counter)
        if letter > 0:
            # strand entering at position i passes over toward i+1
            raw.append((+1, a, hi, b, lo))
        else:
            raw.append((-1, b, lo, a, hi))
        bottom[i], bottom[i + 1] = lo, hi
    root = _roots(next(counter), zip(bottom, top))
    label: dict[int, int] = {}

    def lab(x):
        r = root[x]
        if r not in label:
            label[r] = len(label)
        return label[r]

    crossings = [
        (s, lab(oi), lab(oo), lab(ui), lab(uo)) for s, oi, oo, ui, uo in raw
    ]
    # a position no letter touches keeps its top arc: a free loop
    free = [lab(top[p]) for p in range(strands) if bottom[p] == top[p]]
    return bk.from_crossings(crossings, free)


def mirror(d: bk.LinkDiagram) -> bk.LinkDiagram:
    cr = [
        (-c.sign, c.under_in, c.under_out, c.over_in, c.over_out)
        for c in d.crossings
    ]
    return bk.from_crossings(cr, d.free_loop_semiarcs)


def connected_sum(d1, d2, s1=0, s2=0) -> bk.LinkDiagram:
    """Splice semiarc s2 of d2 into semiarc s1 of d1."""
    off = d1.semiarc_count
    cr = []
    for c in d1.crossings:
        fix = lambda s: (s2 + off) if s == s1 else s
        cr.append((c.sign, fix(c.over_in), c.over_out,
                   fix(c.under_in), c.under_out))
    for c in d2.crossings:
        fix = lambda s: s1 if s == s2 + off else s
        cr.append((c.sign, fix(c.over_in + off), c.over_out + off,
                   fix(c.under_in + off), c.under_out + off))
    return bk.from_crossings(cr, d1.free_loop_semiarcs)


# ------------------------------------------------ diagram shape predicates

def _endpoint_maps(d):
    tail = [-1] * d.semiarc_count
    head = [-1] * d.semiarc_count
    for ci, c in enumerate(d.crossings):
        tail[c.over_out] = ci
        tail[c.under_out] = ci
        head[c.over_in] = ci
        head[c.under_in] = ci
    return tail, head


def connected(d) -> bool:
    n = len(d.crossings)
    if n == 0:
        return d.component_count == 1
    if d.free_loop_semiarcs:
        return False
    return len(set(_roots(n, zip(*_endpoint_maps(d))))) == 1


def nugatory(d, ci) -> bool:
    tail, head = _endpoint_maps(d)
    c = d.crossings[ci]
    for s in (c.over_out, c.under_out):
        if head[s] == ci:
            return True
    root = _roots(len(d.crossings),
                  [(t, h) for t, h in zip(tail, head) if ci not in (t, h)])
    neigh = {root[tail[s]] for s in (c.over_in, c.under_in)}
    neigh |= {root[head[s]] for s in (c.over_out, c.under_out)}
    return len(neigh) > 1


def reduced(d) -> bool:
    return all(not nugatory(d, ci) for ci in range(len(d.crossings)))


def alternating(d) -> bool:
    """Over/under passes alternate along every component."""
    _, head = _endpoint_maps(d)
    for comp in d.components:
        if len(comp) == 1 and head[comp[0]] == -1:
            continue  # free loop
        kinds = []
        for s in comp:
            c = d.crossings[head[s]]
            kinds.append(s == c.over_in)
        m = len(kinds)
        if any(kinds[i] == kinds[(i + 1) % m] for i in range(m)):
            return False
    return True


def visibly_prime(d) -> bool:
    """No pair of semiarcs disconnects the crossing graph (no visible
    connected-sum circle).  Meaningful for connected reduced diagrams."""
    n = len(d.crossings)
    if n < 2:
        return True
    ends = list(zip(*_endpoint_maps(d)))
    for cut in itertools.combinations(range(len(ends)), 2):
        kept = [e for i, e in enumerate(ends) if i not in cut]
        if len(set(_roots(n, kept))) > 1:
            return False
    return True


def good_alternating(d, components) -> bool:
    return (d.component_count == components and connected(d)
            and reduced(d) and alternating(d) and visibly_prime(d))


# ------------------------------------------------------------ Gauss codes

TOKEN = re.compile(r"[OU]\d+[+-]")


def all_codes(n):
    """Every signed Gauss code with n crossings whose first token is O1, to
    which rotation and relabeling bring any code."""
    rest = []
    for k in range(1, n + 1):
        rest.append(f"U{k}")
        if k > 1:
            rest.append(f"O{k}")
    for perm in itertools.permutations(rest):
        for signs in itertools.product("+-", repeat=n):
            toks = ["O1" + signs[0]]
            for t in perm:
                toks.append(t + signs[int(t[1:]) - 1])
            yield "".join(toks)


def r1_free(code) -> bool:
    """No crossing's over and under passes are cyclically adjacent."""
    toks = TOKEN.findall(code)
    m = len(toks)
    for i in range(m):
        a, b = toks[i], toks[(i + 1) % m]
        if a[1:-1] == b[1:-1] and a[0] != b[0]:
            return False
    return True


# ------------------------------------------------------------ link table

EXPECT5 = {
    "unknot": P([(0, 5)]),
    "l0a1": P([(0, 25)]),
    "l2a1": P([(0, 7), (1, 6)]),
    "l4a1": P([(0, 19), (2, 6)]),
    "l5a1": P([(0, 25)]),
    "l6a1": P([(0, 19), (2, 6)]),
    "l6a2": P([(0, 7), (3, 6)]),
    "l6a3": P([(0, 7), (3, 6)]),
    "l6a4": P([(0, 125)]),
    "l6a5": P([(0, 29), (1, 36), (2, 18), (3, 6)]),
    "l6n1": P([(0, 29), (1, 36), (2, 18), (3, 6)]),
    "l7a1": P([(0, 25)]),
    "l7a2": P([(0, 19), (2, 6)]),
    "l7a3": P([(0, 25)]),
    "l7a4": P([(0, 25)]),
    "l7a5": P([(0, 7), (1, 6)]),
    "l7a6": P([(0, 7), (1, 6)]),
    "l7a7": P([(-1, 12), (0, 41), (1, 30), (2, 6)]),
    "l7n1": P([(-2, 6), (0, 19)]),
    "l7n2": P([(0, 25)]),
    "hopf_kink_pair": P([(0, 7), (1, 6)]),
}

EXPECT4 = {
    "l0a1": P([(0, 16)]),
    "l2a1": P([(0, 8), (1, 8)]),
    "l4a1": P([(0, 8), (2, 8)]),
    "hopf_kink_pair": P([(0, 8), (1, 8)]),
}

KNOT_EXPECT5 = {
    "k3_1": P([(0, 5)]),
    "k3_1_variant": P([(0, 5)]),
    "k4_1": P([(0, 5)]),
    "v2_1": P([(0, 2), (1, 3)]),
    "v3_1": P([(0, 5)]),
    "v3_2": P([(-1, 3), (0, 2)]),
    "v3_3": P([(-1, 3), (0, 2)]),
    "v3_4": P([(-1, 3), (0, 2)]),
    "v3_5": P([(-1, 3), (0, 2)]),
    "v3_6": P([(0, 5)]),
    "v3_7": P([(-1, 3), (0, 2)]),
    "v4_1": P([(-2, 3), (0, 2)]),
    "v4_2": P([(0, 5)]),
    "v4_4": P([(-1, 3), (0, 2)]),
    "v4_21": P([(0, 2), (1, 3)]),
}


class BuildError(RuntimeError):
    pass


# The braid words and Gauss codes that searches once found; main()
# certifies each again and refuses any that fails.
WORDS = {
    "l6a1": [1, -2, 1, 3, -2, 3],
    "l7a1": [1, 1, 1, -2, 1, 1, -2],
    "l7a3": [1, 1, -2, 1, -2, 1, -2],
    "l7a4": [1, -2, 1, 1, 1, -2, 1],
    "l7a2": [1, 1, -2, 1, 1, -2, -2],
    "l7a5": [1, 1, 1, 1, -2, 1, -2],
    "l7a6": [1, 1, 1, -2, 1, -2, 1],
    "l7a7": [1, -2, 1, 3, -2, -2, 3],
    "l7n1": [1, 1, 1, -2, -1, -1, -2],
    "l7n2": [1, 1, 1, -1, -2, 1, -2],
}

CODES = {
    "l6a2": "U1+O2+U3+O6+U5+O4+\nU6+O1+U2+O3+U4+O5+",  # one line per component
    "v3_1": "O1-U2+U1-U3-O2+O3-",
    "v3_6": "O1-U2+U3+U1-O3+O2+",
    "v3_2": "O1-U2+U1-O3-O2+U3-",
    "v3_3": "O1-U2-U1-O3+O2-U3+",
    "v3_4": "O1-U2-U1-O3-O2-U3-",
    "v3_5": "O1-U2-U3-U1-O2-O3-",
    "v3_7": "O1+U2-O3-U1+O2-U3-",
    "v4_1": "O1-U2-U1-O2-U3-U4-O3-O4-",
    "v4_2": "O1+U2+U1+O2+O3-U4-U3-O4-",
    "v4_4": "O1+U2-U1+O2-O3-U4-U3-O4-",
    "v4_21": "O1+U2+U1+O2+O3+U4-U3+O4-",
}

TREFOIL = "O1-U2-O3-U1-O2-U3-"
# the figure eight's PD code PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]
# (reading counterclockwise from the incoming under-edge), as a Gauss code
FIG8 = "U2+O1+U4-O3-U1+O2+U3-O4-"


def main(check: bool = False) -> list[Path]:
    """Build and validate every data file, then write it, or with check
    compare it with the file on disk; returns the files that differ."""
    manifest: list[tuple[str, str]] = []
    links: dict[str, bk.LinkDiagram] = {}
    knots: dict[str, str] = {}
    used_sigs: dict[str, object] = {}

    def adopt(name, d, note, code=None, twin=None, avoid=()):
        """Check d's values, and that its signature equals its twin's or
        else is new and not in avoid; then record it as a link, or as the
        knot of its Gauss code."""
        expect = EXPECT5 if code is None else KNOT_EXPECT5
        got5 = val(d, AB5, PHI5)
        if got5 != expect[name]:
            raise BuildError(f"{name}: ab5 value {got5} != {expect[name]}")
        if name in EXPECT4:
            got4 = val(d, AB4, PHI4)
            if got4 != EXPECT4[name]:
                raise BuildError(f"{name}: ab4 value {got4} != {EXPECT4[name]}")
        s = sig(d)
        if twin is not None and s != used_sigs[twin]:
            raise BuildError(f"{name}: signature differs from its twin {twin}")
        if twin is None and (s in avoid or s in used_sigs.values()):
            raise BuildError(f"{name}: signature repeats an earlier entry or "
                             "a smaller diagram")
        used_sigs[name] = s
        manifest.append((name, note))
        if code is None:
            links[name] = d
        else:
            knots[name] = code

    # A reduced alternating connected diagram realizes the crossing number
    # (Tait), and a visibly prime one is prime, so value plus crossing
    # count identifies each alternating table entry.
    def adopt_alternating(name, d, components, note):
        if not good_alternating(d, components):
            raise BuildError(f"{name}: not a prime reduced alternating "
                             f"diagram with {components} components")
        adopt(name, d, note)

    # --- fixed records ---------------------------------------------------
    adopt("unknot", bk.from_crossings([], [0]), "zero-crossing circle")
    adopt("l0a1", bk.from_crossings([], [0, 1]), "two-component unlink")
    adopt_alternating("l2a1", braid_closure([1, 1], 2), 2,
                      "closure of sigma_1^2")
    adopt_alternating("l4a1", braid_closure([1] * 4, 2), 2,
                      "closure of sigma_1^4, the (2,4) torus link")
    adopt_alternating("l6a3", braid_closure([1] * 6, 2), 2,
                      "closure of sigma_1^6, the (2,6) torus link")
    adopt_alternating("l5a1", braid_closure([1, -2, 1, -2, 1], 3), 2,
                      "closure of s1 s2^-1 s1 s2^-1 s1; reduced alternating, "
                      "5 crossings")
    adopt_alternating("l6a4", braid_closure([1, -2] * 3, 3), 3,
                      "closure of (s1 s2^-1)^3, the Borromean rings")
    # l6n1 and l6a5 share their value: the torus closure is not alternating,
    # the necklace is, and their signatures differ.
    torus33 = braid_closure([1, 2] * 3, 3)
    if alternating(torus33):
        raise BuildError("l6n1 closure unexpectedly alternating")
    adopt("l6n1", torus33, "closure of (s1 s2)^3, the (3,3) torus link")
    # Ring i is semiarcs i, 3+i, 6+i, 9+i; crossings 2i and 2i+1 clasp it
    # to ring i+1 (mod 3).
    necklace = bk.from_crossings([
        (+1, 0, 3, 10, 1), (+1, 7, 10, 3, 6),
        (+1, 1, 4, 11, 2), (+1, 8, 11, 4, 7),
        (+1, 2, 5, 9, 0), (+1, 6, 9, 5, 8),
    ])
    adopt_alternating("l6a5", necklace, 3,
                      "three rings in a cyclic chain of positive clasps")

    # Hopf with a cancelling positive/negative kink pair on one component.
    kinked = bk.from_crossings([
        (+1, 7, 1, 3, 2),
        (+1, 2, 3, 1, 0),
        (+1, 0, 4, 4, 5),
        (-1, 6, 7, 5, 6),
    ])
    adopt("hopf_kink_pair", kinked,
          "sigma_1^2 closure with a cancelling kink pair spliced in",
          twin="l2a1")

    # --- recorded alternating links --------------------------------------
    word = WORDS["l6a1"]
    adopt_alternating("l6a1", braid_closure(word, 4), 2,
                      f"closure of the 4-braid {word}; prime reduced "
                      "alternating with 6 crossings, and the value separates "
                      "it from l6a2/l6a3")

    # l6a2 has no 6-letter closed-braid diagram (strand parity and
    # generator coverage rule it out), so it is recorded by its Gauss code.
    # It shares its value with the (2,6) torus link but not its
    # determinant, so the dihedral 3-coloring count separates the two.
    code = CODES["l6a2"]
    d = bk.parse_gauss(code)
    if phi_z(d, DIH3) == phi_z(links["l6a3"], DIH3):
        raise BuildError("l6a2: dihedral 3-coloring count of the (2,6) torus "
                         "link")
    adopt_alternating("l6a2", d, 2,
                      f"Gauss code {' / '.join(code.split())}; prime reduced "
                      "alternating with 6 crossings; the value excludes l6a1 "
                      "and the dihedral 3-coloring count separates it from "
                      "the (2,6) torus link")

    # Equal values in a row: the signature check in adopt keeps the picks
    # apart from each other and from every earlier entry.
    one_of_three = ("one of the three prime reduced alternating 7-crossing "
                    "2-component links with this value (which of the three "
                    "carries which table name is not determined by these "
                    "invariants)")
    one_of_two = ("one of the two prime reduced alternating 7-crossing "
                  "diagrams with this value")
    for name, note in (
            ("l7a1", one_of_three), ("l7a3", one_of_three),
            ("l7a4", one_of_three),
            ("l7a2", "unique value among 7-crossing alternating 2-component "
                     "links"),
            ("l7a5", one_of_two), ("l7a6", one_of_two)):
        adopt_alternating(name, braid_closure(WORDS[name], 3), 2,
                          f"closure of the 3-braid {WORDS[name]}; {note}")

    # l7a7 is the only 3-component 7-crossing alternating link;
    # strand/length parity forces a 4-strand braid.
    word = WORDS["l7a7"]
    adopt_alternating("l7a7", braid_closure(word, 4), 3,
                      f"closure of the 4-braid {word}; the only 3-component "
                      "7-crossing alternating link")

    # Non-alternating 7-crossing links.  A reduced visibly prime
    # NON-alternating 7-crossing diagram cannot be a 7-crossing
    # alternating link (those only have alternating minimal diagrams), so
    # after excluding every reoriented or mirrored smaller bundled link
    # and the small connected sums by signature, the value pins the name.
    def orientation_variants(base):
        out = [base, mirror(base)]
        for comp in range(base.component_count):
            out.append(bk.reverse_component(base, comp))
            out.append(bk.reverse_component(mirror(base), comp))
        return out

    avoid = set()
    for name in ("l2a1", "l4a1", "l5a1", "l6a1", "l6a2", "l6a3"):
        avoid.update(sig(v) for v in orientation_variants(links[name]))
    tref = bk.parse_gauss(TREFOIL)
    for knot in (tref, mirror(tref), bk.parse_gauss(FIG8)):
        for h in orientation_variants(links["l2a1"]):
            avoid.add(sig(connected_sum(h, knot)))

    for name in ("l7n1", "l7n2"):
        d = braid_closure(WORDS[name], 3)
        if (d.component_count != 2 or not connected(d) or not reduced(d)
                or alternating(d) or not visibly_prime(d)):
            raise BuildError(f"{name}: not a prime reduced non-alternating "
                             "2-component diagram")
        adopt(name, d,
              f"closure of the non-alternating 3-braid {WORDS[name]}; "
              "signature distinct from every reoriented or mirrored smaller "
              "bundled link and from the small connected sums", avoid=avoid)

    # --- knots and virtual knots ----------------------------------------
    def adopt_knot(name, code, note, **kw):
        adopt(name, bk.parse_gauss(code), note, code=code, **kw)

    adopt_knot("k3_1", TREFOIL, "trefoil, all-negative")
    adopt_knot("k3_1_variant", "O1-O4+O5-U2-O3-U5-U4+U1-O2-U3-",
               "trefoil with a cancelling R2 pair spliced in", twin="k3_1")
    adopt_knot("k4_1", FIG8, "figure eight, from its PD code")
    adopt_knot("v2_1", "O1+O2+U1+U2+", "virtual trefoil")

    # The signatures of every 1- and 2-crossing code, and of every
    # 3-crossing code with no R1 kink, certify the crossing numbers below:
    # a diagram with fewer crossings would share its signature with one.
    small_sigs = {sig(bk.parse_gauss(code))
                  for n in (1, 2) for code in all_codes(n)}
    three_sigs = {sig(bk.parse_gauss(code))
                  for code in all_codes(3) if r1_free(code)}
    for name in ("v3_1", "v3_6"):
        adopt_knot(name, CODES[name],
                   "3-crossing virtual knot; value plus signature "
                   "distinctness from every 1- and 2-crossing code pins the "
                   "crossing number (naming within the equal-value row is "
                   "conventional)", avoid=small_sigs)
    for name in ("v3_2", "v3_3", "v3_4", "v3_5", "v3_7"):
        adopt_knot(name, CODES[name],
                   "3-crossing virtual knot, one of five pairwise "
                   "signature-distinct codes with this value",
                   avoid=small_sigs)
    for name in ("v4_1", "v4_2", "v4_4", "v4_21"):
        adopt_knot(name, CODES[name],
                   "4-crossing virtual knot; signature avoids every code "
                   "with fewer crossings (naming within the equal-value row "
                   "is conventional)", avoid=small_sigs | three_sigs)

    # --- write (or check) everything -------------------------------------
    stale: list[Path] = []

    def emit(path: Path, text: str) -> None:
        if not check:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        elif not path.is_file() or path.read_text() != text:
            stale.append(path)

    emit(DATA / "biracks" / "ab4.txt",
         "# 4-element augmented birack (kink map of order 2)\n"
         + bk.format_birack(AB4))
    emit(DATA / "biracks" / "ab5.txt",
         "# 5-element augmented birack (a biquandle)\n"
         + bk.format_birack(AB5))
    emit(DATA / "cochains" / "ab4_phi.txt",
         "# reduced 2-cocycle for the 4-element birack\n"
         + bk.format_cochain(PHI4))
    emit(DATA / "cochains" / "ab5_phi.txt",
         "# reduced 2-cocycle for the 5-element birack\n"
         + bk.format_cochain(PHI5))

    notes = dict(manifest)
    for name, d in links.items():
        emit(DATA / "links" / f"{name}.txt",
             f"# {name}: {notes[name]}\n"
             + bk.render_crossing_list(bk.canonical_relabel(d)))
    for name, code in knots.items():
        emit(DATA / "knots" / f"{name}.gauss", f"# {name}: {notes[name]}\n{code}\n")

    print("checked" if check else "wrote", len(links), "links,", len(knots), "knots")
    for name, note in manifest:
        print(f"  {name}: {note}")
    return stale


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the data files with what would be written; "
                             "exit 1 naming each one that differs")
    args = parser.parse_args()
    try:
        stale = main(check=args.check)
    except BuildError as exc:
        print("BUILD FAILED:", exc, file=sys.stderr)
        sys.exit(1)
    for path in stale:
        print(f"stale: {path.relative_to(ROOT)}", file=sys.stderr)
    sys.exit(1 if stale else 0)
