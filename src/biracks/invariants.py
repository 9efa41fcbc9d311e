"""Labelings of diagrams by a birack and the derived link invariants.

A labeling assigns a birack element to every semiarc so that each crossing
satisfies the sideways relations fixed in the diagram module.  The counting
invariant totals labelings over the framing tile: all framings reachable by
adding 0..N-1 positive kinks per component, N the birack characteristic.
Since labeling counts are periodic in each framing coordinate with period N,
the tile sum is independent of the chosen diagram.

A reduced 2-cocycle phi refines counting: each labeling contributes u to the
power of its Boltzmann weight, the signed sum over crossings of phi at the
left-side labels with the under label first.  Positive crossings contribute
phi(u_out, o_in), negative ones -phi(u_in, o_out).

The invariants never list labelings.  A labeling count is a state sum: each
crossing is a 0/1 tensor over its four semiarcs, R[o_in, o_out, u_in, u_out]
= [o_out = alpha_{u_out}(o_in)] [u_in = beta_{o_in}(u_out)] when positive
and its mirror when negative, and contracting every shared semiarc counts
the labelings.  Each component is cut at its lowest-id semiarc s, where
add_positive_kink inserts its kinks: the crossing that consumed s consumes a
new cut end s' instead, and F[w, s, s'] = (M^w)[s, s'] joins the two, with
M[x, y] = [alpha_y(x) = beta_x(y)] the relation one positive kink imposes.
Axiom (i) makes M the permutation matrix of the kink map pi.  A free loop is
its own cut, so F closes it by a trace.  The framing indices w stay open, so
one contraction gives every per-framing count of the tile.

Every tensor is a list of its nonzero entries: the coordinates of its open
indices, one exact Boltzmann weight and one labeling count each.  A
crossing's n^4 cells hold n^2 entries, each weighing its own +-phi, and F's
entries weigh their w kinks.  Closing a tensor keeps the entries that agree
on its repeated indices.  A contraction joins two lists on their shared
coordinates by sorting; weights add, counts multiply, and entries alike in
coordinates and weight merge.  Both stay int64 while a bound from the
operands allows, and become Python ints otherwise; so do the cochain table
and F's weights, from a bound on phi and on the kink counts.  Tensors that
differ only in their index labels share their entries: each crossing sign,
and each list of kink counts, is built and closed once per call and
pattern of repeated indices.

The order is greedy and pairwise, chosen from the index sizes alone: each
step joins the pair that grows the cells least.  A deferred order also
holds back growing steps that carry a framing index.  The two agree up to
the first step at which the plain order takes such a pair, so the deferred
one is planned only from there, and only if that step comes; the order
with the smaller largest tensor, then fewer flops, is the one run.
Three checks raise ResourceLimitExceeded.  Before any tensor is built, the
tile may hold at most MAX_CONTRACTION_CELLS framings, a cell each in the
table of counts, and the largest dense shape of the order must fit one
int64 code (linalg._INT64_MAX cells).  No join may then allocate more than
MAX_CONTRACTION_CELLS entries, counted before it does.

This contraction is the package's only labeling engine.  The tests keep a
backtracking search and brute force that list labelings one by one, as
independent oracles for it.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .algebra import AugmentedBirack
from .diagram import LinkDiagram
from .errors import InputError, NotReducedCocycle
from .errors import ResourceLimitExceeded, check_budget, check_integers
from .homology import Cochain2, is_reduced_2_cocycle
from .linalg import _INT64_MAX, _exact, _extent

DEFAULT_MAX_TILE = 4096
MAX_CONTRACTION_CELLS = 1 << 24


class LaurentPolynomial:
    """Sparse integer Laurent polynomial in one variable u."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = terms or {}
        exps = check_integers("polynomial exponents", terms.keys())
        coeffs = check_integers("polynomial coefficients", terms.values())
        self.terms = {e: c for e, c in zip(exps, coeffs) if c}

    @classmethod
    def from_pairs(cls, pairs):
        terms: dict = {}
        for exp, coeff in pairs:
            terms[exp] = terms.get(exp, 0) + coeff
        return cls(terms)

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return LaurentPolynomial(terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def pairs(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending in exponent."""
        return sorted(self.terms.items())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.pairs():
            if exp == 0:
                parts.append(str(c))
                continue
            power = "u" if exp == 1 else f"u^{exp}"
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append("-" + power)
            else:
                parts.append(f"{c}{power}")
        return "+".join(parts).replace("+-", "-")

    def __repr__(self):
        return f"LaurentPolynomial({self})"


@dataclass(frozen=True)
class InvariantResult:
    """Counts and weight polynomial for one diagram and birack.

    per_framing pairs each visited framing vector with its labeling count;
    phi_z is their total; poly and multiset carry the weight distribution
    (with no cochain given, everything sits at weight zero).
    """

    per_framing: tuple[tuple[tuple[int, ...], int], ...]
    phi_z: int
    poly: LaurentPolynomial
    multiset: tuple[tuple[int, int], ...]
    warnings: tuple[str, ...] = ()

    def to_json_dict(self):
        return {
            "per_framing": [
                {"framing": list(f), "count": c} for f, c in self.per_framing
            ],
            "phi_Z": self.phi_z,
            "poly": [[e, c] for e, c in self.poly.pairs()],
            "multiset": [[w, m] for w, m in self.multiset],
            "warnings": list(self.warnings),
        }


def _check_cochain(b: AugmentedBirack, phi: Cochain2 | None, quiet: bool):
    if phi is None:
        return ()
    if phi.size != b.size:
        raise InputError(
            f"cochain size {phi.size} does not match the birack size {b.size}")
    if is_reduced_2_cocycle(b, phi):
        return ()
    message = ("cochain is not a reduced 2-cocycle for this birack; "
               "tile-summed values may depend on the chosen diagram")
    if not quiet:
        _warnings.warn(message, NotReducedCocycle, stacklevel=3)
    return (message,)


# -- the state sum as one tensor contraction -------------------------------
#
# A tensor is a tuple (indices, code, weights, counts) of equal-length entry
# lists: entry i sits at the coordinates that code[i] ravels over the sizes
# of indices, and counts[i] > 0 labelings there have weight weights[i].


def _ravel(coords, shape, size):
    """One int64 code for each of size entries, from its coordinates."""
    if not shape:
        return np.zeros(size, dtype=np.int64)
    return np.ravel_multi_index(coords, shape).astype(np.int64, copy=False)


def _unravel(code, shape):
    return np.unravel_index(code, shape) if shape else ()


def _merged(indices, code, weights, counts):
    """The tensor whose entries alike in coordinates and weight are one."""
    order = np.lexsort((code, weights))
    code, weights, counts = code[order], weights[order], counts[order]
    first = np.ones(len(code), dtype=bool)
    first[1:] = (code[1:] != code[:-1]) | (weights[1:] != weights[:-1])
    at = np.flatnonzero(first)
    return indices, code[at], weights[at], np.add.reduceat(counts, at)


def _crossing_entries(b: AugmentedBirack, weights, sign: int):
    """The ones of R[o_in, o_out, u_in, u_out], as coordinates and weights.

    The left-side labels x (over strand) and y (under strand) fix the
    right-side ones, alpha_y(x) and beta_x(y), and the weight
    sign * phi(y, x).
    """
    alpha, beta, _ = b._arrays
    x, y = (v.ravel() for v in np.indices((b.size, b.size)))
    over_right, under_right = alpha[y, x], beta[x, y]
    coords = ((x, over_right, under_right, y) if sign > 0
              else (over_right, x, y, under_right))
    return coords, sign * weights[y, x]


def _kink_entries(b: AugmentedBirack, weights, kinks):
    """The ones of F[j, x, y], where kinks[j] positive kinks take x to y.

    One kink takes x to pi(x), the unique label with alpha_{pi(x)}(x) =
    beta_x(pi(x)), and weighs phi(pi(x), x).  pi has order N, so k = qN + r
    kinks weigh q full orbits plus r steps.  The table is int64 while q and
    q + 1 orbits of the largest |phi| stay below 2^63.
    """
    n, period = b.size, b.characteristic
    pi = b._arrays[2]
    q, r = zip(*(divmod(k, period) for k in kinks))  # Python ints: k may pass 2^63
    top = max(max(q), (max(q) + 1) * period * _extent(weights))
    ends = [np.arange(n)]
    for _ in range(period):
        ends.append(pi[ends[-1]])
    ends = np.array(ends)  # ends[t] = pi^t
    steps = _exact(weights[ends[1:], ends[:-1]], top)
    sums = np.concatenate((np.zeros((1, n), dtype=steps.dtype), np.cumsum(steps, axis=0)))
    q, r = _exact(np.array(q, dtype=object), top), np.array(r)
    exps = (q[:, None] * sums[period] + sums[r]).ravel()
    j = np.repeat(np.arange(len(kinks)), n)
    x = np.tile(np.arange(n), len(kinks))
    return (j, x, ends[r].ravel()), exps


def _open(indices, dims):
    """The indices a tensor keeps: those of size above 1 that occur once.

    A repeated index is a semiarc that starts and ends at the same tensor.
    """
    return tuple(k for k in indices if indices.count(k) == 1 and dims[k] > 1)


def _close(coords, weights, indices, dims):
    """One input tensor as an entry list, from the coordinates of its ones:
    those that agree on each repeated index, at the indices it keeps."""
    first, agree = {}, np.ones(len(weights), dtype=bool)
    for x, k in zip(coords, indices):
        if k in first:
            agree &= x == first[k]
        else:
            first[k] = x
    once = _open(indices, dims)
    code = _ravel([first[k][agree] for k in once], [dims[k] for k in once],
                  np.count_nonzero(agree))
    return _merged(once, code, weights[agree], np.ones(len(code), dtype=np.int64))


def _merge(ia, ib):
    """The indices left after a contraction: those in exactly one operand."""
    return tuple(k for k in ia if k not in ib) + tuple(k for k in ib if k not in ia)


def _greedy(specs, dims, framings):
    """A greedy pairwise order over the index tuples in specs: its steps,
    and the largest index tuple it meets.

    Each step contracts the pair of live tensors sharing an index that
    shrinks the cell count most (grows it least), then carries the fewest
    framing indices, then keeps the fewest indices; ties go to the lowest
    pair of slots.  A network that falls apart joins its two smallest
    pieces.  A result takes the next free slot.  Each live tensor keeps its
    cell count, each pair's score is kept while both its tensors live, and
    the owners of each index change only where a step changes them.

    The deferred order differs in one rule: growing steps that carry a
    framing index wait behind every other step.  Only such pairs score
    differently in it, so while the plain order's choice is not one, that
    choice leads in both orders.  The deferred pass thus runs only if the
    plain one takes such a step, and resumes from the state before it.  Of
    the two, the order with the smaller largest tensor and then the fewer
    flops (the cells of each step's two operands together) wins, the plain
    one on ties.
    """
    def cells(indices):
        return prod(dims[k] for k in indices)

    def score(live, i, j):
        (a, sa), (b, sb) = live[i], live[j]
        merged = _merge(a, b)
        size = cells(merged)
        return (size - sa - sb, len(framings.intersection(merged)), len(merged),
                i, j, merged, size)

    def deferred(s):
        return s[0] > 0 and s[1], s[:5]

    def run(live, owners, scores, steps, largest, flops, defer):
        fork = None
        while len(live) > 1:
            if scores:
                growth, carried, _, i, j, merged, size = min(
                    scores.values(), key=deferred if defer else None)
                if not defer and fork is None and growth > 0 and carried:
                    fork = (dict(live), dict(owners), dict(scores), list(steps),
                            largest, flops)
            else:
                i, j = sorted(sorted(live, key=lambda s: live[s][1])[:2])
                merged = _merge(live[i][0], live[j][0])
                size = cells(merged)
            (a, _), (b, _) = live.pop(i), live.pop(j)
            flops += cells(set(a + b))
            new = len(specs) + len(steps)
            for k in a + b:
                if k in merged:
                    owners[k] = tuple(x for x in owners[k] if x != i and x != j) + (new,)
                else:
                    owners.pop(k, None)
            live[new] = merged, size
            scores = {p: s for p, s in scores.items() if i not in p and j not in p}
            for k in merged:
                for x in owners[k][:-1]:
                    if (x, new) not in scores:
                        scores[x, new] = score(live, x, new)
            steps.append((i, j))
            if size > largest[1]:
                largest = merged, size
        return (steps, *largest, flops), fork

    live, owners = {slot: (ix, cells(ix)) for slot, ix in enumerate(specs)}, {}
    for slot, indices in enumerate(specs):
        for k in indices:
            owners[k] = owners.get(k, ()) + (slot,)
    scores = {pair: score(live, *pair) for pair in owners.values() if len(pair) == 2}
    largest = max(live.values(), key=lambda t: t[1])
    plan, fork = run(live, owners, scores, [], largest, 0, False)
    if fork is not None:
        plan = min(plan, run(*fork, True)[0], key=lambda p: p[2:])
    return plan[:2]


def _guard(what, shape, cells, limit, fixed):
    """Refuse the contraction when cells, made for a tensor of this dense
    shape, are above limit, the value of the constant named fixed."""
    if cells > limit:
        what += " " + ("x".join(map(str, shape)) or "scalar")
        raise ResourceLimitExceeded(f"labeling contraction {what}", cells, limit,
                                    fixed=fixed)


def _contract_pair(a, b, dims):
    """Sum over the indices a and b share; weights add, counts multiply.

    The entries join on the code of their shared coordinates: b's are
    sorted once, and each entry of a meets the run of b's that agree with
    it.  The number of pairs that meet is known before they are allocated,
    and more than MAX_CONTRACTION_CELLS of them are refused there.  Weights
    stay int64 while the operands' largest ones add below 2^63, and counts
    while their largest ones times the shorter entry list do, as at most
    that many pairs merge into one entry.  The codes stay int64, as
    _state_sum has checked the dense shape of every tensor of the order.
    """
    if len(a[1]) > len(b[1]):
        a, b = b, a
    (ia, ca, wa, na), (ib, cb, wb, nb) = a, b
    keep = _merge(ia, ib)
    top = _extent(wa) + _extent(wb)
    wa, wb = _exact(wa, top), _exact(wb, top)
    xa = dict(zip(ia, _unravel(ca, [dims[k] for k in ia])))
    xb = dict(zip(ib, _unravel(cb, [dims[k] for k in ib])))
    shared = [k for k in ia if k in ib]
    size = [dims[k] for k in shared]
    key_a = _ravel([xa[k] for k in shared], size, len(ca))
    key_b = _ravel([xb[k] for k in shared], size, len(cb))
    # keep is a's kept indices and then b's, so a's part of the code goes first
    rest_a, rest_b = keep[:len(ia) - len(shared)], keep[len(ia) - len(shared):]
    code_a = _ravel([xa[k] for k in rest_a], [dims[k] for k in rest_a], len(ca))
    code_b = _ravel([xb[k] for k in rest_b], [dims[k] for k in rest_b], len(cb))
    order = np.argsort(key_b)
    lo = np.searchsorted(key_b, key_a, "left", order)
    hits = np.searchsorted(key_b, key_a, "right", order) - lo
    _guard("join into", [dims[k] for k in keep], int(hits.sum()),
           MAX_CONTRACTION_CELLS, "invariants.MAX_CONTRACTION_CELLS")
    ai = np.repeat(np.arange(len(ca)), hits)
    bi = order[np.repeat(lo - np.cumsum(hits) + hits, hits) + np.arange(len(ai))]
    code = code_a[ai] * prod(dims[k] for k in rest_b) + code_b[bi]
    weights = wa[ai] + wb[bi]
    top = int(na.max(initial=0)) * int(nb.max(initial=0)) * min(len(ca), len(cb))
    return _merged(keep, code, weights, _exact(na, top)[ai] * _exact(nb, top)[bi])


def _network(d: LinkDiagram, n: int, kinks):
    """(raw, dims, framings): the index tuple of each input tensor, the
    crossings' and then each component's F, the size of each index, and
    the framing indices.

    Index ids are the semiarcs, then per component its cut end and its kink
    count (a framing index, left open).
    """
    semiarcs, c = d.semiarc_count, d.component_count
    dims = [n] * (semiarcs + c) + [len(k) for k in kinks]
    framings = range(semiarcs + c, semiarcs + 2 * c)
    free = set(d.free_loop_semiarcs)
    cut = {min(comp): semiarcs + i for i, comp in enumerate(d.components)
           if min(comp) not in free}
    raw = [(cut.get(x.over_in, x.over_in), x.over_out,
            cut.get(x.under_in, x.under_in), x.under_out) for x in d.crossings]
    raw += [(framings[i], min(comp), cut.get(min(comp), min(comp)))
            for i, comp in enumerate(d.components)]
    return raw, dims, framings


def _state_sum(d: LinkDiagram, b: AugmentedBirack, phi: Cochain2 | None, kinks):
    """The labeling counts as entry lists (j, weights, counts): counts[i]
    labelings of the diagram with the j[i]-th kink vector of product(*kinks)
    have weight weights[i].  kinks[c] lists the kink counts of component c.
    """
    n = b.size
    table = (np.array(phi.values, dtype=object) if phi is not None
             else np.zeros((n, n), dtype=np.int64))
    weights = _exact(table, _extent(table))
    raw, dims, framings = _network(d, n, kinks)
    steps, largest = _greedy([_open(ix, dims) for ix in raw], dims, set(framings))
    shape = [dims[k] for k in largest]
    _guard("intermediate", shape, prod(shape), _INT64_MAX, "linalg._INT64_MAX")

    # the ones of each crossing sign and of each kink list: the tensors that
    # share them differ only in their index labels, so each is built and
    # closed once per pattern of repeated indices, with the positions of its
    # indices for labels, and relabeled per tensor
    sources = [(_crossing_entries, x.sign) for x in d.crossings]
    sources += [(_kink_entries, tuple(k)) for k in kinks]
    closed, slots = {}, []
    for ix, (build, key) in zip(raw, sources):
        pattern = tuple(map(ix.index, ix))
        if (build, key, pattern) not in closed:
            coords, exps = build(b, weights, key)
            closed[build, key, pattern] = _close(coords, exps, pattern,
                                                 [dims[k] for k in ix])
        at, *lists = closed[build, key, pattern]
        slots.append((tuple(ix[p] for p in at), *lists))
    for i, j in steps:
        slots.append(_contract_pair(slots[i], slots[j], dims))
        slots[i] = slots[j] = None
    indices, code, weights, counts = slots[-1]
    at = dict(zip(indices, _unravel(code, [dims[k] for k in indices])))
    tile = [k for k in framings if k in indices]
    j = _ravel([at[k] for k in tile], [dims[k] for k in tile], len(code))
    return j, weights, counts


def _collect(d: LinkDiagram, b: AugmentedBirack, phi: Cochain2 | None,
             kinks, warn_messages) -> InvariantResult:
    j, weights, counts = _state_sum(d, b, phi, kinks)
    counts = _exact(counts, _extent(counts) * len(counts))  # bounds every total
    by_framing = np.zeros(prod(map(len, kinks)), dtype=counts.dtype)
    np.add.at(by_framing, j, counts)
    exps, at = np.unique(weights, return_inverse=True)
    by_weight = np.zeros(len(exps), dtype=counts.dtype)
    np.add.at(by_weight, at, counts)
    framings = product(*([base + k for k in added]
                         for base, added in zip(d.framing, kinks)))
    per_framing = tuple(zip(framings, by_framing.tolist()))
    weight_counts = dict(zip(exps.tolist(), by_weight.tolist()))
    return InvariantResult(
        per_framing=per_framing,
        phi_z=sum(count for _, count in per_framing),
        poly=LaurentPolynomial(weight_counts),
        multiset=tuple(weight_counts.items()),
        warnings=warn_messages,
    )


def _tile(d: LinkDiagram, b: AugmentedBirack, max_tile):
    c, N = d.component_count, b.characteristic
    what = f"framing tile of {N}^{c} vectors"
    check_budget(what, N**c, max_tile, "max_tile", "BIRACKS_MAX_TILE", DEFAULT_MAX_TILE)
    if N**c > MAX_CONTRACTION_CELLS:  # _collect's table takes a cell per framing
        raise ResourceLimitExceeded(what, N**c, MAX_CONTRACTION_CELLS,
                                    fixed="invariants.MAX_CONTRACTION_CELLS")
    return [range(N)] * c


def counting_invariant(d: LinkDiagram, b: AugmentedBirack,
                       max_tile=None) -> InvariantResult:
    """Total labelings over the framing tile, with per-framing counts."""
    return _collect(d, b, None, _tile(d, b, max_tile), ())


def cocycle_invariant(d: LinkDiagram, b: AugmentedBirack, phi: Cochain2,
                      max_tile=None) -> InvariantResult:
    """Weight polynomial over the framing tile.

    If phi is not a reduced 2-cocycle a NotReducedCocycle warning is issued
    and recorded in the result; the tile sum is then diagram-dependent and
    only fixed-framing values are meaningful.
    """
    messages = _check_cochain(b, phi, quiet=False)
    return _collect(d, b, phi, _tile(d, b, max_tile), messages)


def framed_invariants(d: LinkDiagram, b: AugmentedBirack,
                      phi: Cochain2 | None = None,
                      framing=None) -> InvariantResult:
    """Counts and weights at one fixed framing, no tile sum.

    The target framing is realized by adding positive kinks on top of the
    diagram's base framing, so every coordinate must be >= the base value.
    """
    if framing is None:
        framing = d.framing
    framing = check_integers("framing coordinates", framing)
    if len(framing) != d.component_count:
        raise InputError(
            f"framing needs {d.component_count} coordinates, got {len(framing)}")
    kinks = []
    for i, (target, base) in enumerate(zip(framing, d.framing)):
        if target < base:
            raise InputError(
                f"framing {target} on component {i} is below the diagram's "
                f"base framing {base}; only positive kinks can be added")
        kinks.append(target - base)
    messages = _check_cochain(b, phi, quiet=True)
    return _collect(d, b, phi, [[k] for k in kinks], messages)
