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
operands allows, and become Python ints otherwise.  The order is greedy and
pairwise, chosen from the index sizes alone.  MAX_CONTRACTION_CELLS still
bounds each tensor's dense shape times its number of weights, and so its
entries: the inputs and the largest intermediate of the order are checked
before any tensor is built, and each step before it joins; each check
raises ResourceLimitExceeded.

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

DEFAULT_MAX_TILE = 4096
MAX_CONTRACTION_CELLS = 1 << 24
_INT64_MAX = np.iinfo(np.int64).max


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

    def evaluate(self, u: int = 1) -> int:
        return sum(c * u**e for e, c in self.terms.items())

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
    code = np.zeros(size, dtype=np.int64)
    for x, n in zip(coords, shape):
        code = code * n + x
    return code


def _unravel(code, shape):
    return np.unravel_index(code, shape) if shape else ()


def _top(values):
    return int(np.abs(values).max(initial=0))


def _exact(values, top):
    """values in int64 when top, a bound on what is made of them, is below
    2^63; in Python ints otherwise."""
    return values.astype(np.int64 if top <= _INT64_MAX else object, copy=False)


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
    kinks weigh q full orbits plus r steps.
    """
    n, period = b.size, b.characteristic
    pi = b._arrays[2]
    ends, sums = [np.arange(n)], [np.zeros(n, dtype=object)]
    for _ in range(period):
        ends.append(pi[ends[-1]])
        sums.append(sums[-1] + weights[ends[-1], ends[-2]])
    q, r = zip(*(divmod(k, period) for k in kinks))  # Python ints: k may pass 2^63
    q, r = np.array(q, dtype=object), np.array(r)
    exps = (q[:, None] * sums[period] + np.array(sums)[r]).ravel()
    j = np.repeat(np.arange(len(kinks)), n)
    x = np.tile(np.arange(n), len(kinks))
    return (j, x, np.array(ends)[r].ravel()), exps


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
        agree &= x == first.setdefault(k, x)
    once = _open(indices, dims)
    code = _ravel([first[k][agree] for k in once], [dims[k] for k in once],
                  np.count_nonzero(agree))
    return _merged(once, code, _exact(weights[agree], _top(weights)),
                   np.ones(len(code), dtype=np.int64))


def _merge(ia, ib):
    """The indices left after a contraction: those in exactly one operand."""
    return tuple(k for k in ia if k not in ib) + tuple(k for k in ib if k not in ia)


def _greedy(specs, dims, framings, defer):
    """One greedy pairwise order over the index tuples in specs.

    Each step contracts the pair of live tensors sharing an index that
    shrinks the cell count most (grows it least), then carries the fewest
    framing indices.  With defer, growing steps that carry a framing index
    wait behind every other step.  A network that falls apart joins its two
    smallest pieces.  A result takes the next free slot.  Returns the
    steps, the largest index tuple met and its cells, and the flop count.
    """
    def cells(indices):
        return prod(dims[k] for k in indices)

    live = dict(enumerate(specs))
    steps, largest, flops = [], max(specs, key=cells), 0
    while len(live) > 1:
        owners = {}
        for slot, indices in live.items():
            for k in indices:
                owners.setdefault(k, []).append(slot)
        pairs = sorted({tuple(s) for s in owners.values() if len(s) == 2})
        if not pairs:
            pairs = [tuple(sorted(sorted(live, key=lambda s: cells(live[s]))[:2]))]
        best = None
        for i, j in pairs:
            merged = _merge(live[i], live[j])
            growth = cells(merged) - cells(live[i]) - cells(live[j])
            carried = len(framings.intersection(merged))
            key = (defer and growth > 0 and carried, growth, carried, len(merged))
            if best is None or key < best[0]:
                best = (key, i, j, merged)
        _, i, j, merged = best
        flops += cells(set(live[i] + live[j]))
        del live[i], live[j]
        live[len(specs) + len(steps)] = merged
        steps.append((i, j))
        largest = max(largest, merged, key=cells)
    return steps, largest, cells(largest), flops


def _guard(shape, weights=1):
    """Refuse a tensor of this dense shape and number of weights when its
    cells over all weights would exceed MAX_CONTRACTION_CELLS."""
    cells = prod(shape) * weights
    if cells > MAX_CONTRACTION_CELLS:
        what = "x".join(map(str, shape)) or "scalar"
        if weights > 1:
            what += f" over {weights} weights"
        raise ResourceLimitExceeded(f"labeling contraction intermediate {what}",
                                    cells, MAX_CONTRACTION_CELLS,
                                    fixed="invariants.MAX_CONTRACTION_CELLS")


def _contract_pair(a, b, dims):
    """Sum over the indices a and b share; weights add, counts multiply.

    The entries join on the code of their shared coordinates: b's are
    sorted once, and each entry of a meets the run of b's that agree with
    it.  Weights stay int64 while the operands' largest ones add below
    2^63, and counts while their largest ones times the shorter entry list
    do, as at most that many pairs merge into one entry.
    """
    if len(a[1]) > len(b[1]):
        a, b = b, a
    (ia, ca, wa, na), (ib, cb, wb, nb) = a, b
    keep = _merge(ia, ib)
    if not len(ca) or not len(cb):
        return (keep,) + (np.zeros(0, dtype=np.int64),) * 3
    _guard([dims[k] for k in keep],
           len({x + y for x in set(wa.tolist()) for y in set(wb.tolist())}))
    xa = dict(zip(ia, _unravel(ca, [dims[k] for k in ia])))
    xb = dict(zip(ib, _unravel(cb, [dims[k] for k in ib])))
    shared = [k for k in ia if k in ib]
    size = [dims[k] for k in shared]
    key_a = _ravel([xa[k] for k in shared], size, len(ca))
    key_b = _ravel([xb[k] for k in shared], size, len(cb))
    order = np.argsort(key_b)
    lo = np.searchsorted(key_b, key_a, "left", order)
    hits = np.searchsorted(key_b, key_a, "right", order) - lo
    ai = np.repeat(np.arange(len(ca)), hits)
    bi = order[np.repeat(lo - np.cumsum(hits) + hits, hits) + np.arange(len(ai))]
    at = {k: x[ai] for k, x in xa.items()} | {k: x[bi] for k, x in xb.items()}
    code = _ravel([at[k] for k in keep], [dims[k] for k in keep], len(ai))
    top = _top(wa) + _top(wb)
    weights = _exact(wa, top)[ai] + _exact(wb, top)[bi]
    top = _top(na) * _top(nb) * min(len(ca), len(cb))
    return _merged(keep, code, weights, _exact(na, top)[ai] * _exact(nb, top)[bi])


def _state_sum(d: LinkDiagram, b: AugmentedBirack, phi: Cochain2 | None, kinks):
    """The labeling counts as entry lists (j, weights, counts): counts[i]
    labelings of the diagram with the j[i]-th kink vector of product(*kinks)
    have weight weights[i].  kinks[c] lists the kink counts of component c.
    """
    n = b.size
    semiarcs, c = d.semiarc_count, d.component_count
    # Python ints: a weight can grow with the number of kinks
    weights = (np.array(phi.values, dtype=object) if phi is not None
               else np.zeros((n, n), dtype=object))
    # index ids: the semiarcs, then per component its cut end and its kink
    # count (a framing index, left open)
    dims = [n] * (semiarcs + c) + [len(k) for k in kinks]
    framings = range(semiarcs + c, semiarcs + 2 * c)
    free = set(d.free_loop_semiarcs)
    cut = {min(comp): semiarcs + i for i, comp in enumerate(d.components)
           if min(comp) not in free}

    raw = [(cut.get(x.over_in, x.over_in), x.over_out,
            cut.get(x.under_in, x.under_in), x.under_out) for x in d.crossings]
    raw += [(framings[i], min(comp), cut.get(min(comp), min(comp)))
            for i, comp in enumerate(d.components)]
    by_sign = {x.sign: _crossing_entries(b, weights, x.sign) for x in d.crossings}
    entries = [by_sign[x.sign] for x in d.crossings]
    entries += [_kink_entries(b, weights, k) for k in kinks]
    steps, largest, _, _ = min(
        (_greedy([_open(ix, dims) for ix in raw], dims, set(framings), defer)
         for defer in (False, True)),
        key=lambda plan: plan[2:])
    for ix, (_, exps) in zip(raw, entries):
        _guard([dims[k] for k in ix], len(set(exps.ravel().tolist())))
    _guard([dims[k] for k in largest])

    slots = [_close(coords, exps, ix, dims)
             for ix, (coords, exps) in zip(raw, entries)]
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
    counts, by_weight = [0] * prod(map(len, kinks)), {}
    for j, w, m in zip(*(x.tolist() for x in _state_sum(d, b, phi, kinks))):
        counts[j] += m
        by_weight[w] = by_weight.get(w, 0) + m
    per_framing = tuple(
        (tuple(base + k for base, k in zip(d.framing, added)), count)
        for added, count in zip(product(*kinks), counts))
    weight_counts = dict(sorted(by_weight.items()))
    return InvariantResult(
        per_framing=per_framing,
        phi_z=sum(count for _, count in per_framing),
        poly=LaurentPolynomial(weight_counts),
        multiset=tuple(weight_counts.items()),
        warnings=warn_messages,
    )


def _tile(d: LinkDiagram, b: AugmentedBirack, max_tile):
    c, N = d.component_count, b.characteristic
    check_budget(f"framing tile of {N}^{c} vectors", N**c,
                 max_tile, "max_tile", "BIRACKS_MAX_TILE", DEFAULT_MAX_TILE)
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
