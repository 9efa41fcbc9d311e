"""Labelings listed one by one: the reference for the tile contraction.

The package computes every invariant as one tensor contraction and never
lists a labeling.  These helpers do, in two independent ways: a
backtracking search with unit propagation through the crossing equations,
and brute force over every assignment.  `search_reference` rebuilds each
framing's diagram with add_positive_kink and sums the Boltzmann weights of
its listed labelings, the tile loop the contraction replaced.
"""

from itertools import product

from biracks import LaurentPolynomial, add_positive_kink
from maps import inverses


def crossing_equations(d):
    """Constraint list: (table, subscript, source, target) per crossing side.

    Each entry demands labels[target] = map_{labels[subscript]}(labels[source])
    where table 'a' is alpha and 'b' is beta.
    """
    eqs = []
    for c in d.crossings:
        if c.sign > 0:
            eqs.append(("a", c.under_out, c.over_in, c.over_out))
            eqs.append(("b", c.over_in, c.under_out, c.under_in))
        else:
            eqs.append(("a", c.under_in, c.over_out, c.over_in))
            eqs.append(("b", c.over_out, c.under_in, c.under_out))
    return eqs


def _propagate(maps, by_var, labels, queue):
    """Fixpoint unit propagation; False on contradiction.  maps[kind] is the
    pair (table, inverses of its maps) of alpha for 'a' and beta for 'b'."""
    while queue:
        v = queue.pop()
        for kind, sub, src, dst in by_var[v]:
            ls = labels[sub]
            if not ls:
                continue
            fwd, inv = maps[kind]
            lsrc, ldst = labels[src], labels[dst]
            if lsrc:
                want = fwd[ls - 1][lsrc - 1]
                if not ldst:
                    labels[dst] = want
                    queue.append(dst)
                elif ldst != want:
                    return False
            elif ldst:
                labels[src] = inv[ls - 1][ldst - 1]
                queue.append(src)
    return True


def enumerate_labelings(d, b):
    """All valid labelings, lexicographic by (semiarc 0, semiarc 1, ...).

    Backtracking on the lowest unassigned semiarc with unit propagation
    through the crossing equations; bijectivity of the alpha and beta rows
    lets a known subscript force source from target and vice versa.  The
    search keeps its own stack, so its depth is not bounded by Python's
    recursion limit.
    """
    count = d.semiarc_count
    maps = {"a": (b.alpha, inverses(b.alpha)), "b": (b.beta, inverses(b.beta))}
    by_var = [[] for _ in range(count)]
    for eq in crossing_equations(d):
        for v in {eq[1], eq[2], eq[3]}:
            by_var[v].append(eq)

    out = []
    stack = [[0] * count]
    while stack:
        labels = stack.pop()
        try:
            v = labels.index(0)
        except ValueError:
            out.append(tuple(labels))
            continue
        # pushed in reverse so the smallest value is searched first
        for value in range(b.size, 0, -1):
            trial = labels[:]
            trial[v] = value
            if _propagate(maps, by_var, trial, [v]):
                stack.append(trial)
    return out


def labeling_is_valid(d, b, labeling):
    if len(labeling) != d.semiarc_count:
        return False
    if any(not 1 <= v <= b.size for v in labeling):
        return False
    for kind, sub, src, dst in crossing_equations(d):
        fwd = b.alpha if kind == "a" else b.beta
        if labeling[dst] != fwd[labeling[sub] - 1][labeling[src] - 1]:
            return False
    return True


def brute_force_labelings(d, b):
    """Filter every assignment; exponential, for cross-checking small diagrams."""
    return [
        labels
        for labels in product(range(1, b.size + 1), repeat=d.semiarc_count)
        if labeling_is_valid(d, b, labels)
    ]


def boltzmann_weight(d, labeling, phi):
    """Signed sum of phi over crossings at the left-side labels, under first."""
    total = 0
    for c in d.crossings:
        if c.sign > 0:
            total += phi(labeling[c.under_out], labeling[c.over_in])
        else:
            total -= phi(labeling[c.under_in], labeling[c.over_out])
    return total


# -- the framing tile, one kinked diagram at a time ------------------------


def with_kinks(d, kinks):
    """d with kinks[i] positive kinks added on component i."""
    for comp, count in enumerate(kinks):
        for _ in range(count):
            d = add_positive_kink(d, comp)
    return d


def tile(d, b):
    """The kink vectors of the framing tile: 0..N-1 kinks per component."""
    return list(product(range(b.characteristic), repeat=d.component_count))


def kinked_labelings(d, b, kink_vectors, labelings=enumerate_labelings):
    """(kinked diagram, its labelings) for each vector of kinks."""
    out = []
    for kinks in kink_vectors:
        kd = with_kinks(d, kinks)
        out.append((kd, labelings(kd, b)))
    return out


def search_reference(d, b, phi, kink_vectors, labelings=enumerate_labelings):
    """(per_framing, phi_z, poly, multiset) from listed labelings."""
    per_framing, weights = [], {}
    for kd, found in kinked_labelings(d, b, kink_vectors, labelings):
        per_framing.append((kd.framing, len(found)))
        for f in found:
            w = boltzmann_weight(kd, f, phi) if phi is not None else 0
            weights[w] = weights.get(w, 0) + 1
    return (tuple(per_framing), sum(c for _, c in per_framing),
            LaurentPolynomial(weights), tuple(sorted(weights.items())))


def summary(result):
    """The fields of an InvariantResult that search_reference reproduces."""
    return result.per_framing, result.phi_z, result.poly, result.multiset
