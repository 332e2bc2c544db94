"""Deterministic random instance generators shared across the test modules.

Everything here takes an explicit ``random.Random`` so that every test run
sees the same instances.  Variety points for bound quivers are produced with
a hitting-set trick: zero out at least one arrow in every relation term, fill
the remaining arrows with small random integer matrices.  Each term of each
relation then evaluates to the zero matrix exactly.
"""

import re
from collections import defaultdict
from fractions import Fraction
from random import Random

from quivrep import (
    Arrow,
    BoundQuiver,
    CocycleElement,
    DimVector,
    Family,
    FamilyParams,
    MatrixQ,
    Path,
    Quiver,
    Relation,
    Representation,
    coboundary_space,
    cocycle_space,
    conjugate,
    hom_basis,
    hom_dim,
    make_rep,
    middle_term,
    random_invertible,
    random_matrix,
    seeded_rng,
)
from quivrep._value import count
from quivrep.errors import QuivrepError, ShapeMismatch
from quivrep.homology import cocycle_system, intertwiner_matrix
from quivrep.linalg import in_span, independent_subset, is_invertible, kernel_basis, rank
from quivrep.quiver import same_quiver


def random_acyclic_quiver(rng: Random, max_vertices: int = 5, max_arrows: int = 6) -> Quiver:
    """Quiver whose arrows always point from a higher index to a lower one."""
    n = rng.randint(2, max_vertices)
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    arrows = []
    for k in range(rng.randint(1, max_arrows)):
        j = rng.randint(2, n)
        i = rng.randint(1, j - 1)
        arrows.append(Arrow(f"a{k + 1}", f"v{j}", f"v{i}"))
    return Quiver.build(vertices, arrows)


def _paths_by_endpoints(quiver: Quiver, lengths=(2, 3)) -> dict:
    """All paths with length in ``lengths``, grouped by (source, target).

    A path is stored as a tuple of arrow names in application order from the
    right: ``(a, b)`` means "b first, then a", so consecutive names need
    ``source(a) == target(b)``.
    """
    by_target = defaultdict(list)
    for arr in quiver.arrows:
        by_target[arr.target].append(arr)
    chains = [(arr.name,) for arr in quiver.arrows]
    groups = defaultdict(list)
    max_len = max(lengths)
    while chains:
        nxt = []
        for chain in chains:
            last = quiver.arrow(chain[-1])
            for arr in by_target[last.source]:
                ext = chain + (arr.name,)
                if len(ext) in lengths:
                    groups[(arr.source, quiver.arrow(ext[0]).target)].append(ext)
                if len(ext) < max_len:
                    nxt.append(ext)
        chains = nxt
    return groups


def random_relations(rng: Random, quiver: Quiver, max_relations: int = 2) -> tuple:
    """Up to ``max_relations`` admissible relations on existing length-2/3 paths."""
    groups = [(key, paths) for key, paths in _paths_by_endpoints(quiver).items()]
    if not groups:
        return ()
    relations = []
    for _ in range(rng.randint(0, max_relations)):
        _, paths = rng.choice(groups)
        terms = rng.sample(paths, k=min(len(paths), rng.randint(1, 2)))
        combo = tuple(
            (Fraction(rng.choice([-2, -1, 1, 2])), quiver.path(names))
            for names in terms
        )
        relations.append(Relation.of(combo))
    return tuple(relations)


def random_bound_quiver(rng: Random, max_vertices: int = 5, max_arrows: int = 6,
                        max_relations: int = 2) -> BoundQuiver:
    quiver = random_acyclic_quiver(rng, max_vertices, max_arrows)
    return BoundQuiver.of(quiver, random_relations(rng, quiver, max_relations))


def random_dims(rng: Random, quiver: Quiver, max_dim: int = 3) -> DimVector:
    return DimVector.of(quiver, {v: rng.randint(0, max_dim) for v in quiver.vertices})


def hitting_set_point(rng: Random, bq: BoundQuiver, dims: DimVector,
                      bound: int = 3) -> Representation:
    """Exact variety point: one arrow of every relation term is zeroed."""
    hit = set()
    for rel in bq.relations:
        for _, path in rel.terms:
            if not set(path.arrow_names) & hit:
                hit.add(rng.choice(path.arrow_names))
    mats = {}
    for arr in bq.quiver.arrows:
        if arr.name not in hit:
            mats[arr.name] = random_matrix(dims[arr.target], dims[arr.source], rng, bound)
    return make_rep(bq.quiver, dims, mats)


def random_variety_pair(rng: Random, bq: BoundQuiver, max_dim: int = 3):
    """Two independent variety points over the same bound quiver."""
    u = hitting_set_point(rng, bq, random_dims(rng, bq.quiver, max_dim))
    v = hitting_set_point(rng, bq, random_dims(rng, bq.quiver, max_dim))
    return u, v


def with_rational_entries(rep, rng: Random):
    """The same representation with every nonzero entry scaled by a random
    non-integer rational.  Zero matrices stay zero, so a hitting-set point
    stays a variety point."""
    mats = {}
    for arrow, mat in zip(rep.quiver.arrows, rep.matrices):
        mats[arrow.name] = MatrixQ(mat.rows, mat.cols, tuple(
            tuple(x * Fraction(rng.choice([1, -1, 5]), rng.choice([2, 3, 7])) for x in row)
            for row in mat.data))
    return make_rep(rep.quiver, rep.dim, mats)


def random_quiver_with_cycles(rng: Random) -> Quiver:
    """Arrows between any two vertices, loops included, so that relation
    paths can pass through one arrow more than once."""
    n = rng.randint(1, 3)
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    arrows = [Arrow(f"a{k + 1}", rng.choice(vertices), rng.choice(vertices))
              for k in range(rng.randint(1, 4))]
    return Quiver.build(vertices, arrows)


def random_rep(rng: Random, quiver: Quiver):
    dims = random_dims(rng, quiver, 3)
    mats = {a.name: random_matrix(dims[a.target], dims[a.source], rng, 2) for a in quiver.arrows}
    return make_rep(quiver, dims, mats)


def with_rational_coefficients(bq, rng: Random):
    """The same relations with every coefficient times 1/2, -3/7 or 5/3."""
    factors = (Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3))
    return BoundQuiver.of(bq.quiver, [
        Relation.of([(coeff * rng.choice(factors), path) for coeff, path in rel.terms])
        for rel in bq.relations])


# -- Fraction evaluation, the oracle of the integer variety check ------------
#
# `Representation.is_variety_point` evaluates relations on the integer form.
# These two functions are the Fraction evaluation it replaced, kept verbatim
# (as functions of the representation) to check it against.


def evaluate_path(m: Representation, path: Path) -> MatrixQ:
    if path.quiver != m.quiver:
        raise QuivrepError("path on a different quiver")
    out = m.matrix(path.arrow_names[0])
    for name in path.arrow_names[1:]:
        out = out @ m.matrix(name)
    return out


def evaluate_relation(m: Representation, rel: Relation) -> MatrixQ:
    acc = None
    for coeff, path in rel.terms:
        term = evaluate_path(m, path).scale(coeff)
        acc = term if acc is None else acc + term
    return acc


# -- factor by factor, the oracle of `twisted_evaluate` ------------------------
#
# `rep.twisted_evaluate` once multiplied out every slot of every term with
# `MatrixQ` products.  It now reads block (0, 1) of the relation's integer
# value at the middle term.  This is the old body, kept verbatim, to check it
# against.


def twisted_evaluate_by_factors(z: CocycleElement, rel: Relation,
                                u: Representation, v: Representation) -> MatrixQ:
    """Sum of coeff * U_{a_1} ... U_{a_{j-1}} Z_{a_j} V_{a_{j+1}} ... V_{a_m}
    over every term and position j, by MatrixQ products."""
    same_quiver(z.quiver, "twisted evaluation input", u, v, *[path for _, path in rel.terms])
    if u.dim != z.sub_dim or v.dim != z.quot_dim:
        raise ShapeMismatch("cocycle dimensions do not match u, v")
    acc = MatrixQ.zeros(u.dim[rel.target], v.dim[rel.source])
    for coeff, path in rel.terms:
        names = path.arrow_names
        for j, name in enumerate(names):
            term = z.matrix(name)
            for pre in reversed(names[:j]):
                term = u.matrix(pre) @ term
            for post in names[j + 1:]:
                term = term @ v.matrix(post)
            acc = acc + term.scale(coeff)
    return acc


# -- probe, grow and audit, the oracle of `constrained_cocycles` --------------
#
# `geometry.constrained_cocycles` once audited the span it grew: every basis
# vector and every pairwise sum of two had to be a member again, else it
# reported the full cocycle dimension with `linear` False.  The locus is a
# linear subspace, so the audit can only pass.  This is that version, kept
# verbatim apart from its return value, to check the audit-free one against.


def constrained_cocycles_audited(probe: Representation, n: Representation,
                                 bq: BoundQuiver):
    """(hom_to_probe, constrained_dim, linear) as the audited search found them."""
    h = hom_dim(probe, n)
    z_basis = cocycle_space(n, n, bq)
    b_basis = coboundary_space(n, n)

    def is_member(z: CocycleElement) -> bool:
        w = middle_term(z, n, n)
        return hom_dim(probe, w) == 2 * h

    generators = [z for z in b_basis.elements]
    for z in z_basis.elements:
        if is_member(z):
            generators.append(z)

    def span_rows(gens):
        return independent_subset([g.flatten() for g in gens])

    rows = span_rows(generators)

    # Grow: a pairwise sum of ambient basis vectors can be a member even
    # when neither summand is (the locus need not align with the basis).
    grown = True
    while grown:
        grown = False
        for i, zi in enumerate(z_basis.elements):
            for zj in z_basis.elements[i + 1:]:
                candidate = zi + zj
                flat = candidate.flatten()
                if not in_span(rows, flat) and is_member(candidate):
                    generators.append(candidate)
                    rows = span_rows(generators)
                    grown = True

    # Audit: the span is certified linear only if all pairwise sums of its
    # basis are members (each basis vector alone already is, being either a
    # coboundary, an ambient member, or a sum of members by construction).
    span_elements = [
        CocycleElement.from_flat(bq.quiver, n.dim, n.dim, row) for row in rows]
    linear = all(is_member(z) for z in span_elements)
    if linear:
        for i, zi in enumerate(span_elements):
            for zj in span_elements[i + 1:]:
                if not is_member(zi + zj):
                    linear = False
                    break
            if not linear:
                break

    return h, len(rows) if linear else z_basis.dim, linear


# -- the exact kernel, the reference for `constrained_cocycles` --------------
#
# The constrained locus is {Z in Z(N, N) : Z.f in B(probe, N) for every f of
# a Hom(probe, N) basis}, with (Z.f)_a = Z_a f_source(a).  Z.f lies in the
# image B of the (probe, N) intertwiner system exactly when every l of that
# system's left kernel kills it, so the locus is the kernel of the (N, N)
# cocycle system stacked with the rows Z |-> l . vec(Z.f).


def exact_constrained_dim(probe: Representation, n: Representation, bq: BoundQuiver) -> int:
    """Dimension of the constrained locus, from one exact kernel."""
    cocycles = cocycle_system(n, n, bq)
    left_kernel = kernel_basis(intertwiner_matrix(probe, n).transpose())
    # Offsets of Z_a (n_t x n_s) among the unknowns, and of (Z.f)_a
    # (n_t x probe_s) among the intertwiner rows, both row-major.
    z_at, zf_at = [], []
    z_pos = zf_pos = 0
    for a in bq.quiver.arrows:
        z_at.append(z_pos)
        zf_at.append(zf_pos)
        z_pos += n.dim[a.target] * n.dim[a.source]
        zf_pos += n.dim[a.target] * probe.dim[a.source]
    rows = list(cocycles.data)
    for f in hom_basis(probe, n).elements:
        for ell in left_kernel:
            row = [Fraction(0)] * cocycles.cols
            for a, z0, zf0 in zip(bq.quiver.arrows, z_at, zf_at):
                f_s, w, pw = f[a.source], n.dim[a.source], probe.dim[a.source]
                for i in range(n.dim[a.target]):
                    for k in range(w):
                        row[z0 + i * w + k] = sum(ell[zf0 + i * pw + j] * f_s[k, j]
                                                  for j in range(pw))
            rows.append(tuple(row))
    return cocycles.cols - rank(MatrixQ(len(rows), cocycles.cols, tuple(rows)))


# -- the base-change audit, the oracle of the grid's invariance --------------
#
# `family.verify_family` once conjugated each grid point M by a seeded g in
# GL(d) and re-checked membership in the decomposable locus and hom(S_b, M).
# Both are invariant under base change, so the audit can only pass.  This is
# that audit, kept verbatim, for a property test to check the invariance with.


def _conjugation_audit(fam: Family, m: Representation, probe: Representation,
                       hom_probe: int, seed: int, iu: int, iv: int) -> bool:
    """Base-change invariance: membership and probe hom survive conjugation."""
    rng = seeded_rng("family-audit", seed, iu, iv)
    g = {v: random_invertible(m.dim[v], rng, bound=2) for v in m.quiver.vertices}
    moved = conjugate(m, g)
    return (fam.decomposable_locus_member(moved)
            and hom_dim(probe, moved) == hom_probe)


def predicted_row(params: FamilyParams, u: str, v: str) -> dict:
    """Every integer of the grid row (u, v) of `params`, from the arm lengths alone.

    On every label: hom(S_b, M) = 1, Z(H', H') = p+q+r-1, Z(H'', H'') = s+t,
    Z(H', H'') = 0, B(H'', H') = 1, hom(H', H'') = 1 and hom(H'', H') = 0,
    so the four-summand total is p+q+r+s+t, which is also a(d).  The
    constrained dimension exceeds that total by one exactly at
    (alpha_p, xi_j) and (gamma_r, delta_j) with j >= 2.  Observed on every
    row of the arms-1..3 tuples, not proved; it reads no computed number.
    """
    p, q, r, s, t = params.p, params.q, params.r, params.s, params.t
    total = p + q + r + s + t
    arm = re.fullmatch(r"(xi|delta)(\d+)", v)
    extra = (arm is not None and int(arm[2]) >= 2
             and u == {"xi": f"alpha{p}", "delta": f"gamma{r}"}[arm[1]])
    return {"hom_probe": 1, "z_h1h1": p + q + r - 1, "z_h2h2": s + t, "z_cross": 0,
            "b_cross": 1, "direct": total + extra, "hom_12": 1, "hom_21": 0}


# -- the per-vertex isomorphism test, the oracle of the flat Hom sum ---------
#
# `homology.iso_probable` once summed the hom_basis families vertex by vertex,
# one MatrixQ.zeros + scale sum per vertex and draw.  It now forms one flat sum
# of the writer's kernel vectors and splits it per vertex.  This is the old
# body, kept verbatim, as the oracle of the verdicts and of the matrices tested.


def iso_probable_per_vertex(m: Representation, n: Representation, trials: int = 8,
                            seed: int = 0, entry_bound: int = 100) -> str:
    """The verdict of `iso_probable` from per-vertex MatrixQ sums."""
    trials, entry_bound = count(trials, "trial count", 1), count(entry_bound, "entry bound", 1)
    if m.quiver != n.quiver:
        raise QuivrepError("representations on different quivers")
    if m.dim != n.dim:
        return "NotIsomorphic"
    end = hom_dim(m, m)
    if end != hom_dim(n, n):
        return "NotIsomorphic"
    basis = hom_basis(m, n)
    if basis.dim != end:
        return "NotIsomorphic"
    rng = seeded_rng("iso", seed)
    quiver = m.quiver
    for _ in range(trials):
        coeffs = [Fraction(rng.randint(-entry_bound, entry_bound)) for _ in basis.elements]
        candidate = {}
        for v in quiver.vertices:
            acc = MatrixQ.zeros(n.dim[v], m.dim[v])
            for c, fam in zip(coeffs, basis.elements):
                if c:
                    acc = acc + fam[v].scale(c)
            candidate[v] = acc
        if all(is_invertible(candidate[v]) for v in quiver.vertices):
            return "Isomorphic"
    return "Inconclusive"
