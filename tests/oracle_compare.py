"""Reference block matching and edge tests for the test suite.

`reference_isomorphic_reduced` is the exhaustive search that
`isomorphic_reduced` ran before it backtracked.

Every label permutation in `itertools.permutations` order, filtered by
block key, surface and the existence of conjugators; for each survivor the
full product of up to 24 conjugators per block, and only then the edges.
Its conjugators come from `bounded_conjugators`, the coefficient-box
enumeration that the library ran before its conjugators were decided
exactly: a pair whose conjugators all lie outside the box leaves the
reference `inconclusive` where the library may answer "yes".  It shares
the invariant separation and the per-edge test with the library, so it
checks the search order, the pruning and the choice of one conjugator per
block pair.  It looks the edge test up on `gm4.assembly` at each call, so
a test that replaces it there replaces it for both searches.  It is
exponential: use it on structures of at most four blocks.

`reference_iso_matches` is the bounded edge test the library ran before its
edge test was decided in closed form: the fiber parts of both self-maps
enumerated within the bound (`self_fiber_maps`), and the translation parts
found by linearising at u = 0.  Its True answers are sound, so the library
must answer True wherever it does.
"""
import itertools

from gm4 import assembly, smith
from gm4.assembly import (
    Comparison,
    NotReducedError,
    _block_key,
    _fp_iso,
    _transport,
    invariant_report,
)
from gm4.bundles import Pi1Element, _combo, compose_isos, intertwiner_basis, iso_inverse
from gm4.gl2z import I2

CONJUGATOR_OPTIONS = 24  # conjugators tried per block pair


def bounded_conjugators(pairs, bound):
    """GL(2,Z) solutions X of X m1 X^-1 = m2 for all pairs, found in the
    intertwiner lattice with coefficients in [-bound, bound]; I first when
    the pairs are equal, then in the order of itertools.product."""
    seen = set()
    if all(m1 == m2 for m1, m2 in pairs):
        seen.add(I2.entries())
        yield I2
    basis = intertwiner_basis(pairs)
    if not basis:
        return
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        x = _combo(basis, coeffs)
        if abs(x.det()) == 1 and x.entries() not in seen:
            seen.add(x.entries())
            yield x


def self_fiber_maps(phi, bound):
    """Fiber parts (A, eps) of fiber-preserving self-isos of M_phi:
    A phi A^-1 = phi^eps with A in GL(2,Z), A within the coefficient bound."""
    return tuple((a, eps) for eps in (1, -1) for a in bounded_conjugators([(phi, phi ** eps)], bound))


def reference_iso_matches(f_goal, f_base, bound):
    """Whether f_goal = g_t o f_base o g_s for fiber-preserving self-isos
    g_s, g_t whose fiber parts are within the bound.  The composite's images
    are not affine in the translation parts u (a t-image can be quadratic in
    them), so the system is linearised at u = 0; the final check keeps a
    True sound, and a translation the linearisation misses gives False."""
    src, tgt = f_base.source, f_base.target
    if (f_goal.source.phi, f_goal.target.phi) != (src.phi, tgt.phi):
        return False
    goal = []
    for img in (f_goal.x_img, f_goal.y_img, f_goal.t_img):
        goal.extend([img.a, img.b, img.k])

    def composite(a_s, eps_s, u_s, a_t, eps_t, u_t):
        g_s = _fp_iso(src, src, a_s, Pi1Element(u_s[0], u_s[1], eps_s))
        g_t = _fp_iso(tgt, tgt, a_t, Pi1Element(u_t[0], u_t[1], eps_t))
        h = compose_isos(g_t, compose_isos(f_base, g_s))
        vec = []
        for img in (h.x_img, h.y_img, h.t_img):
            vec.extend([img.a, img.b, img.k])
        return vec

    units = ((1, 0), (0, 1))
    for a_s, eps_s in self_fiber_maps(src.phi, bound):
        for a_t, eps_t in self_fiber_maps(tgt.phi, bound):
            base = composite(a_s, eps_s, (0, 0), a_t, eps_t, (0, 0))
            if [base[i] for i in (2, 5, 8)] != [goal[i] for i in (2, 5, 8)]:
                continue
            cols = []
            for pos in range(4):
                u_s = units[pos] if pos < 2 else (0, 0)
                u_t = units[pos - 2] if pos >= 2 else (0, 0)
                shifted = composite(a_s, eps_s, u_s, a_t, eps_t, u_t)
                cols.append([shifted[i] - base[i] for i in range(9)])
            rows_idx = (0, 1, 3, 4, 6, 7)
            mat = [[cols[j][i] for j in range(4)] for i in rows_idx]
            rhs = [goal[i] - base[i] for i in rows_idx]
            sol = smith.solve_integer(mat, rhs)
            if sol is None:
                continue
            check = composite(a_s, eps_s, (sol[0], sol[1]), a_t, eps_t, (sol[2], sol[3]))
            if check == goal:
                return True
    return False


def reference_isomorphic_reduced(gs1, gs2, bound=4):
    reports = []
    for gs in (gs1, gs2):
        report = invariant_report(gs)
        if not report.reduced:
            raise NotReducedError("comparison requires reduced structures; reduce first")
        reports.append(report)
    r1, r2 = reports
    if r1.key() != r2.key():
        fields = ("block_count", "block_summary", "decomposing_classes", "sigma", "euler", "h1")
        for name, v1, v2 in zip(fields, r1.key(), r2.key()):
            if v1 != v2:
                return Comparison("no", separating=name)
    labels1 = [lbl for lbl, _ in gs1.blocks]
    labels2 = [lbl for lbl, _ in gs2.blocks]
    blocks1, blocks2 = gs1.block_map(), gs2.block_map()
    keys1 = {lbl: _block_key(b) for lbl, b in gs1.blocks}
    keys2 = {lbl: _block_key(b) for lbl, b in gs2.blocks}

    edge_index2 = {}
    for e in gs2.edges:
        edge_index2.setdefault((e.end1, e.end2), []).append(e)

    for perm in itertools.permutations(labels2):
        mapping = dict(zip(labels1, perm))
        if not all(keys1[a] == keys2[b] for a, b in mapping.items()):
            continue
        conj_options = {}
        feasible = True
        for lbl in labels1:
            b1, b2 = blocks1[lbl], blocks2[mapping[lbl]]
            if b1.rep.surface != b2.rep.surface:
                feasible = False
                break
            pairs = list(zip(b1.rep.images, b2.rep.images))
            found = bounded_conjugators(pairs, bound)
            opts = list(itertools.islice(found, CONJUGATOR_OPTIONS))
            if not opts:
                feasible = False
                break
            conj_options[lbl] = opts
        if not feasible:
            continue

        def map_end(end, conj):
            lbl, bd = end
            b1 = blocks1[lbl]
            pos = b1.boundary_labels().index(bd)
            b2 = blocks2[mapping[lbl]]
            new_bd = b2.boundary_labels()[pos]
            m1 = b1.boundary_monodromy(bd)
            m2 = b2.boundary_monodromy(new_bd)
            mu, mu_inv = _transport(m1, conj[lbl], 1)
            assert mu.target.phi == m2
            return (mapping[lbl], new_bd), mu, mu_inv

        def edge_matches(e, conj):
            new_end1, _, mu1_inv = map_end(e.end1, conj)
            new_end2, mu2, _ = map_end(e.end2, conj)
            transported = compose_isos(mu2, compose_isos(e.iso, mu1_inv))
            return any(
                assembly._iso_matches(cand.iso, transported)
                for cand in edge_index2.get((new_end1, new_end2), [])
            ) or any(
                assembly._iso_matches(cand.iso, iso_inverse(transported))
                for cand in edge_index2.get((new_end2, new_end1), [])
            )

        # an edge's answer depends on the conjugators of its two blocks only
        answers = {}
        for combo in itertools.product(*(conj_options[lbl] for lbl in labels1)):
            conj = dict(zip(labels1, combo))
            ok = True
            for i, e in enumerate(gs1.edges):
                key = (i, conj[e.end1[0]], conj[e.end2[0]])
                if key not in answers:
                    answers[key] = edge_matches(e, conj)
                if not answers[key]:
                    ok = False
                    break
            if ok:
                desc = ", ".join(f"{a}->{b}" for a, b in sorted(mapping.items()))
                return Comparison("yes", witness=f"block matching {desc}")
    return Comparison("inconclusive")
