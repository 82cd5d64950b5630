"""Branch-and-prune embeddability decisions with certified verdicts.

Refutation: the initial box (x,y in [-1,1] and z in [0,1] per free vertex,
quartered by the sign flips: a cover of all embeddings up to symmetry) is
contracted and bisected until every box is excluded by interval evaluation;
that proves no embedding has all pairwise projective separations >= delta.

Existence: a Krawczyk interval-Newton step mapping a box strictly into its
own interior certifies a real root of a square equation system.  Systems
with fewer equations than variables are squared up by pinning coordinates
(slices) through an approximate root: a root of the sliced system still
satisfies every original equation.  Over-determined systems are not
certified here, only refuted or left inconclusive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import sub

from .graphs import Graph
from .constraints import (
    ConstraintSystem,
    DEFAULT_DELTA,
    NoEdgesError,
    build_constraint_system,
    contract_explain,
    recheck_refutation_exact,
)
from .intervals import IntervalBox, WidthUnderflow, bisect, midpoint, mul, sqr, _dn, _up

DEFAULT_BUDGET = 100_000
# a box narrower than this in every variable gets a Newton attempt
NEWTON_MAX_WIDTH = 0.6
# at most this many contraction sweeps per popped box; a sweep that shrinks
# the box's width sum by less than 2% ends them earlier
SWEEPS_PER_BOX = 20
# Gauss-Newton steps per polish
POLISH_ITERATIONS = 40


# ---------------------------------------------------------------------------
# Verdicts

@dataclass
class SolverStats:
    contraction_steps: int = 0
    boxes_processed: int = 0
    boxes_refuted: int = 0
    bisections: int = 0
    newton_attempts: int = 0
    peak_queue: int = 0

    def to_dict(self):
        return self.__dict__.copy()


@dataclass(frozen=True)
class KrawczykCertificate:
    """A box strictly mapped into itself by the Krawczyk operator.

    ``box`` is the certified (outer) box; ``refined`` the tighter root
    enclosure obtained by intersecting with the operator image.
    """

    box: IntervalBox
    refined: IntervalBox
    slices: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ProvedUnembeddable:
    """Box cover exhausted with every box refuted (at separation >= delta)."""

    delta: float
    stats: SolverStats

    kind = "unembeddable"


@dataclass(frozen=True)
class ProvedEmbeddable:
    """Existence certificate plus strict pairwise distinctness on its
    refined box; no certificate for a graph without edges."""

    certificate: KrawczykCertificate | None
    stats: SolverStats

    kind = "embeddable"


@dataclass(frozen=True)
class Inconclusive:
    residual_boxes: tuple[IntervalBox, ...]
    stats: SolverStats
    reason: str

    kind = "inconclusive"


Verdict = ProvedUnembeddable | ProvedEmbeddable | Inconclusive


def verdict_to_json(v: Verdict, delta: float | None = None, budget: int | None = None) -> str:
    data = {"verdict": v.kind, "stats": v.stats.to_dict()}
    if delta is not None:
        data["delta"] = delta
    if budget is not None:
        data["budget"] = budget
    if isinstance(v, ProvedUnembeddable):
        data["delta"] = v.delta
    if isinstance(v, Inconclusive):
        data["reason"] = v.reason
        data["residual_boxes"] = len(v.residual_boxes)
    return json.dumps(data)


# ---------------------------------------------------------------------------
# Krawczyk existence test

def _equations(cs: ConstraintSystem):
    """Fixed equation order: norms, coordinate zeros, free-free dots."""
    eqs = [("norm", s) for s in range(len(cs.free))]
    eqs += [("coord", s, c) for s, c in cs.coord_zero]
    eqs += [("dot", s, t) for s, t in cs.dot_pairs]
    return eqs


def _residuals_at(cs: ConstraintSystem, eqs, pt) -> tuple[list[float], list[float]]:
    """Outward-rounded residuals at a thin point, as (lo, hi) endpoint lists."""
    rlo, rhi = [], []
    for eq in eqs:
        if eq[0] == "norm":
            s = eq[1]
            x, y, z = pt[3 * s], pt[3 * s + 1], pt[3 * s + 2]
            lo = _dn(_dn(_dn(x * x) + _dn(y * y)) + _dn(z * z))
            hi = _up(_up(_up(x * x) + _up(y * y)) + _up(z * z))
            rlo.append(_dn(lo - 1.0))
            rhi.append(_up(hi - 1.0))
        elif eq[0] == "coord":
            rlo.append(pt[3 * eq[1] + eq[2]])
            rhi.append(pt[3 * eq[1] + eq[2]])
        else:
            s, t = eq[1], eq[2]
            lo = hi = 0.0
            for c in range(3):
                p = pt[3 * s + c] * pt[3 * t + c]
                lo = _dn(lo + _dn(p))
                hi = _up(hi + _up(p))
            rlo.append(lo)
            rhi.append(hi)
    return rlo, rhi


def _float_system(cs: ConstraintSystem, eqs, pt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residuals and the Jacobian of the equations at a float point."""
    import numpy as np

    f = np.zeros(len(eqs))
    jac = np.zeros((len(eqs), cs.num_vars))
    for i, eq in enumerate(eqs):
        if eq[0] == "norm":
            s = eq[1]
            f[i] = pt[3 * s] ** 2 + pt[3 * s + 1] ** 2 + pt[3 * s + 2] ** 2 - 1.0
            for c in range(3):
                jac[i, 3 * s + c] = 2.0 * pt[3 * s + c]
        elif eq[0] == "coord":
            f[i] = pt[3 * eq[1] + eq[2]]
            jac[i, 3 * eq[1] + eq[2]] = 1.0
        else:
            s, t = eq[1], eq[2]
            f[i] = sum(pt[3 * s + c] * pt[3 * t + c] for c in range(3))
            for c in range(3):
                jac[i, 3 * s + c] = pt[3 * t + c]
                jac[i, 3 * t + c] = pt[3 * s + c]
    return f, jac


def choose_slices(cs: ConstraintSystem, pt: np.ndarray) -> tuple[tuple[int, float], ...]:
    """Coordinate pins that square up an under-determined system at pt.

    Greedy pivoting on the Jacobian nullspace basis: repeatedly pin the
    coordinate with the largest remaining basis row, then eliminate that
    direction.  Pins through the approximate root only add constraints.
    """
    import numpy as np

    eqs = _equations(cs)
    need = cs.num_vars - len(eqs)
    if need <= 0:
        return ()
    jac = _float_system(cs, eqs, pt)[1]
    # eqs has a norm per free slot, so vt has nv - rank >= need null rows
    _u, sv, vt = np.linalg.svd(jac)
    rank = int((sv > 1e-9 * max(1.0, sv[0])).sum())
    basis = vt[rank:].T.copy()  # (nv, nv - rank) nullspace basis
    picks = []
    for _ in range(need):
        norms = np.linalg.norm(basis, axis=1)
        coord = int(np.argmax(norms))
        picks.append(coord)
        # eliminate the chosen coordinate's direction from the basis
        row = basis[coord].copy()
        nrm = np.dot(row, row)
        if nrm > 0:
            basis = basis - np.outer(basis @ row, row) / nrm
        basis[coord] = 0.0
    return tuple((c, float(pt[c])) for c in sorted(picks))


def _krawczyk_image(cs: ConstraintSystem, eqs, lo: list[float], hi: list[float], slices):
    """K(cur) = mid - C f(mid) + (I - C J(cur))(cur - mid) on float endpoints.

    ``cur`` is [lo[i], hi[i]] per variable; returns the image as (lo, hi)
    lists, or None when the midpoint Jacobian has no finite inverse.  The
    float operations are those of the interval-object oracle in
    ``tests/test_interval_kernels.py``, in the same order: every sum starts
    from 0.0, scaling an interval by a matrix entry k multiplies both ends by
    k (swapping them when k < 0) and rounds each outward, and a zero Jacobian
    entry still adds its scaled [0, 0], one ulp either side of zero.
    """
    import numpy as np

    nv = cs.num_vars
    mid = [midpoint(a, b) for a, b in zip(lo, hi)]
    flo, fhi = _residuals_at(cs, eqs, mid)
    for coord, val in slices:
        flo.append(_dn(mid[coord] - val))
        fhi.append(_up(mid[coord] - val))
    # interval Jacobian, stored by column: jlo[j][k] is row k's entry for variable j
    jlo = [[0.0] * nv for _ in range(nv)]
    jhi = [[0.0] * nv for _ in range(nv)]
    for k, eq in enumerate(eqs):
        if eq[0] == "norm":
            s = eq[1]
            for c in range(3):
                jlo[3 * s + c][k] = _dn(lo[3 * s + c] * 2.0)
                jhi[3 * s + c][k] = _up(hi[3 * s + c] * 2.0)
        elif eq[0] == "coord":
            jlo[3 * eq[1] + eq[2]][k] = jhi[3 * eq[1] + eq[2]][k] = 1.0
        else:
            s, t = eq[1], eq[2]
            for c in range(3):
                jlo[3 * s + c][k], jhi[3 * s + c][k] = lo[3 * t + c], hi[3 * t + c]
                jlo[3 * t + c][k], jhi[3 * t + c][k] = lo[3 * s + c], hi[3 * s + c]
    for k, (coord, _val) in enumerate(slices, start=len(eqs)):
        jlo[coord][k] = jhi[coord][k] = 1.0
    jmid = (0.5 * (np.array(jlo) + np.array(jhi))).T
    try:
        cmat = np.linalg.inv(jmid)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(cmat)):
        return None
    dlo = [_dn(a - m) for a, m in zip(lo, mid)]
    dhi = [_up(b - m) for b, m in zip(hi, mid)]
    nx = math.nextafter
    inf = math.inf
    ninf = -inf
    klo, khi = [], []
    for i, crow in enumerate(cmat.tolist()):
        cl = ch = 0.0
        for a, b, k in zip(flo, fhi, crow):
            if k >= 0:
                cl, ch = _dn(cl + _dn(a * k)), _up(ch + _up(b * k))
            else:
                cl, ch = _dn(cl + _dn(b * k)), _up(ch + _up(a * k))
        al, ah = _dn(mid[i] - ch), _up(mid[i] - cl)
        for j in range(nv):
            # s = sum over k of C[i][k] * J[k][j], the operator's inner loop:
            # _dn and _up written out, their guards included, since a huge
            # C[i][k] can overflow a product or a sum to inf
            sl = sh = 0.0
            for a, b, k in zip(jlo[j], jhi[j], crow):
                if k >= 0:
                    a, b = a * k, b * k
                else:
                    a, b = b * k, a * k
                a = nx(a, ninf) if a != inf else a
                b = nx(b, inf) if b != ninf else b
                sl += a
                sh += b
                sl = nx(sl, ninf) if sl != inf else sl
                sh = nx(sh, inf) if sh != ninf else sh
            e = 1.0 if i == j else 0.0
            pl, ph = mul(_dn(e - sh), _up(e - sl), dlo[j], dhi[j])
            al, ah = _dn(al + pl), _up(ah + ph)
        klo.append(al)
        khi.append(ah)
    return klo, khi


def prove_root_in_box(
    box: IntervalBox,
    cs: ConstraintSystem,
    slices: tuple[tuple[int, float], ...] | None = None,
) -> KrawczykCertificate | None:
    """One Krawczyk step on the (sliced) square equation system.

    Returns a certificate, whose refined box is the image cut with the box,
    when the image lies strictly inside the box: the system then has a real
    solution (locally unique) in the box.  None carries no claim.
    ``slices=None`` chooses them through the box's midpoint.  A system the
    slices do not square up, and a midpoint Jacobian with no finite
    inverse, give None.
    """
    import numpy as np

    eqs = _equations(cs)
    nv = cs.num_vars
    if nv == 0:
        return KrawczykCertificate(box, box, ())  # nothing left free
    if slices is None:
        slices = choose_slices(cs, np.array(box.midpoint()))
    if len(eqs) + len(slices) != nv:
        return None

    lo, hi = box.lo, box.hi
    image = _krawczyk_image(cs, eqs, lo, hi, slices)
    if image is None:
        return None
    klo, khi = image
    if not all(a < ka and kb < b for a, b, ka, kb in zip(lo, hi, klo, khi)):
        return None
    refined = IntervalBox(tuple(map(max, klo, lo)), tuple(map(min, khi, hi)))
    return KrawczykCertificate(box, refined, tuple(slices))


def check_distinctness(cs: ConstraintSystem, box: IntervalBox) -> bool:
    """Strict pairwise projective distinctness of all vertex images over box.

    Adjacent pairs are orthogonal unit vectors at any root, hence distinct;
    non-adjacent pairs need (u.v)^2 < 1 strictly over the box.
    """
    lo, hi = box.lo, box.hi
    for s, c in cs.sep_coords:
        i = 3 * s + c
        if sqr(lo[i], hi[i])[1] >= 1.0:
            return False
    for s, t in cs.sep_pairs:
        al = ah = 0.0
        for c in range(3):
            i, j = 3 * s + c, 3 * t + c
            pl, ph = mul(lo[i], hi[i], lo[j], hi[j])
            al, ah = _dn(al + pl), _up(ah + ph)
        if sqr(al, ah)[1] >= 1.0:
            return False
    return True


# ---------------------------------------------------------------------------
# Gauss-Newton polish (float heuristic feeding the certified test)

def _polish(cs: ConstraintSystem, eqs, start: np.ndarray):
    import numpy as np

    x = start.astype(float).copy()
    for _ in range(POLISH_ITERATIONS):
        f, jac = _float_system(cs, eqs, x)
        if np.max(np.abs(f)) < 1e-13:
            break
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        x = x + step
        if np.max(np.abs(step)) < 1e-15:
            break
    return x


# ---------------------------------------------------------------------------
# Main decision loop

def decide_embeddability(
    g: Graph,
    budget: int = DEFAULT_BUDGET,
    delta: float = DEFAULT_DELTA,
    *,
    verify_refutations: bool = False,
) -> Verdict:
    """Branch-and-prune verdict on embeddability as a vector system.

    ProvedUnembeddable(delta): no embedding with all pairwise projective
    separations >= delta exists (the delta caveat is part of the verdict):
    by the flip lemma (``constraints``) the initial box holds one per flip orbit.
    ProvedEmbeddable: Krawczyk certificate plus strict distinctness over its
    refined box.  Budget exhaustion yields Inconclusive with residual
    boxes.  Budget is counted in contraction steps (sweeps), so verdicts are
    machine-independent, and a run at a larger budget repeats a smaller
    run's sweeps before going on.

    The frontier is an in-memory stack searched depth first: a bisection
    pushes the right half, then the left, so the left half is popped next.
    It grows by at most one box per contraction step, so it never holds
    more than budget + 1 boxes; an Inconclusive verdict lists the
    unsplittable boxes first, then the stack in pop order.  A box narrow
    enough for Newton gets a Gauss-Newton polish, and one Krawczyk step
    on the seed box pt +- 1e-7 around the polished point pt runs only when
    pt passes the residual gate and ``check_distinctness`` as a thin box:
    where two vertex images coincide, a certificate could never pass that
    test on its refined box.
    """
    import numpy as np

    if budget < 1:
        raise ValueError(f"interval budget must be at least 1, not {budget}")
    stats = SolverStats()
    try:
        cs = build_constraint_system(g, delta)
    except NoEdgesError:
        return ProvedEmbeddable(None, stats)

    init = cs.initial_box()
    if cs.num_vars == 0:
        # pinned triple satisfies everything exactly
        return ProvedEmbeddable(prove_root_in_box(init, cs), stats)

    eqs = _equations(cs)
    # a stack: the last box pushed is the next one popped
    frontier = [init]
    residuals: list[IntervalBox] = []

    while stats.contraction_steps < budget and frontier:
        box = frontier.pop()
        stats.boxes_processed += 1
        stats.peak_queue = max(stats.peak_queue, len(frontier) + 1)

        # contract to (near) fixpoint
        width = sum(map(sub, box.hi, box.lo))
        for _ in range(SWEEPS_PER_BOX):
            if stats.contraction_steps >= budget:
                break
            stats.contraction_steps += 1
            box, refutation = contract_explain(box, cs)
            if box is None:
                if verify_refutations and not recheck_refutation_exact(cs, refutation):
                    raise AssertionError(
                        f"exact shadow check failed for {refutation.kind}"
                    )
                stats.boxes_refuted += 1
                break
            before, width = width, sum(map(sub, box.hi, box.lo))
            if width > before * 0.98:
                break
        if box is None:
            continue

        if box.max_width < NEWTON_MAX_WIDTH:
            stats.newton_attempts += 1
            polished = _polish(cs, eqs, np.array(box.midpoint()))
            pt = tuple(polished.tolist())
            near = np.max(np.abs(_float_system(cs, eqs, polished)[0])) < 1e-9
            if near and check_distinctness(cs, IntervalBox(pt, pt)):
                seed = IntervalBox(tuple(p - 1e-7 for p in pt), tuple(p + 1e-7 for p in pt))
                cert = prove_root_in_box(seed, cs)
                if cert is not None and check_distinctness(cs, cert.refined):
                    return ProvedEmbeddable(cert, stats)

        try:
            left, right = bisect(box)
        except WidthUnderflow:
            residuals.append(box)
            continue
        stats.bisections += 1
        frontier += (right, left)

    leftovers = tuple(residuals) + tuple(reversed(frontier))
    if not leftovers:
        return ProvedUnembeddable(delta, stats)
    reason = (
        "budget exhausted"
        if stats.contraction_steps >= budget
        else "unsplittable boxes remain"
    )
    return Inconclusive(leftovers, stats, reason)

