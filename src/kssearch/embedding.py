"""Branch-and-prune embeddability decisions with certified verdicts.

Refutation: the initial box (per free vertex x,y in [-1,1], z in [0,1], a
cover of all embeddings up to the pinned symmetry quotient) is contracted
and bisected until every box is excluded by interval evaluation; that proves
no embedding has all pairwise projective separations >= delta.

Existence: a Krawczyk interval-Newton step mapping a box strictly into its
own interior certifies a real root of a square equation system.  Systems
with fewer equations than variables are squared up by pinning coordinates
(slices) through an approximate root: a root of the sliced system still
satisfies every original equation.  Over-determined systems are not
certified here, only refuted or left inconclusive.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from operator import sub

import numpy as np

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

CHECKPOINT_VERSION = 1
DEFAULT_BUDGET = 100_000
# a box narrower than this in every variable gets a Newton attempt
NEWTON_MAX_WIDTH = 0.6
# at most this many contraction sweeps per popped box; a sweep that shrinks
# the box's width sum by less than 2% ends them earlier
SWEEPS_PER_BOX = 20
# Krawczyk iterations, in prove_root_in_box and in refine_certificate
KRAWCZYK_ITERATIONS = 10


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
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
    iterations: int


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

@dataclass(frozen=True)
class NewtonResult:
    certificate: KrawczykCertificate | None
    diagnostic: str

    def __bool__(self):
        return self.certificate is not None


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
    eqs = _equations(cs)
    need = cs.num_vars - len(eqs)
    if need <= 0:
        return ()
    jac = _float_system(cs, eqs, pt)[1]
    _u, sv, vt = np.linalg.svd(jac) if len(eqs) else (None, np.zeros(0), np.eye(cs.num_vars))
    rank = int((sv > 1e-9 * max(1.0, sv[0] if len(sv) else 1.0)).sum())
    basis = vt[rank:].T.copy()  # (nv, k) nullspace basis
    if basis.shape[1] < need:
        basis = np.hstack([basis, np.eye(cs.num_vars)[:, : need - basis.shape[1]]])
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
    lists, or a str on failure.  The float operations are those of the
    interval-object oracle in ``tests/test_interval_kernels.py``, in the
    same order: every sum starts from 0.0, scaling an interval by a matrix
    entry k multiplies both ends by k (swapping them when k < 0) and rounds
    each outward, and a zero Jacobian entry still adds its scaled [0, 0], one
    ulp either side of zero.
    """
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
        return "singular midpoint Jacobian"
    if not np.all(np.isfinite(cmat)):
        return "non-finite preconditioner"
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
    slices: tuple[tuple[int, float], ...] | str = "auto",
) -> NewtonResult:
    """Krawczyk containment test on the (sliced) square equation system.

    A certificate means the system has a real solution (locally unique) in
    the certified box; "unknown" carries no claim.  Over-determined systems
    and singular midpoint Jacobians report unknown with a diagnostic.
    """
    eqs = _equations(cs)
    nv = cs.num_vars
    if nv == 0:
        empty = IntervalBox((), ())
        return NewtonResult(KrawczykCertificate(empty, empty, (), 0), "constant system")
    if slices == "auto":
        slices = choose_slices(cs, np.array(box.midpoint()))
    m = len(eqs) + len(slices)
    if m > nv:
        return NewtonResult(None, f"over-determined: {m} equations, {nv} variables")
    if m < nv:
        return NewtonResult(None, f"under-determined: {m} equations, {nv} variables; slices required")

    lo, hi = box.lo, box.hi
    for it in range(1, KRAWCZYK_ITERATIONS + 1):
        image = _krawczyk_image(cs, eqs, lo, hi, slices)
        if isinstance(image, str):
            return NewtonResult(None, image)
        klo, khi = image
        # the image's endpoints cut with the box's
        cut_lo = tuple(map(max, klo, lo))
        cut_hi = tuple(map(min, khi, hi))
        if all(a < ka and kb < b for a, b, ka, kb in zip(lo, hi, klo, khi)):
            refined = IntervalBox(cut_lo, cut_hi)
            cert = KrawczykCertificate(IntervalBox(lo, hi), refined, tuple(slices), it)
            return NewtonResult(cert, "certified")
        if any(not a <= b for a, b in zip(cut_lo, cut_hi)):
            return NewtonResult(None, "Krawczyk image disjoint from box")
        if not any(b - a < (h - l) * 0.9 for a, b, l, h in zip(cut_lo, cut_hi, lo, hi)):
            return NewtonResult(None, "Krawczyk not contracting")
        lo, hi = cut_lo, cut_hi
    return NewtonResult(None, f"no containment within {KRAWCZYK_ITERATIONS} iterations")


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


def refine_certificate(cert: KrawczykCertificate, cs: ConstraintSystem):
    """Iterate the Krawczyk operator from the certified box.

    Returns the final enclosure; every iterate must stay inside the
    certificate's outer box (None on the impossible escape/disjoint case).
    """
    eqs = _equations(cs)
    outer_lo, outer_hi = lo, hi = cert.box.lo, cert.box.hi
    for _ in range(KRAWCZYK_ITERATIONS):
        image = _krawczyk_image(cs, eqs, lo, hi, cert.slices)
        if isinstance(image, str):
            return None
        cut_lo = tuple(map(max, image[0], lo))
        cut_hi = tuple(map(min, image[1], hi))
        for a, b, ol, oh in zip(cut_lo, cut_hi, outer_lo, outer_hi):
            if not a <= b or not (ol <= a and b <= oh):
                return None
        lo, hi = cut_lo, cut_hi
    return IntervalBox(lo, hi)


# ---------------------------------------------------------------------------
# Gauss-Newton polish (float heuristic feeding the certified test)

def _polish(cs: ConstraintSystem, eqs, start: np.ndarray, iters: int = 40):
    x = start.astype(float).copy()
    for _ in range(iters):
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
    on_refuted=None,
    resume_boxes=None,
) -> Verdict:
    """Branch-and-prune verdict on embeddability as a vector system.

    ProvedUnembeddable(delta): no embedding with all pairwise projective
    separations >= delta exists (the delta caveat is part of the verdict).
    ProvedEmbeddable: Krawczyk certificate plus strict distinctness over its
    refined box.  Budget exhaustion yields Inconclusive with residual
    boxes, serializable for resume.  Budget is counted in contraction steps
    (sweeps), so verdicts are machine-independent.

    ``resume_boxes`` replace the initial box; each must have ``cs.num_vars``
    intervals inside the initial box (ValueError otherwise).  The verdict
    covers only the boxes given, so a resume is only as sound as its boxes.

    The frontier is an in-memory heap, largest volume first (ties in push
    order).  It grows by at most one box per contraction step, so a run from
    the initial box never holds more than budget + 1 boxes.
    """
    if budget < 1:
        raise ValueError(f"interval budget must be at least 1, not {budget}")
    stats = dict(
        contraction_steps=0,
        boxes_processed=0,
        boxes_refuted=0,
        bisections=0,
        newton_attempts=0,
        peak_queue=0,
    )

    def mkstats():
        return SolverStats(**stats)

    try:
        cs = build_constraint_system(g, delta)
    except NoEdgesError:
        return ProvedEmbeddable(None, mkstats())

    init = cs.initial_box()
    for k, b in enumerate(resume_boxes or ()):
        inside = zip(init.lo, b.lo, b.hi, init.hi)
        if len(b) != cs.num_vars or not all(il <= a <= c <= ih for il, a, c, ih in inside):
            raise ValueError(f"resume box {k} is not {cs.num_vars} intervals in the initial box")

    if cs.num_vars == 0:
        # pinned triple satisfies everything exactly
        return ProvedEmbeddable(prove_root_in_box(init, cs).certificate, mkstats())

    eqs = _equations(cs)
    frontier: list[tuple[float, int, IntervalBox]] = []
    pushes = itertools.count()

    def push(b: IntervalBox) -> None:
        heapq.heappush(frontier, (-b.log_volume(), next(pushes), b))

    for b in resume_boxes or (init,):
        push(b)
    residuals: list[IntervalBox] = []

    while stats["contraction_steps"] < budget and frontier:
        _, _, box = heapq.heappop(frontier)
        stats["boxes_processed"] += 1
        stats["peak_queue"] = max(stats["peak_queue"], len(frontier) + 1)

        # contract to (near) fixpoint
        popped = box
        width = sum(map(sub, box.hi, box.lo))
        for _ in range(SWEEPS_PER_BOX):
            if stats["contraction_steps"] >= budget:
                break
            stats["contraction_steps"] += 1
            box, refutation = contract_explain(box, cs)
            if box is None:
                if verify_refutations and not recheck_refutation_exact(cs, refutation):
                    raise AssertionError(
                        f"exact shadow check failed for {refutation.kind}"
                    )
                if on_refuted is not None:
                    on_refuted(popped)
                stats["boxes_refuted"] += 1
                break
            before, width = width, sum(map(sub, box.hi, box.lo))
            if width > before * 0.98:
                break
        if box is None:
            continue

        if box.max_width < NEWTON_MAX_WIDTH:
            stats["newton_attempts"] += 1
            polished = _polish(cs, eqs, np.array(box.midpoint()))
            if np.max(np.abs(_float_system(cs, eqs, polished)[0])) < 1e-9:
                for eps in (1e-7, 1e-5, 1e-3):
                    seed = IntervalBox(tuple(polished - eps), tuple(polished + eps))
                    res = prove_root_in_box(seed, cs, "auto")
                    if res and check_distinctness(cs, res.certificate.refined):
                        return ProvedEmbeddable(res.certificate, mkstats())

        try:
            left, right = bisect(box)
        except WidthUnderflow:
            residuals.append(box)
            continue
        stats["bisections"] += 1
        push(left)
        push(right)

    # the push counter makes every key distinct, so sorting never compares boxes
    leftovers = tuple(residuals) + tuple(b for _, _, b in sorted(frontier))
    if not leftovers:
        return ProvedUnembeddable(delta, mkstats())
    reason = (
        "budget exhausted"
        if stats["contraction_steps"] >= budget
        else "unsplittable boxes remain"
    )
    return Inconclusive(leftovers, mkstats(), reason)


# ---------------------------------------------------------------------------
# Checkpoints

def checkpoint_to_json(g: Graph, delta: float, verdict: Inconclusive) -> str:
    from .graphs import graph6_encode

    return json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "graph6": graph6_encode(g),
            "delta": delta,
            "stats": verdict.stats.to_dict(),
            "boxes": [b.to_lists() for b in verdict.residual_boxes],
        }
    )


def checkpoint_from_json(text: str):
    """(graph6, delta, boxes) of one checkpoint line; ValueError naming the
    field unless the line is a JSON object with version, a string graph6, a
    number delta and a list of boxes."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("checkpoint line is not a JSON object")
    if data.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {data.get('version')!r}")
    g6, delta, boxes = data.get("graph6"), data.get("delta"), data.get("boxes")
    if not isinstance(g6, str):
        raise ValueError(f"checkpoint graph6 {g6!r} is not a string")
    if isinstance(delta, bool) or not isinstance(delta, (int, float)):
        raise ValueError(f"checkpoint delta {delta!r} is not a number")
    if not isinstance(boxes, list) or not all(isinstance(b, list) for b in boxes):
        raise ValueError("checkpoint boxes are not a list of boxes")
    return g6, delta, [IntervalBox.from_lists(b) for b in boxes]
