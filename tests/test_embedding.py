"""Constraint systems, contraction, Krawczyk certificates, branch-and-prune."""

import json
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kssearch.graphs import Graph, graph6_decode
from kssearch.constraints import (
    ConstraintSystem,
    NoEdgesError,
    Refutation,
    build_constraint_system,
    contract_explain,
    recheck_refutation_exact,
)
from kssearch.intervals import IntervalBox, WidthUnderflow, bisect
from kssearch.embedding import (
    Inconclusive,
    ProvedEmbeddable,
    ProvedUnembeddable,
    checkpoint_from_json,
    checkpoint_to_json,
    check_distinctness,
    decide_embeddability,
    prove_root_in_box,
    verdict_to_json,
)

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def around(pt, eps):
    """The box of radius eps around pt."""
    return IntervalBox(tuple(v - eps for v in pt), tuple(v + eps for v in pt))


def chain_with_triangle(n):
    edges = [(0, 1), (0, 2), (1, 2)] + [(i, i + 1) for i in range(2, n - 1)]
    return Graph.from_edges(n, edges)


def test_variable_counts():
    assert build_constraint_system(K3).num_vars == 0
    assert build_constraint_system(chain_with_triangle(30)).num_vars == 81
    assert build_constraint_system(chain_with_triangle(12)).num_vars == 27


def test_no_edges_signalled():
    with pytest.raises(NoEdgesError):
        build_constraint_system(Graph(2, (0, 0)))
    v = decide_embeddability(Graph(1, (0,)))
    assert isinstance(v, ProvedEmbeddable)


def test_every_edge_contributes_one_equation():
    g = chain_with_triangle(8)
    cs = build_constraint_system(g)
    pinned_edges = 3  # inside the pinned triangle
    assert len(cs.coord_zero) + len(cs.dot_pairs) == g.edge_count() - pinned_edges


def test_contract_excludes_far_dot():
    # edge into a pinned axis forces that coordinate to zero
    p3 = Graph.from_edges(3, [(0, 1), (0, 2)])
    cs = build_constraint_system(p3)
    init = cs.initial_box()
    box = IntervalBox((0.9,) + init.lo[1:], (1.0,) + init.hi[1:])
    out, ref = contract_explain(box, cs)
    assert out is None and ref.kind == "coord-zero"


def test_contract_fixed_point_of_solution():
    # K3's system has no variables; the empty box is already a solution
    cs = build_constraint_system(K3)
    box = cs.initial_box()
    assert len(box) == 0
    assert contract_explain(box, cs) == (box, None)


def test_contract_norm_narrowing():
    g = Graph.from_edges(2, [(0, 1)])
    cs = ConstraintSystem(
        graph=g, delta=1e-4, pinned=(), free=(0,), norm_slots=(0,),
        coord_zero=(), dot_pairs=(), sep_pairs=(), sep_coords=(),
    )
    box = IntervalBox((0.8, 0.0, 0.0), (0.9, 0.0, 1.0))
    out, _ = contract_explain(box, cs)
    assert 0.43 <= out.lo[2] and out.hi[2] <= 0.61


def test_contract_children_stay_inside_parent():
    cs = build_constraint_system(P4)
    from kssearch.intervals import bisect

    box, _ = contract_explain(cs.initial_box(), cs)
    l, r = bisect(box)
    for child in (l, r):
        res, _ = contract_explain(child, cs)
        if res is not None:
            for i in range(len(res)):
                assert res.lo[i] >= child.lo[i] - 1e-12
                assert res.hi[i] <= child.hi[i] + 1e-12


# Each point is within 1e-16 of an exact embedding such as (3, 0, 4)/5, and
# keeps separation above delta = 0.5; C4 has no embedding.
PLANTED = (
    (C4, None),
    (P4, (0.6, 0.0, 0.8, -0.8, 0.0, 0.6)),
    (PAW, (0.6, 0.8, 0.0)),
    (K13, (0.0, 0.6, 0.8, 0.0, -0.6, 0.8)),
)


@st.composite
def sub_boxes(draw):
    """A constraint system, a random sub-box of its initial box, and the
    planted embedding the box holds with a 1e-6 margin, or None.

    Without a planted point each coordinate keeps its full range half the
    time, so that boxes also get past the coordinate-zero and norm equations
    to the pair constraints."""
    g, point = draw(st.sampled_from(PLANTED))
    cs = build_constraint_system(g, draw(st.sampled_from([1e-4, 0.5])))
    if point is not None and not draw(st.booleans()):
        point = None
    init = cs.initial_box()
    los, his = [], []
    for k, (lo, hi) in enumerate(zip(init.lo, init.hi)):
        if point is not None:
            p = point[k]
            lo, hi = (
                draw(st.floats(lo, max(lo, p - 1e-6))),
                draw(st.floats(min(hi, p + 1e-6), hi)),
            )
        elif not draw(st.booleans()):
            lo, hi = sorted(draw(st.floats(lo, hi)) for _ in range(2))
        los.append(lo)
        his.append(hi)
    return cs, IntervalBox(tuple(los), tuple(his)), point


@settings(max_examples=400, deadline=None)
@given(sub_boxes())
def test_contract_explain_sound_on_random_sub_boxes(case):
    # a box inside the input that keeps any planted embedding, or a
    # refutation the exact oracle confirms
    cs, box, planted = case
    out, ref = contract_explain(box, cs)
    if out is None:
        assert planted is None, ref
        assert recheck_refutation_exact(cs, ref), ref
    else:
        assert ref is None
        assert all(box.lo[i] <= out.lo[i] and out.hi[i] <= box.hi[i] for i in range(len(box)))
        if planted is not None:
            assert all(out.lo[i] - 1e-9 <= p <= out.hi[i] + 1e-9 for i, p in enumerate(planted))


def test_c4_refutation_with_exact_shadow():
    v = decide_embeddability(C4, budget=10**6, verify_refutations=True)
    assert isinstance(v, ProvedUnembeddable)
    assert v.stats.contraction_steps <= 10**6
    assert v.delta == 1e-4


def test_c4_refutation_robust_to_smaller_delta():
    v = decide_embeddability(C4, budget=10**6, delta=1e-5)
    assert isinstance(v, ProvedUnembeddable)


def test_delta_floor_enforced():
    with pytest.raises(ValueError):
        build_constraint_system(C4, 1e-9)


def test_k3_embeddable():
    v = decide_embeddability(K3)
    assert isinstance(v, ProvedEmbeddable)


def test_k13_certificate_from_seed_box():
    cs = build_constraint_system(K13)
    s2 = 1 / math.sqrt(2)
    pt = [0.0, 0.0, 1.0, 0.0, s2, s2]
    box = around(pt, 1e-3)
    res = prove_root_in_box(box, cs, "auto")
    assert res.certificate is not None
    assert check_distinctness(cs, res.certificate.box)


def test_certificate_survives_further_refinement():
    from kssearch.embedding import refine_certificate

    cs = build_constraint_system(K13)
    s2 = 1 / math.sqrt(2)
    pt = [0.0, 0.0, 1.0, 0.0, s2, s2]
    box = around(pt, 1e-3)
    res = prove_root_in_box(box, cs, "auto")
    # ten further operator iterations stay inside the certified box
    final = refine_certificate(res.certificate, cs)
    assert final is not None
    # and re-running the containment test on the outer box re-certifies
    again = prove_root_in_box(res.certificate.box, cs, res.certificate.slices)
    assert again.certificate is not None


def test_no_certificate_for_empty_region():
    # a box violating an edge equation can never be certified
    cs = build_constraint_system(K13)
    pt = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
    box = around(pt, 1e-4)
    res = prove_root_in_box(box, cs, "auto")
    assert res.certificate is None


def test_over_determined_reports_unknown():
    k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    cs = build_constraint_system(k5)
    res = prove_root_in_box(cs.initial_box(), cs, ())
    assert res.certificate is None
    assert "over-determined" in res.diagnostic


@pytest.mark.parametrize(
    "graph,planted",
    [
        (PAW, [3 / 5, 4 / 5, 0.0]),
        (P4, [3 / 5, 0.0, 4 / 5, -4 / 5, 0.0, 3 / 5]),
    ],
)
def test_planted_point_never_in_refuted_box(graph, planted):
    cs = build_constraint_system(graph, 1e-6)
    assert cs.num_vars == len(planted)

    seen = []

    def watch(box):
        seen.append(box)
        assert not box.contains_point(planted), "cover conservation violated"

    decide_embeddability(graph, budget=2000, delta=1e-6, on_refuted=watch)


def test_budget_exhaustion_and_resume():
    v = decide_embeddability(C4, budget=1)
    assert isinstance(v, Inconclusive)
    assert v.residual_boxes
    text = checkpoint_to_json(C4, 1e-4, v)
    g6, delta, boxes = checkpoint_from_json(text)
    assert delta == 1e-4
    v2 = decide_embeddability(C4, budget=10**6, resume_boxes=boxes)
    assert isinstance(v2, ProvedUnembeddable)
    for budget in (0, -5):
        with pytest.raises(ValueError):
            decide_embeddability(C4, budget=budget)


def test_resume_boxes_must_lie_in_the_initial_box():
    # P4 is embeddable: a box outside the cover would be refuted, and the
    # verdict would wrongly read unembeddable
    init = build_constraint_system(P4).initial_box()
    # built the way a checkpoint's boxes are read
    bad = [
        IntervalBox.from_lists(init.to_lists()[:3]),
        IntervalBox.from_lists([[5, 6]] * 6),
        IntervalBox.from_lists([[math.nan, math.nan]] * 6),
        IntervalBox.from_lists([[0.0, math.nan]] + init.to_lists()[1:]),
        IntervalBox.from_lists([[0.5, 0.25]] + init.to_lists()[1:]),
    ]
    for box in bad:
        with pytest.raises(ValueError, match="resume box 1 "):
            decide_embeddability(P4, budget=10, resume_boxes=[init, box])
    v = decide_embeddability(P4, budget=10**4, resume_boxes=list(bisect(init)))
    assert isinstance(v, ProvedEmbeddable)


def _splittable(box):
    try:
        bisect(box)
    except WidthUnderflow:
        return False
    return True


def test_frontier_order_and_size():
    # an n = 10 class the budget leaves open, with hundreds of queued boxes
    budget = 1_000
    v = decide_embeddability(graph6_decode("I{O_ogI@W"), budget=budget)
    assert isinstance(v, Inconclusive) and v.reason == "budget exhausted"
    assert v.stats.peak_queue <= budget + 1
    boxes = list(v.residual_boxes)
    while boxes and not _splittable(boxes[0]):
        boxes.pop(0)  # unsplittable boxes come first, in the order they were met
    volumes = [b.log_volume() for b in boxes]
    assert len(volumes) > 100 and len(set(volumes)) > 1
    assert all(a >= b for a, b in zip(volumes, volumes[1:])), "frontier not largest-volume-first"


def test_checkpoint_version_guard():
    with pytest.raises(ValueError):
        checkpoint_from_json(json.dumps({"version": 99, "boxes": []}))


def test_verdict_json():
    v = decide_embeddability(C4, budget=10**6)
    data = json.loads(verdict_to_json(v, delta=1e-4, budget=10**6))
    assert data["verdict"] == "unembeddable"
    assert data["delta"] == 1e-4
    assert "contraction_steps" in data["stats"]


def test_exact_recheck_on_synthetic_refutation():
    cs = build_constraint_system(C4, 1e-4)
    box = cs.initial_box()
    cur = box
    for _ in range(5):
        nxt, ref = contract_explain(cur, cs)
        if nxt is None:
            assert isinstance(ref, Refutation)
            assert recheck_refutation_exact(cs, ref)
            return
        cur = nxt
    pytest.fail("C4 contraction did not refute within 5 sweeps")
