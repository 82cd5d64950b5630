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
from kssearch import embedding
from kssearch.intervals import IntervalBox
from kssearch.orderly import enumerate_graphs
from kssearch.embedding import (
    Inconclusive,
    ProvedEmbeddable,
    ProvedUnembeddable,
    _equations,
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
    assert isinstance(v, ProvedEmbeddable) and v.certificate is None


def test_every_edge_contributes_one_equation():
    g = chain_with_triangle(8)
    cs = build_constraint_system(g)
    pinned_edges = 3  # inside the pinned triangle
    assert len(cs.coord_zero) + len(cs.dot_pairs) == g.edge_count() - pinned_edges


@pytest.mark.parametrize(
    "graph,lo",
    [
        (C4, (0.0, -1.0, 0.0, -1.0, 0.0, 0.0)),  # x on slot 0, y on slot 1
        (P4, (0.0, -1.0, 0.0, -1.0, 0.0, 0.0)),  # slot 0's y is a coordinate zero
        (K13, (-1.0, 0.0, 0.0, -1.0, -1.0, 0.0)),  # every x is a coordinate zero
        (PAW, (0.0, 0.0, 0.0)),  # z is the coordinate zero
    ],
    ids=["C4", "P4", "K13", "paw"],
)
def test_initial_box_of_small_graphs(graph, lo):
    box = build_constraint_system(graph).initial_box()
    assert box.lo == lo and box.hi == (1.0,) * len(lo)


def test_initial_box_raises_exactly_the_two_flip_bounds():
    # on every n <= 6 class, against x, y in [-1, 1], z in [0, 1] per slot,
    # only x's and y's lower bounds move to 0, each on the first slot where
    # it is not a coordinate zero
    for g in (g for n in range(2, 7) for g in enumerate_graphs(n)):
        cs = build_constraint_system(g)
        k = len(cs.free)
        box = cs.initial_box()
        assert box.hi == (1.0, 1.0, 1.0) * k
        raised = {i for i, (a, b) in enumerate(zip(box.lo, (-1.0, -1.0, 0.0) * k)) if a != b}
        expected = set()
        for c in (0, 1):
            nonzero = [s for s in range(k) if (s, c) not in cs.coord_zero]
            expected |= {3 * s + c for s in nonzero[:1]}
        assert raised == expected, g
        assert all(box.lo[i] == 0.0 for i in raised)


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
        graph=g, delta=1e-4, pinned=(), free=(0,),
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


def test_n10_class_refuted_at_coarse_delta_with_exact_shadow():
    # the flip quarter brings this class within reach: about 5,200 sweeps
    v = decide_embeddability(graph6_decode("I{O_ogI@W"), budget=10**6, delta=0.3,
                             verify_refutations=True)
    assert isinstance(v, ProvedUnembeddable) and v.delta == 0.3
    assert v.stats.contraction_steps <= 6_000


def test_c4_refutation_robust_to_smaller_delta():
    v = decide_embeddability(C4, budget=10**6, delta=1e-5)
    assert isinstance(v, ProvedUnembeddable)


def test_delta_floor_enforced():
    with pytest.raises(ValueError):
        build_constraint_system(C4, 1e-9)


def test_k3_embeddable():
    v = decide_embeddability(K3)
    assert isinstance(v, ProvedEmbeddable)
    # the certificate of the constant system, with nothing left free
    cs = build_constraint_system(K3)
    assert v.certificate == prove_root_in_box(cs.initial_box(), cs)
    assert len(v.certificate.refined) == 0 and v.certificate.iterations == 0


def test_k13_certificate_from_seed_box():
    cs = build_constraint_system(K13)
    s2 = 1 / math.sqrt(2)
    pt = [0.0, 0.0, 1.0, 0.0, s2, s2]
    box = around(pt, 1e-3)
    cert = prove_root_in_box(box, cs)
    assert cert is not None
    assert check_distinctness(cs, cert.box)


def test_certificate_survives_further_refinement():
    cs = build_constraint_system(K13)
    s2 = 1 / math.sqrt(2)
    pt = [0.0, 0.0, 1.0, 0.0, s2, s2]
    box = around(pt, 1e-3)
    cert = prove_root_in_box(box, cs)
    # re-running the containment test on the outer box re-certifies
    assert prove_root_in_box(cert.box, cs, cert.slices) is not None


def test_no_certificate_for_empty_region():
    # a box violating an edge equation can never be certified
    cs = build_constraint_system(K13)
    pt = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]
    box = around(pt, 1e-4)
    assert prove_root_in_box(box, cs) is None


@pytest.mark.parametrize(
    "graph",
    [
        Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),  # over
        K13,  # under-determined without slices
    ],
)
def test_over_determined_reports_unknown(graph):
    cs = build_constraint_system(graph)
    assert len(_equations(cs)) != cs.num_vars
    assert prove_root_in_box(cs.initial_box(), cs, ()) is None


def _flipped(cert, c):
    """The certificate's box and slices with coordinate c of every slot negated."""
    lo, hi = list(cert.box.lo), list(cert.box.hi)
    lo[c::3], hi[c::3] = [-b for b in hi[c::3]], [-a for a in lo[c::3]]
    slices = tuple((i, -v if i % 3 == c else v) for i, v in cert.slices)
    return IntervalBox(tuple(lo), tuple(hi)), slices


def test_flip_lemma_on_every_small_certificate():
    # the flip lemma, checked by the Krawczyk test: each n <= 7 certificate
    # stays a certificate when the x, or the y, of every vector is negated
    checked = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            v = decide_embeddability(g, budget=3_000)
            assert isinstance(v, ProvedEmbeddable), g
            if v.certificate is None or not len(v.certificate.box):
                continue
            cs = build_constraint_system(g)
            for c in (0, 1):
                box, slices = _flipped(v.certificate, c)
                assert prove_root_in_box(box, cs, slices) is not None, (g, c)
                checked += 1
    assert checked == 176


def _holds(box, pt) -> bool:
    return all(a <= v <= b for a, b, v in zip(box.lo, box.hi, pt))


def test_planted_point_never_in_refuted_box(monkeypatch, planted_star):
    # the star K_{1,5} with a grid embedding flipped into its initial box:
    # the solver refutes boxes around that point but never one holding it
    g, planted = planted_star
    sweep = embedding.contract_explain
    counts = {"refuted": 0, "held": 0}

    def checked_sweep(box, system):
        out, refutation = sweep(box, system)
        counts["refuted"] += out is None
        if _holds(box, planted):
            counts["held"] += 1
            assert out is not None and _holds(out, planted), "cover conservation violated"
        return out, refutation

    monkeypatch.setattr(embedding, "contract_explain", checked_sweep)
    decide_embeddability(g, budget=3_000, delta=1e-4)
    assert counts["refuted"] > 0 and counts["held"] > 0, counts


def test_budget_exhaustion():
    v = decide_embeddability(C4, budget=1)
    assert isinstance(v, Inconclusive)
    assert v.residual_boxes
    v2 = decide_embeddability(C4, budget=10**6)
    assert isinstance(v2, ProvedUnembeddable)
    for budget in (0, -5):
        with pytest.raises(ValueError):
            decide_embeddability(C4, budget=budget)


@pytest.mark.parametrize(
    "graph,kind", [(P4, ProvedEmbeddable), (C4, ProvedUnembeddable)], ids=["P4", "C4"]
)
def test_every_budget_stops_inside_the_initial_box(graph, kind):
    # a stopped run leaves boxes of the cover it was given, and once one
    # budget reaches the verdict every larger budget reaches it too
    init = build_constraint_system(graph).initial_box()
    stopped = reached = 0
    for budget in range(1, 31):
        v = decide_embeddability(graph, budget=budget)
        if not isinstance(v, Inconclusive):
            assert isinstance(v, kind)
            reached += 1
            continue
        assert not reached, budget
        stopped += 1
        assert v.reason == "budget exhausted" and v.stats.contraction_steps == budget
        for box in v.residual_boxes:
            assert len(box.lo) == len(box.hi) == len(init.lo)
            inside = zip(init.lo, box.lo, box.hi, init.hi)
            assert all(a <= lo <= hi <= b for a, lo, hi, b in inside)
    assert stopped
    assert isinstance(decide_embeddability(graph, budget=10**6), kind)


@pytest.mark.parametrize(
    "graph,budget",
    [(C4, 1), (graph6_decode("I{d@?gI@w"), 30), (graph6_decode("I{O_ogI@W"), 500)],
    ids=["C4", "I{d@?gI@w", "I{O_ogI@W"],
)
def test_larger_budget_replays_smaller_run(monkeypatch, graph, budget):
    # the budget only stops the search, so a run at twice the budget sweeps
    # the same boxes in the same order first: rerunning with a larger
    # budget is how an inconclusive verdict is continued
    sweep = embedding.contract_explain
    seen = []

    def spy(box, cs):
        seen.append([x.hex() for x in box.lo + box.hi])
        return sweep(box, cs)

    monkeypatch.setattr(embedding, "contract_explain", spy)
    short = decide_embeddability(graph, budget=budget)
    assert isinstance(short, Inconclusive) and short.reason == "budget exhausted"
    assert len(seen) == budget
    boxes, seen[:] = seen[:], []
    decide_embeddability(graph, budget=2 * budget)
    assert len(seen) > budget and seen[:budget] == boxes


def test_frontier_is_depth_first():
    # an n = 10 class the budget leaves open; depth first, the queue stays
    # far below the 258 boxes a largest-volume-first order holds here
    budget = 1_000
    g = graph6_decode("I{O_ogI@W")
    v = decide_embeddability(g, budget=budget)
    assert isinstance(v, Inconclusive) and v.reason == "budget exhausted"
    assert v.stats.peak_queue <= 64
    assert v.stats.peak_queue <= budget + 1
    # a bisection leaves its left half on top of the stack
    left, right = decide_embeddability(g, budget=1).residual_boxes
    assert max(b - a for a, b in zip(left.lo, right.lo)) > 0


def test_distinctness_gate_keeps_every_verdict(monkeypatch):
    # the Krawczyk test runs only at polished points whose vertex images are
    # distinct; with that gate off it runs at every polished point, and the
    # verdicts and certificates must not change
    graphs = [C4, P4, PAW] + [g for n in range(1, 7) for g in enumerate_graphs(n)]

    calls = []
    prove = embedding.prove_root_in_box
    monkeypatch.setattr(embedding, "prove_root_in_box", lambda *a: calls.append(1) or prove(*a))

    def run():
        calls.clear()
        out = []
        for g in graphs:
            v = decide_embeddability(g, budget=3_000)
            out.append((verdict_to_json(v), getattr(v, "certificate", None)))
        return out, len(calls)

    gated, gated_tests = run()
    check = embedding.check_distinctness
    monkeypatch.setattr(
        embedding, "check_distinctness", lambda cs, box: box.lo == box.hi or check(cs, box)
    )
    ungated, ungated_tests = run()
    assert ungated == gated
    assert gated_tests < ungated_tests


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
