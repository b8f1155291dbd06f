import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmop.graph import (LAYOUTS, REWARD_KINDS, MetricGraph, Path, Scenario, Vertex,
                        dump_scenario, generate_scenario, load_scenario)
from rmop.reward import (IncrementalEval, RewardError, RewardModel, eval_team,
                         eval_vertex_set, team_curvature, vertex_curvature)

from helpers import oracle_eval, random_tiny_scenario
from oracles import DictIncrementalEval, dict_eval_vertex_set, leave_one_out_curvature

TOL = 1e-9


def path_of(robot, *vertices):
    return Path(robot=robot, vertices=tuple(vertices), cost=0.0)


def sequential_sum(weights):
    """Left to right from 0.0, the evaluators' order (Python 3.12's sum() compensates)."""
    total = 0.0
    for w in weights:
        total += w
    return total


def random_coverage_cells(rng, n=6, n_cells=5):
    weights = rng.integers(0, 11, size=n_cells).astype(float)
    cover = rng.random((n, n_cells)) < 0.5
    return [[(c, float(weights[c])) for c in range(n_cells) if cover[v, c]] for v in range(n)]


def random_coverage_model(rng, n=6, n_cells=5):
    return RewardModel.coverage(random_coverage_cells(rng, n, n_cells))


class TestEvalVertexSet:
    def test_modular_is_additive(self):
        m = RewardModel.modular([0.0, 5.0, 3.0])
        assert eval_vertex_set(m, {1, 2}) == 8.0

    def test_coverage_counts_a_cell_once(self):
        m = RewardModel.coverage([[(0, 1.0)], [(0, 1.0)]])
        assert eval_vertex_set(m, {0, 1}) == 1.0

    def test_masked_vertex_contributes_zero(self):
        m = RewardModel.modular([0.0, 5.0]).with_masked([1])
        assert eval_vertex_set(m, {1}) == 0.0

    def test_empty_set_is_zero(self):
        m = RewardModel.modular([1.0, 2.0])
        assert eval_vertex_set(m, set()) == 0.0

    def test_invalid_id_rejected(self):
        m = RewardModel.modular([1.0])
        for ids, bad in (({3}, 3), ({-1}, -1), ((0, -1), -1)):  # numpy would wrap -1 to 0
            with pytest.raises(RewardError, match=f"vertex id {bad} out of range"):
                eval_vertex_set(m, ids)

    def test_inconsistent_cell_weights_rejected(self):
        with pytest.raises(RewardError, match="inconsistent"):
            RewardModel.coverage([[(0, 1.0)], [(0, 2.0)]])

    def test_cell_repeated_within_a_vertex_rejected(self):
        with pytest.raises(RewardError, match="more than once"):
            RewardModel.coverage([[(0, 5.0), (0, 5.0)]])

    def test_negative_weight_rejected(self):
        with pytest.raises(RewardError):
            RewardModel.modular([-1.0])

    @pytest.mark.parametrize("w", [np.inf, np.nan])
    def test_non_finite_weight_rejected(self, w):
        for build in (lambda: RewardModel.modular([1.0, w]),
                      lambda: RewardModel.coverage([[(0, 1.0)], [(1, w)]])):
            with pytest.raises(RewardError, match=f"vertex 1 gives cell 1 weight {w}"):
                build()

    def test_cell_id_must_be_an_integer(self):
        with pytest.raises(TypeError):
            RewardModel.coverage([[(1.7, 2.0)]])
        m = RewardModel.coverage([[(np.int64(2), np.float32(2.5)), (True, 1)]])
        assert (m.weight.dtype, m.slots.dtype, m.single.dtype) == (np.float64, np.intp, np.float64)
        assert m.weight.tolist() == [1.0, 2.5, 0.0]  # True is cell 1, np.int64(2) cell 2
        assert m.slots.tolist() == [[0, 1]] and m.single.tolist() == [3.5]


class TestFromScenario:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 30), st.sampled_from(REWARD_KINDS), st.sampled_from(LAYOUTS),
           st.integers(0, 2 ** 32 - 1))
    def test_cells_are_those_the_checked_constructors_build(self, n, kind, layout, seed):
        generated = generate_scenario(n, 1, 0, 10.0, layout=layout, seed=seed, reward_kind=kind)
        for s in (generated, load_scenario(dump_scenario(generated))):
            vertices = s.graph.vertices
            checked = (RewardModel.modular([v.reward for v in vertices]) if kind == "modular"
                       else RewardModel.coverage([v.coverage for v in vertices]))
            model = RewardModel.from_scenario(s)
            for name in ("weight", "slots", "single"):
                got, want = getattr(model, name), getattr(checked, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()  # every bit: -0.0 is not 0.0


class TestEvalTeam:
    def test_shared_vertices_counted_once(self):
        m = RewardModel.modular([0.0, 5.0, 3.0])
        paths = [path_of(0, 0, 1), path_of(1, 0, 1, 2)]
        assert eval_team(m, paths) == 8.0

    def test_single_path_equals_vertex_set(self):
        m = RewardModel.modular([0.0, 5.0, 3.0])
        p = path_of(0, 0, 1)
        assert eval_team(m, [p]) == eval_vertex_set(m, {0, 1})

    def test_empty_team_is_zero(self):
        m = RewardModel.modular([1.0])
        assert eval_team(m, []) == 0.0


class TestCurvature:
    def test_modular_model_is_exactly_zero(self):
        m = RewardModel.modular([3.0, 1.0, 2.5, 0.0])
        est = vertex_curvature(m)
        assert est.value == 0.0
        assert est.skipped_zero_singletons == 1

    def test_fully_redundant_pair_is_one(self):
        m = RewardModel.coverage([[(0, 1.0)], [(0, 1.0)]])
        assert vertex_curvature(m).value == 1.0

    def test_matches_direct_definition_on_random_coverage(self):
        # Independent evaluation of the leave-one-out definition.
        rng = np.random.default_rng(42)
        for _ in range(20):
            cells = random_coverage_cells(rng)
            m = RewardModel.coverage(cells)
            n = len(cells)
            full = oracle_eval(cells, range(n))
            ratios = []
            for v in range(n):
                single = oracle_eval(cells, [v])
                if single > 0:
                    rest = [u for u in range(n) if u != v]
                    ratios.append((full - oracle_eval(cells, rest)) / single)
            expected = 1.0 - min(ratios) if ratios else 0.0
            got = vertex_curvature(m).value
            assert got == pytest.approx(min(1.0, max(0.0, expected)), abs=1e-12)

    def test_all_zero_singletons_reported(self):
        m = RewardModel.modular([0.0, 0.0])
        est = vertex_curvature(m)
        assert est.value == 0.0
        assert est.skipped_zero_singletons == 2

    def test_empty_ground_set_rejected(self):
        with pytest.raises(RewardError, match="non-empty ground set"):
            team_curvature(RewardModel.modular([1.0]), [])
        with pytest.raises(RewardError, match="non-empty ground set"):
            vertex_curvature(RewardModel.modular([]))

    def test_team_curvature_of_duplicate_paths_is_one(self):
        m = RewardModel.modular([1.0, 2.0])
        paths = [path_of(0, 0, 1), path_of(1, 0, 1)]
        assert team_curvature(m, paths).value == 1.0

    def test_value_always_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_coverage_model(rng, n=int(rng.integers(2, 7)))
            est = vertex_curvature(m)
            assert 0.0 <= est.value <= 1.0


def random_subset(rng, n):
    return {v for v in range(n) if rng.random() < 0.5}


class TestSetFunctionLaws:
    """Submodularity and monotonicity spot checks; the full 1000-pair sweeps
    live in the acceptance suite."""

    @pytest.mark.parametrize("kind", ["modular", "coverage"])
    def test_submodular_and_monotone(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(10):
            scenario = random_tiny_scenario(int(rng.integers(0, 10_000)), kind=kind)
            m = RewardModel.from_scenario(scenario)
            n = m.n
            for _ in range(100):
                a = random_subset(rng, n)
                b = random_subset(rng, n)
                fa, fb = eval_vertex_set(m, a), eval_vertex_set(m, b)
                fu = eval_vertex_set(m, a | b)
                fi = eval_vertex_set(m, a & b)
                assert fa + fb >= fu + fi - TOL
                assert eval_vertex_set(m, a) <= eval_vertex_set(m, a | b) + TOL

    def test_team_reward_submodular_even_with_modular_paths(self):
        rng = np.random.default_rng(5)
        m = RewardModel.modular(list(rng.integers(0, 9, size=8).astype(float)))
        pool = [path_of(i, *sorted(random_subset(rng, 8) | {0})) for i in range(12)]
        for _ in range(300):
            a = {pool[i] for i in random_subset(rng, len(pool))}
            b = {pool[i] for i in random_subset(rng, len(pool))}
            fa, fb = eval_team(m, a), eval_team(m, b)
            fu = eval_team(m, a | b)
            fi = eval_team(m, a & b)
            assert fa + fb >= fu + fi - TOL

    @pytest.mark.parametrize("kind", ["modular", "coverage"])
    def test_whole_set_dominates_discounted_singleton_sum(self, kind):
        # h(A) >= (1 - k_h) * sum of singletons, for any subset A.
        rng = np.random.default_rng(11)
        for _ in range(5):
            scenario = random_tiny_scenario(int(rng.integers(0, 10_000)), kind=kind)
            m = RewardModel.from_scenario(scenario)
            k = vertex_curvature(m).value
            for _ in range(200):
                a = random_subset(rng, m.n)
                singles = sum(eval_vertex_set(m, {v}) for v in a)
                assert eval_vertex_set(m, a) >= (1.0 - k) * singles - TOL


class TestIncrementalEval:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 5)), max_size=30),
           st.booleans())
    def test_tracks_eval_vertex_set(self, ops, use_coverage):
        if use_coverage:
            m = random_coverage_model(np.random.default_rng(1), n=6)
        else:
            m = RewardModel.modular([2.0, 0.0, 5.0, 1.0, 3.0, 4.0]).with_masked([3])
        ev = IncrementalEval(m)
        members = set()
        for add, v in ops:
            if add and v not in members:
                ev.add(v)
                members.add(v)
            elif not add and v in members:
                ev.remove(v)
                members.discard(v)
            assert ev.value == eval_vertex_set(m, members)

    def test_gain_matches_marginal(self):
        m = random_coverage_model(np.random.default_rng(2), n=6)
        ev = IncrementalEval(m)
        base = set()
        for v in [0, 3, 5]:
            ev.add(v)
            base.add(v)
        gains = ev.gains(list(range(6)))
        for v in range(6):
            expected = eval_vertex_set(m, base | {v}) - eval_vertex_set(m, base)
            assert gains[v] == pytest.approx(expected, abs=1e-12)

    def test_evaluators_on_one_model_share_its_tables(self):
        # The arrays are the model, so every solve on one model reads the same ones;
        # a masked model shares its parent's weight vector and copies only the slots.
        m = RewardModel.coverage([[(7, 1.0)], [(7, 1.0), (-2, 2.0)], [(40, 3.0)]])
        ev = IncrementalEval(m)
        assert ev._weight is m.weight and ev._slots is m.slots
        assert m.weight.tolist() == [2.0, 1.0, 3.0, 0.0]  # cells -2, 7, 40, then the sentinel
        assert m.slots.tolist() == [[1, 3], [0, 1], [2, 3]]
        assert m.single.tolist() == [1.0, 3.0, 3.0]
        masked = m.with_masked([0])
        assert masked.weight is m.weight
        assert masked.slots.tolist() == [[3, 3], [0, 1], [2, 3]]
        assert masked.single.tolist() == [0.0, 3.0, 3.0]
        assert m.slots.tolist() == [[1, 3], [0, 1], [2, 3]]  # the parent is untouched
        for model in (m, masked):
            for array in (model.weight, model.slots, model.single):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                model.weight = np.zeros(4)


@st.composite
def masked_instances(draw):
    """(model, masked ids, member ids) with integral weights, so sums are exact.

    Coverage cells come from a pool of four, so vertices often share a cell
    and masking one sharer often leaves another one private.
    """
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6))
        model = RewardModel.modular([float(w) for w in weights])
    else:
        cover = draw(st.lists(st.sets(st.integers(0, 3), max_size=3), min_size=1, max_size=6))
        model = RewardModel.coverage([[(c, float(c + 1)) for c in sorted(cells)]
                                      for cells in cover])
    ids = st.integers(0, model.n - 1)
    return model, draw(st.sets(ids)), draw(st.lists(ids, unique=True))


class TestModularIsPrivateCellCoverage:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8), st.data())
    def test_value_is_the_plain_weight_sum(self, weights, data):
        ids = data.draw(st.lists(st.integers(0, len(weights) - 1), max_size=12))
        masked = data.draw(st.sets(st.integers(0, len(weights) - 1)))
        model = RewardModel.modular(weights)
        # Summed left to right by ascending cell id, which for modular weights is the vertex id.
        assert eval_vertex_set(model, ids) == sequential_sum(weights[v] for v in sorted(set(ids)))
        assert eval_vertex_set(model.with_masked(masked), ids) == sequential_sum(
            weights[v] for v in sorted(set(ids)) if v not in masked)

    @settings(max_examples=200, deadline=None)
    @given(masked_instances())
    # Vertex 1 shares cell 0 with vertex 0 until 0 is masked, then it is private.
    @example((RewardModel.coverage([[(0, 1.0)], [(0, 1.0), (1, 2.0)], [(2, 3.0)]]), {0}, [0]))
    def test_gain_is_the_marginal_before_and_after_masking(self, instance):
        model, masked, members = instance
        for m in (model, model.with_masked(masked)):
            ev = IncrementalEval(m)
            for v in members:
                ev.add(v)
            base = eval_vertex_set(m, members)
            assert ev.value == base
            gains = ev.gains(list(range(m.n)))
            for v in range(m.n):
                assert gains[v] == eval_vertex_set(m, members + [v]) - base

    def test_with_masked_keeps_the_other_cells(self):
        model = RewardModel.coverage([[(0, 1.0)], [(0, 1.0), (1, 2.0)]])
        masked = model.with_masked([1])
        assert masked.weight is model.weight and model.weight.tolist() == [1.0, 2.0, 0.0]
        assert masked.slots.tolist() == [[0, 2], [2, 2]]  # vertex 0 keeps cell 0
        assert masked.single.tolist() == [1.0, 0.0] and eval_vertex_set(masked, [0, 1]) == 1.0
        modular = RewardModel.modular([4.0, 0.0])
        assert modular.weight.tolist() == [4.0, 0.0, 0.0] and modular.slots.tolist() == [[0], [1]]


@st.composite
def listed_cells(draw, integer):
    """Raw cells whose vertices list shared cells in random order, integer or fractional weights.

    Cell ids are sparse and may be negative, so the array form must renumber them.
    """
    ids = draw(st.lists(st.integers(-5, 2 ** 40), min_size=1, max_size=6, unique=True))
    weights = st.integers(0, 1000).map(float) if integer else st.floats(0.0, 1e6)
    weight = {c: draw(weights) for c in ids}
    n = draw(st.integers(1, 6))
    cells = [draw(st.permutations(ids))[:draw(st.integers(0, len(ids)))] for _ in range(n)]
    return [[(c, weight[c]) for c in entry] for entry in cells]


class TestArrayFormMatchesTheDictOracles:
    """The array evaluators against the dict evaluators they replaced.

    Any order of integer weights below 2^53 sums exactly, so those must agree to the
    bit. Fractional sums may differ by the rounding of each order: a few ulps of the
    total per term added.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.data())
    def test_values_gains_and_curvatures(self, integer, data):
        cells = data.draw(listed_cells(integer))
        model = RewardModel.coverage(cells)
        ids = data.draw(st.lists(st.integers(0, model.n - 1), max_size=8))
        toggles = data.draw(st.lists(st.integers(0, model.n - 1), max_size=10))
        terms = sum(len(entry) for entry in cells) + len(toggles)
        ulp = math.ulp(dict_eval_vertex_set(cells, range(model.n)))

        def agree(new, old):
            assert new == old if integer else abs(new - old) <= 2 * terms * ulp, (new, old)

        agree(eval_vertex_set(model, ids), dict_eval_vertex_set(cells, ids))
        ev, oracle = IncrementalEval(model), DictIncrementalEval(cells)
        for v in toggles:
            if v in oracle.members:
                ev.remove(v)
                oracle.remove(v)
            else:
                ev.add(v)
                oracle.add(v)
            agree(ev.value, oracle.value)
            for u, gain in enumerate(ev.gains(list(range(model.n)))):
                agree(gain, oracle.gain(u))
        if integer:
            assert vertex_curvature(model).value == leave_one_out_curvature(
                range(model.n), lambda xs: dict_eval_vertex_set(cells, xs))
            paths = [path_of(0, *ids), path_of(1, *toggles[:3]), path_of(2, *toggles[3:])]
            assert team_curvature(model, paths).value == leave_one_out_curvature(
                range(3), lambda xs: dict_eval_vertex_set(
                    cells, [v for i in xs for v in paths[i].vertices]))


def test_fractional_weights_are_pinned():
    # Cell-id order moves these from the dict evaluators' 3.4999999999999996,
    # 0.49999999999999967 and 0.22222222222222232.
    coverage = [((4, 0.3), (1, 0.6), (10, 0.05)), ((3, 0.2), (2, 0.7), (11, 0.6)),
                ((0, 0.05), (12, 0.7)), ((5, 0.1), (4, 0.3), (13, 0.2))]
    graph = MetricGraph.from_positions([Vertex(v, float(v), 0.0, 0.0, cells)
                                        for v, cells in enumerate(coverage)])
    model = RewardModel.from_scenario(Scenario(graph, (0, 3), 3.0, 1, "coverage"))
    assert eval_vertex_set(model, range(4)) == 3.5
    assert vertex_curvature(model).value == 0.5
    paths = [path_of(0, 0, 1), path_of(1, 3, 2)]
    assert team_curvature(model, paths).value == 0.2222222222222221
