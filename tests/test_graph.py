import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import rmop.graph

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmop.graph import (LAYOUTS, REWARD_KINDS, MetricGraph, MetricReport, RewardError,
                        Scenario, ScenarioError, Vertex, _field_value, dump_scenario,
                        generate_scenario, load_scenario, path_cost, resample_starts,
                        scenario_from_document, scenario_to_document, verify_metric)

from helpers import line_instance
from oracles import (GaussianBump, asymmetry_single_shot, euclidean_matrix_single_shot,
                     generate_scenario_on_numpy_scalars, metric_graph_one_walk,
                     numpy_scalar_field_value)


def doc_4v(**overrides):
    doc = {
        "vertices": [
            {"id": 0, "x": 0.0, "y": 0.0, "reward": 0.0},
            {"id": 1, "x": 1.0, "y": 0.0, "reward": 5.0},
            {"id": 2, "x": 2.0, "y": 0.0, "reward": 3.0},
            {"id": 3, "x": 0.0, "y": 2.0, "reward": 4.0},
        ],
        "starts": [0, 0],
        "budget": 2.0,
        "alpha": 1,
        "reward_kind": "modular",
    }
    doc.update(overrides)
    return doc


class TestLoadScenario:
    def test_positions_only_builds_euclidean_matrix(self):
        s = load_scenario(json.dumps(doc_4v()))
        assert s.graph.n == 4
        assert s.graph.distance[0, 1] == pytest.approx(1.0)
        assert s.graph.distance[0, 2] == pytest.approx(2.0)
        assert s.graph.distance[0, 3] == pytest.approx(2.0)
        assert s.graph.distance[1, 3] == pytest.approx(math.sqrt(5.0))

    @pytest.mark.parametrize("entry, message", [
        (10 ** 400, "distance_matrix must be finite, violated at (1,2)"),
        (-10 ** 400, "distance_matrix must be finite, violated at (1,2)"),
        (True, "distance_matrix[1][2] must be a number, got True"),
        (None, "distance_matrix must be 4x4, distance_matrix[1] has 3 entries"),
    ], ids=["huge-integer", "huge-negative-integer", "bool", "short-row"])
    def test_an_explicit_matrix_entry_is_refused_by_name(self, entry, message):
        d = [[float(abs(i - j)) for j in range(4)] for i in range(4)]
        if entry is None:
            del d[1][3]
        else:
            d[1][2] = entry
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(json.dumps(doc_4v(distance_matrix=d)))

    @pytest.mark.parametrize("field, message", [
        ("budget", "non-finite budget: budget is -inf"),
        ("x", "non-finite x: vertices[0].x is -inf"),
    ], ids=["budget", "x"])
    def test_a_huge_negative_integer_reads_as_minus_inf(self, field, message):
        doc = doc_4v()
        (doc if field == "budget" else doc["vertices"][0])[field] = -10 ** 400
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            load_scenario(json.dumps(doc))

    def test_alpha_must_be_below_robot_count(self):
        with pytest.raises(ScenarioError, match="alpha must be < 2"):
            load_scenario(json.dumps(doc_4v(alpha=2)))

    def test_asymmetric_matrix_names_offending_pair(self):
        mat = [[0.0, 1.0], [2.0, 0.0]]
        doc = {
            "vertices": [{"id": 0, "x": 0.0, "y": 0.0, "reward": 1.0},
                         {"id": 1, "x": 1.0, "y": 0.0, "reward": 1.0}],
            "distance_matrix": mat, "starts": [0], "budget": 1.0, "alpha": 0,
            "reward_kind": "modular",
        }
        with pytest.raises(ScenarioError, match=r"symmetric.*\(0,1\)"):
            load_scenario(json.dumps(doc))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys"):
            load_scenario(json.dumps(doc_4v(extra=1)))

    def test_unknown_vertex_key_rejected(self):
        doc = doc_4v()
        doc["vertices"][0]["colour"] = "red"
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario(json.dumps(doc))

    def test_vertex_ids_must_be_dense(self):
        doc = doc_4v()
        doc["vertices"][2]["id"] = 7
        with pytest.raises(ScenarioError, match="dense"):
            load_scenario(json.dumps(doc))

    def test_negative_reward_rejected(self):
        doc = doc_4v()
        doc["vertices"][1]["reward"] = -1.0
        with pytest.raises(ScenarioError, match="negative reward"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("coverage, message", [
        ({1: [[4, 2.0], [4, 2.0]]}, "vertex 1 lists cell 4 more than once"),
        ({1: [[4, -2.0]]}, "vertex 1 gives cell 4 weight -2.0; weights must be finite"),
        ({1: [[4, 2.0]], 3: [[5, 1.0], [4, 3.0]]},
         "vertex 3 gives cell 4 weight 3.0, inconsistent with 2.0 from vertex 1"),
    ], ids=["repeated", "negative", "two weights"])
    def test_bad_coverage_names_the_vertex_and_the_cell(self, coverage, message):
        doc = doc_4v()
        for v, pairs in coverage.items():
            doc["vertices"][v]["coverage"] = pairs
        with pytest.raises(ScenarioError, match=re.escape(message)):
            load_scenario(json.dumps(doc))

    def test_invalid_start_rejected(self):
        with pytest.raises(ScenarioError, match="start vertex 9"):
            load_scenario(json.dumps(doc_4v(starts=[9, 0])))

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(b"{nope")

    def test_nan_coordinates_rejected(self):
        # json.loads happily parses NaN, and NaN slips through every
        # tolerance comparison, so the loader must refuse it outright.
        doc = doc_4v()
        doc["vertices"][1]["x"] = float("nan")
        with pytest.raises(ScenarioError, match="non-finite x"):
            load_scenario(json.dumps(doc))

    def test_infinite_budget_rejected(self):
        with pytest.raises(ScenarioError, match="finite"):
            load_scenario(json.dumps(doc_4v(budget=float("inf"))))

    def test_nan_distance_matrix_rejected(self):
        doc = {
            "vertices": [{"id": 0, "x": 0.0, "y": 0.0, "reward": 1.0},
                         {"id": 1, "x": 1.0, "y": 0.0, "reward": 1.0}],
            "distance_matrix": [[0.0, float("nan")], [float("nan"), 0.0]],
            "starts": [0], "budget": 1.0, "alpha": 0, "reward_kind": "modular",
        }
        with pytest.raises(ScenarioError, match=r"finite.*\(0,1\)"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("matrix", [False, True])
    def test_metric_check_runs_once_per_load(self, monkeypatch, matrix):
        doc = doc_4v()
        if matrix:
            doc["distance_matrix"] = generate_scenario(4, 1, 0, 1.0).graph.distance.tolist()
        calls = []
        real = rmop.graph.verify_metric
        monkeypatch.setattr(rmop.graph, "verify_metric", lambda g: calls.append(g) or real(g))
        load_scenario(json.dumps(doc))
        assert len(calls) == 1

    def test_nonmetric_error_carries_the_full_report(self):
        doc = doc_4v(distance_matrix=[[0.0, 1.0, 9.0, 1.0], [1.0, 0.0, 1.0, 1.0],
                                      [9.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
        with pytest.raises(ScenarioError, match=r"triangle.*\(0,1,2\)") as exc:
            load_scenario(json.dumps(doc))
        assert exc.value.report.triangle == ((0, 1, 2), (0, 3, 2), (2, 1, 0), (2, 3, 0))

    def test_round_trip_document(self):
        s = load_scenario(json.dumps(doc_4v()))
        again = load_scenario(dump_scenario(s))
        assert scenario_to_document(again) == scenario_to_document(s)

    def test_explicit_metric_matrix_survives_round_trip(self):
        mat = [[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]]
        doc = {
            "vertices": [{"id": i, "x": 0.0, "y": 0.0, "reward": 1.0} for i in range(3)],
            "distance_matrix": mat, "starts": [0], "budget": 3.0, "alpha": 0,
            "reward_kind": "modular",
        }
        s = load_scenario(json.dumps(doc))
        assert not s.graph.euclidean
        again = load_scenario(dump_scenario(s))
        assert np.allclose(again.graph.distance, mat)

    def test_graph_built_from_a_matrix_dumps_it(self):
        mat = np.array([[0.0, 0.1, 0.3], [0.1, 0.0, 0.2], [0.3, 0.2, 0.0]])
        verts = tuple(Vertex(i, 0.0, 0.0, 1.0) for i in range(3))
        s = Scenario(MetricGraph(verts, mat), starts=(0,), budget=1.0, alpha=0)
        assert "distance_matrix" in scenario_to_document(s)
        assert load_scenario(dump_scenario(s)).graph.distance.tobytes() == mat.tobytes()


class TestMetricGraph:
    def test_graph_copies_the_callers_matrix(self):
        base = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        verts = tuple(Vertex(i, 0.0, 0.0) for i in range(3))
        graph = MetricGraph(verts, base[:, :])
        MetricGraph(verts, base)
        assert base.flags.writeable
        assert verify_metric(graph).ok
        base[0, 2] = 50.0
        assert graph.distance[0, 2] == 2.0
        assert verify_metric(graph).ok

    def test_a_callers_matrix_is_kept_bit_for_bit(self):
        verts = uniform_vertices(5, seed=10)
        d = MetricGraph(verts).distance.copy()
        np.fill_diagonal(d, -0.0)  # == the Euclidean matrix, but not bit for bit
        graph = MetricGraph(verts, d)
        assert graph.euclidean
        assert graph.distance.tobytes() == d.tobytes()
        assert d.flags.writeable

    def test_a_position_built_matrix_is_the_only_n_by_n_float_array(self):
        n, block = 300, 8 * rmop.graph._BLOCK
        verts = uniform_vertices(n, seed=8)
        # The kept matrix, the n x n booleans of its finiteness test, one row block of dy
        # and under 256 bytes per vertex of position lists. Whole-array arithmetic on dx and
        # dy would add two n x n float buffers.
        bound = 8 * n * n + n * n + 2 * block + 256 * n
        assert traced_peak(lambda: MetricGraph(verts)) <= bound

    def test_an_explicit_document_is_read_and_checked_in_row_blocks(self):
        n, block = 300, 8 * rmop.graph._BLOCK
        verts = uniform_vertices(n, seed=9)
        d = MetricGraph(verts).distance.copy()
        d[0, 1] = d[1, 0] = np.nextafter(d[0, 1], np.inf)  # not Euclidean: every scan runs
        doc = {"vertices": [{"id": v.id, "x": v.x, "y": v.y, "reward": v.reward} for v in verts],
               "distance_matrix": d.tolist(), "starts": [0], "budget": 1.0, "alpha": 0,
               "reward_kind": "modular"}
        # Two n x n float arrays at a time: the matrix read from the document and the graph's
        # copy of it, then the kept matrix and the triangle screen's buffer. Add two sets of
        # n x n booleans, four row blocks and under 1 KB per vertex of Vertex objects. Rows
        # collected as lists, d - d.T, or a whole Euclidean matrix to compare against would
        # each add an n x n array more.
        bound = 2 * 8 * n * n + 2 * n * n + 4 * block + 1024 * n
        assert traced_peak(lambda: scenario_from_document(doc)) <= bound

    @pytest.mark.parametrize("ids", [(5, 7), (1, 0), (0, 0), (0, 2)], ids=str)
    def test_vertex_ids_must_be_dense(self, ids):
        verts = tuple(Vertex(i, float(k), 0.0) for k, i in enumerate(ids))
        with pytest.raises(ScenarioError, match="dense 0..1"):
            MetricGraph(verts, np.zeros((2, 2)))

    def test_float_vertex_id_is_refused(self):
        verts = (Vertex(0, 0.0, 0.0), Vertex(1.0, 1.0, 0.0))
        with pytest.raises(TypeError):
            MetricGraph(verts)

    @pytest.mark.parametrize("matrix", [np.zeros((3, 3)), np.zeros(4), np.zeros((2, 3)),
                                        np.zeros((2, 2, 1)), 0.0],
                             ids=["3x3", "1-D", "2x3", "2x2x1", "scalar"])
    def test_matrix_must_be_n_by_n(self, matrix):
        verts = (Vertex(0, 0.0, 0.0), Vertex(1, 0.0, 0.0))
        with pytest.raises(ScenarioError, match="must be 2x2, got shape"):
            MetricGraph(verts, matrix)

    @pytest.mark.parametrize("fault", ["nan", "inf", "-inf"])
    def test_non_finite_entry_is_refused(self, fault):
        verts = tuple(Vertex(i, 0.0, 0.0) for i in range(3))
        mat = np.ones((3, 3)) - np.eye(3)
        mat[0, 1] = float(fault)
        with pytest.raises(ScenarioError, match=r"finite.*\(0,1\)"):
            MetricGraph(verts, mat)
        mat[1, 0] = mat[0, 1]
        with pytest.raises(ScenarioError, match=r"finite.*\(0,1\)"):
            MetricGraph(verts, mat)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinates_are_refused(self, x):
        # Refused before the matrix is built, so no NaN distance is computed, even on one vertex.
        for n in (1, 3):
            verts = [Vertex(i, 1.0 * i, 0.0) for i in range(n)]
            verts[-1] = Vertex(n - 1, x, 0.0)
            with pytest.raises(ScenarioError, match="non-finite position"):
                MetricGraph(verts)

    @pytest.mark.parametrize("xs, pair", [((1e308, -1e308), "0 and 1"),
                                          ((0.0, 1.0, 1e200), "0 and 2")],
                             ids=["subtraction", "square"])
    def test_positions_too_far_apart_are_refused(self, xs, pair):
        # Numpy's overflow stays silent: the inf distance reaches the finiteness check.
        verts = [Vertex(i, x, 0.0) for i, x in enumerate(xs)]
        with pytest.raises(ScenarioError, match=f"^vertices {pair} are too far apart"):
            MetricGraph(verts)
        assert not MetricGraph(verts, np.zeros((len(xs), len(xs)))).euclidean

    @pytest.mark.parametrize("fields, message", [
        ([(math.nan, 0.0)], "vertex 0 has non-finite position (nan, 0.0)"),
        ([(0.0, -math.inf)], "vertex 0 has non-finite position (0.0, -inf)"),
        ([(0.0, 0.0, -3.0)], "vertex 0 has negative reward -3.0"),
        ([(0.0, 0.0, math.nan)], "vertex 0 has non-finite reward nan"),
        ([(0.0, 0.0, math.inf)], "vertex 0 has non-finite reward inf"),
        ([(0.0, 0.0, 0.0, ((1, 2.0), (1, 2.0)))], "vertex 0 lists cell 1 more than once"),
        ([(0.0, 0.0, 0.0, ((1, -2.0),))], "vertex 0 gives cell 1 weight -2.0; weights must"),
        ([(0.0, 0.0, 0.0, ((1, math.nan),))], "vertex 0 gives cell 1 weight nan; weights must"),
        ([(0.0, 0.0, 0.0, ((1, math.inf),))], "vertex 0 gives cell 1 weight inf; weights must"),
        ([(0.0, 0.0, 0.0, ((1, 2.0),)), (1.0, 0.0, 0.0, ((1, 3.0),))],
         "vertex 1 gives cell 1 weight 3.0, inconsistent with 2.0 from vertex 0"),
        ([(0.0, 0.0, 1.5e308), (1.0, 0.0, 1.5e308)],
         "vertex rewards add up to inf; the total reward must be finite"),
        ([(0.0, 0.0, 0.0, ((1, 1.5e308),)), (1.0, 0.0, 0.0, ((2, 1.5e308),))],
         "cell weights add up to inf; the total reward must be finite"),
    ], ids=["nan x", "-inf y", "negative reward", "nan reward", "inf reward", "repeated cell",
            "negative weight", "nan weight", "inf weight", "two weights", "reward total",
            "weight total"])
    def test_bad_vertex_data_is_refused(self, fields, message):
        # An explicit finite matrix: a bad coordinate cannot surface as a bad distance.
        verts = [Vertex(i, *f) for i, f in enumerate(fields)]
        with pytest.raises(ScenarioError, match=re.escape(message)):
            MetricGraph(verts, np.zeros((len(verts), len(verts))))

    @pytest.mark.parametrize("verts, error, message", [
        ([Vertex(0, 0.0, 0.0, 0.0, ((1, -2.0),)), Vertex(1, 1.0, 0.0), Vertex(2, 2.0, 0.0, -3.0)],
         RewardError, "vertex 2 has negative reward -3.0"),
        ([Vertex(0, 0.0, 0.0, 0.0, ((1.5, 2.0),)), Vertex(1, math.inf, 0.0)],
         TypeError, "cannot be interpreted"),
        ([Vertex(0, 0.0, 0.0), Vertex(1, 1.0, 0.0, 0.0, ((2, 1.0), (2, 1.0))),
          Vertex(2, 2.0, 0.0), Vertex(5, 3.0, 0.0)],
         ScenarioError, "vertex ids must be dense 0..3; found 5 at position 3"),
    ], ids=["reward before weight", "cell type before position", "id before repeated cell"])
    def test_each_vertex_is_checked_before_any_cell(self, verts, error, message):
        # Types, id, position and reward, vertex by vertex; then every cell. The first fault
        # in that order is the one error.
        with pytest.raises(error, match=re.escape(message)):
            MetricGraph(verts, np.zeros((len(verts), len(verts))))

    def test_a_shared_cell_counts_once_in_the_weight_total(self):
        verts = [Vertex(i, 0.0, 0.0, 0.0, ((1, 1.5e308),)) for i in range(2)]
        assert MetricGraph(verts, np.zeros((2, 2))).n == 2

    def test_euclidean_is_derived_not_stated(self):
        verts = tuple(Vertex(i, 0.0, 0.0) for i in range(3))
        mat = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(TypeError):
            MetricGraph(verts, mat, euclidean=True)
        graph = MetricGraph(verts, mat)
        assert not graph.euclidean
        assert MetricGraph(verts).euclidean
        assert MetricGraph(verts, np.zeros((3, 3))).euclidean
        s = Scenario(graph, starts=(0,), budget=1.0, alpha=0)
        assert load_scenario(dump_scenario(s)).graph.distance.tobytes() == mat.tobytes()


def scenario_1v(**overrides):
    """One vertex, two robots: the smallest graph every bad field can be tried on."""
    fields = dict(graph=MetricGraph([Vertex(0, 0.0, 0.0, 1.0)]), starts=(0, 0),
                  budget=1.0, alpha=1, reward_kind="modular")
    return Scenario(**{**fields, **overrides})


# (field, bad value, exception, message): each refused the same way however it is set.
BAD_FIELDS = [
    ("reward_kind", "bogus", ScenarioError, r"reward_kind must be one of \('modular', "),
    ("starts", (), ScenarioError, "at least one robot start"),
    ("starts", (0, 3), ScenarioError, "start vertex 3 is not a valid vertex id"),
    ("starts", (-1, 0), ScenarioError, "start vertex -1 is not a valid vertex id"),
    ("starts", (0, 1.7), TypeError, "integer"),
    ("starts", (0.0, 0), TypeError, "integer"),
    ("budget", -1.0, ScenarioError, "budget must be finite and non-negative, got -1.0"),
    ("budget", float("nan"), ScenarioError, "budget must be finite and non-negative, got nan"),
    ("budget", float("inf"), ScenarioError, "budget must be finite and non-negative, got inf"),
    ("alpha", 2, ScenarioError, r"alpha must be < 2 \(number of robots\) and >= 0, got 2$"),
    ("alpha", -1, ScenarioError, r"alpha must be < 2 \(number of robots\) and >= 0, got -1$"),
    ("alpha", 1.5, TypeError, "integer"),
    ("alpha", 1.0, TypeError, "integer"),
]


class TestScenario:
    @pytest.mark.parametrize("field, value, error, message", BAD_FIELDS,
                             ids=[f"{f}={v!r}" for f, v, _, _ in BAD_FIELDS])
    def test_bad_field_is_refused_however_it_is_set(self, field, value, error, message):
        good = scenario_1v()
        setters = [lambda: scenario_1v(**{field: value}),
                   lambda: dataclasses.replace(good, **{field: value})]
        if field == "starts":
            setters.append(lambda: good.with_starts(list(value)))
        if field == "alpha":
            setters.append(lambda: good.with_alpha(value))
        for setter in setters:
            with pytest.raises(error, match=message):
                setter()

    def test_integer_fields_take_numpy_integers_as_ints(self):
        s = scenario_1v(starts=np.array([0, 0]), alpha=np.int64(1), budget=np.float32(2.5))
        assert s.starts == (0, 0) and s.alpha == 1 and s.budget == 2.5
        assert {type(v) for v in (*s.starts, s.alpha, s.budget)} == {int, float}
        again = s.with_starts(np.zeros(3, dtype=np.int32)).with_alpha(np.int16(2))
        assert again.starts == (0, 0, 0) and type(again.alpha) is int


def spy_triangle_rows(monkeypatch):
    """Record, per verify_metric call, the rows sent to the exact triangle check."""
    seen = []
    real = rmop.graph._triangle_rows
    monkeypatch.setattr(rmop.graph, "_triangle_rows",
                        lambda d, tol: seen.append(list(real(d, tol))) or seen[-1])
    return seen


def spy_triangle_violations(monkeypatch):
    """Record, per verify_metric call, the rows the exact triangle check scans."""
    checked = []
    real = rmop.graph._triangle_violations
    monkeypatch.setattr(rmop.graph, "_triangle_violations",
                        lambda d, rows, tol: checked.append(list(rows)) or real(d, checked[-1], tol))
    return checked


def spy_euclidean_matrix(monkeypatch):
    """Record len(vertices) of every build of the Euclidean matrix."""
    real, calls = rmop.graph._euclidean_matrix, []
    monkeypatch.setattr(rmop.graph, "_euclidean_matrix",
                        lambda vs: calls.append(len(vs)) or real(vs))
    return calls


def uniform_vertices(n, seed):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 90.0, (n, 2)).tolist()
    return [Vertex(i, x, y, 1.0) for i, (x, y) in enumerate(pos)]


def traced_peak(call):
    """Peak bytes that tracemalloc traces while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def map_positions(layout, n, scale, rng):
    """Grid positions (exactly collinear triples), or uniform ones with x- and y-span `scale`."""
    if layout == "grid":
        return rmop.graph._grid_positions(n, scale)
    pos = rng.uniform(0.0, scale, size=(n, 2))
    pos[:2] = [[0.0, 0.0], [scale, scale]]
    return pos


def full_broadcast_triangle(d):
    via = d[:, :, None] + d[None, :, :]
    bad = np.argwhere(d[:, None, :] > via + rmop.graph.METRIC_TOL)
    return tuple((int(i), int(j), int(k)) for i, j, k in bad if i != j and j != k and i != k)


class TestVerifyMetric:
    def test_euclidean_graph_is_clean(self):
        graph, _ = line_instance()
        assert verify_metric(graph).ok

    def test_triangle_violation_reported(self):
        verts = tuple(Vertex(i, 0.0, 0.0, 0.0) for i in range(3))
        mat = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
        report = verify_metric(MetricGraph(verts, mat))
        assert not report.ok
        assert (0, 1, 2) in report.triangle

    def test_nonzero_diagonal_reported(self):
        verts = tuple(Vertex(i, 0.0, 0.0, 0.0) for i in range(2))
        mat = np.array([[0.0, 1.0], [1.0, 0.5]])
        report = verify_metric(MetricGraph(verts, mat))
        assert report.diagonal == (1,)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
    def test_row_blocked_triangle_check_matches_full_broadcast(self, n, seed):
        # Random symmetric distances break the triangle inequality often; on top
        # of that, plant nonzero diagonals, negative and asymmetric entries.
        rng = np.random.default_rng(seed)
        upper = np.triu(np.round(rng.uniform(0.0, 10.0, size=(n, n)), 1), 1)
        d = upper + upper.T
        for _ in range(rng.integers(0, 3)):
            i, j, k = rng.integers(0, n, size=3)
            d[i, i] = rng.uniform(0.0, 1.0)
            d[i, j] = d[j, i] = -d[i, j]
            d[j, k] += 5.0
        verts = tuple(Vertex(i, 0.0, 0.0, 0.0) for i in range(n))
        report = verify_metric(MetricGraph(verts, d))
        # The full-broadcast formula (O(|V|^3) memory) that the row-blocked check replaced.
        via = d[:, :, None] + d[None, :, :]
        bad = np.argwhere(d[:, None, :] > via + rmop.graph.METRIC_TOL)
        assert report.triangle == tuple((int(i), int(j), int(k)) for i, j, k in bad
                                        if i != j and j != k and i != k)

    @pytest.mark.parametrize("fault", ["at_tol", "ulp_above", "diagonal", "ulp_asymmetry"])
    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 40), st.integers(0, 2 ** 32 - 1))
    def test_symmetric_screen_matches_full_broadcast(self, fault, n, seed):
        # A Euclidean matrix with edges planted exactly at, or one ulp above, the
        # violation threshold d[i,j] + d[j,k] + tol of their cheapest detour j.
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.choice([-6, 0, 9])
        pos = rng.uniform(0.0, 1.0, size=(n, 2)) * scale
        d = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
        for _ in range(rng.integers(1, 4)):
            i, k = rng.choice(n, size=2, replace=False)
            j = min((j for j in range(n) if j != i and j != k), key=lambda j: d[i, j] + d[j, k])
            edge = (d[i, j] + d[j, k]) + rmop.graph.METRIC_TOL
            if fault not in ("at_tol", "ulp_asymmetry"):
                edge = np.nextafter(edge, np.inf)
            d[i, k] = d[k, i] = edge
            if fault == "diagonal":
                d[i, i] = rng.uniform(-1.0, 1.0) * scale
            elif fault == "ulp_asymmetry":
                a, b = (i, k) if rng.integers(2) else (k, i)
                d[a, b] = np.nextafter(edge, np.inf)
        verts = tuple(Vertex(v, 0.0, 0.0, 0.0) for v in range(n))
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_triangle_rows(mp)
            checked = spy_triangle_violations(mp)
            report = verify_metric(MetricGraph(verts, d))
            expected = full_broadcast_triangle(d)
        assert report.triangle == expected
        if fault == "ulp_asymmetry":
            # An asymmetric matrix skips the screen: every row goes to the exact check.
            assert seen == [] and checked == [list(range(n))]
        elif fault != "diagonal":
            # Zero diagonal: the screen flags exactly the rows that hold a violation.
            assert seen == [sorted({i for i, _, _ in expected})]

    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    def test_generated_map_skips_the_exact_triangle_check(self, monkeypatch, layout):
        seen = spy_triangle_rows(monkeypatch)
        checked = spy_triangle_violations(monkeypatch)
        s = generate_scenario(300, 10, 3, 60.0, layout=layout, bumps=3, seed=1)
        assert seen == [] and checked == []
        # One ulp of asymmetry, far below METRIC_TOL, skips the screen and sends every row
        # to the exact check.
        d = s.graph.distance.copy()
        d[0, 1] = np.nextafter(d[0, 1], np.inf)
        assert verify_metric(MetricGraph(s.graph.vertices, d)).ok
        assert seen == [] and checked == [list(range(300))]

    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, rmop.graph.AREA_SIDE,
                                       np.nextafter(rmop.graph._CERTIFIED_SPAN, 0.0),
                                       np.nextafter(rmop.graph._CERTIFIED_SPAN, np.inf), 1e9])
    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_position_certificate_matches_full_broadcast(self, layout, scale, n, seed, plant):
        # A position-built map, or its matrix with one edge an ulp above the violation
        # threshold of its cheapest detour.
        rng = np.random.default_rng(seed)
        pos = map_positions(layout, n, scale, rng)
        graph = MetricGraph([Vertex(v, float(x), float(y)) for v, (x, y) in enumerate(pos)])
        if plant and n >= 3:
            d = graph.distance.copy()
            i, k = rng.choice(n, size=2, replace=False)
            j = min((j for j in range(n) if j != i and j != k), key=lambda j: d[i, j] + d[j, k])
            d[i, k] = d[k, i] = np.nextafter((d[i, j] + d[j, k]) + rmop.graph.METRIC_TOL, np.inf)
            graph = MetricGraph(graph.vertices, d)
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_triangle_rows(mp)
            report = verify_metric(graph)
        assert report.triangle == full_broadcast_triangle(graph.distance)
        certified = scale <= rmop.graph._CERTIFIED_SPAN and not (plant and n >= 3)
        assert len(seen) == (0 if certified else 1)

    def test_wide_grid_takes_the_screen_and_reports_rounding(self, monkeypatch):
        # At side 1e9 rounding alone breaks the triangle check: the span guard is needed.
        seen = spy_triangle_rows(monkeypatch)
        pos = rmop.graph._grid_positions(100, 1e9)
        graph = MetricGraph([Vertex(v, float(x), float(y)) for v, (x, y) in enumerate(pos)])
        report = verify_metric(graph)
        assert len(seen) == 1
        assert len(report.triangle) == 656
        assert report.triangle == full_broadcast_triangle(graph.distance)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e9])
    def test_euclidean_matrix_is_bitwise_the_broadcast_formula(self, scale):
        rng = np.random.default_rng(3)
        for n in (1, 2, 17, 64):
            pos = rng.uniform(-1.0, 1.0, size=(n, 2)) * scale
            verts = [Vertex(i, float(x), float(y), 0.0) for i, (x, y) in enumerate(pos)]
            diff = pos[:, None, :] - pos[None, :, :]
            assert (MetricGraph(verts).distance.tobytes()
                    == np.sqrt((diff ** 2).sum(axis=2)).tobytes())

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
                    min_size=2, max_size=8))
    def test_any_euclidean_position_set_is_metric(self, points):
        verts = [Vertex(i, x, y, 0.0) for i, (x, y) in enumerate(points)]
        assert verify_metric(MetricGraph(verts)).ok

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.floats(-50, 50), st.integers(-50, 50)),
                              st.floats(-1e4, 1e4)), min_size=1, max_size=12))
    def test_certified_matrix_needs_no_sign_diagonal_or_symmetry_scan(self, points):
        # The certificate's claims, checked on the matrix itself: +0 and up, a zero
        # diagonal and bitwise symmetry, whatever the rounding of the coordinates.
        verts = [Vertex(i, x, y, 0.0) for i, (x, y) in enumerate(points + points[:2])]
        graph = MetricGraph(verts)
        d = graph.distance
        assert graph.euclidean and MetricGraph(graph.vertices, d).euclidean
        assert not np.signbit(d).any()
        assert not np.diagonal(d).any()
        assert d.tobytes() == d.T.copy().tobytes()
        assert verify_metric(graph) == MetricReport()

    @pytest.mark.parametrize("scale", [1.0, 1e154, 1e308])
    def test_euclidean_matrix_in_row_blocks_is_the_single_shot_matrix(self, scale):
        # Up to `edge` vertices the matrix is one block, edge + 1 splits into two, and 300
        # and 1000 end in a short block. At 1e154 squares overflow to inf, at
        # 1e308 differences do.
        edge = math.isqrt(rmop.graph._BLOCK)
        rng = np.random.default_rng(5)
        for n in (1, edge - 1, edge, edge + 1, 300, 1000):
            pos = rng.uniform(-1.0, 1.0, size=(n, 2)) * scale
            verts = [Vertex(i, x, y) for i, (x, y) in enumerate(pos.tolist())]
            expected = euclidean_matrix_single_shot(verts)
            assert rmop.graph._euclidean_matrix(verts).tobytes() == expected.tobytes()
            assert np.isinf(expected).any() == (scale > 1.0 and n > 1)

    def test_row_blocks_fit_the_workloads_maps(self):
        # The 64-vertex coverage map and the 96-vertex crossover grid are one block each.
        assert rmop.graph._row_blocks(64) == [slice(0, 64)]
        assert rmop.graph._row_blocks(96) == [slice(0, 96)]
        assert all((b.stop - b.start) * 300 <= rmop.graph._BLOCK
                   for b in rmop.graph._row_blocks(300))

    @pytest.mark.parametrize("row", [0, 150, 299])
    def test_a_matrix_one_ulp_off_in_any_row_block_is_not_euclidean(self, row):
        verts = uniform_vertices(300, seed=6)
        d = MetricGraph(verts).distance.copy()
        assert MetricGraph(verts, d).euclidean
        d[row, 299 - row] = np.nextafter(d[row, 299 - row], np.inf)
        assert not MetricGraph(verts, d).euclidean

    def test_asymmetry_in_several_row_blocks_is_reported_as_the_whole_scan_does(self):
        verts = uniform_vertices(300, seed=7)
        d = MetricGraph(verts).distance.copy()
        for i, j in [(298, 299), (290, 100), (1, 290), (140, 141)]:
            d[i, j] += 1.0
        report = verify_metric(MetricGraph(verts, d))
        assert report.asymmetry == ((1, 290), (100, 290), (140, 141), (298, 299))
        assert report.asymmetry == asymmetry_single_shot(d, rmop.graph.METRIC_TOL)

    def test_a_position_built_map_builds_its_matrix_once(self, monkeypatch):
        calls = spy_euclidean_matrix(monkeypatch)
        s = generate_scenario(30, 2, 1, 60.0, seed=4)
        assert load_scenario(dump_scenario(s)).graph.euclidean
        assert calls == [30, 30]  # one per MetricGraph(vertices): no check rebuilds it

    def test_a_callers_matrix_is_compared_once_at_construction(self, monkeypatch):
        verts = [Vertex(i, float(i % 3), float(i // 3), 1.0) for i in range(7)]
        mat = MetricGraph(verts).distance.copy()
        calls = spy_euclidean_matrix(monkeypatch)
        s = Scenario(MetricGraph(verts, mat), starts=(0,), budget=1.0, alpha=0)
        assert s.graph.euclidean and calls == [7]
        assert verify_metric(s.graph).ok
        assert "distance_matrix" not in json.loads(dump_scenario(s))
        assert calls == [7]


def assert_round_trips(s):
    data = dump_scenario(s)
    again = load_scenario(data)
    assert again.graph.distance.tobytes() == s.graph.distance.tobytes()
    assert [dataclasses.astuple(v) for v in again.graph.vertices] == \
        [dataclasses.astuple(v) for v in s.graph.vertices]
    assert (again.starts, again.budget, again.alpha, again.reward_kind) == \
        (s.starts, s.budget, s.alpha, s.reward_kind)
    assert dump_scenario(again) == data
    return json.loads(data)


@st.composite
def vertex_fields(draw):
    """(x, y, reward, coverage) of 1-4 vertices; one number may be bad or one cell added.

    The added cell may repeat one of its vertex's cells, give a cell a second weight, or
    carry a negative or non-finite weight.
    """
    n = draw(st.integers(1, 4))
    weight = draw(st.lists(st.sampled_from([0.0, 2.0, 3.0]), min_size=4, max_size=4))
    fields = [[draw(st.floats(-50, 50)), draw(st.floats(-50, 50)), draw(st.floats(0, 100)),
               [(c, weight[c]) for c in draw(st.lists(st.integers(0, 3), unique=True, max_size=3))]]
              for _ in range(n)]
    v, fault = draw(st.integers(0, n - 1)), draw(st.sampled_from([None, 0, 1, 2, 3]))
    if fault == 3:
        fields[v][3].append((draw(st.integers(0, 3)),
                             draw(st.sampled_from([0.0, 2.0, 3.0, -2.0, math.nan, math.inf]))))
    elif fault is not None:
        fields[v][fault] = draw(st.sampled_from([-3.0, math.nan, math.inf, -math.inf]))
    return fields


@st.composite
def vertex_lists(draw):
    """1-5 vertices and a matrix: up to three faults in ids, numbers, cells, weights or pairs.

    Fields without a fault may still come as numpy scalars, ints or lists, which the graph
    stores with its own types. Half the draws carry an explicit matrix, of any shape.
    """
    n = draw(st.integers(1, 5))
    weight = [2.0, 3.0, 0.0, 5.0]
    number = lambda k: st.sampled_from([float(k), k, np.float32(k), np.float64(k)])
    verts = [{"id": draw(st.sampled_from([k, k, np.int64(k)])), "x": draw(number(k)),
              "y": draw(number(0)), "reward": draw(number(k)),
              "pairs": [draw(st.sampled_from([(c, weight[c]), [c, weight[c]],
                                              (np.int64(c), weight[c]), (c, int(weight[c]))]))
                        for c in draw(st.lists(st.integers(0, 3), unique=True, max_size=3))],
              "container": draw(st.sampled_from([tuple, tuple, list]))} for k in range(n)]
    bad_weight = st.sampled_from([-2.0, math.nan, math.inf, 1.5e308, 4.0, "w", None])
    for _ in range(draw(st.integers(0, 3))):
        v = verts[draw(st.integers(0, n - 1))]
        field = draw(st.sampled_from(["id", "x", "y", "reward", "cell", "weight", "pair", "extra"]))
        if field == "id":
            v["id"] = draw(st.sampled_from([n, -1, 5, 1.0, True, "0", None]))
        elif field in ("x", "y", "reward"):
            v[field] = draw(st.sampled_from([-3.0, math.nan, math.inf, -math.inf, 1.5e308, "x",
                                             "1.5", None]))
        elif field == "extra":
            v["pairs"].append((draw(st.integers(0, 3)), draw(bad_weight)))
        elif v["pairs"]:
            k, cell = draw(st.integers(0, len(v["pairs"]) - 1)), draw(st.integers(0, 3))
            w = weight[cell]
            v["pairs"][k] = draw({
                "cell": st.sampled_from([(1.5, w), ("1", w), (None, w), (True, w)]),
                "weight": bad_weight.map(lambda bad: (cell, bad)),
                "pair": st.sampled_from([(cell,), (cell, w, w), 7, "ab", [cell, w, w]]),
            }[field])
    matrix = draw(st.sampled_from([None, None, None, "zeros", "ones", "shape"]))
    distance = {None: None, "zeros": np.zeros((n, n)), "ones": np.ones((n, n)) - np.eye(n),
                "shape": np.zeros((n + 1, n))}[matrix]
    return [Vertex(v["id"], v["x"], v["y"], v["reward"], v["container"](v["pairs"]))
            for v in verts], distance


def built_outcome(build, given):
    """(vertex reprs, which of `given` were kept, matrix bytes, euclidean), or the exception."""
    try:
        vertices, mat, euclidean = build()
    except Exception as exc:
        return type(exc), str(exc)
    return repr(vertices), [v is u for v, u in zip(vertices, given)], mat.tobytes(), euclidean


class TestMetricGraphMatchesTheOneWalkChecker:
    @settings(max_examples=500, deadline=None)
    @given(vertex_lists())
    def test_same_vertices_and_matrix_or_the_same_error(self, drawn):
        verts, distance = drawn

        def build():
            graph = MetricGraph(verts, distance)
            return graph.vertices, graph.distance, graph.euclidean

        got = built_outcome(build, verts)
        assert got == built_outcome(lambda: metric_graph_one_walk(verts, distance), verts)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 25), st.integers(1, 4), st.data(), st.sampled_from(LAYOUTS),
           st.sampled_from(REWARD_KINDS), st.floats(0.0, 200.0), st.integers(0, 2 ** 32 - 1))
    def test_generated_scenario(self, n, robots, data, layout, kind, budget, seed):
        alpha = data.draw(st.integers(0, robots - 1))
        s = generate_scenario(n, robots, alpha, budget, layout=layout, bumps=2, seed=seed,
                              reward_kind=kind)
        assert "distance_matrix" not in assert_round_trips(s)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50)), min_size=2, max_size=9),
           st.integers(0, 2 ** 32 - 1))
    def test_explicit_matrix(self, points, seed):
        rng = np.random.default_rng(seed)
        verts = [Vertex(i, x, y, 1.0) for i, (x, y) in enumerate(points)]
        d = MetricGraph(verts).distance.copy()
        copy = Scenario(MetricGraph(verts, d), starts=(0,), budget=10.0, alpha=0)
        assert copy.graph.euclidean
        assert "distance_matrix" not in assert_round_trips(copy)
        i, k = rng.choice(len(points), size=2, replace=False)
        d[i, k] = d[k, i] = np.nextafter(d[i, k], np.inf)
        off = Scenario(MetricGraph(verts, d), starts=(0,), budget=10.0, alpha=0)
        assert not off.graph.euclidean
        assert "distance_matrix" in assert_round_trips(off)

    @settings(max_examples=200, deadline=None)
    @given(vertex_fields(), st.sampled_from(REWARD_KINDS))
    def test_a_graph_that_builds_round_trips(self, fields, kind):
        verts = [Vertex(i, x, y, r, tuple(cells)) for i, (x, y, r, cells) in enumerate(fields)]
        try:
            graph = MetricGraph(verts, np.zeros((len(verts), len(verts))))
        except ScenarioError:
            return
        assert_round_trips(Scenario(graph, starts=(0,), budget=1.0, alpha=0, reward_kind=kind))

    @pytest.mark.parametrize("field, value, stored", [
        ("reward", True, 1.0), ("reward", np.float32(2.5), 2.5), ("reward", 3, 3.0),
        ("x", np.float64(1.5), 1.5), ("y", 2, 2.0), ("id", np.int64(0), 0),
        ("coverage", ((np.int64(1), 2),), ((1, 2.0),)),
        ("coverage", [[1, np.float32(2.5)]], ((1, 2.5),)),
    ])
    def test_a_field_of_another_type_is_stored_as_a_document_reloads_it(self, field, value,
                                                                       stored):
        typed = Vertex(0, 0.0, 0.0, 1.0)
        graph = MetricGraph([dataclasses.replace(typed, **{field: value})], [[0.0]])
        assert repr(graph.vertices[0]) == repr(dataclasses.replace(typed, **{field: stored}))
        assert_round_trips(Scenario(graph, starts=(0,), budget=1.0, alpha=0))
        assert MetricGraph([typed], [[0.0]]).vertices[0] is typed

    def test_a_float_cell_is_refused(self):
        with pytest.raises(TypeError):
            MetricGraph([Vertex(0, 0.0, 0.0, 0.0, ((1.5, 2.0),))], [[0.0]])


class TestPathCost:
    def test_single_vertex_costs_zero(self):
        graph, _ = line_instance()
        assert path_cost(graph, [0]) == 0.0

    def test_collinear_run(self):
        graph, _ = line_instance()
        assert path_cost(graph, [0, 1, 2]) == pytest.approx(2.0)

    def test_offshoot_hop(self):
        graph, _ = line_instance()
        assert path_cost(graph, [0, 3]) == pytest.approx(2.0)

    def test_repeated_vertex_rejected(self):
        graph, _ = line_instance()
        with pytest.raises(ScenarioError, match="repeated"):
            path_cost(graph, [0, 1, 0])

    def test_invalid_id_rejected(self):
        graph, _ = line_instance()
        with pytest.raises(ScenarioError, match="out of range"):
            path_cost(graph, [0, 9])

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_invariant_under_consistent_relabeling(self, rnd):
        graph, _ = line_instance()
        perm = list(range(graph.n))
        rnd.shuffle(perm)
        verts = [None] * graph.n
        for old, v in enumerate(graph.vertices):
            verts[perm[old]] = Vertex(perm[old], v.x, v.y, v.reward, v.coverage)
        relabeled = MetricGraph(verts)
        route = [0, 1, 3]
        assert path_cost(relabeled, [perm[v] for v in route]) == pytest.approx(
            path_cost(graph, route), abs=1e-12)


class TestGenerateScenario:
    def test_benchmark_scale_instance(self):
        s = generate_scenario(96, 10, 3, 60.0, layout="grid", bumps=3, seed=7)
        assert s.graph.n == 96
        assert s.n_robots == 10
        assert s.alpha == 3
        assert s.budget == 60.0
        assert verify_metric(s.graph).ok
        rewards = [v.reward for v in s.graph.vertices]
        assert all(r == int(r) and 0 <= r <= 100 for r in rewards)
        assert max(rewards) == 100.0

    @pytest.mark.parametrize("rounded", [True, False], ids=["rounded", "raw field values"])
    @pytest.mark.parametrize("kind", REWARD_KINDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_documents_match_the_numpy_scalar_generator(self, monkeypatch, layout, kind, rounded):
        # Byte for byte, as generated and with rounding off: rounding rewards and weights to
        # integers hides a last-bit change in the field, such as `np.exp` for `math.exp`.
        if not rounded:
            monkeypatch.setattr(np, "rint", lambda values: values)
        for seed, n, bumps in itertools.product(range(5), (1, 2, 7, 30, 64, 97), (1, 3)):
            args = (n, 3, 1, 40.0)
            kwargs = dict(layout=layout, bumps=bumps, seed=seed, reward_kind=kind)
            scenario = generate_scenario(*args, **kwargs)
            assert (dump_scenario(scenario)
                    == dump_scenario(generate_scenario_on_numpy_scalars(*args, **kwargs))), kwargs
        rewards = [v.reward for v in scenario.graph.vertices]
        assert rounded == all(r == int(r) for r in rewards)

    def test_field_values_match_the_numpy_scalar_field(self):
        # `x * x` for `** 2` moves about 0.04% of field values, too few for the documents above.
        rng = np.random.default_rng(0)
        for _ in range(100):
            bumps = [GaussianBump(*b)
                     for b in rng.uniform([0, 0, 0.9, 10], [90, 90, 1, 14], (4, 4)).tolist()]
            terms = [(b.cx, b.cy, b.amplitude, 2.0 * b.sigma ** 2) for b in bumps]
            points = rng.uniform(0.0, rmop.graph.AREA_SIDE, size=(300, 2))
            assert ([_field_value(terms, x, y) for x, y in points.tolist()]
                    == [numpy_scalar_field_value(bumps, x, y) for x, y in points])

    def test_same_seed_is_byte_identical(self):
        a = dump_scenario(generate_scenario(30, 4, 2, 20.0, seed=11))
        b = dump_scenario(generate_scenario(30, 4, 2, 20.0, seed=11))
        assert a == b

    def test_different_seeds_differ(self):
        a = dump_scenario(generate_scenario(30, 4, 2, 20.0, layout="uniform", seed=11))
        b = dump_scenario(generate_scenario(30, 4, 2, 20.0, layout="uniform", seed=12))
        assert a != b

    def test_single_vertex_degenerate(self):
        s = generate_scenario(1, 1, 0, 1.0, seed=3)
        assert s.graph.n == 1
        assert s.starts == (0,)

    def test_generated_scenarios_are_loadable(self):
        for seed in range(5):
            s = generate_scenario(12, 3, 1, 8.0, layout="uniform", seed=seed)
            again = load_scenario(dump_scenario(s))
            assert dump_scenario(again) == dump_scenario(s)

    def test_coverage_kind_populates_cells(self):
        s = generate_scenario(20, 3, 1, 25.0, seed=5, reward_kind="coverage")
        assert s.reward_kind == "coverage"
        assert all(v.coverage for v in s.graph.vertices)
        weights = {}
        for v in s.graph.vertices:
            for cell, w in v.coverage:
                assert w >= 0
                assert weights.setdefault(cell, w) == w

    def test_alpha_validation(self):
        with pytest.raises(ScenarioError, match="alpha"):
            generate_scenario(10, 3, 3, 5.0, seed=0)

    def test_bad_layout_rejected(self):
        with pytest.raises(ScenarioError, match="layout"):
            generate_scenario(10, 3, 1, 5.0, layout="ring", seed=0)

    def test_resample_starts_deterministic(self):
        s = generate_scenario(30, 5, 2, 20.0, seed=1)
        a = resample_starts(s, 99)
        b = resample_starts(s, 99)
        assert a.starts == b.starts
        assert a.budget == s.budget
        assert a.graph is s.graph
