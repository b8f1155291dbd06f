"""Metric-graph scenarios for budget-limited multi-robot path planning.

A scenario bundles a metric graph (2-D vertices with a symmetric distance
matrix), one start vertex per robot, a shared travel budget, and the number
of robots an adversary may remove. Scenarios serialize to a strict JSON
document and can be generated procedurally from a seeded importance field
built from Gaussian bumps, mimicking a concentration map over a survey area.

All types are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import reprlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

METRIC_TOL = 1e-9
AREA_SIDE = 90.0
# Over 10x below the coordinate span up to which verify_metric proves no triangle violation.
_CERTIFIED_SPAN = METRIC_TOL / (128 * np.finfo(float).eps)

_SCENARIO_KEYS = {"vertices", "distance_matrix", "starts", "budget", "alpha", "reward_kind"}
_VERTEX_KEYS = {"id", "x", "y", "reward", "coverage"}
REWARD_KINDS = ("modular", "coverage")
LAYOUTS = ("grid", "uniform")


class ScenarioError(ValueError):
    """A scenario, solution or experiment document is malformed or violates an invariant.

    A graph that is not metric carries its full MetricReport in `report`.
    """

    def __init__(self, message: str, report: Optional["MetricReport"] = None):
        super().__init__(message)
        self.report = report


class RewardError(ScenarioError):
    """Reward data that is not a weighted coverage, or a reward query it cannot answer."""


def _check_total(weights: Iterable[float], what: str) -> None:
    """Refuse weights whose total, added left to right from 0.0 as the evaluators add, is inf."""
    if functools.reduce(operator.add, weights, 0.0) == math.inf:
        raise RewardError(f"{what} add up to inf; the total reward must be finite")


def check_cells(cells: Sequence[Sequence[tuple[int, float]]]) -> None:
    """Refuse `cells`, where vertex v covers `cells[v]`, unless they are a weighted coverage.

    Every weight is finite and non-negative, no vertex lists a cell twice, every vertex
    that lists a cell gives it the same weight, and the cells' total is finite.
    """
    seen: dict[int, tuple[float, int]] = {}  # cell -> (weight, last vertex listing it)
    for v, entry in enumerate(cells):
        for cell, w in entry:
            if not 0.0 <= w < math.inf:
                raise RewardError(f"vertex {v} gives cell {cell} weight {w}; "
                                  f"weights must be finite and non-negative")
            first_w, last_v = seen.get(cell, (w, -1))
            if last_v == v:
                raise RewardError(f"vertex {v} lists cell {cell} more than once")
            if first_w != w:
                raise RewardError(f"vertex {v} gives cell {cell} weight {w}, inconsistent "
                                  f"with {first_w} from vertex {last_v}")
            seen[cell] = (w, v)
    _check_total((seen[cell][0] for cell in sorted(seen)), "cell weights")


@dataclass(frozen=True)
class Vertex:
    """A graph vertex: planar position, additive reward, optional covered cells."""

    id: int
    x: float
    y: float
    reward: float = 0.0
    coverage: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """Vertices with dense ids 0..n-1 and a finite n x n distance matrix.

    Every vertex has a finite position and a finite non-negative reward, the rewards
    add up to a finite total, and the coverage passes check_cells. Construction
    refuses anything else; verify_metric reports whether the matrix is metric. Vertex
    numbers are stored as `float` and ids and cells as `int` (`operator.index`), as a
    document reloads them. `euclidean` is derived: the matrix is bit for bit the one
    from_positions builds, and a dumped document then omits it.
    """

    vertices: tuple[Vertex, ...]
    distance: np.ndarray

    def __post_init__(self):
        vertices = list(self.vertices)
        n = len(vertices)
        for pos, v in enumerate(vertices):
            if not (type(v.id) is int and type(v.x) is type(v.y) is type(v.reward) is float
                    and type(v.coverage) is tuple
                    and all(type(p) is tuple and len(p) == 2 and type(p[0]) is int
                            and type(p[1]) is float for p in v.coverage)):
                # Generated and loaded vertices pass as they are; others are rebuilt.
                cells = tuple((operator.index(c), float(w)) for c, w in v.coverage)
                v = vertices[pos] = Vertex(operator.index(v.id), float(v.x), float(v.y),
                                           float(v.reward), cells)
            if v.id != pos:
                raise ScenarioError(f"vertex ids must be dense 0..{n - 1}; found {v.id} at position {pos}")
            if not (math.isfinite(v.x) and math.isfinite(v.y)):
                raise ScenarioError(f"vertex {pos} has non-finite position ({v.x}, {v.y})")
            if not 0.0 <= v.reward < math.inf:
                raise RewardError(f"vertex {pos} has {'negative' if v.reward < 0 else 'non-finite'} "
                                  f"reward {v.reward}")
        check_cells([v.coverage for v in vertices])
        _check_total((v.reward for v in vertices), "vertex rewards")
        mat = np.array(self.distance, dtype=float, order="C")  # a copy: the caller keeps theirs
        if mat.shape != (n, n):
            raise ScenarioError(f"distance_matrix must be {n}x{n}, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            bad = np.argwhere(~np.isfinite(mat))[0]
            raise ScenarioError(f"distance_matrix must be finite, violated at ({bad[0]},{bad[1]})")
        mat.setflags(write=False)
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "distance", mat)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def euclidean(self) -> bool:
        return np.array_equal(self.distance, _euclidean_matrix(self.vertices))

    @classmethod
    def from_positions(cls, vertices: Sequence[Vertex]) -> "MetricGraph":
        """Build the graph with pairwise Euclidean distances, known to be `euclidean`."""
        graph = cls(vertices, _euclidean_matrix(vertices))
        graph.__dict__["euclidean"] = True  # its matrix is _euclidean_matrix's, copied bit for bit
        return graph


def _euclidean_matrix(vertices: Sequence[Vertex]) -> np.ndarray:
    x, y = np.array([[v.x, v.y] for v in vertices], dtype=float).reshape(-1, 2).T
    dx, dy = x[:, None] - x, y[:, None] - y
    dx *= dx  # sqrt(dx * dx + dy * dy) in place: two n^2 buffers, not five
    dx += np.square(dy, out=dy)
    return np.sqrt(dx, out=dx)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full problem instance: graph, robot starts, budget, attack size.

    Construction checks every field; loaders also verify that the graph is metric.
    """

    graph: MetricGraph
    starts: tuple[int, ...]
    budget: float
    alpha: int
    reward_kind: str = "modular"

    def __post_init__(self):
        starts = tuple(map(operator.index, self.starts))
        alpha, budget = operator.index(self.alpha), float(self.budget)
        if self.reward_kind not in REWARD_KINDS:
            raise ScenarioError(f"reward_kind must be one of {REWARD_KINDS}, got {self.reward_kind!r}")
        if not starts:
            raise ScenarioError("scenario must have at least one robot start")
        for s in starts:
            if not 0 <= s < self.graph.n:
                raise ScenarioError(f"start vertex {s} is not a valid vertex id")
        if not math.isfinite(budget) or budget < 0:
            raise ScenarioError(f"budget must be finite and non-negative, got {budget}")
        if not 0 <= alpha < len(starts):
            raise ScenarioError(f"alpha must be < {len(starts)} (number of robots) and >= 0, got {alpha}")
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "budget", budget)

    @property
    def n_robots(self) -> int:
        return len(self.starts)

    def with_starts(self, starts: Sequence[int]) -> "Scenario":
        return dataclasses.replace(self, starts=starts)

    def with_alpha(self, alpha: int) -> "Scenario":
        return dataclasses.replace(self, alpha=alpha)


@dataclass(frozen=True)
class Path:
    """An open rooted path: ordered distinct vertex ids and its travel cost."""

    robot: int
    vertices: tuple[int, ...]
    cost: float


@dataclass(frozen=True)
class MetricReport:
    """All detected metric violations; an empty report means the graph is metric."""

    negative: tuple[tuple[int, int], ...] = ()
    diagonal: tuple[int, ...] = ()
    asymmetry: tuple[tuple[int, int], ...] = ()
    triangle: tuple[tuple[int, int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.negative or self.diagonal or self.asymmetry or self.triangle)

    def entries(self) -> list[str]:
        out = [f"negative distance at ({i},{j})" for i, j in self.negative]
        out += [f"nonzero diagonal at {i}" for i in self.diagonal]
        out += [f"asymmetric distance at ({i},{j})" for i, j in self.asymmetry]
        out += [f"triangle inequality violated at ({i},{j},{k})" for i, j, k in self.triangle]
        return out


def _triangle_rows(d: np.ndarray, tol: float) -> Sequence[int]:
    """Rows that may hold a triangle violation: all of them unless d is symmetric.

    Then (i, j, k) is a violation iff (k, j, i) is, and rounding is monotone, so flagging
    rows i and k wherever d[i,k] > min_j(d[i,j] + d[j,k]) + tol, i < k, misses none.
    """
    n = len(d)
    if not np.array_equal(d, d.T):
        return range(n)
    buf = np.empty_like(d)
    hit = np.zeros((n, n), dtype=bool)
    for k in range(1, n):
        via = np.add(d[:k], d[k], out=buf[:k]).min(axis=1)  # d[k] is column k
        via += tol
        np.greater(d[k, :k], via, out=hit[k, :k])
    return np.flatnonzero(hit.any(axis=0) | hit.any(axis=1)).tolist()


def _triangle_violations(d: np.ndarray, rows: Sequence[int], tol: float) -> tuple:
    """Every (i, j, k), i in `rows`, with d[i,k] > (d[i,j] + d[j,k]) + tol, in order."""
    triangle = []
    for i in rows:
        bad = d[i][None, :] > d[i][:, None] + d + tol
        if bad.any():  # argwhere costs as much as the comparison; most rows are clean
            triangle.extend((i, int(j), int(k)) for j, k in np.argwhere(bad)
                            if i != j and j != k and i != k)
    return tuple(triangle)


def verify_metric(graph: MetricGraph) -> MetricReport:
    """Report every symmetry, diagonal, sign, and triangle violation in the matrix.

    Violations are returned as data, never raised; loaders turn them into errors.
    Triangle violations come out in (i, j, k) order, from the first check that applies:

    1. An O(|V|) certificate: none at all, if the matrix is bit for bit `_euclidean_matrix`
       of the vertices (`graph.euclidean`, known without a rebuild for a from_positions
       graph) and both coordinate spans are at most `_CERTIFIED_SPAN`.
       - Sign, diagonal, symmetry: fl(x_i - x_j) = -fl(x_j - x_i) exactly, so squares, sums
         and roots are bitwise symmetric; sqrt returns >= +0; the diagonal is sqrt(+0) = 0.
       - Triangles, u = eps/2: an entry is d = E(1+e) + a, E the exact distance of the
         stored coordinates, |e| <= (1+u)^3 - 1 (a square's (1+u)^4 from difference,
         product and sum, halved by the root, which rounds once), |a| < 1e-161 from
         underflow. E is a metric and fl(fl(d_ij + d_jk) + tol) >= (1-u)^2 (d_ij + d_jk)
         + (1-u) tol, so d_ik exceeds it only if about 8u (E_ij + E_jk) >= (1-u) tol - 3a,
         with E_ij + E_jk <= 2√2 span: only if span >= ~METRIC_TOL / (8√2 eps) ~ 4e5.
    2. O(|V|^2) scans for sign, diagonal and symmetry, then an exact triangle check, in
       O(|V|^2) memory, of the rows a screen flags: O(|V|^3). The screen, about a third
       of the arithmetic, runs on exactly symmetric matrices; on any other matrix every
       row is checked.
    """
    xs, ys = [v.x for v in graph.vertices], [v.y for v in graph.vertices]
    if (xs and max(max(xs) - min(xs), max(ys) - min(ys)) <= _CERTIFIED_SPAN
            and graph.euclidean):
        return MetricReport()
    d = graph.distance
    tol = METRIC_TOL
    negative = tuple((int(i), int(j)) for i, j in np.argwhere(d < -tol))
    diagonal = tuple(int(i) for i in np.flatnonzero(np.abs(np.diagonal(d)) > tol))
    asym = np.argwhere(np.abs(d - d.T) > tol)
    asymmetry = tuple((int(i), int(j)) for i, j in asym if i < j)
    return MetricReport(negative=negative, diagonal=diagonal, asymmetry=asymmetry,
                        triangle=_triangle_violations(d, _triangle_rows(d, tol), tol))


def path_cost(graph: MetricGraph, vertices: Sequence[int]) -> float:
    """Sum of edge distances along consecutive pairs; 0 for a single vertex."""
    seen = set()
    for v in vertices:
        if not 0 <= v < graph.n:
            raise ScenarioError(f"vertex id {v} out of range 0..{graph.n - 1}")
        if v in seen:
            raise ScenarioError(f"repeated vertex id {v} in path")
        seen.add(v)
    if not vertices:
        raise ScenarioError("path must contain at least one vertex")
    total = 0.0
    for a, b in zip(vertices, vertices[1:]):
        total += float(graph.distance[a, b])
    return total


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _field_name(where: str, key: Union[str, int]) -> str:
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _number(value, where: str, key: Union[str, int]) -> float:
    """A JSON number as a float; integers too large for a float become inf."""
    if type(value) is not int and type(value) is not float:
        raise ScenarioError(
            f"{_field_name(where, key)} must be a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def read_field(obj: Union[dict, list], key: Union[str, int], kind: type, where: str = "",
               default=_REQUIRED):
    """obj[key] (a dict key or a list index), of exactly the JSON type `kind`.

    The document reader behind every loader. `int` accepts only a JSON
    integer; `float` accepts any finite JSON number and returns a float; a
    bool is neither. `kind` may also be str, list or dict. A missing key
    returns `default` if one is given. Problems raise ScenarioError naming
    the field, such as `vertices[3].x` or `attacks[0].sizes[1]`.
    """
    if isinstance(obj, list) or key in obj:
        value = obj[key]
    elif default is _REQUIRED:
        raise ScenarioError(f"missing field {_field_name(where, key)}")
    else:
        return default
    if kind is float:
        value = _number(value, where, key)
        if not math.isfinite(value):
            what = key if isinstance(key, str) else "value"
            raise ScenarioError(f"non-finite {what}: {_field_name(where, key)} is {value!r}")
    elif type(value) is not kind:
        raise ScenarioError(f"{_field_name(where, key)} must be {_KIND_NAMES[kind]}, "
                            f"got {reprlib.repr(value)}")
    return value


def read_ints(obj: Union[dict, list], key: Union[str, int], where: str = "") -> list[int]:
    """A JSON array of integers, read with read_field."""
    items = read_field(obj, key, list, where)
    name = _field_name(where, key)
    return [read_field(items, i, int, name) for i in range(len(items))]


def check_keys(obj: dict, allowed: set, what: str) -> None:
    """Reject keys outside `allowed`; the error reads "unknown <what> [...]"."""
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown {what} {sorted(unknown)}")


def _read_vertices(doc: dict) -> list[Vertex]:
    raw = read_field(doc, "vertices", list)
    if not raw:
        raise ScenarioError("scenario must contain at least one vertex")
    vertices = []
    for idx in range(len(raw)):
        where = f"vertices[{idx}]"
        entry = read_field(raw, idx, dict, "vertices")
        check_keys(entry, _VERTEX_KEYS, f"keys in {where}")
        reward = read_field(entry, "reward", float, where)
        pairs = read_field(entry, "coverage", list, where, default=[])
        coverage = []
        for c in range(len(pairs)):
            pair_name = f"{where}.coverage[{c}]"
            pair = read_field(pairs, c, list, f"{where}.coverage")
            if len(pair) != 2:
                raise ScenarioError(f"{pair_name} must be a [cell, weight] pair")
            coverage.append((read_field(pair, 0, int, pair_name),
                             read_field(pair, 1, float, pair_name)))
        vertices.append(Vertex(id=read_field(entry, "id", int, where),
                               x=read_field(entry, "x", float, where),
                               y=read_field(entry, "y", float, where), reward=reward,
                               coverage=tuple(coverage)))
    vertices.sort(key=lambda v: v.id)
    return vertices


def _read_distance_matrix(doc: dict, n: int) -> np.ndarray:
    rows = read_field(doc, "distance_matrix", list)
    if len(rows) != n:
        raise ScenarioError(f"distance_matrix must be {n}x{n}, got {len(rows)} rows")
    values = []
    for i in range(n):
        where = f"distance_matrix[{i}]"
        row = read_field(rows, i, list, "distance_matrix")
        if len(row) != n:
            raise ScenarioError(f"distance_matrix must be {n}x{n}, {where} has {len(row)} entries")
        values.append([_number(x, where, j) for j, x in enumerate(row)])
    return np.array(values, dtype=float)


def _verified(scenario: Scenario) -> Scenario:
    """`scenario`, once verify_metric finds its graph metric."""
    report = verify_metric(scenario.graph)
    if not report.ok:
        raise ScenarioError("graph is not metric: " + "; ".join(report.entries()[:5]),
                            report=report)
    return scenario


def scenario_from_document(doc: dict) -> Scenario:
    """Build and fully validate a Scenario from a parsed document."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    check_keys(doc, _SCENARIO_KEYS, "scenario keys")
    vertices = _read_vertices(doc)
    graph = (MetricGraph(vertices, _read_distance_matrix(doc, len(vertices)))
             if "distance_matrix" in doc else MetricGraph.from_positions(vertices))
    return _verified(Scenario(graph, read_ints(doc, "starts"), read_field(doc, "budget", float),
                              read_field(doc, "alpha", int), read_field(doc, "reward_kind", str)))


def load_scenario(data: Union[bytes, str]) -> Scenario:
    """Parse a UTF-8 JSON scenario document and validate every invariant."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"scenario document is not valid JSON: {exc}") from exc
    return scenario_from_document(doc)


def scenario_to_document(scenario: Scenario) -> dict:
    """Inverse of scenario_from_document; omits a matrix that is bit for bit Euclidean."""
    doc = {
        "vertices": [
            {
                "id": v.id, "x": v.x, "y": v.y, "reward": v.reward,
                **({"coverage": [[c, w] for c, w in v.coverage]} if v.coverage else {}),
            }
            for v in scenario.graph.vertices
        ],
        "starts": list(scenario.starts),
        "budget": scenario.budget,
        "alpha": scenario.alpha,
        "reward_kind": scenario.reward_kind,
    }
    if not scenario.graph.euclidean:
        doc["distance_matrix"] = [[float(x) for x in row] for row in scenario.graph.distance]
    return doc


def dump_scenario(scenario: Scenario) -> bytes:
    """Canonical UTF-8 JSON bytes (stable key order) for hashing and storage."""
    doc = scenario_to_document(scenario)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n").encode()


@dataclass(frozen=True)
class GaussianBump:
    cx: float
    cy: float
    amplitude: float
    sigma: float


def field_value(bumps: Sequence[GaussianBump], x: float, y: float) -> float:
    total = 0.0
    for b in bumps:
        r2 = (x - b.cx) ** 2 + (y - b.cy) ** 2
        total += b.amplitude * math.exp(-r2 / (2.0 * b.sigma ** 2))
    return total


def _grid_positions(n: int, side: float) -> list[tuple[float, float]]:
    cols = math.ceil(math.sqrt(n))
    rows = math.ceil(n / cols)
    xs = np.linspace(0.0, side, cols).tolist() if cols > 1 else [side / 2.0]
    ys = np.linspace(0.0, side, rows).tolist() if rows > 1 else [side / 2.0]
    return [(xs[k % cols], ys[k // cols]) for k in range(n)]


def generate_scenario(n_vertices: int, n_robots: int, alpha: int, budget: float,
                      layout: str = "grid", bumps: int = 3, seed: int = 0,
                      reward_kind: str = "modular") -> Scenario:
    """Deterministically generate a scenario from parameters and a seed.

    Vertices live on an AREA_SIDE x AREA_SIDE area, laid out on a grid or uniformly at
    random. Rewards sample an importance field rescaled to integers in [0, 100]. The field
    is `bumps` concentrated Gaussian bumps of comparable height at seeded locations plus
    one broad low background bump, mimicking a concentration map with a few hotspots over
    a mildly interesting sea. Coverage scenarios overlay a cell lattice: each vertex covers
    nearby cells and cell weights sample the same field. Robot starts are drawn uniformly
    from the vertices (shared starts allowed). The same arguments and seed always produce
    a byte-identical scenario: field values and cell distances are Python floats, one point
    at a time, with `** 2` as libm `pow`, `math.exp` and `math.hypot`. They are not
    vectorized: numpy's `exp`, `hypot` and `x * x` round some inputs differently.
    """
    if n_vertices < 1:
        raise ScenarioError("n_vertices must be >= 1")
    if n_robots < 1:
        raise ScenarioError("n_robots must be >= 1")
    if layout not in LAYOUTS:
        raise ScenarioError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    if bumps < 1:
        raise ScenarioError("number of bumps must be >= 1")
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")

    side = AREA_SIDE
    rng = np.random.default_rng(seed)
    bump_list = tuple(
        GaussianBump(
            cx=float(rng.uniform(0.15 * side, 0.85 * side)),
            cy=float(rng.uniform(0.15 * side, 0.85 * side)),
            amplitude=float(rng.uniform(0.9, 1.0)),
            sigma=float(rng.uniform(side / 9.0, side / 6.4)),
        )
        for _ in range(bumps)
    ) + (GaussianBump(cx=side / 2.0, cy=side / 2.0, amplitude=0.3, sigma=0.9 * side),)

    pos = (_grid_positions(n_vertices, side) if layout == "grid"
           else rng.uniform(0.0, side, size=(n_vertices, 2)).tolist())

    values = np.array([field_value(bump_list, x, y) for x, y in pos])
    peak = float(values.max())
    rewards = (np.rint(100.0 * values / peak) if peak > 0 else np.zeros(n_vertices)).tolist()

    coverage: list[tuple[tuple[int, float], ...]] = [()] * n_vertices
    if reward_kind == "coverage":
        cells_per_side = max(2, math.ceil(math.sqrt(n_vertices) / 2))
        pitch = side / cells_per_side
        centers = [((i + 0.5) * pitch, (j + 0.5) * pitch)
                   for j in range(cells_per_side) for i in range(cells_per_side)]
        cell_vals = np.array([field_value(bump_list, cx, cy) for cx, cy in centers])
        cell_peak = float(cell_vals.max())
        cell_w = (np.rint(100.0 * cell_vals / cell_peak) if cell_peak > 0
                  else np.zeros(len(centers))).tolist()
        radius = 1.3 * pitch
        coverage = [tuple((c, cell_w[c]) for c, (cx, cy) in enumerate(centers)
                          if math.hypot(x - cx, y - cy) <= radius) for x, y in pos]

    vertices = [Vertex(k, x, y, reward, cells)
                for k, ((x, y), reward, cells) in enumerate(zip(pos, rewards, coverage))]
    graph, starts = MetricGraph.from_positions(vertices), rng.integers(0, n_vertices, size=n_robots)
    return _verified(Scenario(graph, starts, budget, alpha, reward_kind))


def resample_starts(scenario: Scenario, seed: int) -> Scenario:
    """New scenario with starts redrawn uniformly from the vertices."""
    rng = np.random.default_rng(seed)
    return scenario.with_starts(rng.integers(0, scenario.graph.n, size=scenario.n_robots))
