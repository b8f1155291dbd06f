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
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

import numpy as np

METRIC_TOL = 1e-9
AREA_SIDE = 90.0
_BLOCK = 2 ** 14  # entries in a row block of an n x n matrix: 128 KB of floats
# Over 10x below the coordinate span up to which verify_metric proves no triangle violation.
_CERTIFIED_SPAN = METRIC_TOL / (128 * np.finfo(float).eps)

_SCENARIO_KEYS = {"vertices", "distance_matrix", "starts", "budget", "alpha", "reward_kind"}
_VERTEX_KEYS = {"id", "x", "y", "reward", "coverage"}
REWARD_KINDS = ("modular", "coverage")
LAYOUTS = ("grid", "uniform")
T = TypeVar("T")


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
    add up to a finite total, and the coverage is weighted: cell weights are finite and
    non-negative, one per cell, a cell is listed once per vertex, and the distinct cells'
    weights, added by cell id from 0.0 as the evaluators add them, have a finite total.
    Construction refuses anything else. It checks each vertex's types, id, position and
    reward, vertex by vertex, then every cell, then the totals and the matrix; the first
    failure is the one error raised. verify_metric reports whether the matrix is metric.
    Vertex numbers are stored as `float` and ids and cells as `int` (`operator.index`), as
    a document reloads them. Without a `distance` matrix the graph builds the pairwise
    Euclidean one of its positions. `euclidean` is set at construction: the matrix is bit
    for bit that Euclidean one, and a dumped document then omits it. Construction builds that
    one in the array it keeps, copies a caller's matrix over it, and allocates n x n booleans.
    """

    vertices: tuple[Vertex, ...]
    distance: Optional[np.ndarray] = None
    euclidean: bool = dataclasses.field(init=False)

    def __post_init__(self):
        vertices = list(self.vertices)
        n = len(vertices)
        for pos, v in enumerate(vertices):
            # Generated and loaded vertices pass as they are; others are rebuilt, cells first.
            if not (type(v.coverage) is tuple and type(v.id) is int
                    and type(v.x) is type(v.y) is type(v.reward) is float
                    and (not v.coverage or all(type(p) is tuple and len(p) == 2 and type(p[0]) is int
                                               and type(p[1]) is float for p in v.coverage))):
                cells = tuple((operator.index(cell), float(w)) for cell, w in v.coverage)
                v = vertices[pos] = Vertex(operator.index(v.id), float(v.x), float(v.y),
                                           float(v.reward), cells)
            if v.id != pos:
                raise ScenarioError(f"vertex ids must be dense 0..{n - 1}; found {v.id} at position {pos}")
            if not (math.isfinite(v.x) and math.isfinite(v.y)):
                raise ScenarioError(f"vertex {pos} has non-finite position ({v.x}, {v.y})")
            if not 0.0 <= v.reward < math.inf:
                raise RewardError(f"vertex {pos} has {'negative' if v.reward < 0 else 'non-finite'} "
                                  f"reward {v.reward}")
        seen: dict[int, tuple[float, int]] = {}  # cell -> (weight, last vertex listing it)
        for pos, v in enumerate(vertices):
            for cell, w in v.coverage:
                first_w, last_v = seen.get(cell, (w, -1))
                if not 0.0 <= w < math.inf:
                    raise RewardError(f"vertex {pos} gives cell {cell} weight {w}; "
                                      f"weights must be finite and non-negative")
                if last_v == pos:
                    raise RewardError(f"vertex {pos} lists cell {cell} more than once")
                if first_w != w:
                    raise RewardError(f"vertex {pos} gives cell {cell} weight {w}, inconsistent "
                                      f"with {first_w} from vertex {last_v}")
                seen[cell] = (w, pos)
        _check_total((seen[cell][0] for cell in sorted(seen)), "cell weights")
        _check_total((v.reward for v in vertices), "vertex rewards")
        built = self.distance is None
        given = None if built else np.asarray(self.distance, dtype=float)
        if not built and given.shape != (n, n):
            raise ScenarioError(f"distance_matrix must be {n}x{n}, got shape {given.shape}")
        mat = _euclidean_matrix(vertices)
        euclidean = built or np.array_equal(given, mat)
        if not built:
            np.copyto(mat, given)  # the graph owns its array: the caller's is never written to
        if not np.isfinite(mat).all():
            i, j = np.argwhere(~np.isfinite(mat))[0]
            raise ScenarioError(
                f"vertices {i} and {j} are too far apart for a finite distance" if built
                else f"distance_matrix must be finite, violated at ({i},{j})")
        mat.setflags(write=False)
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "distance", mat)
        object.__setattr__(self, "euclidean", euclidean)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def route_cost(self, route: Sequence[int]) -> float:
        """Travel cost of `route`, its edges added in order from 0.0; ids are not checked."""
        total = 0.0
        for step in self.distance[route[:-1], route[1:]].tolist():
            total += step
        return total


def _row_blocks(n: int) -> list[slice]:
    """Consecutive row slices of an n x n matrix, of about _BLOCK entries each."""
    step = max(1, _BLOCK // max(n, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _euclidean_matrix(vertices: Sequence[Vertex]) -> np.ndarray:
    """Pairwise distances, bit for bit the whole-array formula; a pair too far apart gets inf.

    Computed in row blocks: allocates the n x n result and one 128 KB block for dy.
    """
    x, y = np.array([[v.x, v.y] for v in vertices], dtype=float).reshape(-1, 2).T
    mat = np.empty((len(x), len(x)))
    blocks = _row_blocks(len(x))
    dys = np.empty((blocks[0].stop if blocks else 0, len(x)))  # the first block is the largest
    with np.errstate(over="ignore"):
        for rows in blocks:
            block = np.subtract(x[rows, None], x, out=mat[rows])
            dy = np.subtract(y[rows, None], y, out=dys[:len(block)])
            block *= block
            block += np.square(dy, out=dy)
            np.sqrt(block, out=block)
    return mat


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
    """Rows of the exactly symmetric matrix d that may hold a triangle violation.

    (i, j, k) is a violation iff (k, j, i) is, and rounding is monotone, so flagging
    rows i and k wherever d[i,k] > min_j(d[i,j] + d[j,k]) + tol, i < k, misses none.
    """
    n = len(d)
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
       of the vertices (`graph.euclidean`, set when the graph was built) and both
       coordinate spans are at most `_CERTIFIED_SPAN`.
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
       of the arithmetic, runs on matrices the symmetry scan found exactly symmetric; on
       any other matrix every row is checked.
    Memory: the certificate allocates nothing of size n; the scans n x n booleans and 128 KB
    row blocks; the screen an n x n float buffer; the exact check n x n arrays per row.
    """
    xs, ys = [v.x for v in graph.vertices], [v.y for v in graph.vertices]
    if (xs and max(max(xs) - min(xs), max(ys) - min(ys)) <= _CERTIFIED_SPAN
            and graph.euclidean):
        return MetricReport()
    d = graph.distance
    tol = METRIC_TOL
    # A sum that overflows to +inf hides no violation; one to -inf, or a difference to inf, is one.
    with np.errstate(over="ignore"):
        negative = tuple((int(i), int(j)) for i, j in np.argwhere(d < -tol))
        diagonal = tuple(int(i) for i in np.flatnonzero(np.abs(np.diagonal(d)) > tol))
        asymmetry, symmetric = [], True
        for rows in _row_blocks(len(d)):
            diff = d[rows] - d[:, rows].T  # d is finite: 0 exactly where d[i,j] == d[j,i]
            symmetric = symmetric and not diff.any()
            asymmetry += [(rows.start + i, j) for i, j in
                          np.argwhere(np.abs(diff, out=diff) > tol).tolist() if rows.start + i < j]
        suspects = _triangle_rows(d, tol) if symmetric else range(len(d))
        return MetricReport(negative=negative, diagonal=diagonal, asymmetry=tuple(asymmetry),
                            triangle=_triangle_violations(d, suspects, tol))


def path_cost(graph: MetricGraph, vertices: Sequence[int]) -> float:
    """`graph.route_cost` of a path whose ids are checked; 0 for a single vertex."""
    seen = set()
    for v in vertices:
        if not 0 <= v < graph.n:
            raise ScenarioError(f"vertex id {v} out of range 0..{graph.n - 1}")
        if v in seen:
            raise ScenarioError(f"repeated vertex id {v} in path")
        seen.add(v)
    if not vertices:
        raise ScenarioError("path must contain at least one vertex")
    return graph.route_cost(vertices)


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


def _field_name(where: str, key: Union[str, int]) -> str:
    if isinstance(key, int):
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def _number(value, where: str, key: Union[str, int]) -> float:
    """A JSON number as a float; integers too large for a float become inf or -inf."""
    if type(value) is not int and type(value) is not float:
        raise ScenarioError(
            f"{_field_name(where, key)} must be a number, got {reprlib.repr(value)}")
    try:
        return float(value)
    except OverflowError:  # math.copysign would overflow on the same integer
        return -math.inf if value < 0 else math.inf


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
    mat = np.empty((n, n))
    for i in range(n):
        where = f"distance_matrix[{i}]"
        row = read_field(rows, i, list, "distance_matrix")
        if len(row) != n:
            raise ScenarioError(f"distance_matrix must be {n}x{n}, {where} has {len(row)} entries")
        mat[i] = [_number(x, where, j) for j, x in enumerate(row)]
    return mat


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
             if "distance_matrix" in doc else MetricGraph(vertices))
    return _verified(Scenario(graph, read_ints(doc, "starts"), read_field(doc, "budget", float),
                              read_field(doc, "alpha", int), read_field(doc, "reward_kind", str)))


def load_json(data: Union[bytes, str]):
    """Parse UTF-8 JSON text; what json.loads refuses becomes a ScenarioError."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # also too deep, or an over-long integer
        raise ScenarioError(f"not valid JSON: {exc}") from exc


def load_scenario(data: Union[bytes, str]) -> Scenario:
    """Parse a UTF-8 JSON scenario document and validate every invariant."""
    return scenario_from_document(load_json(data))


def read_document(path: str, load: Callable[[bytes], T]) -> tuple[T, bytes]:
    """`load` of the bytes of the file at `path`, with the file's name in every error.

    Also returns the bytes read, which solution documents digest. A metric
    report that the error carries is kept.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    try:
        return load(data), data
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}", exc.report) from exc


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


def _field_value(terms: Sequence[tuple[float, float, float, float]], x: float, y: float) -> float:
    """The field at (x, y); `terms` holds each bump's (cx, cy, amplitude, 2.0 * sigma ** 2)."""
    total = 0.0
    for cx, cy, amplitude, spread in terms:
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        total += amplitude * math.exp(-r2 / spread)
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
    # Each bump's (cx, cy, amplitude, 2 sigma^2), drawn in this order, then the background's.
    terms = [(float(rng.uniform(0.15 * side, 0.85 * side)),
              float(rng.uniform(0.15 * side, 0.85 * side)), float(rng.uniform(0.9, 1.0)),
              2.0 * float(rng.uniform(side / 9.0, side / 6.4)) ** 2) for _ in range(bumps)]
    terms.append((side / 2.0, side / 2.0, 0.3, 2.0 * (0.9 * side) ** 2))

    pos = (_grid_positions(n_vertices, side) if layout == "grid"
           else rng.uniform(0.0, side, size=(n_vertices, 2)).tolist())

    # Both peaks are > 0: the background bump alone keeps the field >= 0.3 * exp(-4050 / 13122) ~ 0.22.
    values = np.array([_field_value(terms, x, y) for x, y in pos])
    rewards = np.rint(100.0 * values / float(values.max())).tolist()

    coverage: list[tuple[tuple[int, float], ...]] = [()] * n_vertices
    if reward_kind == "coverage":
        cells_per_side = max(2, math.ceil(math.sqrt(n_vertices) / 2))
        pitch = side / cells_per_side
        centers = [((i + 0.5) * pitch, (j + 0.5) * pitch)
                   for j in range(cells_per_side) for i in range(cells_per_side)]
        cell_vals = np.array([_field_value(terms, cx, cy) for cx, cy in centers])
        cell_w = np.rint(100.0 * cell_vals / float(cell_vals.max())).tolist()
        radius = 1.3 * pitch
        coverage = [tuple((c, cell_w[c]) for c, (cx, cy) in enumerate(centers)
                          if math.hypot(x - cx, y - cy) <= radius) for x, y in pos]

    vertices = [Vertex(k, x, y, reward, cells)
                for k, ((x, y), reward, cells) in enumerate(zip(pos, rewards, coverage))]
    graph, starts = MetricGraph(vertices), rng.integers(0, n_vertices, size=n_robots)
    return _verified(Scenario(graph, starts, budget, alpha, reward_kind))


def resample_starts(scenario: Scenario, seed: int) -> Scenario:
    """New scenario with starts redrawn uniformly from the vertices."""
    rng = np.random.default_rng(seed)
    return scenario.with_starts(rng.integers(0, scenario.graph.n, size=scenario.n_robots))
