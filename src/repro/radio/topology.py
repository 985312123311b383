"""Topology generators used throughout the reproduction.

These produce the graph families the paper's results are exercised on:

- unit-disc / random geometric graphs (the sensor-field motivation and
  the class on which Theorem 5.1 is proved);
- paths, cycles, grids, trees (large-diameter families for the BFS
  energy experiments — Theorem 4.1's interesting regime is large ``D``);
- cliques and ``K_n - e`` (the Theorem 5.1 hard instances);
- assorted dense/sparse families for lemma validation.

All generators relabel vertices to ``0..n-1`` integers and guarantee a
connected result (taking the giant component where necessary), since the
paper's problems are defined on connected networks.

A **named scenario registry** sits on top of the raw generators:
``scenario(name, n, seed)`` builds a member of the family ``name`` with
(approximately) ``n`` vertices, so tests and benchmarks can sweep
diverse workloads by name (see :func:`register_scenario` /
:func:`scenario_names`).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, Optional, Tuple

import networkx as nx
import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from .sinr import GRID


def _relabel(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to contiguous integers 0..n-1 (stable order)."""
    mapping = {v: i for i, v in enumerate(graph.nodes)}
    return nx.relabel_nodes(graph, mapping, copy=True)


def _giant_component(graph: nx.Graph) -> nx.Graph:
    """Return the largest connected component, relabelled."""
    if graph.number_of_nodes() == 0:
        return graph
    largest = max(nx.connected_components(graph), key=len)
    return _relabel(graph.subgraph(largest).copy())


def path_graph(n: int) -> nx.Graph:
    """Path on ``n`` vertices — diameter ``n - 1`` (max-D stress case)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return nx.path_graph(n)


def cycle_graph(n: int) -> nx.Graph:
    """Cycle on ``n`` vertices — diameter ``floor(n/2)``."""
    if n < 3:
        raise ConfigurationError(f"n must be >= 3, got {n}")
    return nx.cycle_graph(n)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """``rows x cols`` grid — diameter ``rows + cols - 2``.

    Vertex ``r * cols + c`` sits at row ``r``, column ``c``.  Built on
    integers directly, in the node, adjacency and edge order of
    ``_relabel(nx.grid_2d_graph(rows, cols))``: each vertex lists its
    neighbours in increasing label order (above, left, below, right),
    and the edges run vertex by vertex, the one below before the one to
    the right.
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid dimensions must be >= 1")
    graph = nx.Graph()
    graph.add_nodes_from(range(rows * cols))
    graph.add_edges_from(_grid_edges(rows, cols))
    return graph


def _grid_edges(rows: int, cols: int) -> Iterator[Tuple[int, int]]:
    """The grid's edges, each vertex's below-edge before its right-edge."""
    n = rows * cols
    for v in range(n):
        if v + cols < n:
            yield v, v + cols
        if (v + 1) % cols:
            yield v, v + 1


def complete_graph(n: int) -> nx.Graph:
    """``K_n`` — diameter 1 (the Theorem 5.1 'yes' instance)."""
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    return nx.complete_graph(n)


def complete_minus_edge(n: int, edge: Optional[Tuple[int, int]] = None,
                        seed: SeedLike = None) -> Tuple[nx.Graph, Tuple[int, int]]:
    """``K_n - e`` — diameter 2 (the Theorem 5.1 'no' instance).

    The removed edge is chosen uniformly at random unless given.
    Returns ``(graph, removed_edge)``.
    """
    if n < 3:
        raise ConfigurationError(f"n must be >= 3 for K_n - e to be connected, got {n}")
    graph = nx.complete_graph(n)
    if edge is None:
        rng = make_rng(seed)
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n - 1))
        if v >= u:
            v += 1
        edge = (min(u, v), max(u, v))
    graph.remove_edge(*edge)
    return graph, edge


#: Forward neighbor-cell offsets ``(dx, dy)``.  With cells of side at
#: least ``radius``, a linked pair lies in one cell or in two cells
#: one of these offsets (or its negation) apart, so scanning the
#: same cell plus these four visits every unordered cell pair once.
_FORWARD_CELLS = ((1, -1), (1, 0), (1, 1), (0, 1))


def within_radius(dx, dy, radius):
    """The unit-disc link test: ``dx*dx + dy*dy <= radius*radius``.

    networkx's own geometric predicate, evaluated in exactly this order
    so float ties at distance ``radius`` resolve the same way.  Works on
    plain floats and elementwise on numpy arrays alike (both are IEEE
    doubles), so the cell-bucket generator and mobility re-wiring in
    :mod:`repro.radio.dynamic` link by one rule.
    """
    return dx * dx + dy * dy <= radius * radius


def _geometric_pairs(xy: np.ndarray,
                     radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """All row pairs ``u < v`` of ``xy`` that are :func:`within_radius`.

    Points are bucketed into square cells of side just above ``radius``
    (at most ``n + 1`` cells per axis, so cell keys cannot overflow);
    only same-cell and :data:`_FORWARD_CELLS` candidates are tested.
    The margin on the side keeps rounding in the cell coordinates from
    splitting a linked pair two cells apart.  Returns ``(u, v)`` int64
    arrays sorted by ``(u, v)``.
    """
    n = len(xy)
    low = xy.min(axis=0)
    span = float((xy.max(axis=0) - low).max())
    side = max(radius * (1.0 + 1e-6), span / n)
    cells = np.floor((xy - low) / side).astype(np.int64)
    cx, cy = cells[:, 0], cells[:, 1]
    rows = int(cy.max()) + 1
    key = cx * rows + cy
    order = np.argsort(key, kind="stable")
    cx, cy, key = cx[order], cy[order], key[order]
    cell_end = np.searchsorted(key, key, side="right")
    # The same cell: each point against the points after it in its cell.
    blocks = [(np.arange(1, n + 1), cell_end)]
    for dx, dy in _FORWARD_CELLS:
        ny = cy + dy
        target = (cx + dx) * rows + ny
        start = np.searchsorted(key, target, side="left")
        stop = np.where((ny >= 0) & (ny < rows),
                        np.searchsorted(key, target, side="right"), start)
        blocks.append((start, stop))
    found = []
    for start, stop in blocks:
        counts = stop - start
        a = np.repeat(np.arange(n), counts)
        b = (np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts, counts)
             + np.repeat(start, counts))
        i, j = order[a], order[b]
        delta = xy[i] - xy[j]
        keep = within_radius(delta[:, 0], delta[:, 1], radius)
        i, j = i[keep], j[keep]
        found.append(np.minimum(i, j) * n + np.maximum(i, j))
    pairs = np.sort(np.concatenate(found))
    return pairs // n, pairs % n


def random_geometric(n: int, radius: Optional[float] = None,
                     seed: SeedLike = None) -> nx.Graph:
    """Random geometric (unit-disc) graph on the unit square.

    The sensor-network motivation of the paper's introduction: ``n``
    devices scattered in a field, connected when within ``radius``.
    Default radius is just above the connectivity threshold
    ``sqrt(2 ln n / (pi n))``; the giant component is returned (and is
    w.h.p. everything).

    Edges come from a numpy cell-bucket search (cells of side at least
    ``radius``, each point tested against its own and the forward
    neighbor cells) under networkx's exact predicate
    ``dx*dx + dy*dy <= radius*radius`` (:func:`within_radius`).  Pairs
    are added in sorted ``(u, v)`` order, so the graph equals what
    networkx's geometric generator makes of the same positions, vertex
    for vertex and neighbor for neighbor.  A connected graph is returned
    as built; only a disconnected one is cut to its giant component.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if radius is None:
        radius = 1.3 * math.sqrt(2.0 * math.log(max(2, n)) / (math.pi * n))
    elif not (math.isfinite(radius) and radius > 0):
        raise ConfigurationError(f"radius must be finite and positive, got {radius}")
    rng = make_rng(seed)
    xy = rng.random(size=(n, 2))
    u, v = _geometric_pairs(xy, radius)
    graph = nx.Graph()
    graph.add_nodes_from((i, {"pos": tuple(p)}) for i, p in enumerate(xy.tolist()))
    # Every edge names its endpoints by the vertex's own int object, as
    # networkx's generator does; a fresh int per endpoint (``u.tolist()``)
    # costs memory and slows every later adjacency scan.
    labels = np.array(list(graph), dtype=object)
    graph.add_edges_from(zip(labels[u].tolist(), labels[v].tolist()))
    if not nx.is_connected(graph):
        graph = _giant_component(graph)
    # The connectivity radius rides along as a graph attribute (node
    # positions already do, as ``pos``): mobility re-wiring in
    # repro.radio.dynamic recomputes links from exactly this geometry.
    graph.graph["radius"] = float(radius)
    return graph


def dense_geometric(n: int, seed: SeedLike = None,
                    multiplier: float = 4.0) -> nx.Graph:
    """Random geometric graph well above the connectivity threshold.

    Radius ``multiplier * sqrt(2 ln n / (pi n))`` — a dense sensor
    field where per-listener neighbor scans dominate slot cost; the
    engine-tier benchmarks run on this family.  Built by
    :func:`random_geometric`'s cell-bucket search, linking pairs with
    ``dx*dx + dy*dy <= radius*radius``.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if multiplier <= 0:
        raise ConfigurationError(f"multiplier must be positive, got {multiplier}")
    radius = multiplier * math.sqrt(2.0 * math.log(max(2, n)) / (math.pi * n))
    return random_geometric(n, radius=radius, seed=seed)


def random_tree(n: int, seed: SeedLike = None) -> nx.Graph:
    """Uniform random labelled tree (via random Prüfer sequence)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if n <= 2:
        return nx.path_graph(n)
    rng = make_rng(seed)
    prufer = [int(x) for x in rng.integers(0, n, size=n - 2)]
    return nx.from_prufer_sequence(prufer)


def erdos_renyi(n: int, p: Optional[float] = None, seed: SeedLike = None) -> nx.Graph:
    """Connected Erdős–Rényi graph (giant component of ``G(n, p)``)."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    if p is None:
        p = min(1.0, 2.0 * math.log(max(2, n)) / n)
    graph = nx.fast_gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31)))
    return _giant_component(graph)


def caterpillar(spine: int, legs_per_vertex: int = 2) -> nx.Graph:
    """A caterpillar tree: path spine with pendant legs.

    Large diameter with many low-degree leaves — a useful BFS stress
    family where most devices should sleep almost always.
    """
    if spine < 1:
        raise ConfigurationError(f"spine must be >= 1, got {spine}")
    if legs_per_vertex < 0:
        raise ConfigurationError("legs_per_vertex must be >= 0")
    graph = nx.path_graph(spine)
    next_id = spine
    for v in range(spine):
        for _ in range(legs_per_vertex):
            graph.add_edge(v, next_id)
            next_id += 1
    return graph


def barbell(clique_size: int, path_length: int) -> nx.Graph:
    """Two cliques joined by a path — dense ends, long thin middle.

    Exercises the MPX clustering on mixed density and gives BFS a
    topology where contention (the ``C`` of Lemma 3.1) varies wildly.
    """
    if clique_size < 3:
        raise ConfigurationError(f"clique_size must be >= 3, got {clique_size}")
    if path_length < 0:
        raise ConfigurationError("path_length must be >= 0")
    return _relabel(nx.barbell_graph(clique_size, path_length))


def star_graph(leaves: int) -> nx.Graph:
    """Star with ``leaves`` leaves — the max-degree case for Lemma 2.4."""
    if leaves < 1:
        raise ConfigurationError(f"leaves must be >= 1, got {leaves}")
    return nx.star_graph(leaves)


def lollipop(clique_size: int, path_length: int) -> nx.Graph:
    """Clique with a path tail — asymmetric density for diameter tests."""
    if clique_size < 3:
        raise ConfigurationError(f"clique_size must be >= 3, got {clique_size}")
    return _relabel(nx.lollipop_graph(clique_size, path_length))


def binary_tree(depth: int) -> nx.Graph:
    """Complete binary tree of the given depth."""
    if depth < 0:
        raise ConfigurationError(f"depth must be >= 0, got {depth}")
    return _relabel(nx.balanced_tree(2, depth))


def arboricity_upper_bound(graph: nx.Graph) -> int:
    """Cheap upper bound on arboricity: max over subgraph density.

    Uses the degeneracy bound ``arboricity <= degeneracy`` which is
    computable in linear time; enough to verify the ``O(log n)``
    arboricity claim of the Theorem 5.2 construction.
    """
    if graph.number_of_nodes() == 0:
        return 0
    core = nx.core_number(graph)
    return max(core.values())


def hypercube(dimension: int) -> nx.Graph:
    """The ``dimension``-cube: ``2^d`` vertices, diameter ``d``.

    A log-diameter, log-degree family — the opposite regime from paths
    for the BFS energy experiments.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    return _relabel(nx.hypercube_graph(dimension))


def grid_3d(x: int, y: int, z: int) -> nx.Graph:
    """A 3-dimensional grid — denser sensor-field geometry."""
    if min(x, y, z) < 1:
        raise ConfigurationError("3d grid dimensions must be >= 1")
    return _relabel(nx.grid_graph(dim=[x, y, z]))


def random_regular(n: int, degree: int = 3, seed: SeedLike = None) -> nx.Graph:
    """A random ``degree``-regular graph (an expander w.h.p.).

    Expanders have logarithmic diameter and no cluster structure to
    exploit — a stress family for the MPX distance proxy.
    """
    if degree < 3:
        raise ConfigurationError(f"degree must be >= 3, got {degree}")
    if n <= degree or (n * degree) % 2 != 0:
        raise ConfigurationError(
            f"need n > degree and n*degree even, got n={n}, degree={degree}"
        )
    rng = make_rng(seed)
    graph = nx.random_regular_graph(degree, n, seed=int(rng.integers(0, 2**31)))
    return _giant_component(graph)


def wheel(spokes: int) -> nx.Graph:
    """A wheel: hub + cycle — diameter 2 with one max-degree vertex."""
    if spokes < 3:
        raise ConfigurationError(f"spokes must be >= 3, got {spokes}")
    return _relabel(nx.wheel_graph(spokes + 1))


def expander(n: int, degree: int = 4, seed: SeedLike = None) -> nx.Graph:
    """A random even-degree regular graph — an expander w.h.p.

    Thin wrapper over :func:`random_regular` that forces an even degree
    so the ``n * degree`` parity constraint can never bite, making it
    safe for arbitrary ``n`` sweeps.
    """
    if n < 5:
        raise ConfigurationError(f"n must be >= 5, got {n}")
    if degree % 2 != 0:
        degree += 1
    degree = max(4, degree)
    if degree >= n:  # clamp to the largest even degree below n
        degree = n - 1 if (n - 1) % 2 == 0 else n - 2
    return random_regular(n, degree, seed=seed)


def small_world(n: int, k: int = 4, p: float = 0.1, seed: SeedLike = None) -> nx.Graph:
    """Watts–Strogatz small world: ring lattice with rewired shortcuts.

    Locally clustered like a geometric graph but with logarithmic
    diameter — a regime none of the other families cover.
    """
    if n < 5:
        raise ConfigurationError(f"n must be >= 5, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    rng = make_rng(seed)
    graph = nx.watts_strogatz_graph(
        n, min(k, n - 1), p, seed=int(rng.integers(0, 2**31))
    )
    return _giant_component(graph)


def star_of_paths(arms: int, arm_length: int) -> nx.Graph:
    """``arms`` disjoint paths of ``arm_length`` joined at one hub.

    Combines the star's max-degree stress with the path's large
    diameter: BFS wavefronts fan out down every arm simultaneously
    while the hub sees all the contention.
    """
    if arms < 2:
        raise ConfigurationError(f"arms must be >= 2, got {arms}")
    if arm_length < 1:
        raise ConfigurationError(f"arm_length must be >= 1, got {arm_length}")
    graph = nx.Graph()
    graph.add_node(0)
    next_id = 1
    for _ in range(arms):
        prev = 0
        for _ in range(arm_length):
            graph.add_edge(prev, next_id)
            prev = next_id
            next_id += 1
    return graph


def poisson_cluster(n: int, seed: SeedLike = None,
                    parents: Optional[int] = None,
                    spread: int = 48) -> nx.Graph:
    """Poisson-clustered sensor field on the SINR integer lattice.

    The parent/daughter point process of the discrete-power-control
    literature (see PAPERS.md): ``parents`` cluster centers fall
    uniformly on the :data:`~repro.radio.sinr.GRID` lattice, every
    device lands a Normal(0, ``spread``) integer offset from its
    (uniformly chosen) parent, and devices connect within the smallest
    disc radius that makes the field connected — the largest edge of a
    Euclidean minimum spanning tree, so all ``n`` devices are kept and
    connectivity holds by construction (no giant-component fallback).

    Positions are generated *as lattice integers* and exposed through
    the standard float ``pos`` attribute as exact multiples of
    ``1/GRID``, so the SINR layer's quantization round-trips them
    losslessly: the gain field this family induces is a pure function
    of ``(n, seed)``.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if spread < 1:
        raise ConfigurationError(f"spread must be >= 1, got {spread}")
    k = parents if parents is not None else max(1, round(n / 8))
    if k < 1:
        raise ConfigurationError(f"parents must be >= 1, got {parents}")
    rng = make_rng(seed)
    px = rng.integers(0, GRID + 1, size=k)
    py = rng.integers(0, GRID + 1, size=k)
    assign = rng.integers(0, k, size=n)
    dx = rng.normal(0.0, float(spread), size=n)
    dy = rng.normal(0.0, float(spread), size=n)
    xs = [
        min(GRID, max(0, int(px[assign[i]]) + round(float(dx[i]))))
        for i in range(n)
    ]
    ys = [
        min(GRID, max(0, int(py[assign[i]]) + round(float(dy[i]))))
        for i in range(n)
    ]
    # Prim's MST over squared lattice distances (exact ints); the
    # largest tree edge becomes the squared connection radius.
    infinity = 1 << 62
    best = [infinity] * n
    best[0] = 0
    in_tree = [False] * n
    radius2 = 0
    for _ in range(n):
        u = min(
            (i for i in range(n) if not in_tree[i]), key=best.__getitem__
        )
        in_tree[u] = True
        radius2 = max(radius2, best[u])
        for v in range(n):
            if not in_tree[v]:
                d2 = (xs[u] - xs[v]) ** 2 + (ys[u] - ys[v]) ** 2
                if d2 < best[v]:
                    best[v] = d2
    graph = nx.Graph()
    for i in range(n):
        graph.add_node(i, pos=(xs[i] / GRID, ys[i] / GRID))
    for i in range(n):
        for j in range(i + 1, n):
            d2 = (xs[i] - xs[j]) ** 2 + (ys[i] - ys[j]) ** 2
            if d2 <= radius2:
                graph.add_edge(i, j)
    graph.graph["radius"] = math.sqrt(radius2) / GRID
    return graph


def power_law(n: int, m: int = 2, seed: SeedLike = None) -> nx.Graph:
    """Barabási–Albert preferential attachment — power-law degrees.

    A few hubs of very high degree amid many leaves: the degree
    heterogeneity stress case for contention-sensitive protocols.
    """
    if n < 3:
        raise ConfigurationError(f"n must be >= 3, got {n}")
    rng = make_rng(seed)
    graph = nx.barabasi_albert_graph(
        n, min(m, n - 1), seed=int(rng.integers(0, 2**31))
    )
    return _relabel(graph)


# ---------------------------------------------------------------------------
# Named scenario registry
# ---------------------------------------------------------------------------

#: A scenario factory: ``(n, seed) -> connected graph on 0..m-1`` with
#: ``m`` approximately ``n`` (exact for deterministic families; the
#: giant component for stochastic ones).
ScenarioFactory = Callable[[int, SeedLike], nx.Graph]

_SCENARIOS: Dict[str, ScenarioFactory] = {}

#: Families whose factory ignores the seed: every seed yields the same
#: graph for a given ``n``.  The experiment layer only fuses replicas
#: of such families into one batched engine run (the batched engine
#: shares one compiled topology across all replica lanes).
_DETERMINISTIC: set = set()


def register_scenario(name: str, factory: ScenarioFactory,
                      overwrite: bool = False,
                      deterministic: bool = False) -> None:
    """Register a named graph family for :func:`scenario` lookup.

    Factories must return a connected graph with contiguous integer
    labels ``0..m-1`` (the property-test suite enforces this for every
    registered family).  Declare ``deterministic=True`` when the factory
    ignores its seed (same ``n`` -> same graph, always); deterministic
    families are eligible for replica batching in seed sweeps (see
    :func:`scenario_is_deterministic`), so only declare it when it truly
    holds — the registry property suite verifies the claim.
    """
    if not name:
        raise ConfigurationError("scenario name must be non-empty")
    if not overwrite and name in _SCENARIOS:
        raise ConfigurationError(f"scenario {name!r} is already registered")
    _SCENARIOS[name] = factory
    if deterministic:
        _DETERMINISTIC.add(name)
    else:
        _DETERMINISTIC.discard(name)


def scenario_names() -> Tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def scenario_is_deterministic(name: str) -> bool:
    """Whether the named family is seed-independent (same ``n``, same graph).

    Deterministic families are the ones the sweep runner may fuse into
    replica-batched engine runs: all seeds of a cell share one topology,
    so one compiled adjacency serves every replica.  Raises
    :class:`~repro.errors.ConfigurationError` for unknown names.
    """
    if name not in _SCENARIOS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        )
    return name in _DETERMINISTIC


def scenario(name: str, n: int, seed: SeedLike = None) -> nx.Graph:
    """Build a member of the named family with approximately ``n`` vertices.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names;
    the registered families are listed by :func:`scenario_names`.
    """
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        ) from None
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    return factory(n, seed)


def _near_square(n: int) -> Tuple[int, int]:
    """Grid dimensions ``rows x cols`` with ``rows * cols >= n``, near-square."""
    rows = max(1, int(math.isqrt(n)))
    cols = max(1, math.ceil(n / rows))
    return rows, cols


def _register_default_scenarios() -> None:
    """Register the built-in families under their canonical names.

    Each adapter maps the single size knob ``n`` onto the family's
    natural parameters; minimum sizes are clamped so every family is
    well-defined for any ``n >= 1``.
    """
    register_scenario("path", lambda n, seed=None: path_graph(n),
                      deterministic=True)
    register_scenario("cycle", lambda n, seed=None: cycle_graph(max(3, n)),
                      deterministic=True)
    register_scenario("grid", lambda n, seed=None: grid_graph(*_near_square(n)),
                      deterministic=True)
    register_scenario("complete", lambda n, seed=None: complete_graph(max(2, n)),
                      deterministic=True)
    register_scenario("tree", lambda n, seed=None: random_tree(n, seed=seed),
                      deterministic=False)
    register_scenario(
        "geometric", lambda n, seed=None: random_geometric(n, seed=seed),
        deterministic=False,
    )
    register_scenario(
        "dense_geometric", lambda n, seed=None: dense_geometric(n, seed=seed),
        deterministic=False,
    )
    register_scenario(
        "erdos_renyi", lambda n, seed=None: erdos_renyi(n, seed=seed),
        deterministic=False,
    )
    register_scenario(
        "caterpillar",
        lambda n, seed=None: caterpillar(max(1, n // 3), 2),
        deterministic=True,
    )
    register_scenario(
        "barbell",
        lambda n, seed=None: barbell(max(3, n // 3), max(0, n - 2 * max(3, n // 3))),
        deterministic=True,
    )
    register_scenario("star", lambda n, seed=None: star_graph(max(1, n - 1)),
                      deterministic=True)
    register_scenario(
        "lollipop",
        lambda n, seed=None: lollipop(max(3, n // 2), max(0, n - max(3, n // 2))),
        deterministic=True,
    )
    register_scenario(
        "binary_tree",
        lambda n, seed=None: binary_tree(
            max(0, int(math.log2(max(1, n) + 1)) - 1)
        ),
        deterministic=True,
    )
    register_scenario(
        "hypercube",
        lambda n, seed=None: hypercube(max(1, int(math.log2(max(2, n))))),
        deterministic=True,
    )
    register_scenario("wheel", lambda n, seed=None: wheel(max(3, n - 1)),
                      deterministic=True)
    register_scenario(
        "expander", lambda n, seed=None: expander(max(6, n), 4, seed=seed),
        deterministic=False,
    )
    register_scenario(
        "small_world", lambda n, seed=None: small_world(max(5, n), seed=seed),
        deterministic=False,
    )
    register_scenario(
        "star_of_paths",
        lambda n, seed=None: star_of_paths(
            max(2, int(math.isqrt(max(4, n)))),
            max(1, (n - 1) // max(2, int(math.isqrt(max(4, n))))),
        ),
        deterministic=True,
    )
    register_scenario(
        "power_law", lambda n, seed=None: power_law(max(3, n), seed=seed),
        deterministic=False,
    )
    # The scenario adapter derives the point-process seed from ``n``
    # itself, so the family is registered deterministic (same ``n`` ->
    # same field) and therefore eligible for replica/mega batching —
    # the regime the SINR differential grid sweeps.
    register_scenario(
        "poisson_cluster",
        lambda n, seed=None: poisson_cluster(n, seed=n),
        deterministic=True,
    )


_register_default_scenarios()
