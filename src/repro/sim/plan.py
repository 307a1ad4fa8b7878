"""Compiled circuit plans: the compile/execute split of the circuit solver.

The evaluation pipeline's hot path simulates hundreds of *structurally
identical* netlists per sweep -- pass@k samples mutate instance settings far
more often than topology.  Yet assembling the flattened port index, the
structural masks, the Tarjan condensation and the cascade schedule is pure
*structure* work: none of it depends on the wavelength grid or on the actual
S-matrix values.  This module pays that work exactly once per topology:

``compile_netlist``
    Captures everything wavelength- and settings-independent in a
    :class:`CompiledCircuit`: the flattened port index (spans / owner
    arrays), the connection structure, the SCC condensation of the
    port-level signal-flow graph (:class:`CascadePlan`), and a
    **level-batched schedule** over every external column with precomputed
    gather/scatter index arrays.

``execute_cascade``
    Runs a compiled circuit against concrete per-instance S-matrices by
    block-triangular elimination of the signal-flow graph:

    * *Topological levels.* Singleton components are grouped by longest-path
      depth in the condensation; each level's accumulation is one
      fancy-indexed gather, one multiply and one contiguous slice ``+=``
      over all of the level's edges (feedback clusters keep their small
      local ``(W, n, n)`` solves, with prebuilt ``(rows, cols)`` fill
      arrays).  The workspace is port-major and permuted so every level's
      receiving rows are contiguous.
    * *Row restriction.*  Ports that no injected wave structurally reaches
      never enter the workspace.  When every instance S-matrix of a call is
      symmetric, a second schedule over a *reciprocity cover* computes only
      a structurally-covering subset of the external columns and mirrors
      the rest.
    * *Wavelength blocks.* The workspace is processed in blocks sized to
      stay cache-resident.

``execute_dense``
    The dense backend over the same compiled assembly (spans, connection
    sources, injection ports), so both backends share one compile step.

:class:`~repro.sim.circuit.CircuitSolver` keys compiled plans in an LRU cache
by :func:`topology_fingerprint` -- instance models (registry ref + function
identity), per-instance structural masks, connections and external ports --
so a settings-only change (the common case) reuses the plan while a topology
change, a mask change (e.g. a coupling driven to zero) or a model
re-registration recompiles.  Both executors evaluate the very linear system
the dense backend solves (the cascade as its block-triangular elimination,
with structurally-zero terms dropped), so all paths agree to solver
round-off, well below the 1e-9 budget the test suite enforces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..netlist.errors import WrongPortError
from ..netlist.schema import Netlist, format_endpoint, parse_endpoint
from .batch import fuse_sample_stacks
from .guardrails import _record_degradation, collect_degradations, solve_with_fallback
from .sparams import SMatrix

__all__ = [
    "CascadePlan",
    "CompiledCircuit",
    "build_cascade_plan",
    "collect_degradations",
    "compile_netlist",
    "solve_with_fallback",
    "strongly_connected_components",
    "structural_masks",
    "topology_fingerprint",
    "execute_cascade",
    "execute_dense",
]

#: Wavelength points per block of the reciprocity-mirror transpose (keeps
#: the strided read/write pair cache-resident on batch-fused grids).
_MIRROR_BLOCK = 256

#: Target size (bytes) of the cascade executor's per-block workspace.  The
#: wavelength axis is processed in blocks small enough that the whole
#: ``(rows, block, cols)`` workspace -- and the contribution buffer -- stay
#: cache-resident across the level sweep.
_WORKSPACE_TARGET_BYTES = 4 << 20


# ----------------------------------------------------------------------
# Signal-flow condensation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CascadePlan:
    """The evaluation order the cascade backend derives from a netlist.

    ``M = S C`` is extremely sparse: column ``j`` is non-zero only on the
    ports of the instance that owns ``partner(j)``.  The strongly-connected
    components of the graph "``b_i`` depends on ``b_j``" are exactly the
    circuit's feedback clusters (rings, coupled-ring loops, self-coupled
    instances), while feed-forward structures -- splitter trees, MZI
    meshes, switch fabrics -- condense into singletons.

    Attributes
    ----------
    components:
        Port-index groups (strongly-connected components of the signal-flow
        graph) in topological evaluation order; feed-forward ports appear as
        singletons.
    feedback:
        The subset of :attr:`components` that require a local dense solve:
        components of two or more ports, plus self-coupled single ports.
    num_ports:
        Total number of flattened instance ports.
    """

    components: Tuple[Tuple[int, ...], ...]
    feedback: Tuple[Tuple[int, ...], ...]
    num_ports: int

    @property
    def num_feedback_ports(self) -> int:
        """Total number of ports inside feedback clusters."""
        return sum(len(component) for component in self.feedback)

    @property
    def largest_feedback_cluster(self) -> int:
        """Port count of the largest feedback cluster (0 when feed-forward)."""
        return max((len(component) for component in self.feedback), default=0)


def strongly_connected_components(
    adjacency: Sequence[Sequence[int]],
) -> List[List[int]]:
    """Tarjan's algorithm, iterative; components in reverse topological order.

    ``adjacency[v]`` lists the successors of node ``v``.  Each emitted
    component precedes every component that can reach it, so reversing the
    returned list yields a topological order of the condensation.
    """
    num_nodes = len(adjacency)
    index = [-1] * num_nodes
    lowlink = [0] * num_nodes
    on_stack = [False] * num_nodes
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in range(num_nodes):
        if index[root] != -1:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, next_edge = work[-1]
            if next_edge == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            descended = False
            successors = adjacency[node]
            for position in range(next_edge, len(successors)):
                successor = successors[position]
                if index[successor] == -1:
                    work[-1] = (node, position + 1)
                    work.append((successor, 0))
                    descended = True
                    break
                if on_stack[successor]:
                    lowlink[node] = min(lowlink[node], index[successor])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def structural_masks(matrices: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-instance boolean masks of S-matrix entries non-zero at any wavelength.

    This is the single definition of "structurally non-zero" shared by plan
    construction and the solve itself.
    """
    return [np.any(data != 0, axis=0) for data in matrices]


def _dependent_rows(
    masks: Sequence[np.ndarray],
    spans: Sequence[Tuple[int, int]],
    owner: np.ndarray,
    partner: np.ndarray,
) -> List[List[int]]:
    """Adjacency of the signal-flow graph: per port ``j``, the rows ``i`` with
    ``M[i, j]`` structurally non-zero (``b_i`` depends on ``b_j``)."""
    adjacency: List[List[int]] = [[] for _ in range(int(owner.size))]
    for port in range(int(owner.size)):
        source = int(partner[port])
        if source < 0:
            continue
        instance = int(owner[source])
        start, _ = spans[instance]
        adjacency[port] = [
            start + int(row_local)
            for row_local in np.nonzero(masks[instance][:, source - start])[0]
        ]
    return adjacency


def build_cascade_plan(adjacency: Sequence[Sequence[int]]) -> CascadePlan:
    """Condense the port-level signal-flow graph into an evaluation plan.

    ``adjacency`` lists, per flattened port, its dependent rows (see
    :func:`_dependent_rows`).
    """
    components = strongly_connected_components(adjacency)
    components.reverse()  # dependencies first

    ordered: List[Tuple[int, ...]] = []
    feedback: List[Tuple[int, ...]] = []
    for component in components:
        component_tuple = tuple(sorted(component))
        ordered.append(component_tuple)
        if len(component_tuple) > 1:
            feedback.append(component_tuple)
        else:
            port = component_tuple[0]
            if port in adjacency[port]:  # self-coupled port
                feedback.append(component_tuple)
    return CascadePlan(
        components=tuple(ordered), feedback=tuple(feedback), num_ports=len(adjacency)
    )


# ----------------------------------------------------------------------
# Schedule building blocks (all index arrays, no matrix data)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SelfLoop:
    """A self-coupled singleton component: ``b = r / (1 - M_pp)``.

    ``row`` is the port's row in the schedule's workspace.
    """

    row: int
    instance: int
    row_local: int
    col_local: int


@dataclass(frozen=True)
class _ClusterSolve:
    """A feedback cluster's local dense solve with prebuilt fill indices.

    ``rows`` are the cluster ports' workspace rows (aligned with the local
    positions of ``fill``); ``fill`` holds, per contributing instance, the
    fancy-index arrays ``(instance, system_rows, system_cols, m_rows,
    m_cols)`` such that ``system[:, system_rows, system_cols] =
    -matrices[instance][:, m_rows, m_cols]`` assembles the cluster's
    ``I - M`` block in one assignment.
    """

    rows: np.ndarray
    fill: Tuple[Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class _PullLevel:
    """One level's batched accumulation of its incoming edge contributions.

    Workspace rows are laid out by topological depth with each depth's
    edge-receiving rows first and contiguous (``row_lo:row_hi``), so the
    accumulation is a single slice ``+=`` -- no scatter index.  Edges in
    ``start:stop`` (of the schedule's edge arrays) are sorted by target row;
    ``src`` are their source workspace rows, ``starts`` the segment
    boundaries per target row, and ``single_source`` flags the feed-forward
    common case of one in-edge per row, which skips the segment sum
    entirely.  Multi-source segments are summed by rank decomposition --
    gather every segment's first edge, then one fancy add per extra rank
    (``extra``) -- which vectorises where ``np.add.reduceat`` falls back to
    a scalar inner loop.
    """

    start: int
    stop: int
    src: np.ndarray
    starts: np.ndarray
    #: Per extra in-edge rank ``j >= 1``: (segment positions with more than
    #: ``j`` edges, edge positions of their rank-``j`` contribution).
    extra: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    row_lo: int
    row_hi: int
    single_source: bool


@dataclass(frozen=True)
class _Step:
    """One topological depth: pull incoming edges, then solve its feedback."""

    pull: Optional[_PullLevel]
    self_loops: Tuple[_SelfLoop, ...]
    clusters: Tuple[_ClusterSolve, ...]


@dataclass(frozen=True)
class _CoefGather:
    """One batched gather of edge coefficients into the flat edge array.

    Instance matrices of equal port count are stacked once per execution
    (see :attr:`CompiledCircuit.stack_members`); then
    ``coef[positions] = stacks[stack][pos, :, m_rows, m_cols]`` fills every
    edge whose owning instance lives in that stack -- one advanced-indexing
    op per stack instead of one per instance.
    """

    stack: int
    pos: np.ndarray
    m_rows: np.ndarray
    m_cols: np.ndarray
    positions: np.ndarray


@dataclass(frozen=True)
class _Schedule:
    """A restricted, row-compacted level schedule over some external columns.

    Attributes
    ----------
    columns:
        External column indices this schedule computes (all of ``0..E-1``,
        or the reciprocity cover's kept columns).
    num_rows:
        Rows of the workspace: only ports structurally reachable from the
        injections of :attr:`columns` (plus every external output row),
        compacted.
    injection:
        Per column, ``(column position, instance, workspace rows, local
        matrix rows, injected local column)`` -- the seed ``r = S E``
        restricted to the structurally non-zero rows of the injected device
        column.
    out_rows:
        Workspace row of every external port (the result's row axis).
    steps / coef_gathers / num_edges / max_push_edges:
        The level schedule over the schedule's edges, the batched per-stack
        coefficient gathers, the edge count and the largest single-level
        edge count (sizes the reusable contribution buffer).
    """

    columns: np.ndarray
    num_rows: int
    injection: Tuple[Tuple[int, int, np.ndarray, np.ndarray, int], ...]
    out_rows: np.ndarray
    steps: Tuple[_Step, ...]
    coef_gathers: Tuple[_CoefGather, ...]
    num_edges: int
    max_push_edges: int


@dataclass(frozen=True)
class CompiledCircuit:
    """Everything wavelength- and settings-independent about one netlist.

    A compiled circuit is valid for any netlist whose
    :func:`topology_fingerprint` matches: same instance names and iteration
    order, same resolved models (registry ref + function identity + port
    names), same structural masks, same connections and external ports.
    Execution then only needs the concrete per-instance S-matrix data (in
    netlist instance order, the order of :attr:`spans`) and the wavelength
    count.

    Attributes
    ----------
    fingerprint:
        The topology fingerprint this plan was compiled under (the plan-cache
        key).
    spans / owner:
        ``(start, size)`` of each instance's contiguous port range and the
        owning instance of every flattened port.
    sources:
        Connection structure of the dense assembly: per column ``j`` the
        ports ``k`` with ``C[k, j] = 1``.
    external_names / injection_ports:
        External port names and, per external column, the flattened instance
        port behind it.
    plan:
        The cascade backend's :class:`CascadePlan` (components in
        topological order, feedback clusters); ``None`` when a port has
        several partners (unvalidated netlists), in which case only the
        dense executor applies.
    schedule:
        The level-batched execution schedule over every external column;
        ``None`` when the cascade executor does not apply.
    cover_schedule / cover_mirror:
        The *reciprocity cover*: for circuits whose instance S-matrices are
        all symmetric the composed response is symmetric too, so only a
        structurally-covering subset of external columns is computed and
        the ``cover_mirror`` columns are filled by transposing (their
        remaining block is structurally zero, proven by reachability).
        ``None`` when no column can be dropped.  Symmetry is a *value*
        property, so the executor applies the cover only when the concrete
        matrices of a call are symmetric; :attr:`schedule` remains the
        general path.
    stack_members:
        Instance indices grouped by port count: execution stacks each
        group's matrices into one ``(m, W, n, n)`` array so edge
        coefficients gather in one advanced-indexing op per stack.
    """

    fingerprint: str
    spans: Tuple[Tuple[int, int], ...]
    owner: np.ndarray
    sources: Tuple[Tuple[int, Tuple[int, ...]], ...]
    external_names: Tuple[str, ...]
    injection_ports: np.ndarray
    plan: Optional[CascadePlan]
    schedule: Optional[_Schedule]
    cover_schedule: Optional[_Schedule]
    cover_mirror: Optional[np.ndarray]
    stack_members: Tuple[np.ndarray, ...]

    @property
    def num_ports(self) -> int:
        """Total number of flattened instance ports."""
        return int(self.owner.size)

    @property
    def num_external(self) -> int:
        """Number of external circuit ports."""
        return int(self.injection_ports.size)

    @property
    def supports_cascade(self) -> bool:
        """Whether the level-batched cascade executor applies to this plan."""
        return self.schedule is not None

    def schedule_for(self, symmetric: bool) -> Optional[_Schedule]:
        """The schedule the cascade executor runs for a call.

        The reciprocity cover when the call's matrices are all symmetric and
        the plan has one, else the full schedule.
        """
        if symmetric and self.cover_schedule is not None:
            return self.cover_schedule
        return self.schedule


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def topology_fingerprint(
    netlist: Netlist,
    instance_summaries: Iterable[Tuple[str, str, str, str, Tuple[str, ...], bytes]],
) -> str:
    """Key a netlist's *structure*: models, masks, connections, externals.

    ``instance_summaries`` yields, per instance **in netlist iteration
    order**, ``(name, component, registry ref, function identity, port
    names, structural mask bytes)``.  Settings are deliberately excluded: a
    settings-only change that leaves the structural masks intact reuses the
    compiled plan, while a model re-registration (new function identity,
    like the instance cache), a mask change or any rewiring produces a new
    fingerprint.  The raw component names, the full ``models`` section and
    the external ports (in order -- it defines the result's port order) are
    included so two netlists with equal fingerprints are also
    indistinguishable to structural validation.
    """
    parts: List[str] = []
    mask_parts: List[bytes] = []
    for name, component, ref, func_id, ports, mask_bytes in instance_summaries:
        parts.append(f"{name}\x1f{component}\x1f{ref}\x1f{func_id}\x1f{','.join(ports)}")
        mask_parts.append(mask_bytes)
    parts.append("\x1c")
    parts.extend(f"{key}\x1f{value}" for key, value in sorted(netlist.connections.items()))
    parts.append("\x1c")
    parts.extend(f"{name}\x1f{endpoint}" for name, endpoint in netlist.ports.items())
    parts.append("\x1c")
    parts.extend(f"{key}\x1f{value!r}" for key, value in sorted(netlist.models.items()))
    digest = hashlib.sha256("\x1e".join(parts).encode("utf-8"))
    digest.update(b"\x1d".join(mask_parts))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Compilation: structural views
# ----------------------------------------------------------------------
def _connection_sources(
    netlist: Netlist, index: Dict[Tuple[str, str], int]
) -> Dict[int, List[int]]:
    """Connection structure: per column ``j``, ports ``k`` with ``C[k, j] = 1``."""
    pairs = set()
    for key, value in netlist.connections.items():
        a = parse_endpoint(key)
        b = parse_endpoint(value)
        for endpoint, raw in ((a, key), (b, value)):
            if endpoint not in index:
                raise WrongPortError(
                    f"connection endpoint {raw!r} does not correspond to any "
                    "instance port"
                )
        ia = index[a]
        ib = index[b]
        pairs.add((ia, ib))
        pairs.add((ib, ia))
    sources: Dict[int, List[int]] = {}
    for source, column in sorted(pairs):
        sources.setdefault(column, []).append(source)
    return sources


def _injection_ports(
    netlist: Netlist, index: Dict[Tuple[str, str], int]
) -> Tuple[Tuple[str, ...], np.ndarray]:
    """External port names and the flattened instance port behind each."""
    external_names = tuple(netlist.ports)
    injection_ports = np.empty(len(external_names), dtype=int)
    for column, ext_name in enumerate(external_names):
        endpoint = parse_endpoint(netlist.ports[ext_name])
        if endpoint not in index:
            raise WrongPortError(
                f"external port {ext_name!r} maps to "
                f"{format_endpoint(*endpoint)!r} which is not an instance port"
            )
        injection_ports[column] = index[endpoint]
    return external_names, injection_ports


def _segment_extras(
    starts: np.ndarray, count: int
) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Rank decomposition of variable-length segment sums (see _PullLevel)."""
    sizes = np.diff(np.append(starts, count))
    extras: List[Tuple[np.ndarray, np.ndarray]] = []
    rank = 1
    while True:
        segments = np.nonzero(sizes > rank)[0]
        if segments.size == 0:
            return tuple(extras)
        extras.append((segments, starts[segments] + rank))
        rank += 1


def _component_depths(
    components: Sequence[Tuple[int, ...]],
    adjacency: Sequence[Sequence[int]],
    comp_of: np.ndarray,
) -> List[int]:
    """Longest-path depth of every component in the (topological) condensation.

    Components at the same depth cannot depend on one another -- any edge
    strictly increases depth -- so each depth forms one batchable level.
    """
    depth = [0] * len(components)
    for ci, component in enumerate(components):  # topological: dependencies first
        next_depth = depth[ci] + 1
        for port in component:
            for row in adjacency[port]:
                cj = int(comp_of[row])
                if cj != ci and depth[cj] < next_depth:
                    depth[cj] = next_depth
    return depth


# ----------------------------------------------------------------------
# Compilation: reachability and the level schedules
# ----------------------------------------------------------------------
def _reachability(
    num_ports: int,
    num_external: int,
    injection_span_rows: Sequence[np.ndarray],
    edges: Sequence[Tuple[int, int, int]],
    cluster_components: Sequence[Tuple[int, ...]],
    depth_of_port: np.ndarray,
) -> np.ndarray:
    """Per-(port, column) structural support of the cascade workspace.

    Conservative boolean propagation of the injected seeds along the
    condensation: an unset cell is *exactly* zero for every wavelength and
    every setting compatible with the structural masks, so the restricted
    schedules drop only terms that contribute nothing.
    """
    reach = np.zeros((num_ports, num_external), dtype=bool)
    for column, rows in enumerate(injection_span_rows):
        reach[rows, column] = True
    clusters_by_depth: Dict[int, List[Tuple[int, ...]]] = {}
    for component in cluster_components:
        clusters_by_depth.setdefault(int(depth_of_port[component[0]]), []).append(
            component
        )
    cursor = 0
    num_levels = (int(depth_of_port.max()) + 1) if num_ports else 0
    for level in range(num_levels):
        while cursor < len(edges) and edges[cursor][0] == level:
            _, row, port = edges[cursor]
            reach[row] |= reach[port]
            cursor += 1
        for component in clusters_by_depth.get(level, ()):
            members = list(component)
            merged = reach[members].any(axis=0)
            reach[members] |= merged
    return reach


def _cover_columns(
    reach: np.ndarray, injection_ports: np.ndarray
) -> Tuple[List[int], List[int]]:
    """Split columns into a structurally-covering set and its mirror.

    For a symmetric (reciprocal) circuit ``S[i, j] = S[j, i]``, so a column
    ``j`` need not be computed if every entry it shares with other dropped
    columns -- including its diagonal -- is structurally zero: ``S[i, j]``
    with kept ``i`` is recovered from row ``j`` of the kept columns.  The
    dropped set must therefore be independent under "column j reaches
    external row i" (checked both ways via reachability).  Greedy: drop the
    most expensive columns first.
    """
    num_external = int(injection_ports.size)
    # pair[i, j]: injecting at column j structurally reaches external row i.
    pair = reach[injection_ports]
    activity = reach.sum(axis=0)
    dropped: List[int] = []
    for column in sorted(range(num_external), key=lambda c: -int(activity[c])):
        if pair[column, column]:
            continue
        if any(pair[column, other] or pair[other, column] for other in dropped):
            continue
        dropped.append(column)
    kept = [column for column in range(num_external) if column not in dropped]
    return kept, sorted(dropped)


def _build_level_schedule(
    columns: Sequence[int],
    reach: np.ndarray,
    edges: Sequence[Tuple[int, int, int]],
    depth_of_port: np.ndarray,
    cluster_components: Sequence[Tuple[int, ...]],
    self_loop_ports: Dict[int, Tuple[int, int, int]],
    cluster_fill_entries: Dict[Tuple[int, ...], Dict[int, List[Tuple[int, int, int, int]]]],
    spans: Sequence[Tuple[int, int]],
    owner: np.ndarray,
    partner: np.ndarray,
    injection_ports: np.ndarray,
    injection_instances: np.ndarray,
    injection_locals: np.ndarray,
    injection_span_ports: Sequence[np.ndarray],
    injection_span_locals: Sequence[np.ndarray],
    instance_stack: np.ndarray,
    instance_pos: np.ndarray,
) -> _Schedule:
    """Build the restricted, row-compacted level schedule of ``columns``."""
    columns = list(columns)
    active = reach[:, columns].any(axis=1)
    # Every external port row appears in the result, reachable or not.
    active[injection_ports] = True
    # A cluster is solved whole: if any member is active, all are.
    for component in cluster_components:
        if active[list(component)].any():
            active[list(component)] = True

    schedule_edges = [edge for edge in edges if active[edge[2]]]
    receiving = set(edge[1] for edge in schedule_edges)

    # Workspace rows grouped by depth, receiving rows first (each depth's
    # pull is then a contiguous slice); inside each block, original port
    # order -- schedule_edges are sorted by (depth, target port, source
    # port), so their workspace target rows are sorted too.
    num_levels = (int(depth_of_port.max()) + 1) if depth_of_port.size else 0
    ports_by_depth: List[List[int]] = [[] for _ in range(num_levels)]
    for port in np.nonzero(active)[0]:
        ports_by_depth[int(depth_of_port[port])].append(int(port))
    row_of = np.full(int(depth_of_port.size), -1, dtype=int)
    row_bounds: List[Tuple[int, int]] = []
    next_row = 0
    for level_ports in ports_by_depth:
        lo = next_row
        for port in level_ports:
            if port in receiving:
                row_of[port] = next_row
                next_row += 1
        hi = next_row
        for port in level_ports:
            if port not in receiving:
                row_of[port] = next_row
                next_row += 1
        row_bounds.append((lo, hi))
    num_rows = next_row

    # Per-level structures over the schedule's edges.
    self_loops: List[List[_SelfLoop]] = [[] for _ in range(num_levels)]
    clusters: List[List[_ClusterSolve]] = [[] for _ in range(num_levels)]
    for port, (instance, row_local, col_local) in self_loop_ports.items():
        if active[port]:
            self_loops[int(depth_of_port[port])].append(
                _SelfLoop(
                    row=int(row_of[port]),
                    instance=instance,
                    row_local=row_local,
                    col_local=col_local,
                )
            )
    for component in cluster_components:
        if not active[component[0]]:
            continue
        fill_by_instance = cluster_fill_entries[component]
        fill = tuple(
            (
                instance,
                np.array([e[0] for e in entries], dtype=int),
                np.array([e[1] for e in entries], dtype=int),
                np.array([e[2] for e in entries], dtype=int),
                np.array([e[3] for e in entries], dtype=int),
            )
            for instance, entries in sorted(fill_by_instance.items())
        )
        clusters[int(depth_of_port[component[0]])].append(
            _ClusterSolve(rows=row_of[np.array(component, dtype=int)], fill=fill)
        )

    gather_by_stack: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for position, (_, row, port) in enumerate(schedule_edges):
        source = int(partner[port])
        instance = int(owner[source])
        start = spans[instance][0]
        gather_by_stack.setdefault(int(instance_stack[instance]), []).append(
            (int(instance_pos[instance]), row - start, source - start, position)
        )
    coef_gathers = tuple(
        _CoefGather(
            stack=stack,
            pos=np.array([e[0] for e in entries], dtype=int),
            m_rows=np.array([e[1] for e in entries], dtype=int),
            m_cols=np.array([e[2] for e in entries], dtype=int),
            positions=np.array([e[3] for e in entries], dtype=int),
        )
        for stack, entries in sorted(gather_by_stack.items())
    )

    steps: List[_Step] = []
    max_push_edges = 0
    cursor = 0
    for level in range(num_levels):
        lo = cursor
        while cursor < len(schedule_edges) and schedule_edges[cursor][0] == level:
            cursor += 1
        hi = cursor
        pull: Optional[_PullLevel] = None
        if hi > lo:
            target_rows = row_of[
                np.array([schedule_edges[i][1] for i in range(lo, hi)], dtype=int)
            ]
            src = row_of[np.array([schedule_edges[i][2] for i in range(lo, hi)], dtype=int)]
            unique_rows, starts = np.unique(target_rows, return_index=True)
            row_lo, row_hi = row_bounds[level]
            # The receiving rows of this depth are exactly its contiguous
            # receiving slice, in order (both sort by original port index).
            assert unique_rows.size == row_hi - row_lo
            pull = _PullLevel(
                start=lo,
                stop=hi,
                src=src,
                starts=starts,
                extra=_segment_extras(starts, hi - lo),
                row_lo=row_lo,
                row_hi=row_hi,
                single_source=unique_rows.size == hi - lo,
            )
            max_push_edges = max(max_push_edges, hi - lo)
        step = _Step(
            pull=pull,
            self_loops=tuple(self_loops[level]),
            clusters=tuple(clusters[level]),
        )
        if step.pull is not None or step.self_loops or step.clusters:
            steps.append(step)

    injection = tuple(
        (
            position,
            int(injection_instances[column]),
            row_of[injection_span_ports[column]],
            injection_span_locals[column],
            int(injection_locals[column]),
        )
        for position, column in enumerate(columns)
    )
    return _Schedule(
        columns=np.array(columns, dtype=int),
        num_rows=num_rows,
        injection=injection,
        out_rows=row_of[injection_ports],
        steps=tuple(steps),
        coef_gathers=coef_gathers,
        num_edges=len(schedule_edges),
        max_push_edges=max_push_edges,
    )


def _build_schedules(
    plan: CascadePlan,
    adjacency: Sequence[Sequence[int]],
    masks: Sequence[np.ndarray],
    spans: Sequence[Tuple[int, int]],
    owner: np.ndarray,
    partner: np.ndarray,
    injection_ports: np.ndarray,
    injection_instances: np.ndarray,
    injection_locals: np.ndarray,
) -> Tuple[
    _Schedule,
    Optional[_Schedule],
    Optional[np.ndarray],
    Tuple[np.ndarray, ...],
]:
    """Turn the condensation into the full and reciprocity-cover schedules."""
    # Instances grouped by port count: one coefficient-gather stack each.
    size_to_stack: Dict[int, int] = {}
    stack_member_lists: List[List[int]] = []
    instance_stack = np.empty(len(spans), dtype=int)
    instance_pos = np.empty(len(spans), dtype=int)
    for instance, (_, size) in enumerate(spans):
        stack = size_to_stack.setdefault(size, len(stack_member_lists))
        if stack == len(stack_member_lists):
            stack_member_lists.append([])
        instance_stack[instance] = stack
        instance_pos[instance] = len(stack_member_lists[stack])
        stack_member_lists[stack].append(instance)
    stack_members = tuple(np.array(m, dtype=int) for m in stack_member_lists)
    components = plan.components
    num_ports = plan.num_ports
    num_external = int(injection_ports.size)
    comp_of = np.empty(num_ports, dtype=int)
    for ci, component in enumerate(components):
        for port in component:
            comp_of[port] = ci
    depth = _component_depths(components, adjacency, comp_of)
    depth_of_port = np.zeros(num_ports, dtype=int)
    for ci, component in enumerate(components):
        for port in component:
            depth_of_port[port] = depth[ci]
    feedback_set = set(plan.feedback)

    # Cross-component edges, sorted by (target depth, target port, source):
    # the pull order of every level, shared by both schedules.
    edges: List[Tuple[int, int, int]] = []
    for ci, component in enumerate(components):
        members = set(component)
        for port in component:
            for row in adjacency[port]:
                if row not in members:
                    edges.append((depth[int(comp_of[row])], row, port))
    edges.sort()

    # Feedback structure in original port indices, shared by both schedules.
    cluster_components: List[Tuple[int, ...]] = []
    cluster_fill_entries: Dict[
        Tuple[int, ...], Dict[int, List[Tuple[int, int, int, int]]]
    ] = {}
    self_loop_ports: Dict[int, Tuple[int, int, int]] = {}
    for component in components:
        if len(component) > 1:
            local = {port: position for position, port in enumerate(component)}
            fill_by_instance: Dict[int, List[Tuple[int, int, int, int]]] = {}
            for port in component:
                source = int(partner[port])
                if source < 0:
                    continue
                instance = int(owner[source])
                start = spans[instance][0]
                for row in adjacency[port]:
                    if row in local:
                        fill_by_instance.setdefault(instance, []).append(
                            (local[row], local[port], row - start, source - start)
                        )
            cluster_components.append(component)
            cluster_fill_entries[component] = fill_by_instance
        elif component in feedback_set:
            port = component[0]
            source = int(partner[port])
            instance = int(owner[source])
            start = spans[instance][0]
            self_loop_ports[port] = (instance, port - start, source - start)

    # Seed rows restricted to the structurally non-zero rows of the injected
    # device column (mask column): dead seed rows -- a device's own
    # reflection entries, typically zero -- never enter reachability, which
    # is what lets the reciprocity cover drop whole external columns.
    injection_span_ports = []
    injection_span_locals = []
    for column in range(num_external):
        instance = int(injection_instances[column])
        span_start, _ = spans[instance]
        local_rows = np.nonzero(masks[instance][:, int(injection_locals[column])])[0]
        injection_span_ports.append(span_start + local_rows)
        injection_span_locals.append(local_rows)

    reach = _reachability(
        num_ports,
        num_external,
        injection_span_ports,
        edges,
        cluster_components,
        depth_of_port,
    )

    def build(columns: Sequence[int]) -> _Schedule:
        return _build_level_schedule(
            columns,
            reach,
            edges,
            depth_of_port,
            cluster_components,
            self_loop_ports,
            cluster_fill_entries,
            spans,
            owner,
            partner,
            injection_ports,
            injection_instances,
            injection_locals,
            injection_span_ports,
            injection_span_locals,
            instance_stack,
            instance_pos,
        )

    schedule = build(range(num_external))
    kept, dropped = _cover_columns(reach, injection_ports)
    if not dropped:
        return schedule, None, None, stack_members
    return schedule, build(kept), np.array(dropped, dtype=int), stack_members


# ----------------------------------------------------------------------
# Compilation: entry point
# ----------------------------------------------------------------------
def compile_netlist(
    netlist: Netlist,
    instance_matrices: Mapping[str, SMatrix],
    *,
    masks: Optional[Sequence[np.ndarray]] = None,
    fingerprint: str = "",
) -> CompiledCircuit:
    """Compile a netlist's structure into a reusable :class:`CompiledCircuit`.

    ``instance_matrices`` maps each instance name (in netlist iteration
    order) to its evaluated :class:`~repro.sim.sparams.SMatrix`; only the
    port names and structural masks are consumed -- the actual values stay
    out of the plan, which is what makes it reusable across settings.
    Raises :class:`~repro.netlist.errors.WrongPortError` for endpoints that
    do not resolve to an instance port (matching solver semantics on
    unvalidated netlists).
    """
    index: Dict[Tuple[str, str], int] = {}
    spans: List[Tuple[int, int]] = []
    start = 0
    for name, smatrix in instance_matrices.items():
        size = smatrix.num_ports
        for offset, port in enumerate(smatrix.ports):
            index[(name, port)] = start + offset
        spans.append((start, size))
        start += size
    num_ports = start
    owner = np.empty(num_ports, dtype=int)
    for instance_number, (span_start, size) in enumerate(spans):
        owner[span_start : span_start + size] = instance_number

    sources = _connection_sources(netlist, index)
    external_names, injection_ports = _injection_ports(netlist, index)
    injection_instances = (
        owner[injection_ports] if num_ports else np.empty(0, dtype=int)
    )
    injection_locals = np.array(
        [
            int(port) - spans[int(instance)][0]
            for port, instance in zip(injection_ports, injection_instances)
        ],
        dtype=int,
    )

    partner: Optional[np.ndarray] = np.full(num_ports, -1, dtype=int)
    for column, ports in sources.items():
        if len(ports) != 1:
            # Several partners on one port: only possible on unvalidated
            # netlists; the general dense formulation still applies.
            partner = None
            break
        partner[column] = ports[0]

    if masks is None:
        masks = structural_masks([smatrix.data for smatrix in instance_matrices.values()])

    plan: Optional[CascadePlan] = None
    schedule: Optional[_Schedule] = None
    cover_schedule: Optional[_Schedule] = None
    cover_mirror: Optional[np.ndarray] = None
    stack_members: Tuple[np.ndarray, ...] = ()
    if partner is not None:
        adjacency = _dependent_rows(masks, spans, owner, partner)
        plan = build_cascade_plan(adjacency)
        schedule, cover_schedule, cover_mirror, stack_members = _build_schedules(
            plan,
            adjacency,
            masks,
            spans,
            owner,
            partner,
            injection_ports,
            injection_instances,
            injection_locals,
        )

    return CompiledCircuit(
        fingerprint=fingerprint,
        spans=tuple(spans),
        owner=owner,
        sources=tuple(
            (column, tuple(ports)) for column, ports in sorted(sources.items())
        ),
        external_names=external_names,
        injection_ports=injection_ports,
        plan=plan,
        schedule=schedule,
        cover_schedule=cover_schedule,
        cover_mirror=cover_mirror,
        stack_members=stack_members,
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _auto_block(schedule: _Schedule, num_wavelengths: int) -> int:
    """Wavelength block size keeping the workspace near the cache budget."""
    bytes_per_wavelength = 16 * schedule.columns.size * (
        schedule.num_rows + schedule.max_push_edges
    )
    if bytes_per_wavelength * num_wavelengths <= _WORKSPACE_TARGET_BYTES:
        return num_wavelengths
    return max(8, _WORKSPACE_TARGET_BYTES // max(1, bytes_per_wavelength))


def _execute_schedule(
    schedule: _Schedule,
    matrices: Sequence[np.ndarray],
    stacks: Sequence[np.ndarray],
    num_wavelengths: int,
    out: np.ndarray,
    max_block: Optional[int],
    stack_positions: Sequence[np.ndarray],
) -> None:
    """Run one level schedule, writing its columns of ``out``.

    ``stack_positions`` remaps each coefficient gather's member positions
    into rows of the deduplicated stacks (see
    :func:`repro.sim.batch.fuse_sample_stacks`).
    """
    num_cols = int(schedule.columns.size)
    block = _auto_block(schedule, num_wavelengths)
    if max_block is not None:
        block = min(block, max(1, int(max_block)))
    block = min(block, max(1, num_wavelengths))

    # Edge coefficients for the whole grid, edge-major to align with the
    # workspace layout: coef[e] is the (W,) gain of edge e, gathered in one
    # advanced-indexing op per instance stack.
    coef: Optional[np.ndarray] = None
    buffer: Optional[np.ndarray] = None
    if schedule.num_edges:
        coef = np.empty((schedule.num_edges, num_wavelengths), dtype=complex)
        for gather in schedule.coef_gathers:
            coef[gather.positions] = stacks[gather.stack][
                stack_positions[gather.stack][gather.pos],
                :,
                gather.m_rows,
                gather.m_cols,
            ]
        # One reusable contribution buffer sized for the largest level.
        buffer = np.empty((schedule.max_push_edges, block, num_cols), dtype=complex)

    # The (rows, block, cols) workspace is port-major in the schedule's
    # compacted row order: per-row slabs are contiguous, and each level's
    # accumulation is a contiguous row-slice ``+=`` -- no scatter index.
    waves = np.empty((schedule.num_rows, block, num_cols), dtype=complex)

    for lo in range(0, num_wavelengths, block):
        hi = min(lo + block, num_wavelengths)
        width = hi - lo
        ws = waves[:, :width]
        ws.fill(0.0)
        # Seed the injected right-hand side r = S E for this block (only
        # the structurally non-zero rows of each injected device column).
        for position, instance, rows, local_rows, local in schedule.injection:
            ws[rows, :, position] += matrices[instance][lo:hi, local_rows, local].T

        for step in schedule.steps:
            pull = step.pull
            if pull is not None:
                count = pull.stop - pull.start
                # np.take needs a contiguous out; the preallocated buffer is
                # only contiguous at full block width (the tail block pays a
                # small fresh allocation instead).
                if width == block:
                    contributions = buffer[:count]
                else:
                    contributions = np.empty((count, width, num_cols), dtype=complex)
                np.take(ws, pull.src, axis=0, out=contributions)
                contributions *= coef[pull.start : pull.stop, lo:hi, None]
                target = ws[pull.row_lo : pull.row_hi]
                if pull.single_source:
                    # Feed-forward common case: one in-edge per row.
                    target += contributions
                else:
                    # Segment sums by rank decomposition (vectorised, unlike
                    # np.add.reduceat's scalar inner loop).
                    target += contributions[pull.starts]
                    for segments, edge_positions in pull.extra:
                        target[segments] += contributions[edge_positions]
            for loop in step.self_loops:
                gain = matrices[loop.instance][lo:hi, loop.row_local, loop.col_local]
                denominator = 1.0 - gain
                bad = (denominator == 0) | ~np.isfinite(denominator)
                if np.any(bad):
                    # Unit round-trip gain: the scalar system (1-g)x = b is
                    # singular; the minimum-norm answer is x = 0.
                    _record_degradation(
                        "self_loop",
                        "singular" if np.any(denominator == 0) else "nonfinite",
                    )
                    row = ws[loop.row]
                    row /= np.where(bad, 1.0, denominator)[:, None]
                    row[bad] = 0.0
                else:
                    ws[loop.row] /= denominator[:, None]
            for cluster in step.clusters:
                size = int(cluster.rows.size)
                system = np.zeros((width, size, size), dtype=complex)
                for instance, sys_rows, sys_cols, m_rows, m_cols in cluster.fill:
                    system[:, sys_rows, sys_cols] = -matrices[instance][
                        lo:hi, m_rows, m_cols
                    ]
                diagonal = np.arange(size)
                system[:, diagonal, diagonal] += 1.0
                rhs = ws[cluster.rows].transpose(1, 0, 2)
                ws[cluster.rows] = solve_with_fallback(
                    system, rhs, site="cluster"
                ).transpose(1, 0, 2)

        out[lo:hi, :, schedule.columns] = ws[schedule.out_rows, :width].transpose(1, 0, 2)


def execute_cascade(
    compiled: CompiledCircuit,
    matrices: Sequence[np.ndarray],
    num_wavelengths: int,
    max_block: Optional[int] = None,
    symmetric: bool = False,
    stacks: Optional[List[np.ndarray]] = None,
    stack_positions: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Level-batched evaluation of a compiled circuit.

    ``matrices`` holds each instance's ``(W, n, n)`` S-matrix data in
    netlist instance order (the order of :attr:`CompiledCircuit.spans`).
    Returns the external response of shape ``(W, E, E)``, identical (to
    round-off) to the dense backend's ``E.T @ (I - S C)^{-1} @ S @ E``.
    ``stacks`` and ``stack_positions`` are the deduplicated per-port-count
    instance stacks :func:`repro.sim.batch.fuse_sample_stacks` returns with
    ``matrices``; when omitted they are built from ``matrices``.

    The schedule runs over wavelength blocks of at most ``max_block``
    points (default: sized so the workspace stays cache-resident); the
    block size bounds peak memory and never changes the result.
    ``symmetric`` asserts that every entry of ``matrices`` equals its
    transpose (the caller's responsibility, checked cheaply at
    instance-evaluation time by the solver): the composed response is then
    symmetric too, and the reciprocity-cover schedule computes only a
    structurally-covering column subset, mirroring the rest.
    """
    schedule = compiled.schedule_for(symmetric)
    if schedule is None:
        raise ValueError(
            "compiled circuit does not support the cascade executor "
            "(a port is connected to several partners)"
        )
    if stacks is None or stack_positions is None:
        matrices, stacks, stack_positions = fuse_sample_stacks(
            compiled.stack_members, [matrices], num_wavelengths
        )
    mirror = None if schedule is compiled.schedule else compiled.cover_mirror
    num_external = compiled.num_external
    # The cover never writes the (dropped x dropped) block: it is
    # structurally zero by construction.
    out = (np.empty if mirror is None else np.zeros)(
        (num_wavelengths, num_external, num_external), dtype=complex
    )
    _execute_schedule(
        schedule, matrices, stacks, num_wavelengths, out, max_block, stack_positions
    )
    if mirror is not None:
        # S[i, j] = S[j, i] for the dropped columns.  Blocked along the
        # wavelength axis so the transpose-assign stays cache-resident on
        # long (batch-fused) grids.
        for lo in range(0, num_wavelengths, _MIRROR_BLOCK):
            hi = min(lo + _MIRROR_BLOCK, num_wavelengths)
            out[lo:hi, :, mirror] = out[lo:hi, mirror, :].transpose(0, 2, 1)
    return out


def execute_dense(
    compiled: CompiledCircuit,
    matrices: Sequence[np.ndarray],
    num_wavelengths: int,
) -> np.ndarray:
    """Batched global solve of ``(I - S C) b = S E`` over the compiled assembly."""
    num_ports = compiled.num_ports
    block = np.zeros((num_wavelengths, num_ports, num_ports), dtype=complex)
    for data, (span_start, size) in zip(matrices, compiled.spans):
        block[:, span_start : span_start + size, span_start : span_start + size] = data

    # system = I - S @ C, built without the matmul: C is permutation-like,
    # so column j of S @ C is column partner(j) of S (zero when dangling).
    system = np.zeros_like(block)
    for column, ports in compiled.sources:
        for source in ports:
            system[:, :, column] += block[:, :, source]
    np.negative(system, out=system)
    diagonal = np.arange(num_ports)
    system[:, diagonal, diagonal] += 1.0

    # rhs = S @ E: E's columns are one-hot on the injected instance ports.
    rhs = block[:, :, compiled.injection_ports]
    interior = solve_with_fallback(system, rhs, site="dense")
    # external = E.T @ interior: a row gather for the same reason.
    return interior[:, compiled.injection_ports, :]
