"""Compiled circuit plans: the compile/execute split of the circuit solver.

The evaluation pipeline's hot path simulates hundreds of *structurally
identical* netlists per sweep -- pass@k samples mutate instance settings far
more often than topology.  Yet assembling the flattened port index, the
structural masks, the Tarjan condensation and the cascade schedule is pure
*structure* work: none of it depends on the wavelength grid or on the actual
S-matrix values.  This module pays that work exactly once per topology:

``compile_netlist``
    Captures everything wavelength- and settings-independent in a
    :class:`CompiledCircuit`: the flattened port index (spans / owner /
    partner arrays), the connection structure, the SCC condensation
    (:class:`~repro.sim.cascade.CascadePlan`), and -- the parts that make
    execution fast -- a **level-batched schedule** with precomputed
    gather/scatter index arrays, split into **external-column groups** by
    structural reachability.

``execute_cascade``
    Runs a compiled circuit against concrete per-instance S-matrices.  Three
    compiled structures do the work the per-port Python loop of
    :func:`repro.sim.cascade.cascade_solve` used to redo on every call:

    * *Topological levels.* Singleton components are grouped by longest-path
      depth in the condensation; each level's accumulation is one
      fancy-indexed gather, one multiply and one contiguous slice ``+=``
      over all of the level's edges (feedback clusters keep their small
      local ``(W, n, n)`` solves, with prebuilt ``(rows, cols)`` fill
      arrays).  The workspace is port-major and permuted so every level's
      receiving rows are contiguous.
    * *Column groups.* An external port's injected wave only ever reaches
      the ports structurally downstream of it.  In switch fabrics and
      meshes most of the ``(P, E)`` workspace is therefore exactly zero --
      measured on the benchmark's 8x8 fabrics only 9-36% of edge-column
      work is structurally active.  Columns are grouped by reachability
      pattern and each group executes a restricted, row-compacted schedule,
      skipping the dead work entirely.
    * *Wavelength blocks.* The per-group workspace is processed in blocks
      sized to stay cache-resident; ``max_wavelength_chunk`` caps the block
      size, bounding peak memory on large grids.

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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..netlist.errors import WrongPortError
from ..netlist.schema import Netlist, format_endpoint, parse_endpoint
from .cascade import CascadePlan, _dependent_rows, build_cascade_plan, structural_masks
from .guardrails import _record_degradation, collect_degradations, solve_with_fallback
from .sparams import SMatrix

__all__ = [
    "CompiledCircuit",
    "collect_degradations",
    "compile_netlist",
    "solve_with_fallback",
    "topology_fingerprint",
    "execute_cascade",
    "execute_dense",
]

#: Upper bound on the number of reachability column groups per plan; exact
#: per-column patterns beyond this are greedily merged (smallest extra work
#: first).
_MAX_COLUMN_GROUPS = 16

#: Workspaces smaller than this many cells skip column grouping entirely --
#: for tiny circuits one batched pass beats several restricted ones.
_MIN_CELLS_FOR_GROUPING = 1024

#: Wavelength points per block of the reciprocity-mirror transpose (keeps
#: the strided read/write pair cache-resident on batch-fused grids).
_MIRROR_BLOCK = 256

#: Target size (bytes) of the cascade executor's per-block workspace.  The
#: wavelength axis is processed in blocks small enough that the whole
#: ``(rows, block, cols)`` group workspace -- and the contribution buffer --
#: stay cache-resident across the level sweep.
_WORKSPACE_TARGET_BYTES = 4 << 20


# ----------------------------------------------------------------------
# Schedule building blocks (all index arrays, no matrix data)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SelfLoop:
    """A self-coupled singleton component: ``b = r / (1 - M_pp)``.

    ``row`` is the port's row in the group workspace.
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
    ``start:stop`` (of the group's edge arrays) are sorted by target row;
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
    #: True when no receiving row of this level is seeded by an injection:
    #: the pull then *assigns* (multiply into the target slice) instead of
    #: accumulating, saving a full read-modify-write pass.
    assign: bool


@dataclass(frozen=True)
class _Step:
    """One topological depth: pull incoming edges, then solve its feedback."""

    level: int
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
    op per (group, stack) instead of one per instance.
    """

    stack: int
    pos: np.ndarray
    m_rows: np.ndarray
    m_cols: np.ndarray
    positions: np.ndarray


@dataclass(frozen=True)
class _ColumnGroup:
    """The restricted schedule of one reachability group of external columns.

    Attributes
    ----------
    columns:
        External column indices this group computes (disjoint across groups,
        covering all of ``0..E-1``).
    num_rows:
        Rows of the group workspace: only ports structurally reachable from
        the group's injections (plus every external output row), compacted.
    injection:
        Per group column, ``(group column position, instance, workspace
        rows, local matrix rows, injected local column)`` -- the seed
        ``r = S E`` restricted to this group and to the structurally
        non-zero rows of the injected device column.
    out_rows:
        Workspace row of every external port (the result's row axis).
    steps / coef_gathers / num_edges / max_push_edges:
        The level schedule over the group's edges, the batched per-stack
        coefficient gathers, and the largest single-level edge count (sizes
        the reusable contribution buffer).
    """

    columns: np.ndarray
    num_rows: int
    #: Width of the workspace column axis.  Usually ``columns.size``; ``1``
    #: for a *stacked* group (several single-column reachability groups
    #: merged into one block-diagonal row space sharing one workspace
    #: column -- same element work, a fraction of the numpy-call count).
    workspace_cols: int
    injection: Tuple[Tuple[int, int, np.ndarray, np.ndarray, int], ...]
    #: 1-D (every external row, this group's columns) or, for a stacked
    #: group, 2-D ``(columns, external rows)`` workspace rows.
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
    :attr:`instance_names` order) and the wavelength count.

    Attributes
    ----------
    fingerprint:
        The topology fingerprint this plan was compiled under (the plan-cache
        key).
    instance_names / instance_refs / func_identities:
        Per-instance name, resolved registry reference and model-function
        identity, memoised here so repeated evaluations do not recompute
        them (see ``CircuitSolver``).
    spans / owner / partner:
        ``(start, size)`` of each instance's contiguous port range, the
        owning instance of every flattened port, and every port's connected
        partner (``-1`` = dangling).  ``partner`` is ``None`` when a port has
        several partners (unvalidated netlists), in which case only the dense
        executor applies.
    sources:
        Connection structure of the dense assembly: per column ``j`` the
        ports ``k`` with ``C[k, j] = 1``.
    external_names / injection_ports / injection_instances / injection_locals:
        External port names and, per external column, the flattened instance
        port behind it plus its ``(instance, local column)`` address.
    plan:
        The cascade backend's :class:`~repro.sim.cascade.CascadePlan`
        (components in topological order, feedback clusters); ``None``
        when ``partner`` is ``None``.
    groups:
        The level-batched execution schedule, one restricted
        :class:`_ColumnGroup` per reachability group of external columns;
        ``None`` when the cascade executor does not apply.
    cover_groups / cover_mirror:
        The *reciprocity cover* schedule: for circuits whose instance
        S-matrices are all symmetric the composed response is symmetric too,
        so only a structurally-covering subset of external columns is
        computed and the ``cover_mirror`` columns are filled by transposing
        (their remaining block is structurally zero, proven by
        reachability).  ``None`` when no column can be dropped.  Symmetry is
        a *value* property, so the executor applies the cover only when the
        concrete matrices of a call are symmetric; the full ``groups``
        schedule remains the general path.
    stack_members:
        Instance indices grouped by port count: execution stacks each
        group's matrices into one ``(m, W, n, n)`` array so edge
        coefficients gather in one advanced-indexing op per stack.
    num_edges:
        Cross-component edges of the full signal-flow condensation (before
        column restriction) -- a size metric for introspection.
    """

    fingerprint: str
    instance_names: Tuple[str, ...]
    instance_refs: Tuple[str, ...]
    func_identities: Tuple[str, ...]
    spans: Tuple[Tuple[int, int], ...]
    owner: np.ndarray
    partner: Optional[np.ndarray]
    sources: Tuple[Tuple[int, Tuple[int, ...]], ...]
    external_names: Tuple[str, ...]
    injection_ports: np.ndarray
    injection_instances: np.ndarray
    injection_locals: np.ndarray
    plan: Optional[CascadePlan]
    groups: Optional[Tuple[_ColumnGroup, ...]]
    cover_groups: Optional[Tuple[_ColumnGroup, ...]]
    cover_mirror: Optional[np.ndarray]
    stack_members: Tuple[np.ndarray, ...]
    num_edges: int

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
        return self.groups is not None

    @property
    def num_levels(self) -> int:
        """Topological depth of the schedule (max over column groups)."""
        if not self.groups:
            return 0
        return max(len(group.steps) for group in self.groups)

    @property
    def num_column_groups(self) -> int:
        """Number of reachability column groups (0 = dense only)."""
        return len(self.groups) if self.groups is not None else 0

    @property
    def active_cells(self) -> int:
        """Workspace cells actually computed, summed over column groups.

        Compare against ``num_ports * num_external`` (what a single
        unrestricted schedule would touch) for the structural-sparsity win.
        """
        if not self.groups:
            return 0
        return sum(group.num_rows * group.workspace_cols for group in self.groups)


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
# Compilation: reachability column groups
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


def _column_groups_partition(
    reach: np.ndarray, num_ports: int, columns: Sequence[int]
) -> List[List[int]]:
    """Partition ``columns`` (external column indices) by reachability pattern.

    Columns with identical reachable-port sets share a group; beyond
    :data:`_MAX_COLUMN_GROUPS` (or for tiny workspaces) groups are greedily
    merged, picking the merge that adds the least ``rows x columns`` work.
    """
    columns = list(columns)
    if not columns:
        return []
    if num_ports * len(columns) < _MIN_CELLS_FOR_GROUPING:
        return [columns]
    by_pattern: Dict[bytes, List[int]] = {}
    for column in columns:
        by_pattern.setdefault(reach[:, column].tobytes(), []).append(column)
    groups: List[Tuple[List[int], np.ndarray]] = [
        (group, reach[:, group].any(axis=1)) for group in by_pattern.values()
    ]
    while len(groups) > _MAX_COLUMN_GROUPS:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                cols_i, rows_i = groups[i]
                cols_j, rows_j = groups[j]
                union = rows_i | rows_j
                added = int(union.sum()) * (len(cols_i) + len(cols_j)) - (
                    int(rows_i.sum()) * len(cols_i) + int(rows_j.sum()) * len(cols_j)
                )
                if best is None or added < best[0]:
                    best = (added, i, j, union)
        _, i, j, union = best
        merged = (groups[i][0] + groups[j][0], union)
        groups = [g for k, g in enumerate(groups) if k not in (i, j)] + [merged]
    return [sorted(group) for group, _ in groups]


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


def _build_group(
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
) -> _ColumnGroup:
    """Build one column group's restricted, row-compacted level schedule."""
    columns = list(columns)
    active = reach[:, columns].any(axis=1)
    # Every external port row appears in the result, reachable or not.
    active = active.copy()
    active[injection_ports] = True
    # A cluster is solved whole: if any member is active, all are.
    for component in cluster_components:
        if active[list(component)].any():
            active[list(component)] = True

    group_edges = [edge for edge in edges if active[edge[2]]]
    receiving: Set[int] = set(edge[1] for edge in group_edges)

    # Workspace rows grouped by depth, receiving rows first (each depth's
    # pull is then a contiguous slice); inside each block, original port
    # order -- group_edges are sorted by (depth, target port, source port),
    # so their workspace target rows are sorted too.
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

    # Per-level structures over the group's edges.
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
    for position, (_, row, port) in enumerate(group_edges):
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

    # Workspace rows seeded by the group's injections: levels whose
    # receiving rows are all seed-free can assign instead of accumulate.
    seeded_rows: Set[int] = set()
    for column in columns:
        seeded_rows.update(int(r) for r in row_of[injection_span_ports[column]] if r >= 0)

    steps: List[_Step] = []
    max_push_edges = 0
    cursor = 0
    for level in range(num_levels):
        lo = cursor
        while cursor < len(group_edges) and group_edges[cursor][0] == level:
            cursor += 1
        hi = cursor
        pull: Optional[_PullLevel] = None
        if hi > lo:
            target_rows = row_of[
                np.array([group_edges[i][1] for i in range(lo, hi)], dtype=int)
            ]
            src = row_of[np.array([group_edges[i][2] for i in range(lo, hi)], dtype=int)]
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
                assign=all(row not in seeded_rows for row in range(row_lo, row_hi)),
            )
            max_push_edges = max(max_push_edges, hi - lo)
        step = _Step(
            level=level,
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
    return _ColumnGroup(
        columns=np.array(columns, dtype=int),
        num_rows=num_rows,
        workspace_cols=len(columns),
        injection=injection,
        out_rows=row_of[injection_ports],
        steps=tuple(steps),
        coef_gathers=coef_gathers,
        num_edges=len(group_edges),
        max_push_edges=max_push_edges,
    )


def _stack_single_column_groups(groups: Sequence[_ColumnGroup]) -> _ColumnGroup:
    """Merge single-column groups into one block-diagonal schedule.

    Each group keeps its own (disjoint) rows, all sharing workspace column
    0: element work is unchanged, but level ``d`` of every group runs as
    *one* pull -- on chain-like fabrics this shrinks the numpy-call count
    by the group count.  Rows are renumbered so that, per level, the
    receiving rows of all groups are consecutive (group-major), matching
    the group-major concatenation of each level's edges.
    """
    num_levels = (
        max((step.level for group in groups for step in group.steps), default=-1) + 1
    )
    step_of: List[Dict[int, _Step]] = [
        {step.level: step for step in group.steps} for group in groups
    ]
    remaps = [np.full(group.num_rows, -1, dtype=int) for group in groups]
    next_row = 0
    level_bounds: List[Tuple[int, int]] = []
    for level in range(num_levels):
        lo = next_row
        for gi, group in enumerate(groups):
            step = step_of[gi].get(level)
            if step is not None and step.pull is not None:
                count = step.pull.row_hi - step.pull.row_lo
                remaps[gi][step.pull.row_lo : step.pull.row_hi] = np.arange(
                    next_row, next_row + count
                )
                next_row += count
        level_bounds.append((lo, next_row))
    for gi, group in enumerate(groups):
        unassigned = np.nonzero(remaps[gi] < 0)[0]
        remaps[gi][unassigned] = np.arange(next_row, next_row + unassigned.size)
        next_row += unassigned.size
    num_rows = next_row

    # New edge numbering: level-major, group-major inside a level.
    edge_remaps = [np.empty(group.num_edges, dtype=int) for group in groups]
    steps: List[_Step] = []
    max_push_edges = 0
    edge_cursor = 0
    for level in range(num_levels):
        pull_start = edge_cursor
        src_parts: List[np.ndarray] = []
        starts_parts: List[np.ndarray] = []
        self_loops: List[_SelfLoop] = []
        clusters: List[_ClusterSolve] = []
        single_source = True
        assign = True
        for gi, group in enumerate(groups):
            step = step_of[gi].get(level)
            if step is None:
                continue
            pull = step.pull
            if pull is not None:
                count = pull.stop - pull.start
                edge_remaps[gi][pull.start : pull.stop] = np.arange(
                    edge_cursor, edge_cursor + count
                )
                src_parts.append(remaps[gi][pull.src])
                starts_parts.append(pull.starts + (edge_cursor - pull_start))
                single_source = single_source and pull.single_source
                assign = assign and pull.assign
                edge_cursor += count
            for loop in step.self_loops:
                self_loops.append(
                    _SelfLoop(
                        row=int(remaps[gi][loop.row]),
                        instance=loop.instance,
                        row_local=loop.row_local,
                        col_local=loop.col_local,
                    )
                )
            for cluster in step.clusters:
                clusters.append(
                    _ClusterSolve(rows=remaps[gi][cluster.rows], fill=cluster.fill)
                )
        merged_pull: Optional[_PullLevel] = None
        if edge_cursor > pull_start:
            row_lo, row_hi = level_bounds[level]
            merged_starts = np.concatenate(starts_parts)
            merged_pull = _PullLevel(
                start=pull_start,
                stop=edge_cursor,
                src=np.concatenate(src_parts),
                starts=merged_starts,
                extra=_segment_extras(merged_starts, edge_cursor - pull_start),
                row_lo=row_lo,
                row_hi=row_hi,
                single_source=single_source,
                assign=assign,
            )
            max_push_edges = max(max_push_edges, edge_cursor - pull_start)
        if merged_pull is not None or self_loops or clusters:
            steps.append(
                _Step(
                    level=level,
                    pull=merged_pull,
                    self_loops=tuple(self_loops),
                    clusters=tuple(clusters),
                )
            )

    gather_by_stack: Dict[int, List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]] = {}
    for gi, group in enumerate(groups):
        for gather in group.coef_gathers:
            gather_by_stack.setdefault(gather.stack, []).append(
                (gather.pos, gather.m_rows, gather.m_cols, edge_remaps[gi][gather.positions])
            )
    coef_gathers = tuple(
        _CoefGather(
            stack=stack,
            pos=np.concatenate([e[0] for e in entries]),
            m_rows=np.concatenate([e[1] for e in entries]),
            m_cols=np.concatenate([e[2] for e in entries]),
            positions=np.concatenate([e[3] for e in entries]),
        )
        for stack, entries in sorted(gather_by_stack.items())
    )

    injection = tuple(
        (0, instance, remaps[gi][rows], local_rows, local)
        for gi, group in enumerate(groups)
        for (_, instance, rows, local_rows, local) in group.injection
    )
    return _ColumnGroup(
        columns=np.array([int(group.columns[0]) for group in groups], dtype=int),
        num_rows=num_rows,
        workspace_cols=1,
        injection=injection,
        out_rows=np.stack([remaps[gi][group.out_rows] for gi, group in enumerate(groups)]),
        steps=tuple(steps),
        coef_gathers=coef_gathers,
        num_edges=sum(group.num_edges for group in groups),
        max_push_edges=max_push_edges,
    )


def _build_schedule(
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
    Tuple[_ColumnGroup, ...],
    Optional[Tuple[_ColumnGroup, ...]],
    Optional[np.ndarray],
    Tuple[np.ndarray, ...],
    int,
]:
    """Turn the condensation into reachability-grouped level schedules."""
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
    # the pull order of every level, shared by all groups.
    edges: List[Tuple[int, int, int]] = []
    for ci, component in enumerate(components):
        members = set(component)
        for port in component:
            for row in adjacency[port]:
                if row not in members:
                    edges.append((depth[int(comp_of[row])], row, port))
    edges.sort()

    # Feedback structure in original port indices, shared by all groups.
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

    def build_groups(columns: Sequence[int]) -> Tuple[_ColumnGroup, ...]:
        built = [
            _build_group(
                group_columns,
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
            for group_columns in _column_groups_partition(reach, num_ports, columns)
        ]
        singles = [group for group in built if group.columns.size == 1]
        if len(singles) >= 2:
            built = [group for group in built if group.columns.size != 1]
            built.append(_stack_single_column_groups(singles))
        return tuple(built)

    groups = build_groups(range(num_external))
    kept, dropped = _cover_columns(reach, injection_ports)
    cover_groups: Optional[Tuple[_ColumnGroup, ...]] = None
    cover_mirror: Optional[np.ndarray] = None
    if dropped:
        cover_groups = build_groups(kept)
        cover_mirror = np.array(dropped, dtype=int)
    return groups, cover_groups, cover_mirror, stack_members, len(edges)


# ----------------------------------------------------------------------
# Compilation: entry point
# ----------------------------------------------------------------------
def compile_netlist(
    netlist: Netlist,
    instance_matrices: Mapping[str, SMatrix],
    *,
    masks: Optional[Sequence[np.ndarray]] = None,
    fingerprint: str = "",
    instance_refs: Tuple[str, ...] = (),
    func_identities: Tuple[str, ...] = (),
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
    names: List[str] = []
    start = 0
    for name, smatrix in instance_matrices.items():
        names.append(name)
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
        masks = structural_masks([instance_matrices[name].data for name in names])

    plan: Optional[CascadePlan] = None
    groups: Optional[Tuple[_ColumnGroup, ...]] = None
    cover_groups: Optional[Tuple[_ColumnGroup, ...]] = None
    cover_mirror: Optional[np.ndarray] = None
    stack_members: Tuple[np.ndarray, ...] = ()
    num_edges = 0
    if partner is not None:
        adjacency = _dependent_rows(masks, spans, owner, partner)
        plan = build_cascade_plan(masks, spans, owner, partner, adjacency)
        groups, cover_groups, cover_mirror, stack_members, num_edges = _build_schedule(
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
        instance_names=tuple(names),
        instance_refs=tuple(instance_refs),
        func_identities=tuple(func_identities),
        spans=tuple(spans),
        owner=owner,
        partner=partner,
        sources=tuple(
            (column, tuple(ports)) for column, ports in sorted(sources.items())
        ),
        external_names=external_names,
        injection_ports=injection_ports,
        injection_instances=injection_instances,
        injection_locals=injection_locals,
        plan=plan,
        groups=groups,
        cover_groups=cover_groups,
        cover_mirror=cover_mirror,
        stack_members=stack_members,
        num_edges=num_edges,
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _auto_block(group: _ColumnGroup, num_wavelengths: int) -> int:
    """Wavelength block size keeping the group workspace near the cache budget."""
    bytes_per_wavelength = 16 * group.workspace_cols * (
        group.num_rows + group.max_push_edges
    )
    if bytes_per_wavelength * num_wavelengths <= _WORKSPACE_TARGET_BYTES:
        return num_wavelengths
    return max(8, _WORKSPACE_TARGET_BYTES // max(1, bytes_per_wavelength))


def _execute_group(
    group: _ColumnGroup,
    matrices: Sequence[np.ndarray],
    stacks: Sequence[np.ndarray],
    num_wavelengths: int,
    out: np.ndarray,
    max_block: Optional[int],
    stack_positions: Optional[Sequence[np.ndarray]] = None,
    flat_stacks: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> None:
    """Run one column group's schedule, writing its columns of ``out``.

    ``stack_positions`` optionally remaps each coefficient gather's member
    positions into rows of a deduplicated stack (see
    :func:`repro.sim.batch.fuse_sample_stacks`); ``None`` means the stacks
    are member-aligned, as :func:`build_stacks` produces them.
    ``flat_stacks`` optionally holds element-major flattened views of the
    deduplicated stacks for the fast contiguous-row coefficient gather.
    """
    num_cols = group.workspace_cols
    block = _auto_block(group, num_wavelengths)
    if max_block is not None:
        block = min(block, max(1, int(max_block)))
    block = min(block, max(1, num_wavelengths))

    # Edge coefficients for the whole grid, edge-major to align with the
    # workspace layout: coef[e] is the (W,) gain of edge e, gathered in one
    # advanced-indexing op per instance stack.
    coef: Optional[np.ndarray] = None
    buffer: Optional[np.ndarray] = None
    if group.num_edges:
        coef = np.empty((group.num_edges, num_wavelengths), dtype=complex)
        for gather in group.coef_gathers:
            if stack_positions is None:
                coef[gather.positions] = stacks[gather.stack][
                    gather.pos, :, gather.m_rows, gather.m_cols
                ]
                continue
            pos = stack_positions[gather.stack][gather.pos]
            flat = None if flat_stacks is None else flat_stacks[gather.stack]
            if flat is not None:
                # Deduplicated stack: gather whole contiguous rows of the
                # flattened (u*n*n, W) element view -- a memcpy-speed row
                # take instead of one strided vector copy per edge.
                size = stacks[gather.stack].shape[2]
                flat_index = (pos * size + gather.m_rows) * size + gather.m_cols
                coef[gather.positions] = np.take(flat, flat_index, axis=0)
            else:
                coef[gather.positions] = stacks[gather.stack][
                    pos, :, gather.m_rows, gather.m_cols
                ]
        # One reusable contribution buffer sized for the largest level.
        buffer = np.empty((group.max_push_edges, block, num_cols), dtype=complex)

    # The (rows, block, cols) workspace is port-major in the group's
    # compacted row order: per-row slabs are contiguous, and each level's
    # accumulation is a contiguous row-slice ``+=`` -- no scatter index.
    waves = np.empty((group.num_rows, block, num_cols), dtype=complex)

    for lo in range(0, num_wavelengths, block):
        hi = min(lo + block, num_wavelengths)
        width = hi - lo
        ws = waves[:, :width]
        ws.fill(0.0)
        # Seed the injected right-hand side r = S E for this block (only
        # the structurally non-zero rows of each injected device column).
        for position, instance, rows, local_rows, local in group.injection:
            ws[rows, :, position] += matrices[instance][lo:hi, local_rows, local].T

        for step in group.steps:
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
                coef_slice = coef[pull.start : pull.stop, lo:hi, None]
                target = ws[pull.row_lo : pull.row_hi]
                if pull.single_source:
                    # Feed-forward common case: one in-edge per row.
                    if pull.assign:
                        # No seeds on the receiving rows: write instead of
                        # accumulate, saving a read-modify-write pass.
                        np.multiply(contributions, coef_slice, out=target)
                    else:
                        contributions *= coef_slice
                        target += contributions
                else:
                    contributions *= coef_slice
                    # Segment sums by rank decomposition (vectorised, unlike
                    # np.add.reduceat's scalar inner loop).
                    if pull.assign:
                        target[:] = contributions[pull.starts]
                    else:
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

        if group.out_rows.ndim == 2:
            # Stacked group: per column, gather its own block's external rows.
            out[lo:hi, :, group.columns] = ws[group.out_rows, :, 0].transpose(2, 1, 0)
        else:
            out[lo:hi, :, group.columns] = ws[group.out_rows, :width].transpose(1, 0, 2)


def build_stacks(
    compiled: CompiledCircuit, matrices: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Stack same-size instance matrices for the batched coefficient gathers.

    Pure function of ``matrices``; the solver memoises the result per plan
    so repeated evaluations of identical instance data skip the copies.
    """
    return [
        matrices[int(members[0])][None]
        if members.size == 1
        else np.stack([matrices[int(i)] for i in members])
        for members in compiled.stack_members
    ]


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
    :attr:`CompiledCircuit.instance_names` order.  Returns the external
    response of shape ``(W, E, E)``, identical (to round-off) to the dense
    backend's ``E.T @ (I - S C)^{-1} @ S @ E``.

    Each reachability column group runs its restricted schedule over
    wavelength blocks of at most ``max_block`` points (default: sized so the
    group workspace stays cache-resident); the block size bounds peak memory
    and never changes the result.  ``symmetric`` asserts that every entry of
    ``matrices`` equals its transpose (the caller's responsibility, checked
    cheaply at instance-evaluation time by the solver): the composed
    response is then symmetric too, and the reciprocity-cover schedule
    computes only a structurally-covering column subset, mirroring the rest.
    """
    if compiled.groups is None:
        raise ValueError(
            "compiled circuit does not support the cascade executor "
            "(a port is connected to several partners)"
        )
    num_external = compiled.num_external
    if stacks is None:
        stacks = build_stacks(compiled, matrices)
    flat_stacks: Optional[List[Optional[np.ndarray]]] = None
    if stack_positions is not None:
        # Element-major flattened copies of the deduplicated stacks power
        # the contiguous-row coefficient gather; only built where the
        # deduplication actually collapsed rows (the flatten itself is a
        # strided copy of the whole stack, which must stay small).
        flat_stacks = []
        for stack, positions in zip(stacks, stack_positions):
            rows, _, size = stack.shape[0], stack.shape[1], stack.shape[2]
            if rows * size * size <= 2 * positions.size:
                flat_stacks.append(
                    stack.transpose(0, 2, 3, 1).reshape(rows * size * size, -1)
                )
            else:
                flat_stacks.append(None)
    if symmetric and compiled.cover_groups is not None:
        out = np.zeros((num_wavelengths, num_external, num_external), dtype=complex)
        for group in compiled.cover_groups:
            _execute_group(
                group,
                matrices,
                stacks,
                num_wavelengths,
                out,
                max_block,
                stack_positions,
                flat_stacks,
            )
        mirror = compiled.cover_mirror
        # S[i, j] = S[j, i] for the dropped columns; their remaining
        # (dropped x dropped) block is structurally zero by construction.
        # Blocked along the wavelength axis so the transpose-assign stays
        # cache-resident on long (batch-fused) grids.
        for lo in range(0, num_wavelengths, _MIRROR_BLOCK):
            hi = min(lo + _MIRROR_BLOCK, num_wavelengths)
            out[lo:hi, :, mirror] = out[lo:hi, mirror, :].transpose(0, 2, 1)
        return out
    out = np.empty((num_wavelengths, num_external, num_external), dtype=complex)
    for group in compiled.groups:
        _execute_group(
            group,
            matrices,
            stacks,
            num_wavelengths,
            out,
            max_block,
            stack_positions,
            flat_stacks,
        )
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
