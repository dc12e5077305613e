"""Max-flow machinery for the k-flow scheme of Section 5.2.

The paper notes an ``O(k log n)`` deterministic PLS for deciding whether the
maximum ``s``–``t`` flow equals ``k`` ([31]), hence an
``O(log k + log log n)`` RPLS via Theorem 3.1.  On simple undirected graphs
with unit capacities, max-flow equals the number of edge-disjoint ``s``–``t``
paths (Menger), which is the setting our scheme certifies with two witnesses:

- ``k`` edge-disjoint paths (flow feasibility: ``maxflow >= k``), found by
  Edmonds–Karp plus flow decomposition;
- the set of nodes reachable from ``s`` in the *residual* graph, which must
  exclude ``t`` (maximality: ``maxflow <= k``) — a locally checkable
  reachability certificate.

The module implements Edmonds–Karp on arbitrary integer-capacity digraphs,
the undirected unit-capacity reduction, flow decomposition into simple
edge-disjoint paths, vertex-disjoint paths via node splitting (Menger's
vertex form, used by the s-t vertex-connectivity discussion of Section 5.2),
and residual reachability.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.graphs.port_graph import Node, PortGraph

Arcs = Dict[Hashable, Dict[Hashable, int]]


def max_flow(capacities: Arcs, source: Hashable, sink: Hashable) -> Tuple[int, Arcs]:
    """Edmonds–Karp maximum flow on an integer-capacity digraph.

    ``capacities[u][v]`` is the capacity of arc ``(u, v)`` (absent = 0).
    Returns ``(value, flow)`` with ``flow[u][v] >= 0`` and skew-symmetry
    handled implicitly (flow is stored on forward arcs only; pushing along a
    residual reverse arc cancels stored flow).
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    flow: Arcs = {u: {v: 0 for v in targets} for u, targets in capacities.items()}

    def residual(u: Hashable, v: Hashable) -> int:
        forward = capacities.get(u, {}).get(v, 0) - flow.get(u, {}).get(v, 0)
        backward = flow.get(v, {}).get(u, 0)
        return forward + backward

    def neighbors(u: Hashable) -> List[Hashable]:
        # Insertion order, not set order: string-bearing node keys (the
        # ("v", "in") split nodes of vertex_disjoint_paths) iterate in a
        # PYTHONHASHSEED-dependent order as a set, and the BFS order picks
        # which augmenting paths -- hence which honest labels -- come out.
        out = list(capacities.get(u, {}))
        seen = set(out)
        return out + [
            w for w, targets in capacities.items() if u in targets and w not in seen
        ]

    value = 0
    while True:
        # BFS for a shortest augmenting path in the residual graph.
        parent: Dict[Hashable, Hashable] = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in neighbors(u):
                if v not in parent and residual(u, v) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return value, flow
        # Bottleneck along the path.
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            r = residual(u, v)
            bottleneck = r if bottleneck is None else min(bottleneck, r)
            v = u
        # Augment.
        v = sink
        while v != source:
            u = parent[v]
            cancel = min(bottleneck, flow.get(v, {}).get(u, 0))
            if cancel:
                flow[v][u] -= cancel
            remainder = bottleneck - cancel
            if remainder:
                flow.setdefault(u, {}).setdefault(v, 0)
                flow[u][v] += remainder
            v = u
        value += bottleneck


def unit_capacity_arcs(graph: PortGraph) -> Arcs:
    """Each undirected edge becomes two unit-capacity arcs."""
    arcs: Arcs = {node: {} for node in graph.nodes}
    for u, _pu, v, _pv in graph.edges():
        arcs[u][v] = 1
        arcs[v][u] = 1
    return arcs


def net_unit_flow(graph: PortGraph, flow: Arcs) -> Dict[Tuple[Node, Node], int]:
    """Collapse a unit flow on antiparallel arcs into a net orientation.

    Returns ``{(u, v): 1}`` for every edge carrying net flow from ``u`` to
    ``v``; edges with cancelled or zero flow are omitted.
    """
    oriented: Dict[Tuple[Node, Node], int] = {}
    for u, _pu, v, _pv in graph.edges():
        net = flow.get(u, {}).get(v, 0) - flow.get(v, {}).get(u, 0)
        if net > 0:
            oriented[(u, v)] = net
        elif net < 0:
            oriented[(v, u)] = -net
    return oriented


def edge_disjoint_paths(
    graph: PortGraph, source: Node, sink: Node
) -> List[List[Node]]:
    """A maximum set of edge-disjoint ``source``–``sink`` paths (Menger).

    Paths are node sequences starting at ``source`` and ending at ``sink``;
    their count equals the unit-capacity max-flow value.
    """
    value, flow = max_flow(unit_capacity_arcs(graph), source, sink)
    remaining = dict(net_unit_flow(graph, flow))
    out_arcs: Dict[Node, List[Node]] = {}
    for (u, v), units in remaining.items():
        if units != 1:
            raise AssertionError("unit-capacity flow must orient edges 0/1")
        out_arcs.setdefault(u, []).append(v)
    _cancel_flow_cycles(out_arcs)

    paths: List[List[Node]] = []
    for _ in range(value):
        path = [source]
        current = source
        visited_arcs: Set[Tuple[Node, Node]] = set()
        while current != sink:
            candidates = out_arcs.get(current, [])
            if not candidates:
                raise AssertionError("flow decomposition ran out of arcs")
            nxt = candidates.pop()
            visited_arcs.add((current, nxt))
            path.append(nxt)
            current = nxt
            if len(path) > graph.edge_count + 1:
                raise AssertionError("flow decomposition found a cycle")
        paths.append(path)
    return paths


def _cancel_flow_cycles(out_arcs: Dict[Node, List[Node]]) -> None:
    """Remove directed cycles from a unit net flow, in place.

    A feasible flow may contain circulation cycles that carry no value;
    cancelling them makes the arc set acyclic so decomposition yields
    *simple* paths — which the k-flow scheme's position counters require.
    """
    while True:
        cycle = _find_arc_cycle(out_arcs)
        if cycle is None:
            return
        for u, v in cycle:
            out_arcs[u].remove(v)


def _find_arc_cycle(
    out_arcs: Dict[Node, List[Node]]
) -> Optional[List[Tuple[Node, Node]]]:
    """One directed cycle in an arc multiset, or None (iterative DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[Node, int] = {}
    for start in list(out_arcs):
        if color.get(start, WHITE) != WHITE:
            continue
        stack: List[Tuple[Node, int]] = [(start, 0)]
        path: List[Node] = [start]
        color[start] = GRAY
        while stack:
            node, index = stack[-1]
            successors = out_arcs.get(node, [])
            if index < len(successors):
                stack[-1] = (node, index + 1)
                nxt = successors[index]
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    position = path.index(nxt)
                    cycle_nodes = path[position:] + [nxt]
                    return list(zip(cycle_nodes, cycle_nodes[1:]))
                if state == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def vertex_disjoint_paths(
    graph: PortGraph, source: Node, sink: Node
) -> List[List[Node]]:
    """A maximum set of internally vertex-disjoint paths, via node splitting.

    Every node ``v`` other than the terminals becomes ``(v, 'in') ->
    (v, 'out')`` with capacity 1; edges get capacity 1 in both directions.
    """
    def node_in(v: Node):
        return (v, "in") if v not in (source, sink) else v

    def node_out(v: Node):
        return (v, "out") if v not in (source, sink) else v

    arcs: Arcs = {}
    big = graph.edge_count + 1
    for v in graph.nodes:
        if v not in (source, sink):
            arcs.setdefault(node_in(v), {})[node_out(v)] = 1
    for u, _pu, v, _pv in graph.edges():
        arcs.setdefault(node_out(u), {})[node_in(v)] = 1
        arcs.setdefault(node_out(v), {})[node_in(u)] = 1
    value, flow = max_flow(arcs, source, sink)

    # Decompose on the split graph, then strip the in/out bookkeeping.
    oriented: Dict[Hashable, List[Hashable]] = {}
    for u, targets in flow.items():
        for v, units in targets.items():
            net = units - flow.get(v, {}).get(u, 0)
            if net > 0:
                oriented.setdefault(u, []).extend([v] * net)
    paths: List[List[Node]] = []
    for _ in range(value):
        split_path = [source]
        current: Hashable = source
        while current != sink:
            candidates = oriented.get(current, [])
            if not candidates:
                raise AssertionError("vertex decomposition ran out of arcs")
            current = candidates.pop()
            split_path.append(current)
            if len(split_path) > 4 * (graph.edge_count + graph.node_count) + 4:
                raise AssertionError("vertex decomposition found a cycle")
        path = [
            step for step in split_path
            if not (isinstance(step, tuple) and len(step) == 2 and step[1] == "in")
        ]
        path = [
            step[0] if isinstance(step, tuple) and len(step) == 2 and step[1] == "out"
            else step
            for step in path
        ]
        paths.append(path)
    return paths


def residual_reachable(
    graph: PortGraph,
    oriented_flow: Dict[Tuple[Node, Node], int],
    source: Node,
) -> Dict[Node, int]:
    """BFS layers of the residual graph of a unit flow, from ``source``.

    Residual arcs of an undirected unit-capacity edge ``{u, v}``:

    - unused edge: both ``u -> v`` and ``v -> u``;
    - edge carrying net flow ``u -> v``: only the reverse arc ``v -> u``.

    Returns ``{node: layer}`` for reachable nodes.  In a maximum flow the
    sink is unreachable, and that fact — checkable edge-by-edge — is the
    local certificate that no augmenting path exists (``flow <= k``).
    """
    arcs: Dict[Node, Set[Node]] = {node: set() for node in graph.nodes}
    for u, _pu, v, _pv in graph.edges():
        if oriented_flow.get((u, v), 0) > 0:
            arcs[v].add(u)
        elif oriented_flow.get((v, u), 0) > 0:
            arcs[u].add(v)
        else:
            arcs[u].add(v)
            arcs[v].add(u)
    layers = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for nxt in arcs[current]:
            if nxt not in layers:
                layers[nxt] = layers[current] + 1
                queue.append(nxt)
    return layers
