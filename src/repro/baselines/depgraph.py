"""DepGraph-style automatic dependency grouping (Fang et al. [13]).

DepGraph's insight is that structurally-coupled parameters must be pruned
together, and that the coupling can be *derived automatically* instead of
hand-written per architecture. This module reimplements that idea on top of
the autograd tape:

1. run one forward pass and collect the recorded operation graph;
2. start a channel "tag" at the output of every conv/linear producer;
3. propagate tags forward through channel-preserving ops (ReLU, pooling,
   batch norm, padding, flatten — tracked with a column group
   size — and global average pooling);
4. a tag entering the *data* input of a convolution or linear marks that
   layer as a consumer and stops;
5. two tags meeting at an elementwise ``add``/``mul`` (residual
   connections) merge their producers into one coupled group (union-find);
6. a tag reaching the network output marks the group terminal
   (unprunable — its channels are the logits).

The resulting :class:`CoupledGroup` records support the two Fig. 6
variants: **full-grouping** (norm aggregated over every coupled parameter)
and **no-grouping** (producer-only norm), and the generic surgery needed to
prune a coupled group consistently.

The trace is validated in the test suite against the hand-written
``prunable_groups()`` metadata of every zoo model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..models.pruning_spec import ConsumerRef
from ..nn import BatchNorm2d, Conv2d, Linear, Module
from ..tensor import Tensor
from .scorers import FilterScorer

__all__ = ["CoupledGroup", "OperationGraph", "trace_coupled_groups",
           "prune_coupled_group", "DepGraphScorer", "build_operation_graph"]


@dataclass
class CoupledGroup:
    """A set of layers whose output channels must be pruned in lockstep.

    Attributes
    ----------
    producers:
        Paths of conv/linear layers whose *output* channels are tied.
    bns:
        Batch norms normalising any producer in the group.
    consumers:
        Layers consuming the shared channels on their input side.
    size:
        The common channel count.
    terminal:
        True when the channels reach the network output (classifier
        logits) — such a group must never be pruned.
    """

    producers: list[str] = field(default_factory=list)
    bns: list[str] = field(default_factory=list)
    consumers: list[ConsumerRef] = field(default_factory=list)
    size: int = 0
    terminal: bool = False

    @property
    def name(self) -> str:
        return "+".join(sorted(self.producers))

    def prunable(self) -> bool:
        return not self.terminal and bool(self.consumers)


# ----------------------------------------------------------------------
# Trace machinery
# ----------------------------------------------------------------------

# Elementwise ops keep the channel axis; a tag meeting another at a binary
# op merges the two groups. ``mean`` is global average pooling, which
# collapses the spatial axes but keeps channels.
_PRESERVING_OPS = {"relu", "max_pool2d", "avg_pool2d", "pad2d", "dropout",
                   "neg", "clip", "abs", "sigmoid", "tanh", "exp", "log",
                   "sqrt", "maximum", "minimum", "where", "add", "sub", "mul",
                   "mean"}


@dataclass
class OperationGraph:
    """The recorded operations of one forward pass, in discovery order.

    ``nodes`` maps a tensor's ``id`` to the tensor. ``children`` maps a
    parent's id to ``{child id: the parent's position among the child's
    inputs}``; a parent used twice by one child keeps its last position.
    """

    nodes: dict[int, Tensor] = field(default_factory=dict)
    children: dict[int, dict[int, int]] = field(default_factory=dict)

    def add_node(self, t: Tensor) -> None:
        self.nodes[id(t)] = t
        self.children[id(t)] = {}


def build_operation_graph(model: Module, input_shape: tuple[int, int, int]
                          ) -> tuple[OperationGraph, Tensor,
                                     dict[int, tuple[str, Module]]]:
    """Trace one forward pass into an :class:`OperationGraph`.

    Returns
    -------
    (graph, output, param_owner):
        ``graph`` has one node per recorded tensor (keyed by ``id``) and
        an edge from each parent to each child. ``param_owner`` maps a
        parameter tensor's id to ``(module path, module)``.
    """
    param_owner: dict[int, tuple[str, Module]] = {}
    for path, module in model.named_modules():
        if isinstance(module, (Conv2d, Linear, BatchNorm2d)):
            param_owner[id(module.weight)] = (path, module)

    was_training = model.training
    model.eval()
    try:
        x = Tensor(np.zeros((2,) + tuple(input_shape), dtype=np.float32))
        output = model(x)
    finally:
        model.train(was_training)

    graph = OperationGraph()
    stack = [output]
    graph.add_node(output)
    while stack:
        node = stack.pop()
        for index, parent in enumerate(node._parents):
            if id(parent) not in graph.nodes:
                graph.add_node(parent)
                stack.append(parent)
            graph.children[id(parent)][id(node)] = index
    return graph, output, param_owner


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, item: str) -> None:
        self.parent.setdefault(item, item)

    def find(self, item: str) -> str:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _producer_output_nodes(graph: OperationGraph,
                           param_owner: dict[int, tuple[str, Module]]
                           ) -> dict[int, str]:
    """Map op-node id → producer path for conv2d/matmul nodes using a weight."""
    result: dict[int, str] = {}
    for node_id, t in graph.nodes.items():
        if t._op == "conv2d" and len(t._parents) >= 2:
            wid = id(t._parents[1])
            if wid in param_owner and isinstance(param_owner[wid][1], Conv2d):
                result[node_id] = param_owner[wid][0]
        elif t._op == "matmul" and len(t._parents) == 2:
            transposed = t._parents[1]
            if transposed._op == "transpose" and transposed._parents:
                wid = id(transposed._parents[0])
                if wid in param_owner and isinstance(param_owner[wid][1], Linear):
                    result[node_id] = param_owner[wid][0]
    return result


def trace_coupled_groups(model: Module,
                         input_shape: tuple[int, int, int]) -> list[CoupledGroup]:
    """Derive all coupled channel groups of a model automatically."""
    graph, output, param_owner = build_operation_graph(model, input_shape)
    producer_nodes = _producer_output_nodes(graph, param_owner)

    uf = _UnionFind()
    for path in producer_nodes.values():
        uf.add(path)

    consumers: dict[str, list[ConsumerRef]] = {p: [] for p in producer_nodes.values()}
    bns: dict[str, set[str]] = {p: set() for p in producer_nodes.values()}
    terminal: set[str] = set()

    # tag state: (node_id, producer_root_path, group_size)
    tags: dict[int, tuple[str, int]] = {}
    worklist: list[tuple[int, str, int]] = [
        (node_id, path, 1) for node_id, path in producer_nodes.items()]

    def merge_into(existing_root: str, new_root: str) -> None:
        uf.union(existing_root, new_root)

    while worklist:
        node_id, root, group_size = worklist.pop()
        root = uf.find(root)
        if node_id in tags:
            other_root, _ = tags[node_id]
            other_root = uf.find(other_root)
            if other_root != root:
                merge_into(other_root, root)
            continue
        tags[node_id] = (root, group_size)
        if node_id == id(output):
            terminal.add(root)
        for child_id, index in graph.children[node_id].items():
            child = graph.nodes[child_id]
            op = child._op
            if child_id in producer_nodes and index == 0:
                # Channel tag feeds the data input of a conv/linear:
                # that layer is a consumer; the tag stops here (the layer's
                # own output starts a fresh tag).
                path = producer_nodes[child_id]
                module = model.get_module(path)
                kind = "conv" if isinstance(module, Conv2d) else "linear"
                consumers[root].append(
                    ConsumerRef(path, kind, group_size=group_size))
                continue
            if op in _PRESERVING_OPS:
                worklist.append((child_id, root, group_size))
            elif op == "batch_norm":
                # One node per BatchNorm2d: (x, weight, bias). A tag on x
                # passes through, and the layer joins the group's BNs.
                if index == 0:
                    bns[root].add(param_owner[id(child._parents[1])][0])
                    worklist.append((child_id, root, group_size))
            elif op == "reshape":
                parent_t = graph.nodes[node_id]
                if (parent_t.ndim == 4 and child.ndim == 2
                        and child.shape[0] == parent_t.shape[0]):
                    # Flatten (N, C, H, W) → (N, C·H·W): each channel now
                    # spans H·W consecutive columns.
                    spatial = parent_t.shape[2] * parent_t.shape[3]
                    worklist.append((child_id, root, group_size * spatial))
                else:
                    worklist.append((child_id, root, group_size))
            elif op.startswith("pow"):
                worklist.append((child_id, root, group_size))
            # Any other op (matmul against constants, reductions to the
            # loss, …) ends the tag conservatively.

    # Assemble groups per union-find root.
    grouped: dict[str, CoupledGroup] = {}
    for path in producer_nodes.values():
        root = uf.find(path)
        group = grouped.setdefault(root, CoupledGroup())
        if path not in group.producers:
            group.producers.append(path)
    for root, refs in consumers.items():
        group = grouped[uf.find(root)]
        for ref in refs:
            if ref not in group.consumers:
                group.consumers.append(ref)
    for root, paths in bns.items():
        group = grouped[uf.find(root)]
        for bn in sorted(paths):
            if bn not in group.bns:
                group.bns.append(bn)
    for root in terminal:
        grouped[uf.find(root)].terminal = True

    result = []
    for group in grouped.values():
        group.producers.sort()
        first = model.get_module(group.producers[0])
        group.size = (first.out_channels if isinstance(first, Conv2d)
                      else first.out_features)
        # A producer that also appears as a consumer (coupled stage) keeps
        # both roles; drop self-references where a layer consumes its own
        # group's channels on the output side only.
        result.append(group)
    result.sort(key=lambda g: g.name)
    return result


# ----------------------------------------------------------------------
# Surgery and scoring on coupled groups
# ----------------------------------------------------------------------

def prune_coupled_group(model: Module, group: CoupledGroup,
                        keep: np.ndarray) -> None:
    """Keep only the listed channels in every member of a coupled group."""
    if not group.prunable():
        raise ValueError(f"group {group.name!r} is terminal/unconsumered; "
                         "pruning it would change the network output shape")
    keep = np.asarray(sorted(set(int(i) for i in keep)), dtype=np.intp)
    if len(keep) == 0:
        raise ValueError("cannot remove every channel of a group")
    if keep[0] < 0 or keep[-1] >= group.size:
        raise ValueError(f"keep indices out of range [0, {group.size})")
    for path in group.producers:
        model.get_module(path).select_output_channels(keep)
    for bn_path in group.bns:
        model.get_module(bn_path).select_channels(keep)
    for ref in group.consumers:
        target = model.get_module(ref.path)
        if ref.kind == "conv":
            target.select_input_channels(keep)
        else:
            target.select_input_channels(keep, group_size=ref.group_size)
    group.size = len(keep)


class DepGraphScorer(FilterScorer):
    """Group-norm importance over coupled groups ([13]).

    ``grouping="full"`` aggregates the L2 norm of *all* coupled parameter
    slices per channel (producer filters, BN scales, consumer input
    slices); ``grouping="none"`` uses only each group's first producer —
    the two variants compared in the paper's Fig. 6.

    This scorer operates on :class:`CoupledGroup` objects; see
    :class:`~repro.baselines.methods.DepGraphPruner` for the driver.
    """

    def __init__(self, grouping: str = "full"):
        if grouping not in ("full", "none"):
            raise ValueError(f"grouping must be 'full' or 'none', got {grouping!r}")
        self.grouping = grouping
        self.name = f"depgraph-{grouping}"

    def group_scores(self, model: Module, group: CoupledGroup) -> np.ndarray:
        """Per-channel importance of one coupled group."""
        total = np.zeros(group.size, dtype=np.float64)
        producers = (group.producers if self.grouping == "full"
                     else group.producers[:1])
        for path in producers:
            w = model.get_module(path).weight.data
            total += (w.reshape(w.shape[0], -1) ** 2).sum(axis=1)
        if self.grouping == "full":
            for bn_path in group.bns:
                total += model.get_module(bn_path).weight.data.astype(np.float64) ** 2
            for ref in group.consumers:
                w = model.get_module(ref.path).weight.data
                if ref.kind == "conv":
                    total += (w ** 2).sum(axis=(0, 2, 3))
                else:
                    cols = w.reshape(w.shape[0], -1, ref.group_size)
                    per_channel = (cols ** 2).sum(axis=(0, 2))
                    total += per_channel
        return np.sqrt(total)
