"""Calling context trees (CCTs).

The CCT is HPCToolkit's compact profile representation: call paths share
prefixes, and metrics live on nodes.  Data-centric profiling (paper
§4.1.4) partitions each thread's samples across CCTs by storage class
and splices *data* nodes into the tree:

- heap samples:   <allocation call path> -> [heap data accesses] -> <access path>
- static samples: [static variable name] -> <access path>
- unknown/nonmem: <access path> only

Node identity is a structural key (function name + module-relative IP,
variable symbol, marker), deliberately process-independent so CCTs from
different threads, processes, and nodes coalesce by simple recursive
merging — the property the post-mortem reduction tree relies on.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.core.metrics import MetricKind, MetricVector
from repro.errors import ProfileError

__all__ = ["CCT", "CCTNode", "PathEntry", "canonical_key_order"]

# A path entry is (key, info): `key` is the structural identity used for
# merging; `info` is display metadata (function/file/line/name).
PathEntry = tuple[tuple, dict | None]

KIND_ROOT = "root"
KIND_FRAME = "frame"
KIND_IP = "ip"
KIND_STATIC_VAR = "static-var"
KIND_HEAP_MARKER = "heap-marker"

HEAP_MARKER_KEY = (KIND_HEAP_MARKER,)
HEAP_MARKER_INFO = {"label": "heap data accesses"}


def canonical_key_order(key: tuple) -> tuple:
    """A total order over structural node keys (mixed str/int tuples).

    Python refuses ``int < str``, so each element is lifted into a
    type-tagged tuple.  Used to sort sibling nodes when serializing in
    canonical form: two semantically equal CCTs built in different merge
    orders then encode to identical bytes.
    """
    return tuple(
        (0, element, "") if isinstance(element, int) else (1, 0, str(element))
        for element in key
    )


class CCTNode:
    """One CCT node: structural key, display info, metrics, children."""

    __slots__ = ("key", "info", "metrics", "children")

    def __init__(self, key: tuple, info: dict | None = None) -> None:
        self.key = key
        self.info = info
        self.metrics = MetricVector()
        self.children: dict[tuple, "CCTNode"] = {}

    @property
    def kind(self) -> str:
        return self.key[0]

    def child(self, key: tuple, info: dict | None = None) -> "CCTNode":
        node = self.children.get(key)
        if node is None:
            node = CCTNode(key, info)
            self.children[key] = node
        elif node.info is None and info is not None:
            node.info = info
        return node

    def label(self) -> str:
        """Human-readable node label for views."""
        info = self.info or {}
        kind = self.key[0]
        if kind == KIND_ROOT:
            return str(self.key[1]) if len(self.key) > 1 else "root"
        if kind == KIND_FRAME:
            return info.get("label") or str(self.key[1])
        if kind == KIND_IP:
            fn, line = self.key[1], self.key[2]
            loc = info.get("location", "")
            suffix = f" [{loc}]" if loc else ""
            return f"{fn}: line {line}{suffix}"
        if kind == KIND_STATIC_VAR:
            return f"static variable {self.key[2]}"
        if kind == KIND_HEAP_MARKER:
            return "heap data accesses"
        return str(self.key)

    # -- aggregation -----------------------------------------------------------

    def inclusive(self) -> MetricVector:
        """Sum of this node's and all descendants' metrics."""
        total = self.metrics.copy()
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            total.merge(node.metrics)
            stack.extend(node.children.values())
        return total

    def inclusive_value(self, kind: MetricKind) -> int:
        total = self.metrics.get(kind)
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            total += node.metrics.get(kind)
            stack.extend(node.children.values())
        return total

    def walk(self) -> Iterator["CCTNode"]:
        """Depth-first pre-order iteration over the subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def find(self, predicate: Callable[["CCTNode"], bool]) -> list["CCTNode"]:
        return [n for n in self.walk() if predicate(n)]

    # -- merge / serialize -------------------------------------------------------

    def merge(self, other: "CCTNode") -> int:
        """Merge ``other``'s subtree into this node; returns nodes visited.

        ``other`` is never mutated, and nothing of ``other`` is aliased
        into ``self`` (children and info dicts are copied), so merge
        targets and sources stay independent afterwards.  The walk is
        iterative, so no tree depth can raise ``RecursionError``.
        """
        if self.key != other.key:
            raise ProfileError(f"cannot merge nodes with keys {self.key} != {other.key}")
        visited = 0
        pairs = [(self, other)]
        while pairs:
            mine, theirs = pairs.pop()
            visited += 1
            mine.metrics.merge(theirs.metrics)
            if mine.info is None and theirs.info is not None:
                mine.info = dict(theirs.info)
            children = mine.children
            for key, child in theirs.children.items():
                target = children.get(key)
                if target is None:
                    children[key], copied = child._clone_counted()
                    visited += copied
                else:
                    pairs.append((target, child))
        return visited

    def clone(self) -> "CCTNode":
        """Deep copy: no metrics, info, or child structure is shared."""
        return self._clone_counted()[0]

    def _clone_counted(self) -> tuple["CCTNode", int]:
        """Iterative deep copy, plus the number of nodes copied."""
        out = _copy_node(self)
        copied = 1
        pairs = [(self, out)]
        while pairs:
            source, target = pairs.pop()
            children = target.children
            for key, child in source.children.items():
                children[key] = copy = _copy_node(child)
                copied += 1
                if child.children:
                    pairs.append((child, copy))
        return out, copied

    def to_dict(self) -> dict:
        return {
            "key": list(self.key),
            "info": self.info,
            "metrics": self.metrics.as_dict(),
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CCTNode":
        node = cls(tuple(d["key"]), d["info"])
        node.metrics = MetricVector.from_dict(d["metrics"])
        for child in d["children"]:
            c = cls.from_dict(child)
            node.children[c.key] = c
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CCTNode({self.label()}, children={len(self.children)})"


def _copy_node(node: CCTNode) -> CCTNode:
    """A childless copy of ``node``, built slot by slot (no default metrics)."""
    out = CCTNode.__new__(CCTNode)
    out.key = node.key
    out.info = None if node.info is None else dict(node.info)
    out.metrics = node.metrics.copy()
    out.children = {}
    return out


class CCT:
    """A rooted calling context tree for one storage class."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.root = CCTNode((KIND_ROOT, name))

    def insert_path(self, path: Sequence[PathEntry]) -> CCTNode:
        """Walk/create nodes along ``path``; return the final node."""
        node = self.root
        for key, info in path:
            node = node.child(key, info)
        return node

    def add_sample_at(self, path: Sequence[PathEntry], sample, count: int = 1) -> CCTNode:
        leaf = self.insert_path(path)
        leaf.metrics.add_sample(sample, count)
        return leaf

    def merge(self, other: "CCT") -> int:
        if self.name != other.name:
            raise ProfileError(f"cannot merge CCT {other.name!r} into {self.name!r}")
        return self.root.merge(other.root)

    def node_count(self) -> int:
        return self.root.node_count()

    def total(self, kind: MetricKind) -> int:
        return self.root.inclusive_value(kind)

    def clone(self) -> "CCT":
        out = CCT(self.name)
        out.root = self.root.clone()
        return out

    def to_dict(self) -> dict:
        return {"name": self.name, "root": self.root.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "CCT":
        cct = cls(d["name"])
        cct.root = CCTNode.from_dict(d["root"])
        return cct

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CCT({self.name}, nodes={self.node_count()})"
