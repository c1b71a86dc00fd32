"""TwigStack (Bruno, Koudas, Srivastava -- SIGMOD 2002).

Holistic stack-based twig joins over region-encoded element streams.
TwigStack is optimal for descendant-only twigs; with parent/child edges it
emits partial path solutions that the final merge discards -- the
sub-optimality the PRIX paper exploits in its Q8 experiment
(Section 6.4.2).  This implementation keeps that behaviour faithfully:
``getNext`` only reasons about ancestor/descendant containment, and
parent/child constraints are enforced during path expansion and merging.

One loop, :func:`twig_join`, serves both joins of the paper's Section 6:
:func:`twig_stack` drives it over region stream cursors, and
:func:`~repro.baselines.twigstackxb.twig_stack_xb` over XB-tree pointers
that may stand on a whole region, so the two differ by their cursor
alone.  The query tree is built from a
:class:`~repro.query.twig.TwigPattern`; a ``*`` step scans the
all-elements stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.twig import Axis, node_signatures
from repro.xmlkit.tree import value_label


class QueryNode:
    """One node of the twig-join query tree."""

    __slots__ = ("tag", "axis", "children", "parent", "cursor", "stack",
                 "source", "index")

    def __init__(self, tag, axis, source):
        self.tag = tag
        self.axis = axis
        self.children = []
        self.parent = None
        self.cursor = None   # StreamCursor or XBPointer
        self.stack = []   # list of (Element, parent_stack_size_at_push)
        self.source = source
        self.index = 0

    @property
    def is_leaf(self):
        """True for a query node without children."""
        return not self.children

    @property
    def is_root(self):
        """True for the query root."""
        return self.parent is None

    def subtree(self):
        """This node and its descendants, preorder."""
        out = [self]
        for child in self.children:
            out.extend(child.subtree())
        return out


def build_query_tree(pattern):
    """Convert a :class:`TwigPattern` into a :class:`QueryNode` tree.

    ``*`` steps become query nodes over the all-elements stream (tag
    ``"*"``); they join structurally like any other node but are stripped
    from the reported embeddings.
    """
    def convert(twig_node):
        if twig_node.is_star:
            tag = "*"
        elif twig_node.is_value:
            tag = value_label(twig_node.label)
        else:
            tag = twig_node.label
        node = QueryNode(tag, twig_node.axis, twig_node)
        for child in twig_node.children:
            child_node = convert(child)
            child_node.parent = node
            node.children.append(child_node)
        return node

    root = convert(pattern.root)
    for index, node in enumerate(root.subtree()):
        node.index = index
    return root


def _end(root):
    """Termination test: every leaf stream exhausted."""
    return all(node.cursor.eof for node in root.subtree() if node.is_leaf)


def _get_next(q):
    """The getNext of Bruno et al.: the next query node to work on.

    Extended with explicit handling of exhausted subtrees: a branch whose
    leaf streams have run dry can produce no further path solutions, so it
    is skipped while the remaining branches keep streaming (their path
    solutions still merge against the finalized ones).  The published
    pseudocode gets the same effect implicitly via infinite sentinels.
    Over XB-tree cursors a region stands in for its elements: its ``L``
    and ``R`` bound every start and end below it.
    """
    if q.is_leaf:
        return q
    candidates = []
    for child in q.children:
        result = _get_next(child)
        if result is not child:
            if not result.cursor.eof:
                return result
            continue  # exhausted subtree: skip this branch
        if child.cursor.eof:
            continue  # exhausted branch head
        candidates.append(child)
    if not candidates:
        # Every branch below q is exhausted; report it so ancestors (or
        # the main loop, at the root) can move on.
        child = q.children[0]
        return child if child.is_leaf else _get_next(child)
    n_min = min(candidates, key=lambda node: node.cursor.left)
    n_max = max(candidates, key=lambda node: node.cursor.left)
    while q.cursor.right < n_max.cursor.left:
        q.cursor.advance()
    if q.cursor.left < n_min.cursor.left:
        return q
    return n_min


def _clean_stack(node, act_l):
    """Pop stack entries that cannot be ancestors of the next element."""
    while node.stack and node.stack[-1][0].end < act_l:
        node.stack.pop()


@dataclass
class TwigJoinStats:
    """Work counters for one twig-join execution."""

    elements_scanned: int = 0
    elements_pushed: int = 0
    path_solutions: int = 0
    merged_solutions: int = 0
    drilldowns: int = 0
    coarse_advances: int = 0


class _SolutionCollector:
    """Accumulates per-leaf path solutions and merges them at the end."""

    def __init__(self, root):
        self.root = root
        self.paths = {}    # leaf QueryNode -> path (root..leaf)
        self.solutions = {}  # leaf QueryNode -> list of dicts {qnode: Element}
        for node in root.subtree():
            if node.is_leaf:
                path = []
                walk = node
                while walk is not None:
                    path.append(walk)
                    walk = walk.parent
                self.paths[node] = list(reversed(path))
                self.solutions[node] = []

    def expand(self, leaf, stats):
        """Expand the just-pushed head of ``leaf``'s stack into path
        solutions, honoring parent/child level constraints."""
        path = self.paths[leaf]

        def walk(position, element, limit):
            """Yield partial solutions for path[0..position] ending at
            ``element`` whose stack pointer is ``limit``."""
            if position == 0:
                yield {path[0]: element}
                return
            qnode = path[position]
            parent_q = path[position - 1]
            for idx in range(limit):
                ancestor, ancestor_limit = parent_q.stack[idx]
                # When two query nodes share a tag (e.g. c//c), the same
                # element sits on both stacks; a node is not its own
                # strict ancestor, so require a strictly earlier start.
                if ancestor.start >= element.start:
                    continue
                if qnode.axis is Axis.CHILD and \
                        ancestor.level + 1 != element.level:
                    continue
                for partial in walk(position - 1, ancestor, ancestor_limit):
                    solution = dict(partial)
                    solution[qnode] = element
                    yield solution

        element, limit = leaf.stack[-1]
        for solution in walk(len(path) - 1, element, limit):
            self.solutions[leaf].append(solution)
            stats.path_solutions += 1

    def merge(self, stats):
        """Join the per-path solutions into full twig matches."""
        leaves = list(self.paths)
        merged = [dict(sol) for sol in self.solutions[leaves[0]]]
        covered = set(self.paths[leaves[0]])
        for leaf in leaves[1:]:
            incoming = self.solutions[leaf]
            shared = [q for q in self.paths[leaf] if q in covered]
            covered.update(self.paths[leaf])
            buckets = {}
            for solution in incoming:
                key = tuple(solution[q].start for q in shared
                            if q in solution)
                buckets.setdefault(key, []).append(solution)
            joined = []
            for partial in merged:
                key = tuple(partial[q].start for q in shared
                            if q in partial)
                for solution in buckets.get(key, ()):
                    combined = dict(partial)
                    combined.update(solution)
                    joined.append(combined)
            merged = joined
            if not merged:
                break
        stats.merged_solutions = len(merged)
        return merged


def _solutions_to_matches(merged, pattern, root):
    """Convert merged solutions into canonical (doc, embedding) sets.

    ``*`` nodes are existence tests, not result nodes: they are stripped
    before deduplication, matching the oracle's reporting convention.
    """
    signatures = node_signatures(pattern)
    matches = set()
    for solution in merged:
        doc_ids = {element.doc_id for element in solution.values()}
        if len(doc_ids) != 1:
            continue
        doc_id = doc_ids.pop()
        canonical = frozenset(
            (signatures[id(qnode.source)], element.postorder)
            for qnode, element in solution.items()
            if not qnode.source.is_star)
        matches.add((doc_id, canonical))
    return matches


def twig_join(pattern, cursor_of, stats=None):
    """The holistic twig join; return ``(matches, stats)``.

    ``cursor_of(tag)`` opens one query node's input: a region
    :class:`~repro.baselines.region.StreamCursor`, which always stands on
    an element, or an :class:`~repro.baselines.xbtree.XBPointer`, which
    may stand on a region it drills into or skips whole (the rule is in
    :mod:`repro.baselines.twigstackxb`).
    """
    if stats is None:
        stats = TwigJoinStats()
    root = build_query_tree(pattern)
    for node in root.subtree():
        node.cursor = cursor_of(node.tag)

    collector = _SolutionCollector(root)
    while not _end(root):
        q_act = _get_next(root)
        cursor = q_act.cursor
        if cursor.eof:
            break
        if not cursor.at_leaf:
            if not q_act.is_root and not q_act.parent.stack and \
                    cursor.right < q_act.parent.cursor.left:
                cursor.advance()
                stats.coarse_advances += 1
            else:
                cursor.drill_down()
                stats.drilldowns += 1
            continue
        head = cursor.head()
        stats.elements_scanned += 1
        if not q_act.is_root:
            _clean_stack(q_act.parent, head.start)
        if q_act.is_root or q_act.parent.stack:
            _clean_stack(q_act, head.start)
            q_act.stack.append((head, len(q_act.parent.stack)
                                if q_act.parent else 0))
            stats.elements_pushed += 1
            if q_act.is_leaf:
                collector.expand(q_act, stats)
                q_act.stack.pop()
        cursor.advance()

    merged = collector.merge(stats)
    return _solutions_to_matches(merged, pattern, root), stats


def twig_stack(pattern, stream_set, stats=None):
    """Run TwigStack; return ``(matches, stats)``.

    ``matches`` is a set of ``(doc_id, canonical_embedding)`` pairs in the
    same canonical form the PRIX engine reports, so results compare
    directly in tests and benchmarks.
    """
    return twig_join(pattern, lambda tag: stream_set.stream(tag).cursor(),
                     stats)
