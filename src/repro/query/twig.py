"""Twig pattern model.

A twig query is a small ordered labeled tree whose edges carry an axis
(child ``/`` or descendant ``//``) and whose leaves may be value-equality
predicates.  ``*`` wildcard steps are permitted; following the paper
(Section 4.5), wildcard nodes are *collapsed* into edge constraints before
the twig is transformed into its Prufer sequence, so the sequenced tree
contains named nodes and values only.

:class:`CollapsedTwig` is the query form the PRIX engine consumes: a
numbered tree plus, for every non-root node, an :class:`EdgeSpec` saying
how many tree edges may separate it from its parent in a match.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from repro.xmlkit.tree import Document, XMLNode


class Axis(enum.Enum):
    """Axis connecting a twig node to its parent."""

    CHILD = "/"
    DESCENDANT = "//"


#: Label used for ``*`` wildcard steps.
STAR = "*"

#: Most branch arrangements (Section 5.7) one unordered query may ask
#: for: 7!, one seven-way branch.  The most any test asks for is 120, any
#: Table 3 query 6 (Q6), any prixbench pool twig 2.
MAX_ARRANGEMENTS = 5040

#: Most nodes one twig pattern may have.  :func:`repro.query.xpath.parse_xpath`
#: counts them from the query's tokens and refuses a larger pattern
#: before it builds anything, so no query nests deep enough to exhaust
#: the parser's stack.  The largest Table 3 query has 6 nodes (Q5), any
#: prixbench pool twig 6 (depth 4).
MAX_TWIG_NODES = 64


class UnsupportedTwigError(ValueError):
    """A well-formed twig the engine refuses to run (a caller mistake):
    a ``*`` root, nothing to sequence, or more arrangements than
    :data:`MAX_ARRANGEMENTS`."""


class TwigNode:
    """One step of a twig pattern (element test, ``*``, or value)."""

    __slots__ = ("label", "axis", "children", "parent", "is_value")

    def __init__(self, label, axis=Axis.CHILD, is_value=False):
        self.label = label
        self.axis = axis
        self.children = []
        self.parent = None
        self.is_value = is_value

    @property
    def is_star(self):
        """True for a ``*`` wildcard step."""
        return self.label == STAR and not self.is_value

    def append(self, child):
        """Attach ``child`` and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def iter_subtree(self):
        """Yield this node and its descendants in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self):
        kind = "value" if self.is_value else ("star" if self.is_star else "elem")
        return f"<TwigNode {kind} {self.label!r} {self.axis.value}>"


class TwigPattern:
    """A parsed twig query."""

    def __init__(self, root, absolute=False, source=""):
        if root.is_star:
            raise UnsupportedTwigError("the twig root must be a named node")
        self.root = root
        self.absolute = absolute
        self.source = source

    def nodes(self):
        """All pattern nodes in preorder."""
        return list(self.root.iter_subtree())

    def named_nodes(self):
        """Pattern nodes excluding ``*`` steps."""
        return [n for n in self.root.iter_subtree() if not n.is_star]

    def has_values(self):
        """True when any leaf carries a value-equality predicate.

        The PRIX query optimizer uses this to pick EPIndex over RPIndex
        (Section 5.6).
        """
        return any(n.is_value for n in self.root.iter_subtree())

    def has_wildcards(self):
        """True when any step uses ``//`` or ``*``."""
        return any(n.is_star or n.axis is Axis.DESCENDANT
                   for n in self.root.iter_subtree())

    def branch_count(self):
        """Number of nodes with two or more children."""
        return sum(1 for n in self.root.iter_subtree()
                   if len(n.children) >= 2)

    def __repr__(self):
        return f"<TwigPattern {self.source or self.root.label!r}>"


@dataclass(frozen=True)
class EdgeSpec:
    """How many data-tree edges may separate a node from its twig parent.

    ``min_steps == max_steps == 1`` is a plain parent/child edge;
    ``max_steps is None`` means unbounded (a descendant edge).  Collapsed
    ``*`` steps raise ``min_steps`` (and ``max_steps`` when bounded).
    """

    min_steps: int = 1
    max_steps: int | None = 1

    @property
    def is_plain_child(self):
        """True for an exact one-step parent/child edge."""
        return self.min_steps == 1 and self.max_steps == 1

    def admits(self, steps):
        """True when ``steps`` tree edges satisfy this spec."""
        if steps < self.min_steps:
            return False
        return self.max_steps is None or steps <= self.max_steps


class CollapsedTwig:
    """The wildcard-free, numbered form of a twig the PRIX engine matches.

    Metadata is keyed by node *identity* so renumbering (e.g. for a
    different branch arrangement) never invalidates it.

    Attributes:
        document: the collapsed twig as a numbered :class:`Document`.
        absolute: True when the twig is anchored at the document root.
    """

    def __init__(self, document, spec_by_node, source_by_node, absolute):
        self.document = document
        self._spec_by_node = spec_by_node      # id(XMLNode) -> EdgeSpec
        self._source_by_node = source_by_node  # id(XMLNode) -> TwigNode
        self.absolute = absolute

    @property
    def n_nodes(self):
        """Number of nodes in the collapsed twig."""
        return self.document.size

    def spec_of(self, node):
        """Edge spec between ``node`` and its parent (plain child default)."""
        return self._spec_by_node.get(id(node), EdgeSpec())

    def source_of(self, node):
        """Original :class:`TwigNode` this collapsed node stands for."""
        return self._source_by_node.get(id(node))

    def is_plain(self):
        """True when every edge is a plain parent/child edge."""
        return all(self.spec_of(n).is_plain_child
                   for n in self.document.nodes_in_postorder()
                   if n.parent is not None)

    def copy(self):
        """Deep-copy the twig, remapping the identity-keyed metadata."""
        mapping = {}
        new_root = _copy_mapped(self.document.root, mapping)
        spec_by_node = {id(mapping[old_id]): spec
                        for old_id, spec in self._spec_by_node.items()}
        source_by_node = {id(mapping[old_id]): src
                          for old_id, src in self._source_by_node.items()}
        twig = CollapsedTwig(Document(new_root), spec_by_node,
                             source_by_node, self.absolute)
        # Keep the mapped nodes alive: identity keys are only stable while
        # the objects exist, and `mapping` values are exactly the new nodes.
        twig._nodes_keepalive = list(mapping.values())
        return twig


def _copy_mapped(node, mapping):
    clone = XMLNode(node.tag, is_value=node.is_value)
    mapping[id(node)] = clone
    stack = [(node, clone)]
    while stack:
        src, dst = stack.pop()
        for child in src.children:
            child_clone = XMLNode(child.tag, is_value=child.is_value)
            mapping[id(child)] = child_clone
            child_clone.parent = dst
            dst.children.append(child_clone)
            stack.append((child, child_clone))
    return clone


def _combine_specs(axes):
    """Fold a chain of collapsed edges into one :class:`EdgeSpec`."""
    min_steps = 0
    bounded = True
    for axis in axes:
        min_steps += 1
        if axis is Axis.DESCENDANT:
            bounded = False
    return EdgeSpec(min_steps=min_steps,
                    max_steps=min_steps if bounded else None)


def collapse(pattern):
    """Collapse a :class:`TwigPattern` into its :class:`CollapsedTwig`.

    Wildcard ``*`` steps are removed; their axes fold into the edge spec of
    the nearest named descendant, exactly as Section 4.5 prescribes.  A
    trailing ``*`` (an existence test) survives as an anonymous node whose
    label the engine treats as unconstrained.
    """
    spec_by_node = {}
    source_by_node = {}

    def attach_children(source, clone_parent, pending_axes):
        for child in source.children:
            chain = pending_axes + [child.axis]
            if child.is_star and child.children:
                attach_children(child, clone_parent, chain)
                continue
            child_clone = XMLNode(child.label, is_value=child.is_value)
            child_clone.parent = clone_parent
            clone_parent.children.append(child_clone)
            spec_by_node[id(child_clone)] = _combine_specs(chain)
            source_by_node[id(child_clone)] = child
            if not child.is_star:
                attach_children(child, child_clone, [])

    clone_root = XMLNode(pattern.root.label, is_value=pattern.root.is_value)
    source_by_node[id(clone_root)] = pattern.root
    attach_children(pattern.root, clone_root, [])
    twig = CollapsedTwig(Document(clone_root), spec_by_node,
                         source_by_node, pattern.absolute)
    twig._nodes_keepalive = list(clone_root.iter_subtree())
    return twig


def arrangements(pattern):
    """Yield one :class:`CollapsedTwig` per distinct branch arrangement.

    Section 5.7: running ordered matching on every arrangement of the
    twig's branches yields the unordered matches.  Arrangements whose
    (label, parent, spec) signature coincides with an earlier one (e.g.
    permutations of structurally identical branches) are skipped.

    Raises :class:`UnsupportedTwigError`, before anything is enumerated,
    when the branch fan-outs multiply to more than
    :data:`MAX_ARRANGEMENTS` orders.
    """
    base = collapse(pattern)
    root = base.document.root
    branch_nodes = [n for n in root.iter_subtree() if len(n.children) >= 2]
    if not branch_nodes:
        yield base
        return
    count = math.prod(math.factorial(len(n.children)) for n in branch_nodes)
    if count > MAX_ARRANGEMENTS:
        raise UnsupportedTwigError(
            f"the twig's branches can be ordered {count} ways; unordered "
            f"matching tries at most {MAX_ARRANGEMENTS} (use fewer "
            f"predicates per step, or ordered matching)")

    seen = set()
    child_orders = [itertools.permutations(range(len(n.children)))
                    for n in branch_nodes]
    originals = [list(n.children) for n in branch_nodes]
    for combo in itertools.product(*child_orders):
        for node, order, original in zip(branch_nodes, combo, originals):
            node.children = [original[i] for i in order]
        base.document.renumber()
        signature = _signature(base)
        if signature in seen:
            continue
        seen.add(signature)
        yield base.copy()
    for node, original in zip(branch_nodes, originals):
        node.children = original
    base.document.renumber()


def root_paths(pattern):
    """One :class:`TwigPattern` per leaf of ``pattern``, in preorder: the
    chain of steps from the root down to that leaf.

    Every step keeps its label, axis and value flag (``*`` steps stay
    steps), the chain keeps ``absolute``, and its ``source`` spells it
    as XPath.  An occurrence of the twig, in any branch order, restricts
    to an occurrence of each chain, and a chain has one branch order.
    Repeated sibling labels give repeated chains.
    """
    paths = []
    stack = [(pattern.root, ())]
    while stack:
        node, above = stack.pop()
        chain = above + (node,)
        if not node.children:
            paths.append(_chain_pattern(chain, pattern.absolute))
        stack.extend((child, chain) for child in reversed(node.children))
    return paths


def _chain_pattern(chain, absolute):
    root = TwigNode(chain[0].label)
    source = ("/" if absolute else "//") + root.label
    node = root
    for step in chain[1:]:
        node = node.append(TwigNode(step.label, step.axis, step.is_value))
        if step.is_value:
            # The parser reads only child values; ``.//`` spells the
            # descendant ones a pattern built in code may carry.
            axis = "" if step.axis is Axis.CHILD else ".//"
            quote = "'" if '"' in step.label else '"'
            source += f"[{axis}text()={quote}{step.label}{quote}]"
        else:
            source += step.axis.value + step.label
    return TwigPattern(root, absolute=absolute, source=source)


def node_signatures(pattern):
    """Assign each pattern node a signature id, equal for automorphic nodes.

    Two nodes receive the same id exactly when an automorphism of the twig
    (a relabeling permuting structurally identical sibling branches) can
    map one to the other.  Embeddings deduplicated on ``(signature_id,
    image)`` pairs therefore count twig *occurrences* rather than the
    redundant assignments that identical branches would otherwise inflate.

    Returns ``{id(TwigNode): signature_id}``.
    """
    subtree_sig = {}

    def subtree(node):
        key = (node.label, node.is_value, node.axis,
               tuple(sorted(subtree(child) for child in node.children)))
        cached = subtree_sig.get(key)
        if cached is None:
            cached = len(subtree_sig)
            subtree_sig[key] = cached
        return cached

    signature_ids = {}
    assignments = {}

    def walk(node, path):
        here = path + (subtree(node),)
        sig_id = assignments.get(here)
        if sig_id is None:
            sig_id = len(assignments)
            assignments[here] = sig_id
        signature_ids[id(node)] = sig_id
        for child in node.children:
            walk(child, here)

    walk(pattern.root, ())
    return signature_ids


def _signature(collapsed):
    # Keyed on the parent's postorder number, not its tag: two different
    # arrangements can give every node identically-tagged parents (e.g. a
    # star under the root vs. under an inner node both tagged 'a') while
    # being different ordered trees, and deduplicating them would drop
    # real matches.  Equal (tag, parent-number, spec) per postorder
    # position means the arrangements are the same ordered tree.
    doc = collapsed.document
    return tuple(
        (node.tag, node.is_value,
         node.parent.postorder if node.parent else 0,
         collapsed.spec_of(node))
        for node in doc.nodes_in_postorder())
