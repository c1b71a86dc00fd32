"""Query plans: the per-arrangement, per-variant matching artifacts.

A :class:`QueryPlan` freezes everything the filter and refinement phases
need about one branch arrangement of one twig under one index variant:

- the (possibly dummy-extended) match tree and its Prufer sequence,
- per-node edge specs and leaf descriptors,
- the adjacent-pair relationships that make MaxGap pruning safe
  (Theorem 4 distinguishes sibling/child/ancestor cases; pruning on a
  chain edge whose top is not the node's own deletion would risk false
  dismissals, so such pairs are marked unprunable).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.prufer.sequence import regular_sequence
from repro.query.twig import STAR, EdgeSpec, UnsupportedTwigError
from repro.xmlkit.tree import DUMMY_TAG, Document, XMLNode, sequence_label

#: Relationship kinds between adjacent LPS(Q) positions for MaxGap pruning.
REL_SIBLING = "sibling"     # parent(q_i) == parent(q_{i+1})
REL_CHILD = "child"         # q_{i+1} == parent(q_i), plain edge above it
REL_ANCESTOR = "ancestor"   # parent(q_i) proper ancestor of parent(q_{i+1})
REL_UNPRUNABLE = "none"     # pruning would risk false dismissals


@dataclass(frozen=True)
class LeafCheck:
    """Descriptor of one match-tree leaf for the leaf-refinement phase."""

    number: int                # postorder number in the match tree
    label: str | None          # sequence label; None for a star leaf
    spec: EdgeSpec             # edge spec to its parent
    is_star: bool


@dataclass
class QueryPlan:
    """Everything one arrangement/variant combination needs for matching."""

    qlps: tuple                 # LPS(Q): sequence labels, positions 1..n-1
    qnps: tuple                 # NPS(Q): parent numbers, positions 1..n-1
    n_nodes: int                # nodes in the match tree
    specs: dict                 # node number -> EdgeSpec (non-root)
    sources: dict               # node number -> originating TwigNode or None
    star_numbers: frozenset     # node numbers that are star leaves
    leaf_checks: tuple          # LeafCheck descriptors (match-tree leaves)
    internal_numbers: frozenset  # numbers appearing in qnps (non-leaves)
    rel_kinds: tuple            # len n-2: REL_* for adjacent LPS pairs
    absolute: bool
    extended: bool
    plain: bool = field(default=False)

    @property
    def root_number(self):
        """Postorder number of the match-tree root."""
        return self.n_nodes


def build_plan(collapsed, extended):
    """Build the :class:`QueryPlan` for one arrangement and variant.

    Args:
        collapsed: a :class:`~repro.query.twig.CollapsedTwig` arrangement.
        extended: True to plan against an EPIndex (dummy children are
            appended under every non-star leaf, Section 5.6).
    """
    match_root, spec_of, source_of = _build_match_tree(collapsed, extended)
    match_doc = Document(match_root)
    if match_doc.size < 2:
        raise UnsupportedTwigError(
            "a twig must have at least two sequenced nodes; add a child "
            "step or a predicate (single-tag queries carry no structure)")

    sequence = regular_sequence(match_doc)
    specs = {}
    sources = {}
    star_numbers = set()
    leaf_checks = []
    for node in match_doc.nodes_in_postorder():
        number = node.postorder
        sources[number] = source_of(node)
        if node.parent is not None:
            specs[number] = spec_of(node)
        is_star = (not node.is_value and node.tag == STAR)
        if is_star:
            star_numbers.add(number)
        if node.is_leaf and node.parent is not None:
            label = None if is_star else sequence_label(node)
            if node.is_dummy:
                # The dummy's "leaf check" verifies its parent's label,
                # which already happened during subsequence matching.
                continue
            leaf_checks.append(LeafCheck(number=number, label=label,
                                         spec=spec_of(node), is_star=is_star))

    internal_numbers = frozenset(sequence.nps)
    rel_kinds = _relationship_kinds(match_doc, specs)
    return QueryPlan(
        qlps=sequence.lps,
        qnps=sequence.nps,
        n_nodes=match_doc.size,
        specs=specs,
        sources=sources,
        star_numbers=frozenset(star_numbers),
        leaf_checks=tuple(leaf_checks),
        internal_numbers=internal_numbers,
        rel_kinds=rel_kinds,
        absolute=collapsed.absolute,
        extended=extended,
        plain=all(spec.is_plain_child for spec in specs.values()),
    )


def _build_match_tree(collapsed, extended):
    """Copy the collapsed twig, optionally appending dummies.

    Returns ``(root, spec_of, source_of)`` where the two accessors are
    keyed by the *new* nodes' identities.
    """
    spec_by_id = {}
    source_by_id = {}

    def copy(node):
        clone = XMLNode(node.tag, is_value=node.is_value)
        source_by_id[id(clone)] = collapsed.source_of(node)
        if node.parent is not None:
            spec_by_id[id(clone)] = collapsed.spec_of(node)
        for child in node.children:
            child_clone = copy(child)
            child_clone.parent = clone
            clone.children.append(child_clone)
        if extended and not node.children and node.tag != STAR:
            dummy = XMLNode(DUMMY_TAG)
            dummy.parent = clone
            clone.children.append(dummy)
            spec_by_id[id(dummy)] = EdgeSpec()
            source_by_id[id(dummy)] = None
        return clone

    root = copy(collapsed.document.root)

    def spec_of(node):
        return spec_by_id.get(id(node), EdgeSpec())

    def source_of(node):
        return source_by_id.get(id(node))

    return root, spec_of, source_of


def _relationship_kinds(match_doc, specs):
    """Classify each adjacent LPS(Q) pair for Theorem 4 pruning.

    For positions ``i`` and ``i+1`` (query nodes ``q_i``, ``q_{i+1}``):

    - *sibling* (same parent): the two matched events are deletions of two
      children of the same data node, so their distance is bounded by
      MaxGap of the parent's label -- always safe.
    - *child* (``q_{i+1}`` is the parent of ``q_i``): safe only when the
      edge from that parent to *its* parent is a plain child edge (then
      the second event is the deletion of the parent's image itself and
      Theorem 4's ``MaxGap + 1`` bound applies).
    - *ancestor* (``parent(q_i)`` strictly above ``parent(q_{i+1})``):
      the second event falls inside a following child subtree of
      ``parent(q_i)``'s image -- always safe with the strict bound.
    """
    nodes = match_doc.nodes_in_postorder()
    kinds = []
    for i in range(len(nodes) - 2):
        q_i, q_next = nodes[i], nodes[i + 1]
        p_i, p_next = q_i.parent, q_next.parent
        if p_i is p_next:
            kinds.append(REL_SIBLING)
        elif q_next is p_i:
            spec = specs.get(q_next.postorder, EdgeSpec())
            kinds.append(REL_CHILD if spec.is_plain_child
                         else REL_UNPRUNABLE)
        else:
            kinds.append(REL_ANCESTOR)
    return tuple(kinds)
