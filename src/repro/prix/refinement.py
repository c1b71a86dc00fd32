"""Refinement phases (Section 4.2-4.4, Algorithm 2).

A candidate subsequence from the filter is checked, in order, for:

1. **connectedness** (Theorem 2) -- each closed node's image must connect
   to its parent's image; plain child edges use Algorithm 2's exact test
   (the next event must be the deletion of the image itself), wildcard
   edges walk the data parent chain as in Section 4.5,
2. **gap consistency** (Definition 3),
3. **frequency consistency** (Definition 4),
4. **leaf matching** (Section 4.4) -- only needed for leaves the sequence
   did not already verify: all leaves under an RPIndex, star leaves under
   an EPIndex.

Accepted candidates are expanded into concrete twig embeddings (query node
-> data postorder number), enumerating the possible images of leaves that
sit below descendant edges.
"""

from __future__ import annotations

import itertools

from repro.xmlkit.tree import DUMMY_TAG, VALUE_LABEL_PREFIX


class DocView:
    """Decoded view of one stored document used by the refinement phases.

    Holds the NPS and per-node sequence labels, and lazily: the children
    adjacency needed to search subtrees for wildcard leaf images, the
    original numbering of an extended document, and each label's LPS
    positions for the in-document filter.

    A view loaded from an index is **shared and read-only**: it is
    memoised on its record's resident page, so later queries -- on any
    thread -- get this very object.  Callers never mutate ``nps`` or
    ``labels``; each lazy field is built from those alone and published
    by one assignment (racing threads publish equal values).
    """

    def __init__(self, doc_id, nps, labels, extended):
        self.doc_id = doc_id
        #: nps[i] is the parent of node i (1-based); index 0 unused.
        self.nps = nps
        #: labels[i] is the sequence label of node i; index 0 unused.
        self.labels = labels
        self.extended = extended
        self.n_nodes = len(nps) - 1
        self._children = None
        self._orig_numbers = None
        self._lps_positions = None

    def parent(self, number):
        """Parent postorder number (0 for the root)."""
        return self.nps[number]

    def label(self, number):
        """Sequence label of the node."""
        return self.labels[number]

    def is_element(self, number):
        """True for element nodes (not values, not dummies)."""
        label = self.labels[number]
        return (label is not None and label != DUMMY_TAG
                and not label.startswith(VALUE_LABEL_PREFIX))

    def children_of(self, number):
        """Child postorder numbers, built lazily from the NPS."""
        if self._children is None:
            children = [[] for _ in range(self.n_nodes + 1)]
            for child in range(1, self.n_nodes):
                children[self.nps[child]].append(child)
            # Tuples: the view outlives the query, so leaves share the
            # empty tuple and nobody can mutate what others read.
            self._children = tuple(map(tuple, children))
        return self._children[number]

    def lps_positions(self):
        """``{label: tuple of 1-based LPS positions}``, built lazily.

        Position ``i`` of the LPS is the label of node ``i``'s parent,
        so this is read off the NPS and labels; every query checking
        this document in place shares it.
        """
        if self._lps_positions is None:
            labels, nps = self.labels, self.nps
            positions = {}
            for position in range(1, self.n_nodes):
                label = labels[nps[position]]
                found = positions.get(label)
                if found is None:
                    positions[label] = [position]
                else:
                    found.append(position)
            self._lps_positions = {label: tuple(found)
                                   for label, found in positions.items()}
        return self._lps_positions

    def iter_subtree_with_depth(self, number, max_depth=None):
        """Yield ``(descendant_or_self, depth)``, depth 0 at ``number``."""
        stack = [(number, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if max_depth is not None and depth >= max_depth:
                continue
            for child in self.children_of(node):
                stack.append((child, depth + 1))

    def original_number(self, number):
        """Map an extended postorder number to the original numbering.

        In an extended tree the dummies are exactly the leaves, and every
        original node is internal, so the original numbering enumerates
        the internal nodes in (extended) postorder.
        """
        if not self.extended:
            return number
        if self._orig_numbers is None:
            internal = [False] * (self.n_nodes + 1)
            for parent in self.nps[1:]:
                internal[parent] = True
            mapping = [0] * (self.n_nodes + 1)
            counter = 0
            for node in range(1, self.n_nodes + 1):
                if internal[node]:
                    counter += 1
                    mapping[node] = counter
            self._orig_numbers = mapping
        return self._orig_numbers[number]


def _walk_chain(view, start, target, spec):
    """Walk the parent chain from ``start``; True if ``target`` is reached
    within steps admitted by ``spec``."""
    steps = 0
    current = start
    limit = spec.max_steps
    while True:
        if current == target:
            return spec.admits(steps)
        if current == 0 or current > target:
            return False
        if limit is not None and steps >= limit:
            return False
        current = view.parent(current)
        steps += 1


def refine(plan, view, positions, budget=None):
    """Run all refinement phases on one candidate subsequence.

    Returns the list of embeddings (dict: match-tree node number ->
    data postorder number, in the *view's* numbering), or an empty list
    when the candidate is rejected.  ``budget`` (a
    :class:`~repro.prix.budget.BudgetMeter`) adds cancellation points at
    entry and inside the leaf-combination enumeration -- the only loop
    here whose size is not bounded by the query length.
    """
    if budget is not None:
        budget.checkpoint()
    nps = view.nps
    n_positions = len(positions)
    images = [nps[s] for s in positions]  # N: images of the query parents
    max_image = max(images)

    # --- Refinement by connectedness (Theorem 2 / Section 4.5) ---
    last_occurrence = {}
    for index, value in enumerate(images):
        last_occurrence[value] = index
    for i in range(n_positions):
        value = images[i]
        if value == max_image or last_occurrence[value] != i:
            continue
        if i + 1 >= n_positions:
            return []
        closed = plan.qnps[i]          # the query node whose image closes
        spec = plan.specs.get(closed)
        if spec is None:
            return []
        if spec.is_plain_child:
            # Algorithm 2 line 4: the next event must delete the image.
            if positions[i + 1] != value:
                return []
        else:
            if not _walk_chain(view, value, images[i + 1], spec):
                return []

    # --- Refinement by structure: gap consistency (Definition 3) ---
    qnps = plan.qnps
    for i in range(n_positions - 1):
        data_gap = images[i] - images[i + 1]
        query_gap = qnps[i] - qnps[i + 1]
        if (data_gap == 0) != (query_gap == 0):
            return []
        if data_gap * query_gap < 0:
            return []
        if abs(query_gap) > abs(data_gap):
            return []

    # --- Refinement by structure: frequency consistency (Definition 4) ---
    image_of = {}
    taken = set()
    for i in range(n_positions):
        query_node = qnps[i]
        known = image_of.get(query_node)
        if known is None:
            if images[i] in taken:
                return []
            image_of[query_node] = images[i]
            taken.add(images[i])
        elif known != images[i]:
            return []

    root_image = image_of.get(plan.root_number)
    if root_image != max_image:
        return []
    if plan.absolute and root_image != view.n_nodes:
        return []

    # --- Refinement by matching leaf nodes (Section 4.4) ---
    leaf_choices = []
    leaf_numbers = []
    star_flags = []
    for check in plan.leaf_checks:
        event = positions[check.number - 1]
        if check.spec.is_plain_child:
            candidates = [event] if _leaf_label_ok(view, event, check) else []
        else:
            max_depth = (None if check.spec.max_steps is None
                         else check.spec.max_steps - 1)
            candidates = [node for node, depth
                          in view.iter_subtree_with_depth(event, max_depth)
                          if check.spec.admits(depth + 1)
                          and _leaf_label_ok(view, node, check)]
        if not candidates:
            return []
        leaf_choices.append(candidates)
        leaf_numbers.append(check.number)
        star_flags.append(check.is_star)

    # A twig occurrence assigns *distinct* data nodes to distinct query
    # nodes (the filter's strictly-increasing positions already enforce
    # this for the events; leaf images must not collide either).  Star
    # leaves take part in the injective assignment but are stripped from
    # the reported embedding: they are existence tests, not result nodes.
    base = dict(image_of)
    base_values = set(base.values())
    seen = set()
    embeddings = []
    for combo in itertools.product(*leaf_choices):
        if budget is not None:
            budget.checkpoint()
        if len(set(combo)) != len(combo):
            continue
        if base_values.intersection(combo):
            continue
        embedding = dict(base)
        for number, image, is_star in zip(leaf_numbers, combo, star_flags):
            if not is_star:
                embedding[number] = image
        key = frozenset(embedding.items())
        if key not in seen:
            seen.add(key)
            embeddings.append(embedding)
    return embeddings


def _leaf_label_ok(view, node, check):
    if check.is_star:
        return view.is_element(node)
    return view.label(node) == check.label
