"""Ordered labeled tree model for XML documents.

Every XML document is modeled as an ordered tree of :class:`XMLNode` objects
(Section 2 of the paper).  Element nodes carry tags; values (character data)
occur at leaf nodes and are modeled as nodes whose label is the text itself.
Attributes are represented as subelements, exactly as the paper prescribes
("no special distinction will be made between elements and attributes").

A :class:`Document` wraps a root node with a document identifier and the two
numbering schemes the reproduction needs:

- *postorder numbers* 1..n (Section 3.2) -- the basis of Prufer sequences,
- *region encoding* ``(start, end, level)`` -- the containment-property
  numbering consumed by the TwigStack family of baselines.
"""

from __future__ import annotations

from repro.xmlkit.errors import TreeConstructionError

#: Tag reserved for the dummy children appended by the Extended-Prufer
#: transformation (Section 5.6).  It can never appear in parsed XML because
#: '#' is not a valid name start character.
DUMMY_TAG = "#dummy"

#: Prefix applied to value-node labels wherever labels enter sequence or
#: key space, so the value "title" can never collide with an element tag
#: ``title``.  0x1F is a control character and cannot occur in parsed XML.
VALUE_LABEL_PREFIX = "\x1f"

#: Value strings longer than this are fingerprinted before entering label
#: space, so arbitrarily long PCDATA never overflows an index page.  The
#: prefix + SHA-256 fingerprint still matches exact-equality predicates
#: (both sides are fingerprinted identically).
VALUE_LABEL_LIMIT = 256

_FINGERPRINT_MARK = "\x1e#"


def sequence_label(node):
    """The label a node contributes to Prufer sequences and index keys."""
    if node.is_value:
        return value_label(node.tag)
    return node.tag


def value_label(text):
    """The sequence/key label for value content ``text``.

    Query literals must be tokenized through this same function so that
    fingerprinted (oversized) values compare equal on both sides.
    """
    return VALUE_LABEL_PREFIX + _value_token(text)


def _value_token(text):
    if len(text) <= VALUE_LABEL_LIMIT:
        return text
    import hashlib
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text[:64] + _FINGERPRINT_MARK + digest


class XMLNode:
    """One node of an ordered labeled tree.

    Attributes:
        tag: the element tag, or the text content for value nodes.
        is_value: True when this node represents character data.
        children: ordered list of child nodes.
        parent: parent node, or None for the root.
        postorder: 1-based postorder number, assigned by ``Document.number``.
        start, end, level: region encoding, assigned by ``Document.number``.
    """

    __slots__ = ("tag", "is_value", "children", "parent",
                 "postorder", "start", "end", "level")

    def __init__(self, tag, children=None, is_value=False):
        if not tag:
            raise TreeConstructionError("node label must be non-empty")
        self.tag = tag
        self.is_value = is_value
        self.children = []
        self.parent = None
        self.postorder = 0
        self.start = 0
        self.end = 0
        self.level = 0
        if children:
            for child in children:
                self.append(child)

    def append(self, child):
        """Attach ``child`` as the rightmost child of this node."""
        if self.is_value:
            raise TreeConstructionError("value nodes cannot have children")
        if child.parent is not None:
            raise TreeConstructionError("node already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    @property
    def is_leaf(self):
        """True when the node has no children."""
        return not self.children

    @property
    def is_dummy(self):
        """True for an Extended-Prufer dummy node (an element, so a value
        whose text is ``#dummy`` is not one)."""
        return self.tag == DUMMY_TAG and not self.is_value

    def iter_subtree(self):
        """Yield the nodes of this subtree in document (pre-) order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def iter_postorder(self):
        """Yield the nodes of this subtree in postorder."""
        # Iterative two-stack postorder keeps deep TREEBANK-like trees from
        # blowing the recursion limit.
        stack, out = [self], []
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return reversed(out)

    def find(self, tag):
        """Return the first descendant-or-self node with ``tag``, or None."""
        for node in self.iter_subtree():
            if node.tag == tag:
                return node
        return None

    def child_by_tag(self, tag):
        """Return the first direct child with ``tag``, or None."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def text(self):
        """Return the concatenation of value-node labels in this subtree."""
        return "".join(n.tag for n in self.iter_subtree() if n.is_value)

    def __repr__(self):
        kind = "value" if self.is_value else "elem"
        return f"<XMLNode {kind} {self.tag!r} post={self.postorder}>"


def element(tag, *children):
    """Convenience constructor for an element node."""
    return XMLNode(tag, children=children, is_value=False)


def value(text):
    """Convenience constructor for a value (character data) node."""
    return XMLNode(text, is_value=True)


class Document:
    """An XML document: a rooted ordered labeled tree plus its numberings.

    The constructor numbers the tree immediately; any later structural
    mutation must be followed by :meth:`renumber`.
    """

    def __init__(self, root, doc_id=0):
        self.root = root
        self.doc_id = doc_id
        self._postorder_nodes = []
        self.renumber()

    def renumber(self):
        """(Re)assign postorder numbers and the region encoding."""
        self._postorder_nodes = list(self.root.iter_postorder())
        for number, node in enumerate(self._postorder_nodes, start=1):
            node.postorder = number
        counter = 0
        stack = [(self.root, 1, False)]
        while stack:
            node, level, exiting = stack.pop()
            counter += 1
            if exiting:
                node.end = counter
                continue
            node.start = counter
            node.level = level
            stack.append((node, level, True))
            for child in reversed(node.children):
                stack.append((child, level + 1, False))

    @property
    def size(self):
        """Total number of nodes in the tree."""
        return len(self._postorder_nodes)

    def node_by_postorder(self, number):
        """Return the node with the given 1-based postorder number."""
        return self._postorder_nodes[number - 1]

    def nodes_in_postorder(self):
        """Return all nodes ordered by their postorder number."""
        return list(self._postorder_nodes)

    def leaves(self):
        """Return ``(label, postorder)`` pairs for every leaf node.

        This is the per-document leaf-node list that PRIX stores alongside
        the NPS (Section 4.3) for the final refinement phase.
        """
        return [(n.tag, n.postorder) for n in self._postorder_nodes
                if n.is_leaf]

    def element_count(self):
        """Number of element (non-value) nodes."""
        return sum(1 for n in self._postorder_nodes if not n.is_value)

    def value_count(self):
        """Number of value (character data) nodes."""
        return sum(1 for n in self._postorder_nodes if n.is_value)

    def max_depth(self):
        """Depth of the deepest node (root = 1)."""
        return max(n.level for n in self._postorder_nodes)

    def __repr__(self):
        return f"<Document id={self.doc_id} root={self.root.tag!r} n={self.size}>"


def same_tree(a, b):
    """Structural equality of two trees (labels, kinds and child order)."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.tag != y.tag or x.is_value != y.is_value:
            return False
        if len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def copy_tree(node):
    """Deep-copy a subtree (numbering fields are not preserved)."""
    clone = XMLNode(node.tag, is_value=node.is_value)
    stack = [(node, clone)]
    while stack:
        src, dst = stack.pop()
        for child in src.children:
            child_clone = XMLNode(child.tag, is_value=child.is_value)
            dst.append(child_clone)
            stack.append((child, child_clone))
    return clone


def extend_with_dummies(root):
    """Return a copy of the tree with a dummy child under every leaf.

    This is the Extended-Prufer transformation of Section 5.6: the Prufer
    sequence of the extended tree contains the labels of *all* nodes of the
    original tree, which lets value predicates participate in subsequence
    filtering.
    """
    clone = copy_tree(root)
    for node in list(clone.iter_subtree()):
        if node.is_leaf and not node.is_dummy:
            # Bypass ``append`` so value leaves may carry the dummy child;
            # the dummy is a construction artifact, not document content.
            dummy = XMLNode(DUMMY_TAG)
            dummy.parent = node
            node.children.append(dummy)
    return clone
