"""Parser for the XPath subset the paper evaluates.

Supported grammar (sufficient for every query in Table 3 and the intro
example)::

    query     := sep? step (sep step)*
    sep       := '/' | '//'
    step      := nametest predicate*
    nametest  := NAME | '*'
    predicate := '[' predpath ']'
    predpath  := ('.' | 'text()') (sep step)* ('=' STRING)?
                | NAME-relative path, e.g. [./author="X"], [.//Author]

A query with a leading ``/`` (single slash) is *absolute*: its first step
must match the document root.  A leading bare name (``book[...]/title``)
is treated as absolute, matching the paper's intro example.  Only equality
value predicates are supported, as in the paper (Section 4).  A pattern
of more than :data:`~repro.query.twig.MAX_TWIG_NODES` nodes is refused
before it is parsed.
"""

from __future__ import annotations

import re

from repro.query.twig import MAX_TWIG_NODES, Axis, TwigNode, TwigPattern

_TOKEN_RE = re.compile(
    r"""
    (?P<dslash>//)
  | (?P<slash>/)
  | (?P<lbrack>\[)
  | (?P<rbrack>\])
  | (?P<eq>=)
  | (?P<dot>\.)
  | (?P<star>\*)
  | (?P<text>text\(\))
  | (?P<string>"[^"]*"|'[^']*')
  | (?P<name>[A-Za-z_@\u0080-\U0010ffff][-\w.:@\u0080-\U0010ffff]*)
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


class XPathSyntaxError(ValueError):
    """Raised when a query string falls outside the supported subset."""


def _tokenize(query):
    pos = 0
    tokens = []
    while pos < len(query):
        match = _TOKEN_RE.match(query, pos)
        if not match:
            raise XPathSyntaxError(
                f"unexpected character {query[pos]!r} at {pos} in {query!r}")
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(0), pos))
        pos = match.end()
    return tokens


#: Token kinds that each become one pattern node: a name test, ``*``,
#: or a value literal.
_NODE_TOKENS = frozenset({"name", "star", "string"})


class _Parser:
    def __init__(self, query):
        self._query = query
        self._tokens = _tokenize(query)
        self._pos = 0
        nodes = sum(kind in _NODE_TOKENS for kind, _, _ in self._tokens)
        if nodes > MAX_TWIG_NODES:
            # Counted before the recursive descent: no pattern can nest
            # deep enough to exhaust the stack.
            raise XPathSyntaxError(
                f"a twig has at most {MAX_TWIG_NODES} nodes; this query "
                f"has {nodes}")

    def _peek(self):
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return (None, "", len(self._query))

    def _next(self):
        token = self._peek()
        self._pos += 1
        return token

    def _expect(self, kind):
        token = self._next()
        if token[0] != kind:
            raise XPathSyntaxError(
                f"expected {kind} at position {token[2]} in {self._query!r}, "
                f"got {token[1]!r}")
        return token

    def parse(self):
        """Parse the token stream into a TwigPattern."""
        kind, _, _ = self._peek()
        absolute = True
        if kind == "dslash":
            absolute = False
            self._next()
        elif kind == "slash":
            self._next()
        root = self._parse_step(Axis.CHILD)
        self._parse_path_tail(root)
        if self._pos != len(self._tokens):
            token = self._peek()
            raise XPathSyntaxError(
                f"trailing input at position {token[2]} in {self._query!r}")
        return TwigPattern(root, absolute=absolute, source=self._query)

    def _parse_step(self, axis):
        kind, text, pos = self._next()
        if kind == "name":
            node = TwigNode(text, axis=axis)
        elif kind == "star":
            node = TwigNode("*", axis=axis)
        else:
            raise XPathSyntaxError(
                f"expected a name test at position {pos} in {self._query!r}")
        while self._peek()[0] == "lbrack":
            self._parse_predicate(node)
        return node

    def _parse_path_tail(self, context):
        """Parse ``(sep step)*`` extending a single downward path."""
        node = context
        while True:
            kind = self._peek()[0]
            if kind == "dslash":
                self._next()
                node = node.append(self._parse_step(Axis.DESCENDANT))
            elif kind == "slash":
                self._next()
                node = node.append(self._parse_step(Axis.CHILD))
            else:
                return node

    def _parse_predicate(self, context):
        self._expect("lbrack")
        kind, _, pos = self._peek()
        tail_end = context
        if kind == "text":
            self._next()
            self._expect("eq")
            literal = self._expect("string")[1][1:-1]
            context.append(TwigNode(literal, axis=Axis.CHILD, is_value=True))
            self._expect("rbrack")
            return
        if kind == "dot":
            self._next()
            tail_end = self._parse_path_tail(context)
            if tail_end is context:
                raise XPathSyntaxError(
                    f"predicate '.' must be followed by a path at {pos}")
        elif kind in ("name", "star", "slash", "dslash"):
            # [author="X"] is shorthand for [./author="X"].
            if kind in ("name", "star"):
                tail_end = context.append(self._parse_step(Axis.CHILD))
                tail_end = self._parse_path_tail(tail_end)
            else:
                tail_end = self._parse_path_tail(context)
                if tail_end is context:
                    raise XPathSyntaxError(
                        f"empty predicate path at position {pos}")
        else:
            raise XPathSyntaxError(
                f"unsupported predicate at position {pos} in {self._query!r}")
        if self._peek()[0] == "eq":
            self._next()
            literal = self._expect("string")[1][1:-1]
            tail_end.append(TwigNode(literal, axis=Axis.CHILD, is_value=True))
        self._expect("rbrack")


def parse_xpath(query):
    """Parse an XPath-subset string into a :class:`TwigPattern`."""
    if not query or not query.strip():
        raise XPathSyntaxError("empty query")
    return _Parser(query.strip()).parse()
