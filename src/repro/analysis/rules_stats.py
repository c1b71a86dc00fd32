"""Integer discipline for I/O counters.

Every page-count column in the paper's tables is an exact integer; once a
float sneaks into an :class:`~repro.storage.stats.IOStats` counter, page
deltas stop round-tripping exactly (``0.1 + 0.2`` style drift) and
"pages read" silently becomes an estimate.  This rule refuses float
literals and true division anywhere in an expression assigned into a
counter attribute.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Rule

#: Attribute names of the IOStats counters (see repro/storage/stats.py).
COUNTER_ATTRS = frozenset({
    "physical_reads", "physical_writes", "logical_reads",
    "evictions", "allocations",
})


class StatsIntDisciplineRule(Rule):
    """Counter attributes may only be assigned exact-integer expressions."""

    name = "stats-int-discipline"
    description = ("no float literals or true division assigned into "
                   "IOStats counter attributes")

    def visit_Assign(self, node):
        for target in node.targets:
            self._check_target(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._check_target(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if self._is_counter(node.target):
            if isinstance(node.op, ast.Div):
                self.report(node, self._message(node.target.attr,
                                                "true division (/=)"))
            self._check_value(node.target.attr, node.value)
        self.generic_visit(node)

    def visit_Call(self, node):
        # The sanctioned mutation path, ``stats.add(physical_reads=1)``,
        # must obey the same discipline as a direct ``+=``.  Its fixed-
        # form twin ``stats.count_logical_read()`` takes no amount: the
        # ``+= 1`` inside it is an AugAssign this rule already sees.
        if isinstance(node.func, ast.Attribute) and node.func.attr == "add":
            for keyword in node.keywords:
                if keyword.arg in COUNTER_ATTRS:
                    self._check_value(keyword.arg, keyword.value)
        self.generic_visit(node)

    @staticmethod
    def _is_counter(target):
        return (isinstance(target, ast.Attribute)
                and target.attr in COUNTER_ATTRS)

    @staticmethod
    def _message(attr, what):
        return (f"{what} assigned into IOStats counter {attr!r}; page "
                "counters must stay exact integers (use // if you must "
                "divide)")

    def _check_target(self, target, value):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element, value)
        elif self._is_counter(target):
            self._check_value(target.attr, value)

    def _check_value(self, attr, value):
        for sub in ast.walk(value):
            if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                            float):
                self.report(sub, self._message(attr,
                                               f"float literal {sub.value}"))
            elif isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                self.report(sub, self._message(attr,
                                               "true division (/)"))
