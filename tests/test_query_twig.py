"""Twig model tests: collapse, edge specs, arrangements, root paths,
signatures."""

import pytest

from repro.query.twig import (MAX_ARRANGEMENTS, Axis, EdgeSpec, TwigNode,
                              TwigPattern, UnsupportedTwigError, arrangements,
                              collapse, node_signatures, root_paths)
from repro.query.xpath import parse_xpath


class TestEdgeSpec:
    def test_plain_child(self):
        spec = EdgeSpec()
        assert spec.is_plain_child
        assert spec.admits(1)
        assert not spec.admits(2)

    def test_descendant(self):
        spec = EdgeSpec(min_steps=1, max_steps=None)
        assert spec.admits(1) and spec.admits(99)
        assert not spec.admits(0)

    def test_exact_two_steps(self):
        spec = EdgeSpec(min_steps=2, max_steps=2)
        assert spec.admits(2)
        assert not spec.admits(1) and not spec.admits(3)


class TestCollapse:
    def test_plain_twig_specs(self):
        collapsed = collapse(parse_xpath("//a/b/c"))
        doc = collapsed.document
        assert [n.tag for n in doc.nodes_in_postorder()] == ["c", "b", "a"]
        for node in doc.nodes_in_postorder():
            if node.parent is not None:
                assert collapsed.spec_of(node).is_plain_child
        assert collapsed.is_plain()

    def test_descendant_spec(self):
        collapsed = collapse(parse_xpath("//a//b"))
        b_node = collapsed.document.node_by_postorder(1)
        spec = collapsed.spec_of(b_node)
        assert spec.min_steps == 1 and spec.max_steps is None
        assert not collapsed.is_plain()

    def test_middle_star_folds_into_spec(self):
        collapsed = collapse(parse_xpath("//a/*/b"))
        assert collapsed.document.size == 2  # star removed
        b_node = collapsed.document.node_by_postorder(1)
        assert collapsed.spec_of(b_node) == EdgeSpec(min_steps=2,
                                                     max_steps=2)

    def test_star_then_descendant(self):
        collapsed = collapse(parse_xpath("//a/*//b"))
        b_node = collapsed.document.node_by_postorder(1)
        spec = collapsed.spec_of(b_node)
        assert spec.min_steps == 2 and spec.max_steps is None

    def test_trailing_star_kept_anonymous(self):
        collapsed = collapse(parse_xpath("//a/*"))
        star = collapsed.document.node_by_postorder(1)
        assert star.tag == "*"
        assert collapsed.source_of(star).is_star

    def test_value_nodes_preserved(self):
        collapsed = collapse(parse_xpath('//a[./b="x"]'))
        value_node = collapsed.document.node_by_postorder(1)
        assert value_node.is_value and value_node.tag == "x"

    def test_sources_map_to_pattern_nodes(self):
        pattern = parse_xpath("//a[./b]/c")
        collapsed = collapse(pattern)
        sources = {collapsed.source_of(n)
                   for n in collapsed.document.nodes_in_postorder()}
        assert sources == set(pattern.nodes())

    def test_copy_preserves_metadata(self):
        collapsed = collapse(parse_xpath("//a//b[./c]"))
        clone = collapsed.copy()
        for original, cloned in zip(
                collapsed.document.nodes_in_postorder(),
                clone.document.nodes_in_postorder()):
            assert original.tag == cloned.tag
            assert collapsed.spec_of(original) == clone.spec_of(cloned)
            assert collapsed.source_of(original) is clone.source_of(cloned)


class TestArrangements:
    def test_path_has_one_arrangement(self):
        assert len(list(arrangements(parse_xpath("//a/b/c")))) == 1

    def test_two_distinct_branches(self):
        pattern = parse_xpath("//a[./b]/c")
        arrangement_list = list(arrangements(pattern))
        assert len(arrangement_list) == 2
        orders = {tuple(n.tag
                        for n in arr.document.nodes_in_postorder())
                  for arr in arrangement_list}
        assert orders == {("b", "c", "a"), ("c", "b", "a")}

    def test_identical_branches_deduplicated(self):
        pattern = parse_xpath("//a[./b][./b]")
        assert len(list(arrangements(pattern))) == 1

    def test_three_branches(self):
        pattern = parse_xpath("//a[./b][./c]/d")
        assert len(list(arrangements(pattern))) == 6

    def test_pattern_restored_after_iteration(self):
        pattern = parse_xpath("//a[./b]/c")
        before = [n.label for n in pattern.nodes()]
        list(arrangements(pattern))
        assert [n.label for n in pattern.nodes()] == before

    def test_nested_branches_multiply(self):
        pattern = parse_xpath("//a[./b[./x][./y]][./c]")
        assert len(list(arrangements(pattern))) == 4

    def test_count_is_bounded_before_anything_is_enumerated(self):
        def branches(n, label="b"):
            return "".join(f"[./{label}{i}]" for i in range(n))

        # 7! orders is the cap itself: allowed, and yielded one by one.
        at_cap = arrangements(parse_xpath("//a" + branches(7)))
        assert next(at_cap) is not next(at_cap)
        at_cap.close()
        # 20!, 8! and 3! * 4! * 4! * 4! are refused from the fan-outs alone
        # (enumerating the first would never finish), identical
        # branches included: they are skipped only after being tried.
        for xpath in ("//a" + branches(20),
                      "//a" + "[./b]" * 8,
                      "//a[./b%s][./c%s]/d%s" % (
                          branches(4, "x"), branches(4, "y"),
                          branches(4, "z"))):
            with pytest.raises(UnsupportedTwigError) as caught:
                next(arrangements(parse_xpath(xpath)))
            assert str(MAX_ARRANGEMENTS) in str(caught.value)
            assert isinstance(caught.value, ValueError)


class TestRootPaths:
    @staticmethod
    def sources(xpath):
        return [path.source for path in root_paths(parse_xpath(xpath))]

    def test_one_path_per_leaf_in_preorder(self):
        assert self.sources("//a[b][c/d]/e") == ["//a/b", "//a/c/d",
                                                 "//a/e"]

    def test_axes_kept(self):
        paths = root_paths(parse_xpath("//a[.//b]/c//d"))
        assert [path.source for path in paths] == ["//a//b", "//a/c//d"]
        assert [node.axis for node in paths[1].nodes()] == [
            Axis.CHILD, Axis.CHILD, Axis.DESCENDANT]

    def test_star_steps_kept(self):
        paths = root_paths(parse_xpath("//a[*/b][*]"))
        assert [path.source for path in paths] == ["//a/*/b", "//a/*"]
        assert [node.is_star for node in paths[0].nodes()] == [
            False, True, False]

    def test_values_kept(self):
        paths = root_paths(parse_xpath('//a[b="x"][text()="y"]'))
        assert [path.source for path in paths] == [
            '//a/b[text()="x"]', '//a[text()="y"]']
        assert [(node.label, node.is_value) for node in paths[0].nodes()
                ] == [("a", False), ("b", False), ("x", True)]

    def test_descendant_value_from_code(self):
        root = TwigNode("a")
        root.append(TwigNode("v", axis=Axis.DESCENDANT, is_value=True))
        root.append(TwigNode("b"))
        paths = root_paths(TwigPattern(root))
        assert [path.source for path in paths] == ['//a[.//text()="v"]',
                                                   "//a/b"]

    def test_absolute_kept(self):
        paths = root_paths(parse_xpath("/a[b]/c"))
        assert [path.source for path in paths] == ["/a/b", "/a/c"]
        assert all(path.absolute for path in paths)

    def test_repeated_sibling_labels_give_repeated_paths(self):
        assert self.sources("//a[b][b]/c") == ["//a/b", "//a/b", "//a/c"]

    def test_source_parses_back_to_the_path(self):
        for xpath in ("//a[.//b][*/c]/d[e='x']", "/a[b/*][text()='y']"):
            for source in self.sources(xpath):
                assert self.sources(source) == [source]

    def test_pattern_untouched(self):
        pattern = parse_xpath("//a[b][c]")
        before = [(node.label, len(node.children))
                  for node in pattern.nodes()]
        root_paths(pattern)
        assert [(node.label, len(node.children))
                for node in pattern.nodes()] == before


class TestNodeSignatures:
    def test_identical_siblings_share_signature(self):
        pattern = parse_xpath("//a[./b][./b]")
        signatures = node_signatures(pattern)
        b_nodes = [n for n in pattern.nodes() if n.label == "b"]
        assert signatures[id(b_nodes[0])] == signatures[id(b_nodes[1])]

    def test_different_labels_differ(self):
        pattern = parse_xpath("//a[./b]/c")
        signatures = node_signatures(pattern)
        b_node = next(n for n in pattern.nodes() if n.label == "b")
        c_node = next(n for n in pattern.nodes() if n.label == "c")
        assert signatures[id(b_node)] != signatures[id(c_node)]

    def test_same_label_different_context_differ(self):
        pattern = parse_xpath("//a[./c][./b/c]")
        signatures = node_signatures(pattern)
        c_nodes = [n for n in pattern.nodes() if n.label == "c"]
        assert signatures[id(c_nodes[0])] != signatures[id(c_nodes[1])]

    def test_same_label_different_subtrees_differ(self):
        pattern = parse_xpath("//a[./b/x][./b/y]")
        signatures = node_signatures(pattern)
        b_nodes = [n for n in pattern.nodes() if n.label == "b"]
        assert signatures[id(b_nodes[0])] != signatures[id(b_nodes[1])]

    def test_axis_matters(self):
        pattern = parse_xpath("//a[./b][.//b]")
        signatures = node_signatures(pattern)
        b_nodes = [n for n in pattern.nodes() if n.label == "b"]
        assert signatures[id(b_nodes[0])] != signatures[id(b_nodes[1])]


class TestTwigPattern:
    def test_star_root_rejected(self):
        with pytest.raises(ValueError):
            TwigPattern(TwigNode("*"))

    def test_named_nodes_excludes_stars(self):
        pattern = parse_xpath("//a/*")
        assert [n.label for n in pattern.named_nodes()] == ["a"]
