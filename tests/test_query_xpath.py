"""XPath-subset parser tests, covering every Table 3 query form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.twig import MAX_TWIG_NODES, Axis, UnsupportedTwigError
from repro.query.xpath import XPathSyntaxError, parse_xpath


def shape(pattern):
    """(label, axis, is_value, parent-label) for every node, preorder."""
    out = []
    for node in pattern.root.iter_subtree():
        out.append((node.label, node.axis.value, node.is_value,
                    node.parent.label if node.parent else None))
    return out


class TestPaths:
    def test_descendant_path(self):
        pattern = parse_xpath("//a/b")
        assert not pattern.absolute
        assert shape(pattern) == [("a", "/", False, None),
                                  ("b", "/", False, "a")]

    def test_absolute_path(self):
        pattern = parse_xpath("/a/b")
        assert pattern.absolute

    def test_bare_name_is_absolute(self):
        pattern = parse_xpath("book/title")
        assert pattern.absolute
        assert pattern.root.label == "book"

    def test_descendant_axis_inside(self):
        pattern = parse_xpath("//a//b")
        assert shape(pattern)[1] == ("b", "//", False, "a")

    def test_star_step(self):
        pattern = parse_xpath("//a/*/b")
        labels = [n.label for n in pattern.root.iter_subtree()]
        assert labels == ["a", "*", "b"]
        assert pattern.root.children[0].is_star


class TestPredicates:
    def test_existence_predicate(self):
        pattern = parse_xpath("//www[./editor]/url")
        assert shape(pattern) == [
            ("www", "/", False, None),
            ("editor", "/", False, "www"),
            ("url", "/", False, "www")]

    def test_value_predicate(self):
        pattern = parse_xpath('//Entry[./Keyword="Rhizomelic"]')
        keyword = pattern.root.children[0]
        assert keyword.label == "Keyword"
        literal = keyword.children[0]
        assert literal.is_value and literal.label == "Rhizomelic"

    def test_text_function(self):
        pattern = parse_xpath('//title[text()="Semantic Analysis Patterns"]')
        literal = pattern.root.children[0]
        assert literal.is_value
        assert literal.label == "Semantic Analysis Patterns"

    def test_two_predicates(self):
        pattern = parse_xpath(
            '//inproceedings[./author="Jim Gray"][./year="1990"]')
        assert [c.label for c in pattern.root.children] == ["author", "year"]
        assert [c.children[0].label for c in pattern.root.children] == [
            "Jim Gray", "1990"]

    def test_descendant_predicate(self):
        pattern = parse_xpath("//Entry[.//Author]//from")
        author = pattern.root.children[0]
        assert author.axis is Axis.DESCENDANT
        from_node = pattern.root.children[1]
        assert from_node.axis is Axis.DESCENDANT

    def test_predicate_without_dot(self):
        pattern = parse_xpath('//a[b="v"]')
        assert pattern.root.children[0].label == "b"

    def test_nested_path_predicate(self):
        pattern = parse_xpath('book[author//name="John"]/title')
        author = pattern.root.children[0]
        name = author.children[0]
        assert name.axis is Axis.DESCENDANT
        assert name.children[0].is_value
        assert pattern.root.children[1].label == "title"

    def test_single_quotes(self):
        pattern = parse_xpath("//a[./b='x y']")
        assert pattern.root.children[0].children[0].label == "x y"


class TestTable3QueriesParse:
    @pytest.mark.parametrize("xpath", [
        '//inproceedings[./author="Jim Gray"][./year="1990"]',
        "//www[./editor]/url",
        '//title[text()="Semantic Analysis Patterns"]',
        '//Entry[./Keyword="Rhizomelic"]',
        '//Entry/Ref[./Author="Mueller P"][./Author="Keller M"]',
        '//Entry[./Org="Piroplasmida"][.//Author]//from',
        "//S//NP/SYM",
        "//NP[./RBR_OR_JJR]/PP",
        "//NP/PP/NP[./NNS_OR_NN][./NN]",
    ])
    def test_parses(self, xpath):
        pattern = parse_xpath(xpath)
        assert pattern.source == xpath
        assert pattern.root.label


class TestPatternIntrospection:
    def test_has_values(self):
        assert parse_xpath('//a[./b="x"]').has_values()
        assert not parse_xpath("//a/b").has_values()

    def test_has_wildcards(self):
        assert parse_xpath("//a//b").has_wildcards()
        assert parse_xpath("//a/*/b").has_wildcards()
        assert not parse_xpath("/a/b").has_wildcards()

    def test_branch_count(self):
        assert parse_xpath("//a[./b]/c").branch_count() == 1
        assert parse_xpath("//a/b").branch_count() == 0


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "", "   ", "//", "//a[", "//a]", "//a[=]", '//a[./b=]',
        "//a[.]", "//a/", "//a[text()]", '//a"x"', "//a[./b='x'",
    ])
    def test_rejected(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(bad)

    def test_star_root_rejected(self):
        with pytest.raises(UnsupportedTwigError, match="named node"):
            parse_xpath("//*")

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="/*[].=\"'()abtex ", max_size=16))
    def test_only_typed_errors_escape(self, query):
        """Whatever the string, parsing succeeds or raises one of the two
        types the CLI and the server answer as a caller's mistake."""
        try:
            parse_xpath(query)
        except (XPathSyntaxError, UnsupportedTwigError):
            pass


class TestSizeBound:
    def test_deep_nesting_is_refused_before_the_parser_recurses(self):
        deep = "//a" + "[./b" * 1000 + "]" * 1000
        with pytest.raises(XPathSyntaxError,
                           match=f"at most {MAX_TWIG_NODES} nodes"):
            parse_xpath(deep)

    def test_every_node_kind_counts_toward_the_bound(self):
        chain = "//a" + "/b" * (MAX_TWIG_NODES - 1)
        assert len(parse_xpath(chain).nodes()) == MAX_TWIG_NODES
        for longer in (chain + "/b", chain + "/*", chain + '[text()="v"]'):
            with pytest.raises(XPathSyntaxError):
                parse_xpath(longer)
