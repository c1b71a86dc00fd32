"""Shared helpers for the test suite (importable without packaging)."""

import random
from unittest import mock

from chaos_backend import ChaosBackend

from repro.storage.backend import open_backend
from repro.xmlkit.tree import Document, XMLNode


class ChaosOpens:
    """Live storage faults injected from the test side.

    Inside ``with ChaosOpens(config) as chaos:`` the ``open_backend``
    name :mod:`repro.prix.index` calls is patched, so every backend
    opened there -- by ``PrixIndex.open``, and by the scrub a server
    mount runs first -- comes back wrapped in a *disarmed*
    :class:`~chaos_backend.ChaosBackend` over ``config`` and is
    recorded in ``chaos.backends``.  Call :meth:`arm` once the indexes
    are attached, so the catalog reads never draw a fault and the
    schedule targets query traffic.  No product signature takes a chaos
    argument.
    """

    def __init__(self, config):
        self.config = config
        self.backends = []
        self._patch = mock.patch("repro.prix.index.open_backend",
                                 self.open_backend)

    def open_backend(self, *args, **kwargs):
        """:func:`repro.storage.open_backend`, wrapped and recorded."""
        backend = ChaosBackend(open_backend(*args, **kwargs), self.config,
                               armed=False)
        self.backends.append(backend)
        return backend

    def arm(self):
        """Turn injection on for every backend wrapped so far."""
        for backend in self.backends:
            backend.set_armed(True)

    def __enter__(self):
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()
        return False


def make_random_tree(rng, max_nodes=16, tags="abcd", value_p=0.2,
                     values=("v1", "v2", "v3")):
    """Random ordered labeled tree (shared by differential tests)."""
    root = XMLNode(rng.choice(tags))
    nodes = [root]
    for _ in range(rng.randint(1, max_nodes)):
        parent = rng.choice([n for n in nodes if not n.is_value])
        if rng.random() < value_p:
            child = XMLNode(rng.choice(values), is_value=True)
        else:
            child = XMLNode(rng.choice(tags))
        parent.append(child)
        nodes.append(child)
    return root


def make_random_document(seed, doc_id=1, **kwargs):
    rng = random.Random(seed)
    return Document(make_random_tree(rng, **kwargs), doc_id=doc_id)


#: Text the parser must refuse, by case id: not well-formed XML 1.0, a
#: reference to an external (or undeclared) entity, or an expansion past
#: expat's amplification limit.  Each raises ``XMLSyntaxError`` with an
#: offset.
REFUSED_XML = {
    "bare-ampersand": "<a>x & y</a>",
    "duplicate-attribute": '<a b="1" b="2"/>',
    "nul-reference": "<a>&#0;</a>",
    "nul": "<a>\x00</a>",
    "lone-surrogate": "<a>\ud800</a>",
    "external-entity":
        '<!DOCTYPE a [<!ENTITY e SYSTEM "e.xml">]><a>&e;</a>',
    "skipped-entity": '<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>',
    "billion-laughs": "<!DOCTYPE a [<!ENTITY l0 \"lol\">" + "".join(
        f'<!ENTITY l{i} "{f"&l{i - 1};" * 10}">' for i in range(1, 10))
        + "]><a>&l9;</a>",
    "empty": "",
}


#: Mutation operators for :func:`mutate_text`, chosen per seed.
MUTATION_OPS = ("truncate", "delete", "duplicate", "insert_byte",
                "insert_nul", "swap", "close_tag", "break_entity")


def mutate_text(rng, text, mutations=1):
    """Seeded structural damage to a text blob (fuzz-test input maker).

    Applies ``mutations`` random operators: truncation, byte deletion /
    duplication / insertion, NUL injection, adjacent swaps, a stray
    close tag, or chopping the text mid-entity.  Deterministic for a
    given ``rng`` state, so a failing seed is a reproduction recipe.
    """
    for _ in range(mutations):
        if not text:
            return "<"
        op = rng.choice(MUTATION_OPS)
        pos = rng.randrange(len(text))
        if op == "truncate":
            text = text[:max(1, pos)]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        elif op == "duplicate":
            text = text[:pos] + text[pos] + text[pos:]
        elif op == "insert_byte":
            text = text[:pos] + rng.choice("<>&/'\"=x ") + text[pos:]
        elif op == "insert_nul":
            text = text[:pos] + "\x00" + text[pos:]
        elif op == "swap" and len(text) > pos + 1:
            text = (text[:pos] + text[pos + 1] + text[pos]
                    + text[pos + 2:])
        elif op == "close_tag":
            tag = rng.choice("abcd")
            text = text[:pos] + f"</{tag}>" + text[pos:]
        elif op == "break_entity":
            amp = text.find("&")
            cut = amp + 1 if amp >= 0 else pos
            text = text[:cut]
    return text


def make_random_twig(rng, max_nodes=5, tags="abcd", star_p=0.15,
                     value_p=0.12, descendant_p=0.35, absolute_p=0.15,
                     values=("v1", "v2", "v3")):
    """Random twig pattern over the same alphabet as make_random_tree."""
    from repro.query.twig import Axis, TwigNode, TwigPattern

    root = TwigNode(rng.choice(tags))
    nodes = [root]
    for _ in range(rng.randint(1, max_nodes)):
        parents = [n for n in nodes if not n.is_value and not n.is_star]
        parent = rng.choice(parents)
        axis = Axis.DESCENDANT if rng.random() < descendant_p else Axis.CHILD
        roll = rng.random()
        if roll < value_p:
            child = TwigNode(rng.choice(values), axis=axis, is_value=True)
        elif roll < value_p + star_p:
            child = TwigNode("*", axis=axis)
        else:
            child = TwigNode(rng.choice(tags), axis=axis)
        parent.append(child)
        nodes.append(child)
    return TwigPattern(root, absolute=rng.random() < absolute_p,
                       source="random")


def per_plan_walk(plan, symbol_index, docid_index, root_range,
                  maxgap_table=None, stats=None, granularity="label",
                  on_probe=None):
    """Algorithm 1 for one plan, from the root, nothing shared: the
    reference ``repro.prix.filtering.find_subsequences`` is checked
    against.  Returns ``(results, stats)``; only the four logical
    counters of ``stats`` are kept.  ``on_probe(i, left)`` is called
    before level ``i`` is probed inside the node at ``left`` and may
    raise to cut the walk short (``stats`` counts the refused probe).
    """
    from repro.prix.filtering import _MAXGAP_SLACK, FilterStats

    stats = FilterStats() if stats is None else stats
    qlps = plan.qlps
    last = len(qlps) - 1
    pruning = maxgap_table is not None
    slacks = [None] + [_MAXGAP_SLACK.get(kind) if pruning else None
                       for kind in plan.rel_kinds]
    positions = [0] * len(qlps)
    bounds = [0] * len(qlps)
    results = []

    def walk(i, lo, hi):
        stats.range_queries += 1
        if on_probe is not None:
            on_probe(i, lo)
        for left, right, level, node_gap in symbol_index.range_query_gaps(
                qlps[i], lo, hi):
            stats.nodes_visited += 1
            if (slacks[i] is not None and
                    level - positions[i - 1] > bounds[i - 1] + slacks[i]):
                stats.pruned_by_maxgap += 1
                continue
            positions[i] = level
            if i == last:
                docs = docid_index.documents_in(left, right)
                if docs:
                    stats.candidates += 1
                    results.append((tuple(docs), tuple(positions)))
                continue
            bounds[i] = (node_gap if granularity == "node" or not pruning
                         else maxgap_table.get(qlps[i]))
            walk(i + 1, left, right)

    walk(0, *root_range)
    return results, stats


def catalog_state(index):
    """Everything a ``PrixIndex`` catalog record chain must restore:
    document ids in order, the label dictionary, and per variant the
    catalog, MaxGap table, label counts and trie statistics."""
    from dataclasses import asdict
    return (list(index._doc_ids), list(index._labels._by_id),
            {name: (dict(variant.catalog), variant.maxgap.as_dict(),
                    dict(variant.label_counts), asdict(variant.trie_stats))
             for name, variant in index._variants.items()})


def head_record(path):
    """The parsed catalog record the superblock of ``path`` locates."""
    import json

    from repro.prix.index import PrixIndex
    page, offset, length, page_size = PrixIndex._read_superblock(path)
    with open(path, "rb") as handle:
        handle.seek(page * page_size + offset)
        return json.loads(handle.read(length))
