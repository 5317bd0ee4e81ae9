import pytest
from hypothesis import given, strategies as st

from batecho import (
    Disconnected,
    RootedGraph,
    attach_new_root,
    build_family,
    build_gab,
    build_leafy,
    from_edge_list,
    from_text,
    glue_at_roots,
)
from batecho.errors import (
    DuplicateEdge,
    EmptyGlueList,
    ParameterTooSmall,
    RootOutOfRange,
    SelfLoop,
)
from batecho.graphs import _make


def test_self_loop_rejected():
    with pytest.raises(SelfLoop) as exc:
        _make(3, [(0, 1), (1, 1), (1, 2)], 0)
    assert "1" in str(exc.value)


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        _make(3, [(0, 1), (1, 2), (2, 1)], 0)


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        _make(4, [(0, 1), (2, 3)], 0)


def test_root_out_of_range():
    with pytest.raises(RootOutOfRange):
        _make(2, [(0, 1)], 5)


def test_from_edge_list_relabels_by_first_appearance():
    g = from_edge_list([("b", "a"), ("a", "c")], root="a")
    assert g.n == 3
    assert g.root == 1  # "a" appeared second
    assert set(g.edges()) == {(0, 1), (1, 2)}


def _same_shape(a, b):
    # tags are advisory and not part of the text format
    return (a.n, a.root, a.adjacency) == (b.n, b.root, b.adjacency)


def test_from_text_roundtrip():
    g = build_family("cycle", 5)
    assert _same_shape(from_text(g.to_text()), g)


def test_from_text_bad_line_reports_line_number():
    with pytest.raises(Exception) as exc:
        from_text("3 0\n0 1\nbogus\n")
    assert "3" in str(exc.value)


@pytest.mark.parametrize("kind,size,n,m", [
    ("path", 4, 4, 3),
    ("cycle", 8, 8, 8),
    ("complete", 4, 4, 6),
    ("star", 3, 4, 3),
    ("hypercube", 3, 8, 12),
])
def test_family_counts(kind, size, n, m):
    g = build_family(kind, size)
    assert (g.n, g.edge_count) == (n, m)


def test_family_too_small():
    with pytest.raises(ParameterTooSmall):
        build_family("cycle", 2)


def test_transitive_families_are_regular():
    for kind, size in (("cycle", 6), ("complete", 5), ("hypercube", 4)):
        g = build_family(kind, size)
        assert "transitive" in g.tags
        degs = {g.degree(v) for v in range(g.n)}
        assert len(degs) == 1


def test_gab_shape():
    t = build_gab(2, 2)
    g = t.graph
    assert g.n == 2 + 1 * 2  # 2 + (a-1)*b
    assert g.root_degree == 1
    assert g.degree(1) == 2


def test_gab_degenerate_cases():
    assert build_gab(1, 7).n == 2      # single edge regardless of b
    assert build_gab(4, 1).n == 5      # star rooted at a leaf


def test_glue_and_attach():
    t = build_gab(2, 2)
    glued = glue_at_roots([(t, 3)])
    assert glued.n == 3 * (t.n - 1) + 1
    rooted = attach_new_root(glued)
    assert rooted.n == glued.n + 1
    assert rooted.graph.root_degree == 1


def test_glue_empty_rejected():
    with pytest.raises(EmptyGlueList):
        glue_at_roots([])


@pytest.mark.parametrize("h,d,mode", [
    (1, 2, "expander"), (2, 2, "expander"), (2, 3, "expander"),
    (2, 2, "cutpoint"), (3, 2, "cutpoint"),
])
def test_leafy_is_regular(h, d, mode):
    g = build_leafy(h, d, mode=mode)
    assert all(g.degree(v) == d + 1 for v in range(g.n))


def test_leafy_cutpoint_root_articulates_at_height_3():
    g = build_leafy(3, 2, mode="cutpoint")
    # removing the root must disconnect the lobes
    lobes = g.adjacency[g.root]
    seen = set()
    stack = [lobes[0]]
    while stack:
        v = stack.pop()
        if v in seen or v == g.root:
            continue
        seen.add(v)
        stack.extend(g.adjacency[v])
    assert lobes[1] not in seen


def test_leafy_expander_seed_determinism():
    assert build_leafy(2, 2, seed=5) == build_leafy(2, 2, seed=5)


@given(st.integers(3, 12))
def test_cycle_text_roundtrip_property(n):
    g = build_family("cycle", n)
    assert _same_shape(from_text(g.to_text()), g)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=20))
def test_make_never_accepts_bad_input_silently(pairs):
    """_make either returns a valid graph or raises a GraphError."""
    from batecho.errors import GraphError
    n = 8
    try:
        g = _make(n, pairs, 0)
    except GraphError:
        return
    assert isinstance(g, RootedGraph)
    assert g.edge_count == len(pairs)
    assert all(u != v for u, v in g.edges())
