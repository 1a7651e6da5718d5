"""Skeleton validation, path arithmetic, common extensions, exhaustivity."""

import collections
import gc
import itertools
import math
import random
import weakref
from dataclasses import FrozenInstanceError, asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpx import boundary as bnd
from kpx import errors, presets
from kpx import groupoid as gpd
from kpx.degrees import join, le, sub, zero
from kpx.kgraph import Edge, KGraph, KGraphSpec, Path, Square, omega_graph

from conftest import (
    CYCLE_GRAPHS,
    ORACLE_GRAPHS,
    PRODUCT_GRAPHS,
    _tail,
    below,
    compose_oracle,
    coverage_oracle,
    downset_graph,
    exhaustive_oracle,
    exhaustive_oracle_bool,
    RANDOM_PRODUCT_SEEDS,
    mce_oracle,
    mce_pairs_oracle,
    paths_oracle,
    product_graph,
    random_acyclic_product,
    random_one_graph,
    reach_oracle,
    two_squares_graph,
    within,
    witness_oracle,
)


# ------------------------------------------------------------- validation


def test_lambda2_validates(lambda2):
    assert lambda2.spec.k == 2
    assert len(lambda2.spec.edges) == 5


def test_missing_endpoint():
    spec = KGraphSpec(
        k=1,
        vertices=("v",),
        edges=(Edge("e", 1, "v", "w"),),
        squares=(),
    )
    with pytest.raises(errors.MissingEndpoint):
        KGraph.validate(spec)


def test_duplicate_edge_id():
    spec = KGraphSpec(
        k=1,
        vertices=("v",),
        edges=(Edge("e", 1, "v", "v"), Edge("e", 1, "v", "v")),
        squares=(),
    )
    with pytest.raises(errors.InvalidSpec):
        KGraph.validate(spec)


def test_bad_color():
    spec = KGraphSpec(
        k=2,
        vertices=("v",),
        edges=(Edge("e", 3, "v", "v"),),
        squares=(),
    )
    with pytest.raises(errors.InvalidSpec):
        KGraph.validate(spec)


def test_square_endpoint_mismatch():
    # square whose two sides do not share endpoints
    spec = KGraphSpec(
        k=2,
        vertices=("u", "v"),
        edges=(
            Edge("e", 1, "u", "v"),
            Edge("f", 2, "v", "u"),
            Edge("f2", 2, "u", "v"),
            Edge("e2", 1, "v", "v"),
        ),
        squares=(Square(("e", "f"), ("f2", "e2")),),
    )
    with pytest.raises(errors.BadSquare):
        KGraph.validate(spec)


def test_removing_square_breaks_bijectivity(lambda2):
    spec = lambda2.spec
    broken = KGraphSpec(spec.k, spec.vertices, spec.edges, ())
    with pytest.raises(errors.NotBijective):
        KGraph.validate(broken)


def test_duplicate_square_side(lambda2):
    spec = lambda2.spec
    doubled = KGraphSpec(spec.k, spec.vertices, spec.edges, spec.squares * 2)
    with pytest.raises(errors.NotBijective):
        KGraph.validate(doubled)


def test_cube_consistency_accepts_lattices(omega3111):
    # a rank-3 lattice segment has genuinely tricolored words; validation
    # already ran in the fixture, so just re-run it explicitly
    KGraph.validate(omega3111.spec)


def cube_spec(consistent):
    """One vertex, two loops per color in rank 3, with squares that make
    the two normalizations of the tricolored words agree or not."""
    edges = tuple(
        Edge(eid, c, "v", "v")
        for c, ids in ((1, "a1 a2"), (2, "b1 b2"), (3, "c1 c2"))
        for eid in ids.split()
    )
    # pair colors (1,2): a_i b_j factorizations
    ab = [Square(("a1", "b1"), ("b2", "a2")), Square(("a2", "b2"), ("b1", "a1")),
          Square(("a1", "b2"), ("b1", "a2")), Square(("a2", "b1"), ("b2", "a1"))]
    ac = [Square(("a1", "c1"), ("c2", "a2")), Square(("a2", "c2"), ("c1", "a1")),
          Square(("a1", "c2"), ("c1", "a2")), Square(("a2", "c1"), ("c2", "a1"))]
    # consistent choice: everything swaps with index flip
    bc_good = [Square(("b1", "c1"), ("c2", "b2")), Square(("b2", "c2"), ("c1", "b1")),
               Square(("b1", "c2"), ("c1", "b2")), Square(("b2", "c1"), ("c2", "b1"))]
    # inconsistent choice on the (2,3) face (frozen from a search over all
    # 24 bijective pairings; 16 of them break the cube condition)
    bc_bad = [Square(("b1", "c1"), ("c1", "b1")), Square(("b2", "c2"), ("c1", "b2")),
              Square(("b1", "c2"), ("c2", "b2")), Square(("b2", "c1"), ("c2", "b1"))]
    return KGraphSpec(3, ("v",), edges, tuple(ab + ac + (bc_good if consistent else bc_bad)))


def test_cube_inconsistent_rejected():
    KGraph.validate(cube_spec(True))  # sanity: consistent variant passes
    with pytest.raises(errors.CubeInconsistent) as exc:
        KGraph.validate(cube_spec(False))
    # the first failing word in spec order, as an all-triples sweep finds it
    assert str(exc.value) == ("word ['c1', 'b1', 'a1'] normalizes to both "
                              "['a1', 'b2', 'c2'] and ['a1', 'b1', 'c2']")


def test_uncovered_pair_message(omega3111):
    # dropping the first square leaves both of its sides uncovered; the
    # pair reported is the first in spec order (edges sorted by id)
    spec = omega3111.spec
    with pytest.raises(errors.NotBijective) as exc:
        KGraph.validate(KGraphSpec(spec.k, spec.vertices, spec.edges, spec.squares[1:]))
    assert str(exc.value) == (
        "edge pair ('0,0,0>0,1,0', '0,1,0>1,1,0') is not covered by any square")


def test_uncovered_pair_matches_the_oracle():
    # a spec with 1-3 squares dropped, or with an edge added, must name the
    # first uncovered pair in spec order, and a spec with none must pass
    rng = random.Random(26)
    specs = [presets.lambda2().spec, omega_graph((2, 2)).spec, omega_graph((3, 1, 1)).spec,
             cube_spec(True)]
    specs += [product_graph(random_one_graph(rng.randrange(10**6)),
                            random_one_graph(rng.randrange(10**6))).spec for _ in range(30)]
    for spec in specs:
        variants = [spec]
        for _ in range(5 if spec.squares else 0):
            drop = rng.sample(range(len(spec.squares)), min(len(spec.squares), rng.randint(1, 3)))
            variants.append(replace(spec, squares=tuple(
                sq for i, sq in enumerate(spec.squares) if i not in drop)))
        for _ in range(3):
            extra = Edge("extra", rng.randint(1, spec.k), rng.choice(spec.vertices),
                         rng.choice(spec.vertices))
            variants.append(replace(spec, edges=spec.edges + (extra,)))
        assert coverage_oracle(spec) is None
        for variant in variants:
            pair = coverage_oracle(variant)
            if pair is None:
                KGraph(variant)
                continue
            with pytest.raises(errors.NotBijective) as exc:
                KGraph(variant)
            assert str(exc.value) == f"edge pair {pair} is not covered by any square"


def spec_mutations(spec):
    """(name, spec) for a fixed list of broken variants of spec."""
    sq, e0, rest = spec.squares, spec.edges[0], spec.edges[1:]
    yield "unchanged", spec
    for i in range(len(sq)):
        yield f"drop square {i}", replace(spec, squares=sq[:i] + sq[i + 1:])
    yield "duplicate square 0", replace(spec, squares=sq + sq[:1])
    yield "swap sides of square 0", replace(spec, squares=(Square(sq[0].second, sq[0].first),) + sq[1:])
    yield "recolour edge 0", replace(spec, edges=(replace(e0, color=e0.color % spec.k + 1),) + rest)
    yield "edge 0 from unknown vertex", replace(spec, edges=(replace(e0, source="nowhere"),) + rest)
    yield "dot in edge 0 id", replace(spec, edges=(replace(e0, id=e0.id + ".x"),) + rest)
    yield "repeat vertex 0", replace(spec, vertices=spec.vertices + spec.vertices[:1])
    yield "dot in vertex 0 id", replace(spec, vertices=(spec.vertices[0] + ".x",) + spec.vertices[1:])


MUTATION_SPECS = {
    "lambda2": lambda: presets.lambda2().spec,
    "omega311": lambda: omega_graph((3, 1, 1)).spec,
    "cube_bad": lambda: cube_spec(False),
}

# the first error of each mutation, frozen from the checks as they stood
# before validation moved into KGraph.__init__
FIRST_ERRORS = {
    "cube_bad": [
        ("unchanged", "CubeInconsistent",
         "word ['c1', 'b1', 'a1'] normalizes to both ['a1', 'b2', 'c2'] and ['a1', 'b1', 'c2']"),
        ("drop square 0", "NotBijective", "edge pair ('a1', 'b1') is not covered by any square"),
        ("drop square 1", "NotBijective", "edge pair ('a2', 'b2') is not covered by any square"),
        ("drop square 2", "NotBijective", "edge pair ('a1', 'b2') is not covered by any square"),
        ("drop square 3", "NotBijective", "edge pair ('a2', 'b1') is not covered by any square"),
        ("drop square 4", "NotBijective", "edge pair ('a1', 'c1') is not covered by any square"),
        ("drop square 5", "NotBijective", "edge pair ('a2', 'c2') is not covered by any square"),
        ("drop square 6", "NotBijective", "edge pair ('a1', 'c2') is not covered by any square"),
        ("drop square 7", "NotBijective", "edge pair ('a2', 'c1') is not covered by any square"),
        ("drop square 8", "NotBijective", "edge pair ('b1', 'c1') is not covered by any square"),
        ("drop square 9", "NotBijective", "edge pair ('b2', 'c2') is not covered by any square"),
        ("drop square 10", "NotBijective", "edge pair ('b1', 'c2') is not covered by any square"),
        ("drop square 11", "NotBijective", "edge pair ('b2', 'c1') is not covered by any square"),
        ("duplicate square 0", "NotBijective", "edge pair ('a1', 'b1') appears in two squares"),
        ("swap sides of square 0", "BadSquare",
         "square side ('b2', 'a2') must list the lower color first"),
        ("recolour edge 0", "BadSquare",
         "square side ('a1', 'b1') must list the lower color first"),
        ("edge 0 from unknown vertex", "MissingEndpoint",
         "edge 'a1' has unknown source 'nowhere'"),
        ("dot in edge 0 id", "InvalidSpec", "edge id 'a1.x' contains '.'"),
        ("repeat vertex 0", "InvalidSpec", "duplicate vertex id 'v'"),
        ("dot in vertex 0 id", "InvalidSpec", "vertex id 'v.x' contains '.'"),
    ],
    "lambda2": [
        ("unchanged", None, None),
        ("drop square 0", "NotBijective", "edge pair ('e1', 'f1') is not covered by any square"),
        ("duplicate square 0", "NotBijective", "edge pair ('e1', 'f1') appears in two squares"),
        ("swap sides of square 0", "BadSquare",
         "square side ('f2', 'e2') must list the lower color first"),
        ("recolour edge 0", "BadSquare",
         "square side ('e1', 'f1') must list the lower color first"),
        ("edge 0 from unknown vertex", "MissingEndpoint",
         "edge 'e1' has unknown source 'nowhere'"),
        ("dot in edge 0 id", "InvalidSpec", "edge id 'e1.x' contains '.'"),
        ("repeat vertex 0", "InvalidSpec", "duplicate vertex id 'v1'"),
        ("dot in vertex 0 id", "InvalidSpec", "vertex id 'v1.x' contains '.'"),
    ],
    "omega311": [
        ("unchanged", None, None),
        ("drop square 0", "NotBijective",
         "edge pair ('0,0,0>0,1,0', '0,1,0>1,1,0') is not covered by any square"),
        ("drop square 1", "NotBijective",
         "edge pair ('0,0,0>0,0,1', '0,0,1>1,0,1') is not covered by any square"),
        ("drop square 2", "NotBijective",
         "edge pair ('0,0,0>0,0,1', '0,0,1>0,1,1') is not covered by any square"),
        ("drop square 3", "NotBijective",
         "edge pair ('0,0,1>0,1,1', '0,1,1>1,1,1') is not covered by any square"),
        ("drop square 4", "NotBijective",
         "edge pair ('0,1,0>0,1,1', '0,1,1>1,1,1') is not covered by any square"),
        ("drop square 5", "NotBijective",
         "edge pair ('1,0,0>1,1,0', '1,1,0>2,1,0') is not covered by any square"),
        ("drop square 6", "NotBijective",
         "edge pair ('1,0,0>1,0,1', '1,0,1>2,0,1') is not covered by any square"),
        ("drop square 7", "NotBijective",
         "edge pair ('1,0,0>1,0,1', '1,0,1>1,1,1') is not covered by any square"),
        ("drop square 8", "NotBijective",
         "edge pair ('1,0,1>1,1,1', '1,1,1>2,1,1') is not covered by any square"),
        ("drop square 9", "NotBijective",
         "edge pair ('1,1,0>1,1,1', '1,1,1>2,1,1') is not covered by any square"),
        ("drop square 10", "NotBijective",
         "edge pair ('2,0,0>2,1,0', '2,1,0>3,1,0') is not covered by any square"),
        ("drop square 11", "NotBijective",
         "edge pair ('2,0,0>2,0,1', '2,0,1>3,0,1') is not covered by any square"),
        ("drop square 12", "NotBijective",
         "edge pair ('2,0,0>2,0,1', '2,0,1>2,1,1') is not covered by any square"),
        ("drop square 13", "NotBijective",
         "edge pair ('2,0,1>2,1,1', '2,1,1>3,1,1') is not covered by any square"),
        ("drop square 14", "NotBijective",
         "edge pair ('2,1,0>2,1,1', '2,1,1>3,1,1') is not covered by any square"),
        ("drop square 15", "NotBijective",
         "edge pair ('3,0,0>3,0,1', '3,0,1>3,1,1') is not covered by any square"),
        ("duplicate square 0", "NotBijective",
         "edge pair ('0,0,0>1,0,0', '1,0,0>1,1,0') appears in two squares"),
        ("swap sides of square 0", "BadSquare",
         "square side ('0,0,0>0,1,0', '0,1,0>1,1,0') must list the lower color first"),
        ("recolour edge 0", "BadSquare",
         "square side ('0,0,0>0,0,1', '0,0,1>1,0,1') must list the higher color first"),
        ("edge 0 from unknown vertex", "MissingEndpoint",
         "edge '0,0,0>0,0,1' has unknown source 'nowhere'"),
        ("dot in edge 0 id", "InvalidSpec", "edge id '0,0,0>0,0,1.x' contains '.'"),
        ("repeat vertex 0", "InvalidSpec", "duplicate vertex id '0,0,0'"),
        ("dot in vertex 0 id", "InvalidSpec", "vertex id '0,0,0.x' contains '.'"),
    ],
}


@pytest.mark.parametrize("name", sorted(MUTATION_SPECS))
def test_first_validation_error(name):
    got = []
    for label, spec in spec_mutations(MUTATION_SPECS[name]()):
        try:
            KGraph.validate(spec)
            got.append((label, None, None))
        except errors.KpxError as exc:
            got.append((label, type(exc).__name__, str(exc)))
    assert got == FIRST_ERRORS[name]


def _lambda2_square(first, second):
    """lambda2's spec with its one square, e1.f1 = f2.e2, replaced."""
    return replace(presets.lambda2().spec, squares=(Square(first, second),))


# each check of a square reports the side at fault: lambda2 with its square
# edited on one side, a rank-3 square whose sides use different colour
# pairs, and two squares sharing a second side (FIRST_ERRORS has a first
# side that lists the higher colour first, and one in two squares)
SQUARE_ERRORS = {
    "first side not a pair": (_lambda2_square(("e1",), ("f2", "e2")), "BadSquare",
                              "square side ('e1',) is not a pair of edge ids"),
    "second side not a pair": (_lambda2_square(("e1", "f1"), ("f2",)), "BadSquare",
                               "square side ('f2',) is not a pair of edge ids"),
    "first side unknown edge": (_lambda2_square(("e1", "zz"), ("f2", "e2")), "BadSquare",
                                "square Square(first=('e1', 'zz'), second=('f2', 'e2')) "
                                "refers to unknown edge"),
    "second side unknown edge": (_lambda2_square(("e1", "f1"), ("zz", "e2")), "BadSquare",
                                 "square Square(first=('e1', 'f1'), second=('zz', 'e2')) "
                                 "refers to unknown edge"),
    "first side not composable": (_lambda2_square(("e3", "f1"), ("f2", "e2")), "BadSquare",
                                  "square side ('e3', 'f1') is not composable"),
    "second side not composable": (_lambda2_square(("e1", "f1"), ("f1", "e2")), "BadSquare",
                                   "square side ('f1', 'e2') is not composable"),
    "second side lower colour first": (_lambda2_square(("e1", "f1"), ("e1", "f1")), "BadSquare",
                                       "square side ('e1', 'f1') must list the higher color first"),
    "sides mix colour pairs": (
        KGraphSpec(3, ("v",), (Edge("a", 1, "v", "v"), Edge("b", 2, "v", "v"),
                               Edge("c", 3, "v", "v")), (Square(("a", "b"), ("c", "a")),)),
        "BadSquare", "square Square(first=('a', 'b'), second=('c', 'a')) mixes color pairs"),
    "second side in two squares": (
        KGraphSpec(2, ("v",), (Edge("a", 1, "v", "v"), Edge("b", 1, "v", "v"),
                               Edge("f", 2, "v", "v")),
                   (Square(("a", "f"), ("f", "a")), Square(("b", "f"), ("f", "a")))),
        "NotBijective", "edge pair ('f', 'a') appears in two squares"),
}


@pytest.mark.parametrize("label", sorted(SQUARE_ERRORS))
def test_each_square_check_names_the_side_at_fault(label):
    spec, kind, message = SQUARE_ERRORS[label]
    with pytest.raises(errors.InvalidSpec) as exc:
        KGraph(spec)
    assert (type(exc.value).__name__, str(exc.value)) == (kind, message)


# two commuting loops at one vertex, valid as it stands
LOOPS = KGraphSpec(2, ("v",), (Edge("e", 1, "v", "v"), Edge("f", 2, "v", "v")),
                   (Square(("e", "f"), ("f", "e")),))
E, F = LOOPS.edges


BAD_TYPES = {
    "float colour": replace(LOOPS, edges=(replace(E, color=1.0), F)),
    "bool colour": replace(LOOPS, edges=(replace(E, color=True), F)),
    "bool rank": replace(LOOPS, k=True),
    "float rank": replace(LOOPS, k=2.0),
    "int vertex id": replace(LOOPS, vertices=("v", 1)),
    "list vertex id": replace(LOOPS, vertices=("v", ["w"])),
    "None endpoint": replace(LOOPS, edges=(E, replace(F, range=None))),
    "list edge id": replace(LOOPS, edges=(E, replace(F, id=["f"]))),
    "three-id square side": replace(LOOPS, squares=(Square(("e", "f", "e"), ("f", "e")),)),
    # containers are tuples or lists, and their entries records
    "str vertices": KGraphSpec(1, "vw", (), ()),
    "None vertices": replace(LOOPS, vertices=None),
    "set edges": replace(LOOPS, edges=set(LOOPS.edges)),
    "None squares": replace(LOOPS, squares=None),
    "tuple edge": replace(LOOPS, edges=(E, ("f", 2, "v", "v"))),
    "tuple square": replace(LOOPS, squares=((("e", "f"), ("f", "e")),)),
}


@pytest.mark.parametrize("label", sorted(BAD_TYPES))
def test_spec_built_in_python_is_type_checked(label):
    # the constructor is the one gate: a spec that never was JSON gets the
    # same type checks as one read from a file
    KGraph.validate(LOOPS)
    with pytest.raises(errors.InvalidSpec):
        KGraph(BAD_TYPES[label])


def test_spec_containers_may_be_lists():
    g = KGraph(KGraphSpec(2, ["v"], list(LOOPS.edges), list(LOOPS.squares)))
    assert g.spec == LOOPS and g.vertices == ("v",) and g.squares == LOOPS.squares


def test_records_behave_as_generated_dataclasses():
    # Edge and Square define their own __init__; everything else is the
    # frozen dataclass's
    e, sq = Edge("e1", 1, "v1", "v2"), Square(("e1", "f1"), ("f2", "e2"))
    assert repr(e) == "Edge(id='e1', color=1, range='v1', source='v2')"
    assert repr(sq) == "Square(first=('e1', 'f1'), second=('f2', 'e2'))"
    assert e == Edge(id="e1", color=1, range="v1", source="v2") != replace(e, color=2)
    assert sq == Square(first=("e1", "f1"), second=("f2", "e2")) != Square(("e1", "f1"), ())
    assert e != ("e1", 1, "v1", "v2") and sq != (("e1", "f1"), ("f2", "e2"))
    assert hash(e) == hash(("e1", 1, "v1", "v2"))
    assert hash(sq) == hash((("e1", "f1"), ("f2", "e2")))
    assert replace(e, source="v3") == Edge("e1", 1, "v1", "v3")
    assert replace(sq, second=("f3", "e3")).second == ("f3", "e3")
    assert asdict(e) == {"id": "e1", "color": 1, "range": "v1", "source": "v2"}
    assert asdict(sq) == {"first": ("e1", "f1"), "second": ("f2", "e2")}
    for record, field in ((e, "color"), (sq, "first")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, field)


def test_unknown_vertex(lambda2):
    # vertex lookups go through a set; a value that is no vertex id, even an
    # unhashable one, is still an unknown id
    for v in ("zz", "e1", ["v1"]):
        with pytest.raises(errors.UnknownId):
            lambda2.vertex(v)
        with pytest.raises(errors.UnknownId):
            lambda2.paths_from(v, (0, 0))
    assert lambda2.parse_path("v1") == lambda2.vertex("v1")


def test_reachable_unknown_vertex(lambda2):
    for v in ("zz", "e1", ["v1"]):
        with pytest.raises(errors.UnknownId):
            lambda2.reachable(v)
        with pytest.raises(errors.UnknownId):
            lambda2.reaching(["v1", v])
        with pytest.raises(errors.UnknownId):
            lambda2.out_edges(v)
    # an unhashable edge id is an unknown id too, not a bare TypeError
    g = omega_graph((2, 2))
    with pytest.raises(errors.UnknownId):
        g.edge(["x"])
    with pytest.raises(errors.UnknownId):
        g.path([["x"]])
    for word in ([], (), iter(())):
        with pytest.raises(errors.UnknownId, match="^empty edge word; use vertex"):
            g.path(word)
    with pytest.raises(errors.UnknownId):
        g.out_edges("zz")
    with pytest.raises(errors.DegreeOutOfRange):
        g.out_edges("0,0", 3)
    # True and 1.0 equal 1 as dict keys, but they are not colours
    for colour in (True, 1.0, "1", 0):
        with pytest.raises(errors.DegreeOutOfRange):
            g.out_edges("0,0", colour)
    with pytest.raises(errors.UnknownId):
        g.out_edges("zz", True)


@pytest.mark.parametrize("m", [(0,), (4,), (5,), (0, 3), (2, 0, 1), (3, 3), (4, 4), (2, 2, 2),
                               (1, 1, 1, 1), (3, 0, 0, 1)])
def test_omega_graph_is_the_box_downset(m):
    # the lattice segment is the down-set of the single point m
    got, want = omega_graph(m), downset_graph((m,))
    assert got.spec == want.spec
    assert got.squares == want.squares


@pytest.mark.parametrize("m", [(-1,), (2, 2, -1), (-1, 3), (0, -2)])
def test_omega_graph_refuses_a_negative_entry(m):
    # a negative entry spans no point, but it is no degree either
    with pytest.raises(errors.DegreeOutOfRange):
        omega_graph(m)


# --------------------------------------------------------- path arithmetic


def test_parse_and_label(lambda2):
    p = lambda2.parse_path("e1.f1")
    assert p.degree == (1, 1)
    assert p.range == "v1" and p.source == "v4"
    assert p.label() == "e1.f1"


def test_normal_form_is_color_major(lambda2):
    # f2.e2 and e1.f1 are the two sides of the one square: same path
    assert lambda2.parse_path("f2.e2") == lambda2.parse_path("e1.f1")


def spellings(g):
    """Every composable edge word of an acyclic graph, grown one edge at a
    time from the spec, shortest first."""
    by_range = collections.defaultdict(list)
    for e in g.spec.edges:
        by_range[e.range].append(e)
    words, out = [(e,) for e in g.spec.edges], []
    while words:
        out += words
        words = [w + (e,) for w in words for e in by_range[w[-1].source]]
    return [tuple(e.id for e in w) for w in out]


SPELLING_GRAPHS = {
    "lambda2": presets.lambda2,
    "twosquares": two_squares_graph,
    **{f"product{seed}": (lambda seed=seed: random_acyclic_product(seed))
       for seed in RANDOM_PRODUCT_SEEDS},
}


@pytest.mark.parametrize("name", sorted(SPELLING_GRAPHS))
def test_parse_path_is_the_built_path_for_every_spelling(name):
    # a literal is parsed once per graph: its first parse and every repeat
    # return the path g.path builds from its edge ids; every path is spelled,
    # and by unique factorisation a path of degree (p, q) has C(p + q, p)
    # spellings, each a key of its own
    g = SPELLING_GRAPHS[name]()
    spelled = collections.Counter()
    for word in spellings(g):
        literal = ".".join(word)
        lam = g.parse_path(literal)
        assert lam is g.path(word) is g.parse_path(literal) is g._literals[literal]
        spelled[lam] += 1
    for v in g.vertices:
        assert g.parse_path(v) is g.vertex(v) is g.parse_path(v)
    paths = [p for p in g.all_paths() if p.edges]
    assert sorted(spelled, key=Path.sort_key) == paths
    assert any(spelled[p] > 1 for p in paths)  # a square is met
    for p in paths:
        assert spelled[p] == math.comb(len(p.edges), p.degree[0])
    assert len(g._literals) == sum(spelled.values()) + len(g.vertices)


def test_a_bad_literal_raises_each_time_and_is_not_stored():
    g = presets.lambda2()
    for literal, error in (("zz", errors.UnknownId), ("", errors.UnknownId),
                           ("e1..f1", errors.UnknownId), ("v1.e1", errors.UnknownId),
                           ("e1.e3", errors.NotComposable), ("e1.f1.", errors.UnknownId)):
        for _ in range(2):
            with pytest.raises(error):
                g.parse_path(literal)
        assert literal not in g._literals
    assert g._literals == {}
    lam = g.parse_path("e1.f1")
    assert g._literals == {"e1.f1": lam}


def test_the_literal_cache_is_per_graph_and_released():
    # two spellings of one path are two keys for the one path; a graph of
    # the same spec has its own cache, and its own paths
    g, twin = presets.lambda2(), presets.lambda2()
    lam = g.parse_path("e1.f1")
    assert g.parse_path("f2.e2") is lam and g._literals == {"e1.f1": lam, "f2.e2": lam}
    assert twin._literals == {}
    mu = twin.parse_path("f2.e2")
    assert mu is not lam and mu is twin.path(["e1", "f1"])
    assert twin._literals == {"f2.e2": mu}
    g._release()
    assert not hasattr(g, "_literals")
    assert twin.parse_path("f2.e2") is mu


def test_compose_not_composable(lambda2):
    e1 = lambda2.parse_path("e1")
    e3 = lambda2.parse_path("e3")
    with pytest.raises(errors.NotComposable):
        lambda2.compose(e1, e3)


def _interned(g, p):
    """The path of g spelling p, looked up through the public builders."""
    return g.path(p.edges) if p.edges else g.vertex(p.range)


def test_paths_are_interned():
    # one Path object per range and word in a graph, and paths compare by
    # identity: the path of a second graph of the same spec is another,
    # unequal object, and the builders carry it back to the first graph
    g, twin = omega_graph((2, 2)), omega_graph((2, 2))
    colour = {e.id: e.color for e in g.spec.edges}
    paths = g.all_paths()
    for p in paths:
        assert _interned(g, p) is p
        q = _interned(twin, p)
        assert q is not p and q != p and len({p, q}) == 2
        assert (q.range, q.edges) == (p.range, p.edges) and _interned(g, q) is p
        brute = tuple(sum(colour[e] == c for e in p.edges) for c in (1, 2))
        assert p.degree == brute and p.degree is p.degree
        for m in below(p.degree):
            head, tail = g.factor(p, m)
            assert head is _interned(g, head) and tail is _interned(g, tail)
        for r in paths:
            if p.edges and r.edges and r.range == p.source:
                assert g.compose(p, r) is g.path(p.edges + r.edges)
    p = g.path(["0,0>1,0"])
    for name in ("range", "edges"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
    assert p.range == "0,0" and p.edges == ("0,0>1,0",)


def test_release_leaves_the_graph_to_reference_counting():
    # each path refers to its graph and the graph's caches refer to the
    # paths, a cycle only the collector frees; _release empties every cache
    # that holds a path, so the graph dies with the last outside reference
    # (with gc disabled, what the test builds stays in the youngest generation)
    gc.disable()
    try:
        gc.collect(0)
        g = presets.lambda2()
        e1, f1, f2 = g.parse_path("e1"), g.parse_path("f1"), g.parse_path("f2")
        g.mce(e1, g.compose(e1, f1))
        g.exhaustiveness_witness("v1", [e1])
        g.all_paths()
        # a refinement cuts Z(e1*e1) and Z(f2*f2) by each other, which
        # fills the cut memo with cells
        atoms = gpd.disjointify([gpd.make_cell(e1, e1), gpd.make_cell(f2, f2)])
        assert [c.label() for c in atoms] == ["e1.f1*e1.f1"]
        assert (g._paths and g._literals and g._composed and g._mce and g._move_table
                and g._all_paths_cache and g._cuts)
        ref = weakref.ref(g)
        g._release()
        del g, e1, f1, f2, atoms
        assert ref() is None
        assert gc.collect(0) == 0
    finally:
        gc.enable()


def test_a_released_graph_refuses_use():
    # the release drops every attribute, so a later call fails loudly
    # rather than building a path that is not the interned one
    g = presets.lambda2()
    e1 = g.parse_path("e1")
    g._release()
    for use in (lambda: g.vertex("v1"), lambda: g.parse_path("e1"), lambda: e1.source,
                lambda: g.compose(e1, e1), lambda: g.k):
        with pytest.raises(AttributeError):
            use()


def _check_compose(g, box):
    """Gate compose against compose_oracle on every pair of paths of
    degree <= box: a cold call, a repeat (memo hit), and the same pair
    carried into a second graph built from the same spec, whose result
    carries back to the first."""
    pool = _oracle_pool(g, box)
    at = {v: [mu for mu in pool if mu.range == v] for v in g.vertices}
    twin = KGraph(g.spec)
    for lam in pool:
        stranger = next((mu for mu in pool if mu.range != lam.source), None)
        for _ in range(2 if stranger else 0):  # not stored, so raised on every call
            with pytest.raises(errors.NotComposable):
                g.compose(lam, stranger)
            assert (lam, stranger) not in g._composed
        for mu in at[lam.source]:
            got = g.compose(lam, mu)
            assert (got.range, got.edges) == (lam.range, compose_oracle(g, lam, mu)), (lam, mu)
            assert got.graph is g and g._composed[(lam, mu)] is got and g.compose(lam, mu) is got
            other = twin.compose(_interned(twin, lam), _interned(twin, mu))
            assert other.graph is twin and _interned(g, other) is got


@pytest.mark.parametrize("name", sorted({**ORACLE_GRAPHS, **CYCLE_GRAPHS}))
def test_compose_against_oracle(name):
    _check_compose({**ORACLE_GRAPHS, **CYCLE_GRAPHS}[name](), (2, 1, 1))


def test_compose_against_oracle_on_products():
    # rank-2 products of seeded random 1-graphs, cyclic ones included
    for seed in range(20):
        _check_compose(product_graph(random_one_graph(seed), random_one_graph(seed + 100)), (1, 1))


def test_factor_out_of_range(lambda2):
    p = lambda2.parse_path("e1")
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.factor(p, (0, 1))


def _check_factor_roundtrip(g, paths):
    for p in paths:
        for m in itertools.product(*(range(n + 1) for n in p.degree)):
            head, tail = g.factor(p, m)
            assert head.degree == m
            assert g.compose(head, tail) == p
            assert g.segment(p, m, p.degree) == tail
            # both halves come out in normal form
            for half in (head, tail):
                assert half.is_vertex() or half == g.path(half.edges)


def test_factor_compose_roundtrip_all(acyclic_graph):
    _check_factor_roundtrip(acyclic_graph, acyclic_graph.all_paths())


def test_factor_compose_roundtrip_cyclic(cloops, loop):
    for g in (cloops, loop):
        for v in g.vertices:
            _check_factor_roundtrip(g, g.paths_upto(v, (2,) * g.k))


def test_vertex_at_matches_factor(lambda2):
    p = lambda2.parse_path("e1.f1")
    assert lambda2.vertex_at(p, (0, 0)) == "v1"
    assert lambda2.vertex_at(p, (1, 1)) == "v4"
    assert lambda2.vertex_at(p, (1, 0)) == "v2"
    assert lambda2.vertex_at(p, (0, 1)) == "v3"


def test_unique_factorization_property(acyclic_graph):
    # paths of equal degree from the same vertex with equal labels coincide,
    # and the set of paths of each degree has no duplicates
    g = acyclic_graph
    seen = {}
    for p in g.all_paths():
        key = (p.range, p.degree, p.edges)
        assert key not in seen
        seen[key] = p


def test_paths_from_lambda2(lambda2):
    assert {p.label() for p in lambda2.paths_from("v1", (1, 1))} == {"e1.f1"}
    assert {p.label() for p in lambda2.paths_from("v1", (1, 0))} == {"e1", "e3"}
    assert lambda2.paths_from("v5", (0, 1)) == []


def test_paths_from_matches_all_paths(acyclic_graph):
    # paths_oracle grows paths by compose, so it is independent of the
    # enumerator behind paths_from and all_paths
    g = acyclic_graph
    for v in g.vertices:
        everything = paths_oracle(g, v, (len(g.vertices),) * g.k)
        assert [p for p in g.all_paths() if p.range == v] == everything
        for n in below(g.max_path_degree()):
            want = [p for p in everything if p.degree == n]
            assert g.paths_from(v, n) == want, (v, n)



@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_enumerators_match_oracle(name):
    # The box reaches one level past the longest path in every colour of an
    # acyclic graph (no path has as many edges as the graph has vertices),
    # and a few levels into a cyclic one.
    g = ORACLE_GRAPHS[name]()
    if g.is_acyclic():
        whole = {v: paths_oracle(g, v, (len(g.vertices),) * g.k) for v in g.vertices}
        top = zero(g.k)
        for p in itertools.chain(*whole.values()):
            top = join(top, p.degree)
        box = tuple(c + 1 for c in top)
        assert g.all_paths() == sorted(itertools.chain(*whole.values()),
                                       key=lambda p: p.sort_key())
    else:
        box = (3, 2, 1)[:g.k]
    for v in g.vertices:
        pool = [(p, p.degree) for p in paths_oracle(g, v, box)]
        for n in below(box):
            upto = [(p, d) for p, d in pool if le(d, n)]
            assert g.paths_from(v, n) == [p for p, d in upto if d == n], (v, n)
            assert g.paths_upto(v, n) == [p for p, _ in upto], (v, n)
            # no colour-i edge at s(lam) wherever d(lam)_i < n_i
            assert g.paths_leq(v, n) == [
                p for p, d in upto
                if not any(d[i] < n[i] and g.out_edges(p.source, i + 1)
                           for i in range(g.k))
            ], (v, n)


def test_paths_from_counts_commuting_loops(cloops):
    # one color-1 loop and three color-2 loops: a path of degree (a, b) is
    # e^a followed by any word of length b in f1, f2, f3
    for a in range(3):
        for b in range(4):
            assert len(cloops.paths_from("v", (a, b))) == 3**b


def test_paths_from_rejects_bad_degrees(lambda2, loop):
    with pytest.raises(errors.DegreeOutOfRange):
        loop.paths_from("v", (-1,))
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.paths_from("v1", (1, -1))
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.paths_from("v1", (0, 0, 1))
    # the box enumerators validate the bound the same way
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.paths_upto("v1", (1, -1))
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.paths_leq("v1", (1, -1))
    with pytest.raises(errors.DegreeOutOfRange):
        loop.paths_leq("v", (-1,))


def test_degrees_of_the_wrong_rank_raise(lambda2, cloops):
    # a degree with too many or too few entries is not in N^k: zipping it
    # against a degree of rank k would drop or miss entries
    lam = lambda2.parse_path("e1.f1")
    for m in ((1, 0, 5), (1,), (0, 0, 0), (), (-1, 1)):
        with pytest.raises(errors.DegreeOutOfRange):
            lambda2.factor(lam, m)
        with pytest.raises(errors.DegreeOutOfRange):
            lambda2.vertex_at(lam, m)
        for grow in (lambda2.paths_from, lambda2.paths_upto, lambda2.paths_leq):
            with pytest.raises(errors.DegreeOutOfRange):
                grow("v1", m)
        for cut in (bnd.prefix, bnd.shift):
            with pytest.raises(errors.DegreeOutOfRange):
                cut(bnd.finite(lam), m)
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.segment(lam, (0,), (1, 0))
    with pytest.raises(errors.DegreeOutOfRange):
        lambda2.segment(lam, (0, 0), (1, 0, 5))
    with pytest.raises(errors.DegreeOutOfRange, match=r"^segment needs \(1, 0\) <= \(0, 1\)$"):
        lambda2.segment(lam, (1, 0), (0, 1))
    x = bnd.lasso(cloops.vertex("v"), cloops.parse_path("e"))
    for m in ((1,), (1, 0, 5)):
        for cut in (bnd.prefix, bnd.shift):
            with pytest.raises(errors.DegreeOutOfRange):
                cut(x, m)
    # has_prefix compares degrees of the graph's own paths
    assert lambda2.has_prefix(lam, lambda2.parse_path("e1"))
    assert lambda2.has_prefix(lam, lambda2.parse_path("f2"))  # e1.f1 = f2.e2
    assert not lambda2.has_prefix(lam, lambda2.parse_path("e3"))


def test_omega_path_counts(omega13, omega211):
    # lattice-segment graphs have exactly one path of each legal shape
    assert len(omega13.all_paths()) == 4 + 3 + 2 + 1
    assert len(omega211.all_paths()) == 9


def test_all_paths_copy_is_private():
    g = presets.lambda2()
    want = list(g.all_paths())
    want_v1 = g.paths_at("v1")
    g.all_paths().clear()
    g.paths_at("v1").clear()
    assert g.all_paths() == want
    assert g.paths_at("v1") == want_v1
    assert len(bnd.enumerate_boundary(g)) == 6


def test_all_paths_raises_on_cyclic(loop):
    with pytest.raises(errors.NotAcyclic):
        loop.all_paths()


def test_is_acyclic(lambda2, loop, cloops, omega13):
    assert lambda2.is_acyclic() and omega13.is_acyclic()
    assert not loop.is_acyclic() and not cloops.is_acyclic()


def _check_peel_order(g):
    """The peel order holds each vertex that reaches no cycle once, after
    every vertex it reaches, and reachable and reaching agree with the
    oracle; the vertices that receive no edge, by a brute-force count, are
    the sinks and open the peel order."""
    after, cyclic = reach_oracle(g)
    order = g.peel_order()
    assert len(set(order)) == len(order)
    indegree = {v: sum(e.range == v for e in g.spec.edges) for v in g.vertices}
    unreceived = [v for v in g.vertices if not indegree[v]]
    assert unreceived == [v for v in g.vertices if not after[v]]
    assert g.sinks() == sorted(unreceived)
    assert list(order[:len(unreceived)]) == unreceived
    assert set(order) == set(g.vertices) - cyclic
    place = {v: i for i, v in enumerate(order)}
    for v in order:
        assert all(place[w] < place[v] for w in after[v]), v
    assert g.is_acyclic() == (not cyclic)
    for v in g.vertices:
        assert g.reachable(v) == after[v] | {v}, v
        assert g.reaching([v]) == {u for u in g.vertices if v in after[u]} | {v}, v
    assert g.reaching([]) == set()
    targets = g.vertices[::2]
    assert g.reaching(targets) == {u for u in g.vertices if (after[u] | {u}) & set(targets)}


@pytest.mark.parametrize("name", sorted({**ORACLE_GRAPHS, **CYCLE_GRAPHS}))
def test_peel_order_against_oracle(name):
    _check_peel_order({**ORACLE_GRAPHS, **CYCLE_GRAPHS}[name]())


def test_peel_order_on_random_graphs():
    # odd seeds are acyclic, even ones mostly cyclic (see random_one_graph)
    for seed in range(100):
        _check_peel_order(random_one_graph(seed))


@pytest.mark.parametrize("name", sorted({**ORACLE_GRAPHS, **CYCLE_GRAPHS}))
def test_source_index_is_built_on_first_use(name):
    # an exhaustiveness search reads no edge by its source, so it leaves the
    # source index unbuilt; peel_order then builds the index the constructor
    # once built: every (vertex, colour) key in that order, with the sorted
    # ids of the edges with that source, or () where there are none
    g = {**ORACLE_GRAPHS, **CYCLE_GRAPHS}[name]()
    for v in g.vertices:
        g.exhaustiveness_witness(v, g.paths_from(v, (1,) + (0,) * (g.k - 1)))
    assert g._in is None
    g.peel_order()
    want = {(v, c): sorted(e.id for e in g.spec.edges if (e.source, e.color) == (v, c)) or ()
            for v in g.vertices for c in range(1, g.k + 1)}
    assert list(g._in.items()) == list(want.items())


def test_predicates(lambda2, omega13, point):
    assert lambda2.has_sources() is True
    assert lambda2.is_locally_convex() is False
    assert omega13.is_locally_convex() is True
    assert point.has_sources() is True


# ------------------------------------------------- minimal common extensions


def test_mce_lambda2_frozen(lambda2):
    e1 = lambda2.parse_path("e1")
    f2 = lambda2.parse_path("f2")
    e3 = lambda2.parse_path("e3")
    pairs = lambda2.minimal_common_extensions(e1, f2)
    assert pairs == {(lambda2.parse_path("f1"), lambda2.parse_path("e2"))}
    assert lambda2.mce(e1, f2) == [lambda2.parse_path("e1.f1")]
    assert lambda2.mce(e3, f2) == []
    assert lambda2.ext(e1, [f2]) == {lambda2.parse_path("f1")}
    with pytest.raises(errors.RangeMismatch, match=r"^Path\(e2\) is not a path at 'v1'$"):
        lambda2.ext(e1, [f2, lambda2.parse_path("e2")])


def test_mce_against_oracle(acyclic_graph):
    g = acyclic_graph
    paths = g.all_paths()
    for _ in range(2):  # the second pass answers from the graph's memo
        for lam in paths:
            for mu in paths:
                assert set(g.mce(lam, mu)) == mce_oracle(g, lam, mu)
                for rho, tau in g.minimal_common_extensions(lam, mu):
                    assert g.compose(lam, rho) == g.compose(mu, tau)


# the graphs the walk through the move tables is gated on: the oracle graphs,
# the cyclic products, and the acyclic products with squares
WALK_GRAPHS = {
    **ORACLE_GRAPHS,
    **PRODUCT_GRAPHS,
    **{f"acyclic_product{seed}": (lambda seed=seed: random_acyclic_product(seed))
       for seed in RANDOM_PRODUCT_SEEDS},
}


def _oracle_pool(g, box):
    """Every path of an acyclic graph, or those of degree <= box in a
    cyclic one."""
    if g.is_acyclic():
        return g.all_paths()
    return [p for v in g.vertices for p in g.paths_upto(v, box[:g.k])]


@pytest.mark.parametrize("name", sorted(WALK_GRAPHS))
def test_mce_both_orders_against_oracle(name):
    # Each pair in both argument orders: the walk runs along the first path
    # with the second as its obligation, so each path of a pair is walked
    # once, against the oracle, and each order must give the other's pairs
    # swapped.
    g = WALK_GRAPHS[name]()
    pool = _oracle_pool(g, (1, 1) if name in PRODUCT_GRAPHS else (2, 2, 1))
    both_sides = 0
    for lam in pool:
        for mu in pool:
            pairs = g.minimal_common_extensions(lam, mu)
            assert set(g.mce(lam, mu)) == mce_oracle(g, lam, mu), (lam, mu)
            assert g.minimal_common_extensions(mu, lam) == {(t, r) for r, t in pairs}
            d = join(lam.degree, mu.degree)
            for rho, tau in pairs:
                ext = g.compose(lam, rho)
                assert ext == g.compose(mu, tau) and ext.degree == d
            both_sides += bool(pairs) and len(lam.edges) != len(mu.edges)
    assert both_sides or not g.edge_ids()


@pytest.mark.parametrize("name", sorted(WALK_GRAPHS))
def test_ext_against_oracle(name):
    # ext walks lam's edges through the move tables: for lam of two or more
    # edges and E of one to three paths at r(lam), on cyclic graphs too, it
    # gives the tails past lam of the common extensions mce_oracle finds;
    # and the walk obeys Ext(lam*mu; E) = Ext(mu; Ext(lam; E)) for every mu
    # at s(lam)
    g = WALK_GRAPHS[name]()
    pool = _oracle_pool(g, (2, 2, 1))
    at = collections.defaultdict(list)
    for p in pool:
        at[p.range].append(p)
    rng = random.Random(name)
    walks = [lam for lam in pool if len(lam.edges) >= 2]
    for lam in rng.sample(walks, min(len(walks), 40)):
        for size in (1, 2, 3):
            E = rng.sample(at[lam.range], min(size, len(at[lam.range])))
            got = g.ext(lam, E)
            assert got == {rho for mu in E for rho, _ in mce_pairs_oracle(g, lam, mu)}, (lam, E)
            for mu in at[lam.source]:
                assert g.ext(g.compose(lam, mu), E) == g.ext(mu, got), (lam, mu, E)
    assert walks or not g.edge_ids()


def test_mce_on_a_branching_graph_does_not_list_the_gap():
    # commuting_loops(4) has four colour-2 loops, so the paths of degree
    # (0, 10) number 4^10: a search through them takes some 30 s, and the
    # walk along e^10 with f1^10 as its obligation takes ten steps
    g = presets.commuting_loops(4)
    e10, f10 = g.path(["e"] * 10), g.path(["f1"] * 10)
    with within(5, "minimal_common_extensions(e^10, f1^10)"):
        assert g.minimal_common_extensions(e10, f10) == {(f10, e10)}
        assert g.minimal_common_extensions(f10, e10) == {(e10, f10)}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_split_of_unsorted_word_is_factor(name):
    # one keyed sort of the word lam.edges + rho.edges, which is not in
    # normal form, gives the factors of the composite lam*rho
    g = ORACLE_GRAPHS[name]()
    pool = _oracle_pool(g, (2, 1, 1))
    for lam in pool:
        for rho in pool:
            if rho.range != lam.source:
                continue
            whole = g.compose(lam, rho)
            for m in below(whole.degree):
                head, tail = g._split(lam.range, lam.edges + rho.edges, m)
                assert (head, tail) == g.factor(whole, m), (lam, rho, m)
                assert head.degree == m and g.compose(head, tail) == whole


def _two_loop_square_graph(flip):
    """One vertex, loops e1, e2 (color 1) and f1, f2 (color 2), with the
    squares e_i f_j = f_j e_i, or e_i f_j = f_j e_(3-i) when flip is set."""
    edges = tuple(Edge(f"{c}{i}", color, "v", "v")
                  for c, color in (("e", 1), ("f", 2)) for i in (1, 2))
    squares = tuple(
        Square(first=(f"e{i}", f"f{j}"), second=(f"f{j}", f"e{3 - i if flip else i}"))
        for i in (1, 2) for j in (1, 2)
    )
    return KGraph.validate(KGraphSpec(k=2, vertices=("v",), edges=edges, squares=squares))


def test_mce_memo_is_per_graph():
    # paths of A and B spell the same words, so a cache shared between
    # graphs and keyed by words would answer B from A
    a, b = _two_loop_square_graph(False), _two_loop_square_graph(True)
    for g, tau in ((a, "e1"), (b, "e2"), (a, "e1"), (b, "e2")):
        e1, f1 = g.parse_path("e1"), g.parse_path("f1")
        assert g.minimal_common_extensions(e1, f1) == {(f1, g.parse_path(tau))}
        paths = g.paths_upto("v", (1, 1))
        for lam in paths:
            for mu in paths:
                assert set(g.mce(lam, mu)) == mce_oracle(g, lam, mu)


def test_mce_symmetry_and_degree(lambda2, omega211):
    for g in (lambda2, omega211):
        for lam in g.all_paths():
            for mu in g.all_paths():
                taus = g.mce(lam, mu)
                assert taus == g.mce(mu, lam)
                for tau in taus:
                    assert tau.degree == join(lam.degree, mu.degree)
                    assert g.has_prefix(tau, lam) and g.has_prefix(tau, mu)


def test_finitely_aligned_commuting_loops(cloops):
    # |mce| <= 1 for all pairs up to degree (2,2) (single square per pair)
    pool = [p for p in cloops.paths_upto("v", (2, 2))]
    for lam in pool:
        for mu in pool:
            assert len(cloops.mce(lam, mu)) <= 1


def test_prefix_cancellation_property(lambda2):
    # mce(a.g', mu) nonempty  iff  some rho in Ext(a;{mu}) has mce(g', rho)
    g = lambda2
    paths = [p for p in g.all_paths() if not p.is_vertex()]
    for p in paths:
        a, rest = g.factor(p, tuple(min(1, x) if i == _first_color(p) else 0
                                    for i, x in enumerate(p.degree)))
        for mu in g.all_paths():
            if mu.range != p.range:
                continue
            lhs = bool(g.mce(p, mu))
            rhs = any(bool(g.mce(rest, rho)) for rho in g.ext(a, [mu]))
            assert lhs == rhs


def _first_color(p):
    return next(i for i, x in enumerate(p.degree) if x > 0)


# ---------------------------------------------------------- exhaustivity


def test_exhaustive_frozen_lambda2(lambda2):
    g = lambda2
    e1, e3, f2 = (g.parse_path(s) for s in ("e1", "e3", "f2"))
    assert g.is_exhaustive("v1", [e1, e3]) is True
    assert g.is_exhaustive("v1", [f2]) is False
    w = g.exhaustiveness_witness("v1", [f2])
    assert w is not None and not g.mce(w, f2)
    assert g.is_exhaustive("v1", []) is False
    assert g.is_exhaustive("v4", []) is False  # source vertex, empty set


def test_exhaustive_against_oracle(acyclic_graph):
    g = acyclic_graph
    rng = random.Random(7)
    for v in g.spec.vertices:
        pool = sorted(g.paths_at(v), key=lambda p: p.sort_key())
        subsets = []
        for size in range(0, min(3, len(pool)) + 1):
            subsets.extend(itertools.combinations(pool, size))
        if len(subsets) > 200:
            subsets = rng.sample(subsets, 200)
        for combo in subsets:
            want = exhaustive_oracle_bool(g, v, combo)
            assert g.is_exhaustive(v, list(combo)) is want
            w = g.exhaustiveness_witness(v, list(combo))
            if want:
                assert w is None
            else:
                assert w is not None
                assert not any(g.mce(w, mu) for mu in combo)
                # a shortest witness, as long as the oracle's first one
                assert len(w.edges) == len(exhaustive_oracle(g, v, combo).edges)


def test_exhaustive_cyclic(cloops, loop):
    e = cloops.parse_path("e")
    f1 = cloops.parse_path("f1")
    fs = [cloops.parse_path(s) for s in ("f1", "f2", "f3")]
    assert cloops.is_exhaustive("v", [e]) is True
    assert cloops.is_exhaustive("v", [f1]) is False
    assert cloops.is_exhaustive("v", fs) is True
    w = cloops.exhaustiveness_witness("v", [f1])
    assert w is not None and not cloops.mce(w, f1)
    # the lexicographically first of the shortest witnesses, in out_edges order
    squares = [cloops.parse_path(s) for s in ("f1.f1", "f2.f2", "f3.f3")]
    assert cloops.exhaustiveness_witness("v", squares).label() == "f1.f2"
    assert loop.is_exhaustive("v", [loop.parse_path("e")]) is True


def test_exhaustive_reads_a_one_shot_iterable_once():
    # E is read for the range check and again for the work, so an iterator
    # must give the answers a list gives
    g = presets.commuting_loops(2)
    e = g.parse_path("e")
    assert g.is_exhaustive("v", (p for p in [e])) is True
    assert g.exhaustiveness_witness("v", iter([e])) is None
    assert g.ext(e, iter([e])) == g.ext(e, [e]) == {g.vertex("v")}
    assert g.exhaustiveness_witness("v", iter([])) == g.vertex("v")


def test_the_range_rule_reads_once_and_names_the_first_stray(lambda2):
    # at(v, E) is the one check of E in v*Lambda: it reads a one-shot
    # iterable once and returns its paths in the given order, compares each
    # path's range (e1's source is v2, and e1 is at v1) and names the first
    # path at another vertex, however many come before or after it
    g = lambda2
    e1, e2, e3, f1, f2 = (g.parse_path(s) for s in ("e1", "e2", "e3", "f1", "f2"))
    read = []

    def once():
        for p in (f2, e1, e3, g.vertex("v1")):
            read.append(p)
            yield p

    assert g.at("v1", once()) == (f2, e1, e3, g.vertex("v1"))
    assert read == [f2, e1, e3, g.vertex("v1")]
    assert g.at("v1", ()) == ()
    assert g.at("v2", [f1]) == (f1,)
    for paths, stray in (([e1, e2], "e2"), ([e1, f1, e2], "f1"), ([e2, f1], "e2"),
                         ([f2, g.vertex("v2")], "v2")):
        with pytest.raises(errors.RangeMismatch, match=rf"^Path\({stray}\) is not a path at 'v1'$"):
            g.at("v1", iter(paths))


def test_a_memoised_empty_move_table_is_a_hit(monkeypatch):
    # on the downset of (2,0) and (0,1) some move tables are empty: once
    # every search has run, running them again reads every table from the
    # memo, the empty ones too
    g = downset_graph(((2, 0), (0, 1)))
    cases = [(v, [p]) for v in g.vertices for p in g.paths_upto(v, (2, 1)) if not p.is_vertex()]
    first = [g.exhaustiveness_witness(v, E) for v, E in cases]
    assert any(not table for table in g._move_table.values())

    def refuse(mu, c):
        raise AssertionError(f"the move table of {(mu, c)} is memoised")

    monkeypatch.setattr(g, "_moves", refuse)
    assert [g.exhaustiveness_witness(v, E) for v, E in cases] == first


def test_make_cell_searches_the_canonical_set(lambda2, monkeypatch):
    # make_cell checks the avoid paths through at and hands the search their
    # canonical set, in which no member extends another; the search checks
    # that set again, as every caller's set is checked
    g = lambda2
    v1, f2, e1, e3 = (g.parse_path(s) for s in ("v1", "f2", "e1", "e3"))
    at, witness = KGraph.at, KGraph.exhaustiveness_witness
    checked, searched = [], []
    monkeypatch.setattr(KGraph, "at",
                        lambda self, v, paths: checked.append(v) or at(self, v, paths))
    monkeypatch.setattr(KGraph, "exhaustiveness_witness",
                        lambda self, v, E: searched.append((v, E)) or witness(self, v, E))
    assert gpd.make_cell(v1, v1, [g.parse_path("f2.e2"), f2]).label() == "v1*v1\\f2"
    assert gpd.make_cell(v1, v1, [e1, g.parse_path("e1.f1"), e3]) is None
    assert checked == ["v1"] * 4
    assert searched == [("v1", frozenset({f2})), ("v1", frozenset({e1, e3}))]


def test_path_repr_shortens_a_label_past_32_characters():
    # the rule errors.quoted applies to literals: a label of 32 characters
    # prints whole, one of 33 by its first 8 and its length
    g = KGraph(KGraphSpec(k=1, vertices=("v" * 32, "w" * 33, "x"),
                          edges=(Edge("e", 1, "x", "x"),), squares=()))
    assert repr(g.vertex("v" * 32)) == f"Path({'v' * 32})"
    assert repr(g.vertex("w" * 33)) == "Path(wwwwwwww... (33 chars))"
    assert repr(g.path(["e"] * 16)) == f"Path({'.'.join('e' * 16)})"  # 31 characters
    assert repr(g.path(["e"] * 17)) == "Path(e.e.e.e.... (33 chars))"
    assert repr(g.path(["e"] * 3000)) == "Path(e.e.e.e.... (5999 chars))"
    assert g.path(["e"] * 17).label() == ".".join("e" * 17)  # the label stays whole


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + sorted(PRODUCT_GRAPHS))
def test_witness_matches_search_by_ext(name):
    # the move-table search against a search that takes each Ext(a; S)
    # from mce_oracle, on cyclic graphs too, where exhaustive_oracle is not
    # exact: the same witness, or None
    g = {**ORACLE_GRAPHS, **PRODUCT_GRAPHS}[name]()
    cases = [(v, combo) for v in g.vertices for size in range(4)
             for combo in itertools.combinations(g.paths_upto(v, (1,) * g.k), size)]
    if name in PRODUCT_GRAPHS and len(cases) > 300:  # a seeded sample, for the time budget
        cases = random.Random(7).sample(cases, 300)
    for v, combo in cases:
        assert g.exhaustiveness_witness(v, combo) == witness_oracle(g, v, combo), combo


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + sorted(PRODUCT_GRAPHS))
def test_move_table_matches_oracle(name):
    # the move table of (mu, c) holds Ext(a; {mu}) for each colour-c edge a
    # at r(mu): the rho with a*rho a minimal common extension of a and mu
    g = {**ORACLE_GRAPHS, **PRODUCT_GRAPHS}[name]()
    for mu in _oracle_pool(g, (2, 2, 1) if name in ORACLE_GRAPHS else (1, 1)):
        for c in range(1, g.k + 1):
            table = g._moves(mu, c)
            edges = g.out_edges(mu.range, c)
            assert set(table) <= set(edges), (mu, c)
            for eid in edges:
                a = g.path([eid])
                want = {_tail(g, p, a) for p in mce_oracle(g, a, mu)}
                assert table.get(eid, frozenset()) == want, (mu, eid)


def test_finite_exhaustive_sets(lambda2):
    sets = lambda2.finite_exhaustive_sets("v1", max_size=2, max_degree=(1, 1))
    labels = {frozenset(p.label() for p in E) for E in sets}
    assert frozenset({"e1", "e3"}) in labels
    assert frozenset({"f2"}) not in labels
    for E in sets:
        assert exhaustive_oracle_bool(lambda2, "v1", E)


# ------------------------------------------------------ property tests


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
def test_omega_factor_property(a, b, c):
    g = omega_graph((2, 2, 2))
    paths = g.paths_from("0,0,0", (2, 2, 2))
    assert len(paths) == 1
    p = paths[0]
    head, tail = g.factor(p, (a, b, c))
    assert head.source == f"{a},{b},{c}" == tail.range
    assert g.compose(head, tail) == p


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_segment_composition_property(data):
    g = presets.lambda2()
    paths = [p for p in g.all_paths() if p.degree == (1, 1)]
    p = data.draw(st.sampled_from(paths))
    m = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    n = tuple(max(m[i], data.draw(st.integers(0, 1))) for i in range(2))
    left = g.segment(p, zero(2), m)
    mid = g.segment(p, m, n)
    right = g.segment(p, n, p.degree)
    assert g.compose(g.compose(left, mid), right) == p
