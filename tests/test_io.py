import random

import pytest
from hypothesis import given, settings, strategies as st

from degedit.errors import ParseError
from degedit.generator import generate_random_planar_instance, random_planar_graph
from degedit.graph import is_planar
from degedit.instance import CONNECTED, PLAIN, Instance, Solution
from degedit.io import format_solution, parse_instance, write_instance


TRIANGLE = """\
# a triangle, everything satisfied
p degedit 3 3 0 0 0 0
v 1 2 1 0
v 2 2 1 0
v 3 2 1 0
e 1 2 1 0
e 1 3 1 0
e 2 3 1 0
"""


def test_parse_triangle():
    inst = parse_instance(TRIANGLE)
    assert inst.graph.n == 3 and inst.graph.m == 3
    assert inst.variant == PLAIN
    assert inst.delta == {1: 2, 2: 2, 3: 2}


def test_empty_instance():
    inst = parse_instance("p degedit 0 0 1 2 3 1\n")
    assert inst.graph.n == 0
    assert inst.variant == CONNECTED
    assert (inst.k_v, inst.k_e, inst.cost_budget) == (1, 2, 3)


def test_k5_rejected_nonplanar():
    lines = ["p degedit 5 10 0 0 0 0"]
    lines += [f"v {i} 4 1 0" for i in range(1, 6)]
    lines += [f"e {i} {j} 1 0" for i in range(1, 6) for j in range(i + 1, 6)]
    with pytest.raises(ParseError, match="planar"):
        parse_instance("\n".join(lines))


@pytest.mark.parametrize("mutation, message", [
    ("p degedit 1 0 0 0 0 0", "expected 1 vertex lines"),
    ("p degedit 0 0 0 0 0 2", "variant"),
    ("p degedit 0 0 0 -1 0 0", "budgets must be non-negative"),
    ("v 1 0 1 0", "before header"),
    ("p degedit 0 0 0 0 0 0\nq zzz", "unknown record"),
])
def test_parse_errors(mutation, message):
    with pytest.raises(ParseError, match=message):
        parse_instance(mutation)


def test_parse_rejects_zero_weight_and_duplicates():
    bad_weight = "p degedit 1 0 0 0 0 0\nv 1 0 0 0"
    with pytest.raises(ParseError, match="weight"):
        parse_instance(bad_weight)
    dup = ("p degedit 2 2 0 0 0 0\nv 1 0 1 0\nv 2 0 1 0\n"
           "e 1 2 1 0\ne 1 2 1 0")
    with pytest.raises(ParseError, match="duplicate edge"):
        parse_instance(dup)


def test_round_trip_generated_corpus():
    rng = random.Random(9)
    for i in range(1000):
        inst = generate_random_planar_instance(
            rng.randint(0, 10), rng.randint(0, 3), rng.randint(0, 3),
            rng.randint(0, 9), rng.choice((PLAIN, CONNECTED)), seed=i)
        assert parse_instance(write_instance(inst)) == inst


def test_generator_deterministic_and_planar():
    a = generate_random_planar_instance(10, 1, 2, 3, PLAIN, seed=42)
    b = generate_random_planar_instance(10, 1, 2, 3, PLAIN, seed=42)
    assert a == b
    rng = random.Random(1)
    for i in range(300):
        g = random_planar_graph(rng.randint(0, 12), rng)
        assert is_planar(g)


def test_generator_window_default_vs_raw():
    inst = generate_random_planar_instance(9, 1, 1, 3, PLAIN, seed=5)
    assert inst.in_degree_window()


def test_format_solution():
    assert format_solution(None) == "s no\n"
    inst = parse_instance(TRIANGLE)
    text = format_solution(Solution.of(inst))
    assert text.splitlines() == ["s yes", "c 0", "d", "r"]
    text = format_solution(Solution.of(inst, [2], [(1, 3)]))
    assert text.splitlines() == ["s yes", "c 0", "d 2", "r 1-3"]


@st.composite
def instances(draw):
    """Instances on random planar graphs with ids 1..n and any legal fields."""
    g = random_planar_graph(draw(st.integers(0, 12)),
                            random.Random(draw(st.integers(0, 2 ** 32))),
                            draw(st.floats(0.2, 1.0)))
    vs, es = g.sorted_vertices(), sorted(g.edges())
    big = st.integers(0, 10 ** 12)

    def field(keys, values):
        return draw(st.fixed_dictionaries({k: values for k in keys}))

    return Instance(g, field(vs, big), field(vs, st.integers(1, 10 ** 12)),
                    field(es, st.integers(1, 10 ** 12)), field(vs, big),
                    field(es, big), draw(big), draw(big), draw(big),
                    draw(st.sampled_from((PLAIN, CONNECTED))))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_write_parse_round_trip_keeps_every_field(inst):
    assert parse_instance(write_instance(inst)) == inst


TOKENS = st.one_of(
    st.sampled_from(["p", "v", "e", "degedit", "#", "x", "0", "1", "-1",
                     "1.5", "9" * 5000]),
    st.integers(-3, 14).map(str),
    st.text(alphabet=" \t0123456789-+#pvex", max_size=12))


@settings(max_examples=300, deadline=None)
@given(instances(), st.data())
def test_one_line_mutation_parses_or_raises_parse_error(inst, data):
    lines = write_instance(inst).splitlines()
    # the header carries most fields, so it draws half the mutations
    i = data.draw(st.one_of(st.just(0), st.integers(0, len(lines) - 1)))
    op = data.draw(st.sampled_from(("drop", "copy", "line", "token")))
    if op == "drop":
        del lines[i]
    elif op == "copy":
        lines.insert(i, lines[i])
    elif op == "line":
        lines[i] = " ".join(data.draw(st.lists(TOKENS, max_size=9)))
    else:
        parts = lines[i].split()
        parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(TOKENS)
        lines[i] = " ".join(parts)
    try:
        parse_instance("\n".join(lines) + "\n")
    except ParseError:
        pass
