import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from degedit.errors import ParseError
from degedit.generator import generate_random_planar_instance, random_planar_graph
from degedit.graph import Graph, is_planar
from degedit.instance import CONNECTED, PLAIN, Instance, Solution
from degedit.io import format_solution, parse_instance, write_instance

from test_dpsolve import _planted


def reference_parse_instance(text: str) -> Instance:
    """The two-pass parser that ``parse_instance`` replaced, kept as the
    reference: it stages every line, then checks the vertex and edge lines
    after the header, and reads fields with plain ``int()``."""
    header = None
    vlines: list[tuple[int, list[str]]] = []
    elines: list[tuple[int, list[str]]] = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ParseError("duplicate header", no)
            if len(parts) != 8 or parts[1] != "degedit":
                raise ParseError("header must be 'p degedit n m k_v k_e C variant'", no)
            try:
                header = [int(x) for x in parts[2:]]
            except ValueError:
                raise ParseError("non-integer header field", no)
        elif parts[0] == "v":
            if header is None:
                raise ParseError("vertex line before header", no)
            vlines.append((no, parts[1:]))
        elif parts[0] == "e":
            if header is None:
                raise ParseError("edge line before header", no)
            elines.append((no, parts[1:]))
        else:
            raise ParseError(f"unknown record type {parts[0]!r}", no)
    if header is None:
        raise ParseError("missing 'p degedit' header")
    n, m, k_v, k_e, cbudget, variant_flag = header
    if variant_flag not in (0, 1):
        raise ParseError("variant flag must be 0 (plain) or 1 (connected)")
    if min(k_v, k_e, cbudget) < 0:
        raise ParseError("budgets must be non-negative")
    if len(vlines) != n:
        raise ParseError(f"expected {n} vertex lines, found {len(vlines)}")
    if len(elines) != m:
        raise ParseError(f"expected {m} edge lines, found {len(elines)}")

    delta, weight_v, cost_v = {}, {}, {}
    for no, fields in vlines:
        if len(fields) != 4:
            raise ParseError("vertex line must be 'v id delta weight cost'", no)
        try:
            vid, dl, w, c = (int(x) for x in fields)
        except ValueError:
            raise ParseError("non-integer vertex field", no)
        if not 1 <= vid <= n:
            raise ParseError(f"vertex id {vid} out of range 1..{n}", no)
        if vid in delta:
            raise ParseError(f"duplicate vertex {vid}", no)
        if w < 1:
            raise ParseError(f"vertex weight must be >= 1, got {w}", no)
        if dl < 0 or c < 0:
            raise ParseError("delta and cost must be non-negative", no)
        delta[vid], weight_v[vid], cost_v[vid] = dl, w, c

    edges, weight_e, cost_e = [], {}, {}
    for no, fields in elines:
        if len(fields) != 4:
            raise ParseError("edge line must be 'e u v weight cost'", no)
        try:
            u, v, w, c = (int(x) for x in fields)
        except ValueError:
            raise ParseError("non-integer edge field", no)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"edge ({u}, {v}) out of range", no)
        if u >= v:
            raise ParseError(f"edge endpoints must satisfy u < v, got ({u}, {v})", no)
        if (u, v) in weight_e:
            raise ParseError(f"duplicate edge ({u}, {v})", no)
        if w < 1:
            raise ParseError(f"edge weight must be >= 1, got {w}", no)
        if c < 0:
            raise ParseError("edge cost must be non-negative", no)
        edges.append((u, v))
        weight_e[(u, v)], cost_e[(u, v)] = w, c

    graph = Graph(range(1, n + 1), edges)
    if not is_planar(graph):
        raise ParseError("graph is not planar")
    return Instance(graph, delta, weight_v, weight_e, cost_v, cost_e,
                    k_v, k_e, cbudget, CONNECTED if variant_flag else PLAIN)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as ex:
        return ("error", str(ex), ex.line)


INTEGER_TOKEN = re.compile(r"-?[0-9]+")


def _newly_rejected(text, line):
    """Whether that line holds a field int() reads but the grammar rejects,
    or (line None) the header has a negative vertex or edge count."""
    stripped = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    if line is None:
        header = next(parts for parts in stripped if parts[:1] == ["p"])
        return int(header[2]) < 0 or int(header[3]) < 0
    fields = stripped[line - 1][1:]
    if fields[:1] == ["degedit"]:
        fields = fields[1:]

    def int_reads(token):
        try:
            int(token)
            return True
        except ValueError:
            return False
    return any(int_reads(t) and not INTEGER_TOKEN.fullmatch(t) for t in fields)


def assert_matches_reference(text):
    """Same Instance or same error as the reference parser, except where a
    newly rejected token or count explains a new error."""
    got = _outcome(parse_instance, text)
    want = _outcome(reference_parse_instance, text)
    if got == want:
        return
    assert isinstance(got, tuple), (text, got, want)
    message = got[1].split(": ", 1)[-1]
    assert message in ("non-integer header field", "non-integer vertex field",
                       "non-integer edge field",
                       "vertex and edge counts must be non-negative"), (text, got, want)
    assert _newly_rejected(text, got[2]), (text, got, want)


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
    ("p degedit -1 0 0 0 0 0", "vertex and edge counts must be non-negative"),
    ("p degedit 0 -2 0 0 0 0", "vertex and edge counts must be non-negative"),
    ("p degedit -1 0 0 0 0 0\nv 1 0 1 0", "vertex and edge counts must be non-negative"),
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


@pytest.mark.parametrize("text, line, message", [
    ("p degedit 1 0 0 0 0 0\nv 1 0 1_0 0", 2, "non-integer vertex field"),
    ("p degedit 1 0 0 0 0 0\nv +1 0 1 0", 2, "non-integer vertex field"),
    ("p degedit 1 0 0 0 0 0\nv 1 \u0661 1 0", 2, "non-integer vertex field"),
    ("p degedit 2 1 0 0 0 0\nv 1 1 1 0\nv 2 1 1 0\ne 1 2 1 +0", 4,
     "non-integer edge field"),
    ("p degedit 2 1 0 0 0 0\nv 1 1 1 0\nv 2 1 1 0\ne 1 \uff12 1 0", 4,
     "non-integer edge field"),
    ("p degedit +1 0 0 0 0 0\nv 1 0 1 0", 1, "non-integer header field"),
    ("# +1_0 \u00e9\np degedit 0 0 0 0 1_0 0", 2, "non-integer header field"),
    # the first bad vertex line is reported before a later bad edge line
    ("p degedit 2 1 0 0 0 0\ne 1 2 1 1_0\nv 1 1 1 0\nv 2 1 1_0 0", 4,
     "non-integer vertex field"),
])
def test_parse_rejects_integer_syntax_beyond_the_grammar(text, line, message):
    with pytest.raises(ParseError, match=message) as info:
        parse_instance(text)
    assert info.value.line == line
    assert isinstance(reference_parse_instance(text), Instance)


def test_comments_may_hold_any_text():
    text = TRIANGLE.replace("v 2 2 1 0", "v 2 2 1 0  # +1_0 \u00e9 \u0661")
    assert parse_instance(text) == parse_instance(TRIANGLE)


# the characters besides LF and CR that str.splitlines ends a line at
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                   "\u2029"]


@pytest.mark.parametrize("ch", NOT_LINE_BREAKS, ids=ascii)
def test_comment_runs_to_the_line_break(ch):
    text = "p degedit 2 0 0 0 0 0\nv 1 1 1 0 # a{}e 1 2 1 1\nv 2 1 1 0\n"
    inst = parse_instance(text.format(ch))
    assert inst.graph.m == 0
    assert inst == parse_instance(text.format(" "))
    # nor does the character shift the numbers of later lines
    with pytest.raises(ParseError, match="weight") as info:
        parse_instance(f"p degedit 1 0 0 0 0 0\n# a{ch}b\nv 1 0 0 0\n")
    assert info.value.line == 3


@pytest.mark.parametrize("ch", NOT_LINE_BREAKS, ids=ascii)
def test_record_runs_to_the_line_break(ch):
    # outside a comment the character separates fields of one line
    with pytest.raises(ParseError, match="vertex line must be") as info:
        parse_instance(f"p degedit 1 0 0 0 0 0\nv 1 0 1 0{ch}e 1 2 1 1\n")
    assert info.value.line == 2


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=ascii)
def test_crlf_and_cr_files_read_like_lf_files(newline):
    assert parse_instance(TRIANGLE.replace("\n", newline)) == parse_instance(TRIANGLE)
    bad = "p degedit 1 0 0 0 0 0\n\n# x\nv 1 0 0 0\n"
    with pytest.raises(ParseError, match="weight") as info:
        parse_instance(bad.replace("\n", newline))
    assert info.value.line == 4


def test_round_trip_generated_corpus():
    rng = random.Random(9)
    for i in range(1000):
        inst = generate_random_planar_instance(
            rng.randint(0, 10), rng.randint(0, 3), rng.randint(0, 3),
            rng.randint(0, 9), rng.choice((PLAIN, CONNECTED)), seed=i)
        text = write_instance(inst)
        assert parse_instance(text) == reference_parse_instance(text) == inst


def test_planted_files_match_reference_in_any_line_order():
    rng = random.Random(12)
    for seed in range(40):
        lines = write_instance(_planted(606_000 + seed)).splitlines()
        body = lines[1:]
        rng.shuffle(body)
        for text in ("\n".join(lines), "\n".join(lines[:1] + body)):
            inst = parse_instance(text)
            assert inst == reference_parse_instance(text)
            g = inst.graph
            assert list(g.edge_set()) == list(frozenset(g.edges()))
            # one bad field on a random vertex or edge line, in a file whose
            # lines may come in any order
            bad = list(text.splitlines())
            i = rng.randrange(1, len(bad))
            parts = bad[i].split()
            parts[rng.randrange(1, len(parts))] = rng.choice(("0", "-1", "x", "99999"))
            bad[i] = " ".join(parts)
            assert_matches_reference("\n".join(bad))


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
                     "1.5", "9" * 5000, "+2", "1_0", "\u0663", "-0", "\u00e9"]),
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
    assert_matches_reference("\n".join(lines) + "\n")
