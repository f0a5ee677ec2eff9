"""Parser for the HDBL-like subset; Figure 3's queries verbatim."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.query import parser
from repro.query.ast import AccessKind
from repro.query.parser import parse_query
from repro.workloads import Q1, Q2, Q3


class TestFigure3Queries:
    def test_q1(self):
        query = parse_query(Q1)
        assert query.select_var == "o"
        assert query.access == AccessKind.READ
        assert [b.var for b in query.bindings] == ["c", "o"]
        root = query.binding_of("c")
        assert root.from_relation and root.relation == "cells"
        nested = query.binding_of("o")
        assert nested.base_var == "c" and nested.path == ("c_objects",)
        [predicate] = query.predicates
        assert predicate.var == "c"
        assert predicate.path == ("cell_id",)
        assert predicate.value == "c1"

    def test_q2(self):
        query = parse_query(Q2)
        assert query.access == AccessKind.UPDATE
        assert len(query.predicates) == 2
        assert query.predicates[1].value == "r1"

    def test_q3(self):
        query = parse_query(Q3)
        assert query.predicates[1].value == "r2"

    def test_chain_to_select_var(self):
        query = parse_query(Q2)
        chain = query.chain_to("r")
        assert [b.var for b in chain] == ["c", "r"]

    def test_root_binding(self):
        assert parse_query(Q1).root_binding().relation == "cells"


class TestSyntax:
    def test_case_insensitive_keywords(self):
        query = parse_query("select x from x in cells for read")
        assert query.access == AccessKind.READ

    def test_projection_path(self):
        query = parse_query(
            "SELECT r.trajectory FROM c IN cells, r IN c.robots FOR READ"
        )
        assert query.select_path == ("trajectory",)

    def test_integer_literal(self):
        query = parse_query(
            "SELECT o FROM c IN cells, o IN c.c_objects WHERE o.obj_id = 7 FOR READ"
        )
        assert query.predicates[0].value == 7

    def test_float_literal(self):
        query = parse_query(
            "SELECT m FROM m IN materials WHERE m.density = 1.5 FOR READ"
        )
        assert query.predicates[0].value == 1.5

    def test_boolean_literal(self):
        query = parse_query("SELECT c FROM c IN chips WHERE c.placed = TRUE FOR READ")
        assert query.predicates[0].value is True

    def test_escaped_quote_in_string(self):
        query = parse_query(
            "SELECT c FROM c IN cells WHERE c.cell_id = 'o\\'brien' FOR READ"
        )
        assert query.predicates[0].value == "o'brien"

    def test_every_escape_stands_for_its_character(self):
        query = parse_query(
            r"SELECT c FROM c IN cells WHERE c.cell_id = 'a\\b\q' FOR READ"
        )
        assert query.predicates[0].value == "a\\bq"

    def test_literal_ending_in_a_backslash(self):
        query = parse_query(
            r"SELECT c FROM c IN cells WHERE c.cell_id = 'dir\\' FOR READ"
        )
        assert query.predicates[0].value == "dir\\"

    def test_for_delete(self):
        query = parse_query("SELECT c FROM c IN cells FOR DELETE")
        assert query.access == AccessKind.DELETE

    def test_deep_binding_path(self):
        query = parse_query(
            "SELECT e FROM c IN cells, r IN c.robots, e IN r.effectors FOR READ"
        )
        assert query.binding_of("e").base_var == "r"

    def test_multi_part_predicate_path(self):
        query = parse_query(
            "SELECT c FROM c IN cells WHERE c.meta.owner = 'x' FOR READ"
        )
        assert query.predicates[0].path == ("meta", "owner")


class TestErrors:
    def test_missing_select(self):
        with pytest.raises(QueryError):
            parse_query("FROM c IN cells FOR READ")

    def test_missing_for_clause(self):
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells")

    def test_bad_access_kind(self):
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells FOR WRITE")

    def test_unbound_select_var(self):
        with pytest.raises(QueryError):
            parse_query("SELECT x FROM c IN cells FOR READ")

    def test_unknown_predicate_var(self):
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells WHERE z.a = 1 FOR READ")

    def test_duplicate_variable(self):
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells, c IN cells FOR READ")

    def test_binding_from_unknown_variable(self):
        with pytest.raises(QueryError):
            parse_query("SELECT o FROM o IN z.c_objects, c IN cells FOR READ")

    def test_trailing_tokens(self):
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells FOR READ garbage")

    def test_predicate_needs_literal(self):
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells WHERE c.a = b FOR READ")

    def test_untokenizable_input(self):
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells WHERE c.a = 1 FOR READ; DROP")


# -- the per-shape memo against a fresh full parse ------------------------------

#: (FROM clause, selected variable, predicate targets, assignable paths)
SCHEMAS = [
    ("c IN cells", "c", ["c.cell_id", "c.meta.owner"], ["c.cell_id"]),
    (
        "c IN cells, o IN c.c_objects",
        "o",
        ["c.cell_id", "o.obj_id", "o.obj_name"],
        ["o.obj_name", "o.obj_id"],
    ),
    (
        "c IN cells, r IN c.robots",
        "r",
        ["c.cell_id", "r.robot_id", "r.trajectory"],
        ["r.trajectory"],
    ),
    ("e IN effectors", "e", ["e.eff_id", "e.tool"], ["e.tool"]),
    (
        "a IN assemblies, p IN a.positions",
        "p",
        ["a.asm_id", "p.pos_id", "p.quantity"],
        ["p.quantity"],
    ),
    ("m IN materials", "m", ["m.density", "m.mat_id"], ["m.density"]),
]

_plain = st.sampled_from(list("ab Z5-.=,?_"))
_escape = st.sampled_from(list("'\\ab?n5")).map(lambda char: "\\" + char)
_string = st.lists(st.one_of(_plain, _escape), max_size=5).map(
    lambda parts: "'%s'" % "".join(parts)
)
_integer = st.integers(-(10 ** 6), 10 ** 6).map(str)
_float = st.tuples(
    st.sampled_from(["", "-"]), st.integers(0, 999), st.integers(0, 999)
).map(lambda parts: "%s%d.%d" % parts)
_literal = st.one_of(
    _string, _integer, _float, st.sampled_from(["TRUE", "FALSE", "true"])
)


@st.composite
def _query_shape(draw):
    """A well-formed query text with ``%s`` where each literal goes."""
    source, select, targets, assignable = draw(st.sampled_from(SCHEMAS))
    separator = draw(st.sampled_from([" ", "  ", "\t"]))
    text = "SELECT %s FROM %s" % (select, source)
    where = draw(st.lists(st.sampled_from(targets), max_size=3))
    if where:
        text += " WHERE " + " AND ".join("%s = %%s" % target for target in where)
    access = draw(st.sampled_from(["READ", "UPDATE", "DELETE"]))
    text += " FOR " + access
    assignments = []
    if access == "UPDATE":
        assignments = draw(st.lists(st.sampled_from(assignable), max_size=2))
        if assignments:
            text += " SET " + ", ".join("%s = %%s" % path for path in assignments)
    return text.replace(" ", separator), len(where) + len(assignments)


def _clauses(items):
    return [(item.var, item.path, type(item.value), item.value) for item in items]


def _fields(query):
    return (
        query.select_var,
        query.select_path,
        query.access,
        [(b.var, b.relation, b.base_var, b.path) for b in query.bindings],
        _clauses(query.predicates),
        _clauses(query.assignments),
        query.shape,
    )


def _outcome(parse, text):
    try:
        return _fields(parse(text))
    except QueryError as error:
        return ("QueryError", str(error))


@st.composite
def _bound_twice(draw):
    shape, slots = draw(_query_shape())
    first = tuple(draw(_literal) for _ in range(slots))
    second = tuple(draw(_literal) for _ in range(slots))
    return shape % first, shape % second


class TestShapeMemo:
    @settings(max_examples=300, deadline=None)
    @given(_bound_twice())
    def test_memoized_parse_equals_full_parse(self, texts):
        for text in texts:  # the second is a memo hit when the shapes agree
            assert _fields(parse_query(text)) == _fields(parser._parse(text))

    @settings(max_examples=300, deadline=None)
    @given(
        _bound_twice(),
        st.integers(0, 200),
        st.sampled_from(["insert", "delete", "replace"]),
        st.sampled_from(list("?'\\-5.=, x@")),
    )
    def test_malformed_texts_raise_like_full_parse(self, texts, at, edit, char):
        valid, other = texts
        parse_query(valid)  # its shape is now memoized
        at %= len(other)
        if edit == "insert":
            text = other[:at] + char + other[at:]
        elif edit == "delete":
            text = other[:at] + other[at + 1:]
        else:
            text = other[:at] + char + other[at + 1:]
        assert _outcome(parse_query, text) == _outcome(parser._parse, text)

    def test_one_shape_bound_to_a_string_then_a_number(self):
        text = "SELECT o FROM c IN cells, o IN c.c_objects WHERE o.obj_id = %s FOR READ"
        as_string = parse_query(text % "'5'")
        as_number = parse_query(text % "5")
        assert as_string.shape == as_number.shape
        assert as_string.predicates[0].value == "5"
        assert as_number.predicates[0].value == 5
        assert _fields(as_number) == _fields(parser._parse(text % "5"))

    def test_a_bare_placeholder_is_not_a_literal(self):
        parse_query("SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR READ")
        with pytest.raises(QueryError):
            parse_query("SELECT c FROM c IN cells WHERE c.cell_id = ? FOR READ")

    def test_memo_stays_at_its_bound(self):
        parser._shapes.clear()
        texts = [
            "SELECT v%d FROM v%d IN cells FOR READ" % (index, index)
            for index in range(parser.SHAPE_MEMO_SIZE + 40)
        ]
        for text in texts:
            parse_query(text)
        assert len(parser._shapes) == parser.SHAPE_MEMO_SIZE
        assert texts[-1] in parser._shapes and texts[0] not in parser._shapes


class TestRebind:
    """A memo hit copies the validated template instead of re-running
    ``Query.__init__``: the validated parts and the shape are shared, the
    clause lists are the copy's own."""

    TEXT = (
        "SELECT r FROM c IN cells, r IN c.robots WHERE c.cell_id = %s "
        "AND r.robot_id = %s FOR UPDATE SET r.trajectory = %s"
    )

    def test_rebound_query_shares_the_template_shape(self):
        first = parse_query(self.TEXT % ("'c1'", "'r1'", "'t'"))
        second = parse_query(self.TEXT % ("'c2'", "'r2'", "'u'"))
        assert second.shape is first.shape
        assert [p.value for p in second.predicates] == ["c2", "r2"]
        assert second.assignments[0].value == "u"

    def test_clause_lists_are_fresh(self):
        first = parse_query(self.TEXT % ("'c1'", "'r1'", "'t'"))
        second = parse_query(self.TEXT % ("'c2'", "'r2'", "'u'"))
        assert second.predicates is not first.predicates
        assert second.assignments is not first.assignments
        second.predicates.clear()
        second.assignments.clear()
        third = parse_query(self.TEXT % ("'c3'", "'r3'", "'v'"))
        assert [p.value for p in third.predicates] == ["c3", "r3"]
        assert [a.value for a in third.assignments] == ["v"]
        assert _fields(third) == _fields(parser._parse(self.TEXT % ("'c3'", "'r3'", "'v'")))

    def test_invalid_text_of_a_new_shape_raises_the_full_parser_error(self):
        parse_query("SELECT c FROM c IN cells WHERE c.cell_id = 'c1' FOR READ")
        invalid = "SELECT x FROM c IN cells WHERE c.cell_id = %s FOR READ"
        for literal in ("'c1'", "'c2'"):  # the shape is never kept
            assert _outcome(parse_query, invalid % literal) == _outcome(
                parser._parse, invalid % literal
            )
            with pytest.raises(QueryError, match="not bound"):
                parse_query(invalid % literal)
