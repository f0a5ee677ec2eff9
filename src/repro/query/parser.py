"""Recursive-descent parser for the HDBL-like query subset.

Grammar (case-insensitive keywords)::

    query      := SELECT var [ '.' ident+ ]
                  FROM binding ( ',' binding )*
                  [ WHERE predicate ( AND predicate )* ]
                  FOR ( READ | UPDATE | DELETE )
                  [ SET assignment ( ',' assignment )* ]
    assignment := var '.' ident ( '.' ident )* '=' literal
    binding    := var IN ( ident | var '.' ident ( '.' ident )* )
    predicate  := var '.' ident ( '.' ident )* '=' literal
    literal    := 'string' | integer | float | TRUE | FALSE

Exactly enough to parse the paper's Q1/Q2/Q3 and the workloads' query
templates.  Inside a string literal, ``\\c`` stands for ``c`` for any
character ``c`` (so ``\\'`` is a quote and ``\\\\`` a backslash).

Texts that differ only in their string and number literals share a
*shape*.  :func:`parse_query` parses each shape once and re-binds the
parse to the literals of every later text of that shape: like section
4.1's analysis, the parse depends on a query's form, not its literals.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.errors import QueryError
from repro.query.ast import AccessKind, Assignment, Binding, Predicate, Query

_STRING = r"'(?:[^'\\]|\\.)*'"
_NUMBER = r"-?\d+(?:\.\d+)?"

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<string>%s)
      | (?P<number>%s)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[.,=])
    )
    """ % (_STRING, _NUMBER),
    re.VERBOSE,
)

#: the tokenizer's literals wherever they start; a digit run glued to a
#: word character is part of an identifier, never a number
_LITERAL_RE = re.compile(
    r"(?=['\d-])(%s|(?<![A-Za-z0-9_])%s)" % (_STRING, _NUMBER)
)

_ESCAPE_RE = re.compile(r"\\(.)")

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "FOR", "IN", "READ", "UPDATE",
             "DELETE", "SET", "TRUE", "FALSE"}

#: distinct shapes whose parse is kept, oldest dropped first
SHAPE_MEMO_SIZE = 256

#: shape text -> (parsed query of that shape, number of lifted literals)
_shapes: "OrderedDict[str, Tuple[Query, int]]" = OrderedDict()


def _literal_value(lexeme: str):
    """The value of one string or number literal as written in a query."""
    if lexeme[0] == "'":
        body = lexeme[1:-1]
        return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body
    return float(lexeme) if "." in lexeme else int(lexeme)


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        self.kind = kind
        self.value = value

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.value)


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise QueryError("cannot tokenize query at %r" % remainder[:20])
        position = match.end()
        if match.lastgroup in ("string", "number"):
            lexeme = match.group(match.lastgroup)
            tokens.append(_Token("literal", _literal_value(lexeme)))
        elif match.lastgroup == "ident":
            word = match.group("ident")
            if word.upper() in _KEYWORDS:
                if word.upper() == "TRUE":
                    tokens.append(_Token("literal", True))
                elif word.upper() == "FALSE":
                    tokens.append(_Token("literal", False))
                else:
                    tokens.append(_Token("keyword", word.upper()))
            else:
                tokens.append(_Token("ident", word))
        else:
            tokens.append(_Token("punct", match.group("punct")))
    return tokens


class _Parser:
    def __init__(self, tokens: List[_Token], text: str):
        self.tokens = tokens
        self.index = 0
        self.text = text

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query: %r" % self.text)
        self.index += 1
        return token

    def expect_keyword(self, word: str):
        token = self.next()
        if token.kind != "keyword" or token.value != word:
            raise QueryError("expected %s, got %r in %r" % (word, token, self.text))

    def expect_ident(self) -> str:
        token = self.next()
        if token.kind != "ident":
            raise QueryError("expected identifier, got %r" % (token,))
        return token.value

    def expect_punct(self, char: str):
        token = self.next()
        if token.kind != "punct" or token.value != char:
            raise QueryError("expected %r, got %r" % (char, token))

    def at_punct(self, char: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "punct" and token.value == char

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "keyword" and token.value == word

    def dotted_tail(self) -> Tuple[str, ...]:
        """Consume ``.ident`` repetitions."""
        parts: List[str] = []
        while self.at_punct("."):
            self.expect_punct(".")
            parts.append(self.expect_ident())
        return tuple(parts)


def parse_query(text: str) -> Query:
    """Parse one query; raises :class:`~repro.errors.QueryError` on errors.

    The text's string and number literals are lifted out in one regex
    pass; what is left is its shape.  A shape parsed before is re-bound
    to the new literals; any other text is parsed in full (so errors are
    those of the full parser) and its shape kept, up to
    :data:`SHAPE_MEMO_SIZE` shapes.
    """
    pieces = _LITERAL_RE.split(text)
    lexemes = pieces[1::2]
    shape = "?".join(pieces[0::2])
    known = _shapes.get(shape)
    # a count mismatch means a bare '?' in the text took a literal's place
    if known is not None and known[1] == len(lexemes):
        return _bind(known[0], [_literal_value(lexeme) for lexeme in lexemes])
    query = _parse(text)
    values = [_literal_value(lexeme) for lexeme in lexemes]
    # the lift agrees with the tokenizer on every text the parser accepts;
    # checked once per shape, so a disagreement costs a memo entry, never
    # a wrong parse
    if _lifted(query) == [(type(value), value) for value in values]:
        _shapes[shape] = (query, len(values))
        while len(_shapes) > SHAPE_MEMO_SIZE:
            _shapes.popitem(last=False)
        return _bind(query, values)
    return query


def _lifted(query: Query) -> list:
    """(type, value) of each literal the lifter takes out of the query's
    text, in text order: all but TRUE/FALSE, which are keywords."""
    return [
        (type(clause.value), clause.value)
        for clause in query.predicates + query.assignments
        if type(clause.value) is not bool
    ]


def _bind(template: Query, values: list) -> Query:
    """``template`` with its lifted literals replaced by ``values``: a copy
    sharing its validated parts and shape (neither reads a literal), with
    clause lists of its own."""
    values = iter(values)
    query = Query.__new__(Query)
    query.__dict__.update(
        template.__dict__,
        _shape=template.shape,
        predicates=[
            p if type(p.value) is bool else Predicate(p.var, p.path, next(values))
            for p in template.predicates
        ],
        assignments=[
            a if type(a.value) is bool else Assignment(a.var, a.path, next(values))
            for a in template.assignments
        ],
    )
    return query


def _parse(text: str) -> Query:
    parser = _Parser(_tokenize(text), text)
    parser.expect_keyword("SELECT")
    select_var = parser.expect_ident()
    select_path = parser.dotted_tail()

    parser.expect_keyword("FROM")
    bindings: List[Binding] = []
    while True:
        var = parser.expect_ident()
        parser.expect_keyword("IN")
        first = parser.expect_ident()
        tail = parser.dotted_tail()
        if tail:
            bindings.append(Binding(var, base_var=first, path=tail))
        else:
            bindings.append(Binding(var, relation=first))
        if parser.at_punct(","):
            parser.expect_punct(",")
            continue
        break

    predicates: List[Predicate] = []
    if parser.at_keyword("WHERE"):
        parser.expect_keyword("WHERE")
        while True:
            var = parser.expect_ident()
            path = parser.dotted_tail()
            parser.expect_punct("=")
            literal = parser.next()
            if literal.kind != "literal":
                raise QueryError("expected literal, got %r" % (literal,))
            predicates.append(Predicate(var, path, literal.value))
            if parser.at_keyword("AND"):
                parser.expect_keyword("AND")
                continue
            break

    parser.expect_keyword("FOR")
    access_token = parser.next()
    if access_token.kind != "keyword" or access_token.value not in AccessKind.ALL:
        raise QueryError("expected READ/UPDATE/DELETE, got %r" % (access_token,))

    assignments: List[Assignment] = []
    if parser.at_keyword("SET"):
        parser.expect_keyword("SET")
        while True:
            var = parser.expect_ident()
            path = parser.dotted_tail()
            parser.expect_punct("=")
            literal = parser.next()
            if literal.kind != "literal":
                raise QueryError("expected literal, got %r" % (literal,))
            assignments.append(Assignment(var, path, literal.value))
            if parser.at_punct(","):
                parser.expect_punct(",")
                continue
            break

    if parser.peek() is not None:
        raise QueryError("trailing tokens after query: %r" % (parser.peek(),))
    return Query(
        select_var, bindings, predicates, access_token.value, select_path,
        assignments=assignments,
    )
