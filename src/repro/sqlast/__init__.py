"""SQL front-end: lexer, parser, AST nodes, printer, and alignment.

Quick use::

    from repro.sqlast import parse, to_sql
    ast = parse("SELECT sales FROM sales WHERE cty = 'USA'")
    print(to_sql(ast))
"""

from . import nodes
from .align import align_children, align_key, alignable, count_differences, diff_paths
from .errors import LexError, ParseError, SqlError
from .lexer import Token, tokenize
from .nodes import Node
from .parser import parse, parse_many
from .printer import to_sql

__all__ = [
    "nodes",
    "Node",
    "Token",
    "tokenize",
    "parse",
    "parse_many",
    "to_sql",
    "align_children",
    "align_key",
    "alignable",
    "diff_paths",
    "count_differences",
    "SqlError",
    "LexError",
    "ParseError",
]
