"""Query substrate: expressions, intervals, mappings, the SMJ model and parser."""

from repro.query.expressions import Attr, BinOp, Const, Expression, Neg
from repro.query.intervals import Interval
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.multiway import (
    BoundMultiwayQuery,
    ChainJoin,
    MultiwayQuery,
    MultiwayResult,
)
from repro.query.parser import (
    parse_condition,
    parse_expression,
    parse_preference,
    parse_query,
)
from repro.query.smj import (
    BoundQuery,
    FilterCondition,
    JoinCondition,
    PassThrough,
    ResultTuple,
    SkyMapJoinQuery,
)

__all__ = [
    "Attr",
    "BinOp",
    "BoundMultiwayQuery",
    "BoundQuery",
    "ChainJoin",
    "Const",
    "MultiwayQuery",
    "MultiwayResult",
    "Expression",
    "FilterCondition",
    "Interval",
    "JoinCondition",
    "MappingFunction",
    "MappingSet",
    "Neg",
    "ParseError",
    "PassThrough",
    "ResultTuple",
    "SkyMapJoinQuery",
    "parse_condition",
    "parse_expression",
    "parse_preference",
    "parse_query",
]

from repro.errors import ParseError  # noqa: E402  (re-export for convenience)
