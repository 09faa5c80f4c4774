"""Join substrate: equi-join predicate and two join algorithms."""

from repro.join.hash_join import hash_join
from repro.join.nested_loop import nested_loop_join
from repro.join.predicates import EquiJoin

__all__ = ["EquiJoin", "hash_join", "nested_loop_join"]
