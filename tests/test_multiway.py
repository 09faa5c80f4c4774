"""Tests for multi-way SkyMapJoin queries (3+ sources)."""

import numpy as np
import pytest

from repro.errors import BindingError, QueryError
from repro.query.expressions import Attr
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.multiway import (
    ChainJoin,
    MultiwayQuery,
)
from repro.query.smj import PassThrough
from repro.runtime.clock import VirtualClock
from repro.skyline.bnl import bnl_skyline_entries
from repro.skyline.preferences import ParetoPreference, highest, lowest
from repro.storage.table import Table


def three_tables(n=60, seed=2, keys=6):
    rng = np.random.default_rng(seed)

    def table(alias, prefix):
        rows = [
            (
                f"{alias}{i}",
                f"K{int(rng.integers(0, keys))}",
                float(rng.uniform(1, 100)),
                float(rng.uniform(1, 100)),
            )
            for i in range(n)
        ]
        return Table(alias, ["id", "jkey", f"{prefix}0", f"{prefix}1"], rows)

    return {"A": table("A", "a"), "B": table("B", "b"), "C": table("C", "c")}


def three_way_query():
    mappings = MappingSet(
        [
            MappingFunction(
                "x0", Attr("A", "a0") + Attr("B", "b0") + Attr("C", "c0")
            ),
            MappingFunction(
                "x1", Attr("A", "a1") + Attr("B", "b1") + Attr("C", "c1")
            ),
        ]
    )
    return MultiwayQuery(
        aliases=("A", "B", "C"),
        joins=(
            ChainJoin("A", "jkey", "B", "jkey"),
            ChainJoin("B", "jkey", "C", "jkey"),
        ),
        mappings=mappings,
        preference=ParetoPreference([lowest("x0"), lowest("x1")]),
        passthrough=(
            PassThrough("A", "id", "a_id"),
            PassThrough("B", "id", "b_id"),
            PassThrough("C", "id", "c_id"),
        ),
    )


def brute_force_skyline(tables, query):
    """Triple-loop oracle for the three-way skyline."""
    a_t, b_t, c_t = tables["A"], tables["B"], tables["C"]
    jk = {alias: tables[alias].schema.index("jkey") for alias in tables}
    candidates = []
    for ra in a_t.rows:
        for rb in b_t.rows:
            if ra[jk["A"]] != rb[jk["B"]]:
                continue
            for rc in c_t.rows:
                if rb[jk["B"]] != rc[jk["C"]]:
                    continue
                env = {}
                for alias, row in (("A", ra), ("B", rb), ("C", rc)):
                    for i, col in enumerate(tables[alias].schema.columns):
                        env[(alias, col)] = row[i]
                mapped = query.mappings.apply(env)
                candidates.append((mapped, (ra, rb, rc)))
    survivors = bnl_skyline_entries(candidates)
    return {payload for _, payload in survivors}


class TestValidation:
    def test_minimum_sources(self):
        with pytest.raises(QueryError, match="at least two"):
            MultiwayQuery(
                aliases=("A",),
                joins=(),
                mappings=three_way_query().mappings,
                preference=ParetoPreference([lowest("x0")]),
            )

    def test_join_count_checked(self):
        q = three_way_query()
        with pytest.raises(QueryError, match="chain joins"):
            MultiwayQuery(
                aliases=q.aliases,
                joins=q.joins[:1],
                mappings=q.mappings,
                preference=q.preference,
            )

    def test_chain_order_enforced(self):
        q = three_way_query()
        with pytest.raises(QueryError, match="must attach"):
            MultiwayQuery(
                aliases=q.aliases,
                joins=(q.joins[1], q.joins[0]),
                mappings=q.mappings,
                preference=q.preference,
            )

    def test_forward_reference_rejected(self):
        q = three_way_query()
        with pytest.raises(QueryError, match="before it is attached"):
            MultiwayQuery(
                aliases=q.aliases,
                joins=(
                    ChainJoin("C", "jkey", "B", "jkey"),  # C not attached yet
                    ChainJoin("B", "jkey", "C", "jkey"),
                ),
                mappings=q.mappings,
                preference=q.preference,
            )

    def test_unknown_mapping_alias(self):
        q = three_way_query()
        bad = MappingSet([MappingFunction("x0", Attr("Z", "a"))])
        with pytest.raises(QueryError, match="unknown alias"):
            MultiwayQuery(
                aliases=q.aliases,
                joins=q.joins,
                mappings=bad,
                preference=ParetoPreference([lowest("x0")]),
            )

    def test_bind_missing_table(self):
        q = three_way_query()
        tables = three_tables()
        del tables["C"]
        with pytest.raises(BindingError, match="no tables bound"):
            q.bind(tables)


class TestBlockingEvaluation:
    def test_matches_brute_force(self):
        tables = three_tables()
        query = three_way_query()
        bound = query.bind(tables)
        results = bound.evaluate_blocking()
        got = {tuple(r.rows[a] for a in ("A", "B", "C")) for r in results}
        assert got == brute_force_skyline(tables, query)

    def test_outputs_populated(self):
        bound = three_way_query().bind(three_tables())
        result = bound.evaluate_blocking()[0]
        assert set(result.outputs) == {"a_id", "b_id", "c_id", "x0", "x1"}

    def test_clock_charged(self):
        clock = VirtualClock()
        three_way_query().bind(three_tables()).evaluate_blocking(clock)
        assert clock.count("join_result") > 0
        assert clock.count("dominance_cmp") > 0


    def test_a_maximised_output_is_negated_in_the_vector(self):
        """The vector keeps the preferred outputs, each times its sign
        (``ParetoPreference.signs_for``); a spare output stays out."""
        query = three_way_query()
        query = MultiwayQuery(
            aliases=query.aliases,
            joins=query.joins,
            mappings=MappingSet([
                *query.mappings,
                MappingFunction("spare", Attr("A", "a0")),
            ]),
            preference=ParetoPreference([lowest("x0"), highest("x1")]),
        )
        results = query.bind(three_tables()).evaluate_blocking()
        assert results
        for result in results:
            x0, x1, _ = result.mapped
            assert result.vector == (x0, -x1)


class TestBinaryReduction:
    def test_reduction_matches_blocking(self):
        tables = three_tables()
        query = three_way_query()
        bound = query.bind(tables)
        blocking = bound.evaluate_blocking()
        progressive = list(bound.evaluate_progressive())
        assert {r.key() for r in progressive} == {r.key() for r in blocking}

    def test_progressive_provenance(self):
        tables = three_tables()
        bound = three_way_query().bind(tables)
        for result in bound.evaluate_progressive():
            # Every per-source row is a genuine row of its table.
            for alias, row in result.rows.items():
                assert row in set(tables[alias].rows)

    def test_progressive_safety_multiway(self):
        tables = three_tables(seed=5)
        query = three_way_query()
        bound = query.bind(tables)
        oracle = brute_force_skyline(tables, query)
        for result in bound.evaluate_progressive():
            key = tuple(result.rows[a] for a in ("A", "B", "C"))
            assert key in oracle

    def test_reduction_exposes_binary_bound(self):
        bound = three_way_query().bind(three_tables())
        binary, convert = bound.reduce_to_binary()
        assert binary.skyline_dimension_count == 2
        assert binary.left_table.name == "_merged"

    def test_two_source_multiway_equals_binary_smj(self):
        """With k=2 the multiway model degenerates to the paper's SMJ."""
        rng = np.random.default_rng(1)
        tables = {
            "A": Table(
                "A", ["id", "jkey", "a0"],
                [(f"A{i}", f"K{int(rng.integers(0, 4))}",
                  float(rng.uniform(1, 100))) for i in range(40)],
            ),
            "B": Table(
                "B", ["id", "jkey", "b0"],
                [(f"B{i}", f"K{int(rng.integers(0, 4))}",
                  float(rng.uniform(1, 100))) for i in range(40)],
            ),
        }
        query = MultiwayQuery(
            aliases=("A", "B"),
            joins=(ChainJoin("A", "jkey", "B", "jkey"),),
            mappings=MappingSet(
                [MappingFunction("x", Attr("A", "a0") + Attr("B", "b0"))]
            ),
            preference=ParetoPreference([lowest("x")]),
        )
        bound = query.bind(tables)
        blocking = bound.evaluate_blocking()
        progressive = list(bound.evaluate_progressive())
        assert {r.key() for r in progressive} == {r.key() for r in blocking}

    def test_four_sources(self):
        """The fold handles arbitrary chain length."""
        rng = np.random.default_rng(9)

        def small(alias, prefix):
            return Table(
                alias, ["id", "jkey", f"{prefix}0"],
                [(f"{alias}{i}", f"K{int(rng.integers(0, 3))}",
                  float(rng.uniform(1, 100))) for i in range(15)],
            )

        tables = {a: small(a, p) for a, p in
                  (("A", "a"), ("B", "b"), ("C", "c"), ("D", "d"))}
        query = MultiwayQuery(
            aliases=("A", "B", "C", "D"),
            joins=(
                ChainJoin("A", "jkey", "B", "jkey"),
                ChainJoin("B", "jkey", "C", "jkey"),
                ChainJoin("C", "jkey", "D", "jkey"),
            ),
            mappings=MappingSet(
                [
                    MappingFunction(
                        "x",
                        Attr("A", "a0") + Attr("B", "b0")
                        + Attr("C", "c0") + Attr("D", "d0"),
                    ),
                    MappingFunction("y", Attr("A", "a0") + Attr("D", "d0")),
                ]
            ),
            preference=ParetoPreference([lowest("x"), lowest("y")]),
        )
        bound = query.bind(tables)
        blocking = bound.evaluate_blocking()
        progressive = list(bound.evaluate_progressive())
        assert {r.key() for r in progressive} == {r.key() for r in blocking}
        assert blocking  # join must be non-trivial
