"""Tests for the Map operator, derived preferences and the SMJ query model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BindingError, QueryError
from repro.query.expressions import Attr, BinOp, Const, Neg
from repro.query.intervals import Interval
from repro.query.mapping import MappingFunction, MappingSet
from repro.query.smj import (
    FilterCondition,
    JoinCondition,
    PassThrough,
    SkyMapJoinQuery,
)
from repro.skyline.preferences import (
    Direction,
    ParetoPreference,
    highest,
    lowest,
)
from repro.storage.table import Table


def q1_mappings() -> MappingSet:
    return MappingSet(
        [
            MappingFunction("tCost", Attr("R", "uPrice") + Attr("T", "uShipCost")),
            MappingFunction("delay", 2 * Attr("R", "manTime") + Attr("T", "shipTime")),
        ]
    )


class TestMappingSet:
    def test_names_and_dimensions(self):
        ms = q1_mappings()
        assert ms.names == ("tCost", "delay")
        assert ms.dimensions == 2

    def test_duplicate_names_rejected(self):
        f = MappingFunction("x", Attr("R", "a"))
        with pytest.raises(QueryError, match="duplicate"):
            MappingSet([f, MappingFunction("x", Attr("T", "b"))])

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            MappingSet([])

    def test_lookup(self):
        ms = q1_mappings()
        assert ms["tCost"].name == "tCost"
        with pytest.raises(QueryError, match="no mapping named"):
            ms["nope"]

    def test_apply(self):
        env = {
            ("R", "uPrice"): 10.0,
            ("T", "uShipCost"): 5.0,
            ("R", "manTime"): 3.0,
            ("T", "shipTime"): 4.0,
        }
        assert q1_mappings().apply(env) == (15.0, 10.0)

    def test_apply_intervals_matches_paper_example_1(self):
        # Paper Example 1: R-partition [(0,4)(1,5)], T-partition [(3,1)(4,2)]
        # under per-dimension addition maps to the region with lower corner
        # b(3,5).  (The paper prints the upper corner as B(6,7); the sum of
        # its own bounds gives (5,7) — x = 1+4 = 5 — so we assert the
        # arithmetic, not the typo.)
        ms = MappingSet(
            [
                MappingFunction("x", Attr("R", "a0") + Attr("T", "b0")),
                MappingFunction("y", Attr("R", "a1") + Attr("T", "b1")),
            ]
        )
        env = {
            ("R", "a0"): Interval(0, 1),
            ("R", "a1"): Interval(4, 5),
            ("T", "b0"): Interval(3, 4),
            ("T", "b1"): Interval(1, 2),
        }
        lows, highs = ms.apply_intervals(env)
        assert lows == (3.0, 5.0)
        assert highs == (5.0, 7.0)

    def test_source_attributes(self):
        ms = q1_mappings()
        assert ms.source_attributes("R") == ("manTime", "uPrice")
        assert ms.source_attributes("T") == ("shipTime", "uShipCost")
        assert ms.source_attributes("X") == ()


class TestDerivedPreference:
    def test_q1_derivation(self):
        ms = q1_mappings()
        pref = ParetoPreference([lowest("tCost"), lowest("delay")])
        left = ms.derived_source_preference("R", pref)
        assert left is not None
        assert {(p.attribute, p.direction) for p in left} == {
            ("uPrice", Direction.LOWEST),
            ("manTime", Direction.LOWEST),
        }

    def test_highest_output_flips(self):
        ms = MappingSet([MappingFunction("profit", Attr("R", "margin"))])
        pref = ParetoPreference([highest("profit")])
        derived = ms.derived_source_preference("R", pref)
        assert derived.preferences[0].direction is Direction.HIGHEST

    def test_negated_attribute_flips(self):
        ms = MappingSet([MappingFunction("score", -Attr("R", "quality"))])
        pref = ParetoPreference([lowest("score")])
        derived = ms.derived_source_preference("R", pref)
        assert derived.preferences[0].direction is Direction.HIGHEST

    def test_conflicting_directions_unsafe(self):
        ms = MappingSet(
            [
                MappingFunction("x", Attr("R", "a")),
                MappingFunction("y", -Attr("R", "a")),
            ]
        )
        pref = ParetoPreference([lowest("x"), lowest("y")])
        assert ms.derived_source_preference("R", pref) is None

    def test_non_monotone_unsafe(self):
        ms = MappingSet([MappingFunction("x", Attr("R", "a") * Attr("T", "b"))])
        pref = ParetoPreference([lowest("x")])
        assert ms.derived_source_preference("R", pref) is None

    def test_unused_source_gives_none(self):
        ms = MappingSet([MappingFunction("x", Attr("R", "a"))])
        pref = ParetoPreference([lowest("x")])
        assert ms.derived_source_preference("T", pref) is None

    def test_non_preference_mapping_ignored(self):
        ms = MappingSet(
            [
                MappingFunction("x", Attr("R", "a")),
                MappingFunction("display", -Attr("R", "a")),  # not preferred
            ]
        )
        pref = ParetoPreference([lowest("x")])
        derived = ms.derived_source_preference("R", pref)
        assert derived.preferences[0].direction is Direction.LOWEST


def make_query(**overrides):
    defaults = dict(
        left_alias="R",
        right_alias="T",
        join=JoinCondition("country", "country"),
        mappings=q1_mappings(),
        preference=ParetoPreference([lowest("tCost"), lowest("delay")]),
        passthrough=(PassThrough("R", "id", "supplier"),),
    )
    defaults.update(overrides)
    return SkyMapJoinQuery(**defaults)


def make_tables():
    suppliers = Table.from_rows(
        "suppliers",
        ["id", "country", "uPrice", "manTime"],
        [("s1", "us", 10.0, 2.0), ("s2", "us", 5.0, 8.0), ("s3", "de", 1.0, 1.0)],
    )
    transporters = Table.from_rows(
        "transporters",
        ["id", "country", "uShipCost", "shipTime"],
        [("t1", "us", 3.0, 4.0), ("t2", "de", 2.0, 2.0)],
    )
    return {"R": suppliers, "T": transporters}


class TestSkyMapJoinQuery:
    def test_same_alias_rejected(self):
        with pytest.raises(QueryError):
            make_query(right_alias="R")

    def test_preference_must_reference_mapping(self):
        with pytest.raises(QueryError, match="no mapping defines"):
            make_query(preference=ParetoPreference([lowest("zzz")]))

    def test_filter_alias_validated(self):
        with pytest.raises(QueryError, match="unknown alias"):
            make_query(filters=(FilterCondition("Z", "x", "=", 1),))

    def test_passthrough_alias_validated(self):
        with pytest.raises(QueryError, match="unknown alias"):
            make_query(passthrough=(PassThrough("Z", "x", "x"),))

    def test_mapping_alias_validated(self):
        bad = MappingSet([MappingFunction("tCost", Attr("Z", "a"))])
        with pytest.raises(QueryError, match="unknown alias"):
            make_query(
                mappings=bad, preference=ParetoPreference([lowest("tCost")])
            )

    def test_filter_operator_validated(self):
        with pytest.raises(QueryError, match="unsupported filter operator"):
            FilterCondition("R", "x", "~~", 1)


class TestBoundQuery:
    def test_bind_missing_alias(self):
        with pytest.raises(BindingError, match="no table bound"):
            make_query().bind({"R": make_tables()["R"]})

    def test_bind_by_table_name_requires_from_clause(self):
        with pytest.raises(BindingError, match="FROM-clause"):
            make_query().bind_by_table_name({})

    def test_filters_applied_at_bind(self):
        q = make_query(filters=(FilterCondition("R", "uPrice", "<", 6.0),))
        bound = q.bind(make_tables())
        assert len(bound.left_table) == 2  # s2 and s3

    def test_empty_after_filter_rejected(self):
        q = make_query(filters=(FilterCondition("R", "uPrice", ">", 999.0),))
        with pytest.raises(BindingError, match="no rows after filters"):
            q.bind(make_tables())

    def test_map_pair_and_vector(self):
        bound = make_query().bind(make_tables())
        lrow = bound.left_table.rows[0]  # s1: uPrice 10, manTime 2
        rrow = bound.right_table.rows[0]  # t1: uShipCost 3, shipTime 4
        mapped = bound.map_pair(lrow, rrow)
        assert mapped == (13.0, 8.0)
        assert bound.vector_of(mapped) == (13.0, 8.0)

    def test_vector_negates_highest(self):
        q = make_query(
            preference=ParetoPreference([lowest("tCost"), highest("delay")])
        )
        bound = q.bind(make_tables())
        assert bound.vector_of((13.0, 8.0)) == (13.0, -8.0)

    def test_non_preference_mapping_excluded_from_vector(self):
        q = make_query(preference=ParetoPreference([lowest("tCost")]))
        bound = q.bind(make_tables())
        assert bound.vector_of((13.0, 8.0)) == (13.0,)
        assert bound.skyline_dimension_count == 1

    def test_make_result_outputs(self):
        bound = make_query().bind(make_tables())
        lrow = bound.left_table.rows[0]
        rrow = bound.right_table.rows[0]
        result = bound.make_result(lrow, rrow)
        assert result.outputs["supplier"] == "s1"
        assert result.outputs["tCost"] == 13.0
        assert result.key() == (lrow, rrow)

    def test_region_box_normalises_highest(self):
        q = make_query(
            preference=ParetoPreference([lowest("tCost"), highest("delay")])
        )
        bound = q.bind(make_tables())
        lo, hi = bound.region_box(
            {"uPrice": (0.0, 1.0), "manTime": (0.0, 1.0)},
            {"uShipCost": (0.0, 1.0), "shipTime": (0.0, 1.0)},
        )
        # delay in [0, 3] maximised -> normalised interval [-3, 0].
        assert lo == (0.0, -3.0)
        assert hi == (2.0, 0.0)

    def test_bind_by_table_name(self):
        q = make_query(table_names=(("R", "suppliers"), ("T", "transporters")))
        tables = make_tables()
        bound = q.bind_by_table_name(
            {"suppliers": tables["R"], "transporters": tables["T"]}
        )
        assert len(bound.left_table) == 3

    def test_bind_by_table_name_missing(self):
        q = make_query(table_names=(("R", "suppliers"), ("T", "transporters")))
        with pytest.raises(BindingError, match="no table named"):
            q.bind_by_table_name({"suppliers": make_tables()["R"]})


# ----------------------------------------------------------------------
# batched region boxes: one expression walk for a block of partition pairs
# ----------------------------------------------------------------------
LEFT_ATTRS = ("uPrice", "manTime")
RIGHT_ATTRS = ("uShipCost", "shipTime")

leaves = st.one_of(
    st.sampled_from(
        [Attr("R", a) for a in LEFT_ATTRS] + [Attr("T", a) for a in RIGHT_ATTRS]
    ),
    # Constants and weights of either sign, zero included.
    st.sampled_from([-3.0, -1.0, -0.3, 0.0, 0.1, 2.0, 7.0]).map(Const),
)
expressions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), inner, inner),
    ),
    max_leaves=6,
)
# Quarter steps: a divisor interval is either away from zero by >= 0.25 or
# contains it, so no walk overflows into inf/NaN (where min() and
# np.minimum legitimately part ways).
endpoint = st.integers(min_value=-80, max_value=80).map(lambda v: v / 4)


@st.composite
def partition_boxes(draw, attributes):
    """1–3 partition boxes: ``attribute -> (lo, hi)`` each."""
    return [
        {
            a: tuple(sorted((draw(endpoint), draw(endpoint))))
            for a in attributes
        }
        for _ in range(draw(st.integers(1, 3)))
    ]


class TestRegionBoxes:
    @given(
        first=expressions,
        second=st.one_of(expressions, st.just(Const(5.0))),
        directions=st.tuples(st.booleans(), st.booleans()),
        left_boxes=partition_boxes(LEFT_ATTRS),
        right_boxes=partition_boxes(RIGHT_ATTRS),
    )
    @settings(max_examples=150, deadline=None)
    def test_equal_region_box_pair_by_pair(
        self, first, second, directions, left_boxes, right_boxes
    ):
        prefs = [
            (lowest if low else highest)(name)
            for name, low in zip(("tCost", "delay"), directions)
        ]
        bound = make_query(
            mappings=MappingSet(
                [MappingFunction("tCost", first), MappingFunction("delay", second)]
            ),
            preference=ParetoPreference(prefs),
        ).bind(make_tables())
        want, raised = {}, set()
        for i, lb in enumerate(left_boxes):
            for j, rb in enumerate(right_boxes):
                try:
                    want[i, j] = bound.region_box(lb, rb)
                except (ValueError, ZeroDivisionError) as exc:
                    raised.add(type(exc))
        if raised:
            # The block fails exactly when some pair's scalar walk does.
            with pytest.raises(tuple(raised)):
                bound.region_boxes(left_boxes, right_boxes)
            return
        lowers, uppers = bound.region_boxes(left_boxes, right_boxes)
        assert lowers.shape == uppers.shape == (
            len(left_boxes), len(right_boxes), 2
        )
        for (i, j), (lo, hi) in want.items():
            assert tuple(lowers[i, j].tolist()) == lo
            assert tuple(uppers[i, j].tolist()) == hi

    def test_malformed_box_raises_like_the_scalar_form(self):
        bound = make_query().bind(make_tables())
        good = {"uPrice": (0.0, 1.0), "manTime": (0.0, 1.0)}
        bad = {"uPrice": (2.0, 1.0), "manTime": (0.0, 1.0)}
        right = [{"uShipCost": (0.0, 1.0), "shipTime": (0.0, 1.0)}]
        with pytest.raises(ValueError):
            bound.region_box(bad, right[0])
        with pytest.raises(ValueError):
            bound.region_boxes([good, bad], right)
