"""The SQL we print, run on stdlib ``sqlite3``: an oracle for pushed queries.

``AssessSession.pushed_sql`` renders every query a plan pushes to the
DBMS (Listings 1 and 4 of the paper); Table 1 counts those characters and
EXPLAIN prints them.  Here the SSB demo star is loaded into an in-memory
sqlite database, each statement runs unmodified, and its rows must equal
the engine's answer to the same pushed query: group keys and integral
measures (``quantity``) exactly, fractional ones (``revenue``,
``expected_revenue``) within a relative 1e-9, since sqlite sums in its
own row order.  sqlite is a test oracle here, not a backend.

Past JOP's SQL returns one row per benchmark match (72 rows for 44 cells
at this size): the engine's fan-in join slots each target cell's matches
into one column per past month.  The SQL does not select the benchmark's
month, so its rows are folded per target cell and compared with the
cell's filled slots as a set.  Out of scope: POP's Oracle ``pivot (...)``
clause is a sqlite syntax error.
"""

from __future__ import annotations

import math
import sqlite3

import numpy as np
import pytest

from repro.algebra.plan import GetNode, JoinNode
from repro.algebra.planner import build_plan
from repro.api import AssessSession
from repro.experiments.statements import demo_engine, statement_text

ROWS = 6_000
REL_TOL = 1e-9
SIBLING_QUANTITY = statement_text("Sibling").replace("revenue", "quantity")
CASES = [
    pytest.param(statement_text("Constant"), "NP", 5_961, id="Constant-NP"),
    pytest.param(statement_text("External"), "NP", 5_300, id="External-NP"),
    pytest.param(statement_text("External"), "JOP", 5_300, id="External-JOP"),
    pytest.param(statement_text("Sibling"), "JOP", 236, id="Sibling-JOP"),
    pytest.param(SIBLING_QUANTITY, "JOP", 236, id="Sibling-quantity-JOP"),
]
"""(statement, plan, rows of its first pushed query: the join, or the
target get)."""


@pytest.fixture(scope="module")
def star():
    engine = demo_engine("ssb", ROWS)
    connection = sqlite3.connect(":memory:")
    for table in engine.catalog:
        columns = table.column_names
        connection.execute(f"create table {table.name} ({', '.join(columns)})")
        connection.executemany(
            f"insert into {table.name} values "
            f"({', '.join('?' * len(columns))})",
            zip(*(table.column(column).tolist() for column in columns)),
        )
    yield AssessSession(engine), connection
    connection.close()


def pushed_queries(engine, plan):
    """``(sql, engine cube)`` per pushed query, in ``pushed_sql`` order:
    the pushed drill-across joins, then the gets they do not consume."""
    queries, consumed = [], set()
    for node in plan.nodes():
        if isinstance(node, JoinNode) and node.pushed:
            args = (node.left.query, node.right.query, node.join_levels)
            options = {"alias": node.alias, "outer": node.outer}
            queries.append((engine.sql_for_drill_across(*args, **options),
                            engine.drill_across(*args, **options)))
            consumed |= {id(node.left), id(node.right)}
    queries += [
        (engine.sql_for_get(node.query), engine.get(node.query))
        for node in plan.nodes()
        if isinstance(node, GetNode) and id(node) not in consumed
    ]
    return queries


def engine_rows(cube, columns, alias):
    """The cube as ``{group key: measures}`` in the SQL column order, and
    per measure whether every value is whole (so sums are exact)."""
    keys = [column for column in columns if column in cube.coords]
    measures = [column.replace("bc_", f"{alias}.", 1)
                for column in columns if column not in cube.coords]
    arrays = [cube.coords[key].tolist() for key in keys]
    values = [cube.measure(name) for name in measures]
    return {
        tuple(array[row] for array in arrays):
            tuple(column[row].item() for column in values)
        for row in range(len(cube))
    }, [bool(np.all(np.mod(column, 1) == 0)) for column in values]


@pytest.mark.parametrize("text, plan_name, rows", CASES)
def test_pushed_sql_matches_the_engine(star, text, plan_name, rows):
    session, connection = star
    statement = session.parse(text)
    plan = build_plan(statement, session.engine, plan_name)
    queries = pushed_queries(session.engine, plan)
    assert [sql for sql, _ in queries] == session.pushed_sql(plan)
    alias = next((node.alias for node in plan.nodes()
                  if isinstance(node, JoinNode)), "benchmark")
    counts = []
    for sql, cube in queries:
        cursor = connection.execute(sql)
        columns = [description[0] for description in cursor.description]
        expected, integral = engine_rows(cube, columns, alias)
        width = len(columns) - len(integral)
        fetched = cursor.fetchall()
        got = {tuple(row[:width]): row[width:] for row in fetched}
        assert len(got) == len(fetched), f"duplicate group keys: {sql}"
        counts.append(len(got))
        assert got.keys() == expected.keys(), sql
        for key, values in got.items():
            for value, want, exact in zip(values, expected[key], integral):
                if exact:
                    assert value == want, (sql, key)
                else:
                    assert math.isclose(value, want, rel_tol=REL_TOL), (sql, key)
    assert counts[0] == rows


def test_past_jop_sql_fans_in_to_the_engine_join(star):
    """The rendered Past JOP drill-across, folded into one row per target
    cell, holds exactly the matches the engine's fan-in join slots."""
    session, connection = star
    plan = build_plan(session.parse(statement_text("Past")), session.engine, "JOP")
    (join,) = [node for node in plan.nodes() if isinstance(node, JoinNode)]
    assert join.pushed and join.multi
    (sql,) = session.pushed_sql(plan)
    cube = session.engine.drill_across(
        join.left.query, join.right.query, join.join_levels,
        alias=join.alias, outer=join.outer, multi=join.multi,
    )
    rows = connection.execute(sql).fetchall()
    fanned = {}
    for month, customer, revenue, benchmark in rows:
        fanned.setdefault((month, customer), (revenue, []))[1].append(benchmark)
    assert (len(rows), len(fanned), len(cube)) == (72, 44, 44)
    slots = [name for name in cube.measure_names if name.startswith(join.alias)]
    assert len(slots) == 4
    for row, coordinate in enumerate(cube.coordinates()):
        revenue, matches = fanned[coordinate]
        assert math.isclose(revenue, cube.measure("revenue")[row], rel_tol=REL_TOL)
        filled = sorted(
            value for value in (cube.measure(slot)[row] for slot in slots)
            if not math.isnan(value)
        )
        assert len(matches) == len(filled), coordinate
        for got, want in zip(sorted(matches), filled):
            assert math.isclose(got, want, rel_tol=REL_TOL), coordinate
