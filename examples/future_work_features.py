"""The paper's §8 future-work list, implemented and demonstrated.

Run with::

    python examples/future_work_features.py

Shows the four extensions the paper's conclusions call for:

1. **descriptive level properties** — per-capita sales comparisons using a
   country-population property bound to the store dimension;
2. **partial-statement completion** — the system fills in missing
   ``using``/``labels`` clauses and ranks the candidates by interest;
3. **ancestor benchmarks** — assess milk against its whole category;
4. **cost-based optimization** — ``plan="auto"`` picks the cheapest
   feasible plan from catalog statistics;

plus materialized views, which the paper's experimental setup relied on.
"""

from repro import AssessSession, complete_statement
from repro.algebra.cost import choose_plan
from repro.datagen import sales_engine


def main() -> None:
    session = AssessSession(sales_engine(n_rows=50_000))

    # ------------------------------------------------------------------
    print("=== 1. level properties: per-capita sales, Italy vs France ===")
    result = session.assess("""
        with SALES for country = 'Italy' by product, country
        assess quantity against country = 'France'
        using ratio(quantity / population,
                    benchmark.quantity / benchmark.population)
        labels {[0, 0.9): lagging, [0.9, 1.1]: similar, (1.1, inf): leading}
    """)
    print(result.to_table(limit=5))
    print(f"labels: {result.label_counts()}")

    # ------------------------------------------------------------------
    print("\n=== 2. partial-statement completion ===")
    partial = """
        with SALES for type = 'Fresh Fruit', country = 'Italy'
        by product, country
        assess quantity against country = 'France'
    """
    print("partial statement (no using, no labels):")
    print("   " + " ".join(partial.split()))
    for rank, completion in enumerate(complete_statement(session, partial), 1):
        using = completion.statement.using.render()
        labels = completion.statement.labels.render()
        print(f"  #{rank} score={completion.score:.3f}  using {using}")
        print(f"      labels {labels}   ({completion.rationale})")

    # ------------------------------------------------------------------
    print("\n=== 3. ancestor benchmark: each drink vs the Drinks category ===")
    result = session.assess("""
        with SALES for category = 'Drinks' by product
        assess quantity against ancestor category
        using percentage(quantity, benchmark.quantity)
        labels {[0, 25): minor, [25, 50): notable, [50, 100]: dominant}
    """)
    print(result.to_table())

    # ------------------------------------------------------------------
    print("\n=== 4. cost-based plan choice ===")
    statement = session.parse("""
        with SALES for month = '1997-07' by month, store
        assess storeSales against past 4
        using ratio(storeSales, benchmark.storeSales)
        labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}
    """)
    plan, totals = choose_plan(statement, session.engine)
    print(f"estimated costs: " + ", ".join(
        f"{name}={cost:,.0f}" for name, cost in sorted(totals.items())
    ))
    print(f"chosen plan: {plan.name}")
    result = session.assess(statement, plan="auto")
    print(f"executed with {result.plan_name} in {1000 * result.total_time():.1f} ms")

    # ------------------------------------------------------------------
    print("\n=== 5. materialized views ===")
    sibling = """
        with SALES for country = 'Italy' by product, country
        assess quantity against country = 'France'
        using difference(quantity, benchmark.quantity)
        labels {[-inf, 0): behind, [0, inf): ahead}
    """
    # A view is a pinned entry of the result cache: clear the cache before
    # each run so the first reads the fact table and the second the view.
    cache = session.engine.result_cache
    cache.clear()
    before = session.assess(sibling, plan="POP")
    view = session.engine.materialize("SALES", ["product", "country"])
    cache.clear()
    after = session.assess(sibling, plan="POP")
    print(f"created {view}")
    print(f"POP without view: {1000 * before.total_time():.1f} ms; "
          f"with view: {1000 * after.total_time():.1f} ms")
    cache.clear()
    report = session.explain_analyze(sibling, plan="POP")
    print("provenance with the view:", sorted(
        {a.provenance for a in report.annotations[0] if a.provenance}
    ))
    assert before.label_counts() == after.label_counts()

    # ------------------------------------------------------------------
    print("\n=== 6. view advisor over a repeated workload ===")
    from repro.olap import advise_views

    workload = [session.parse(sibling), session.parse(statement.render()),
                session.parse(sibling)]
    for recommendation in advise_views(session.engine, workload):
        print(f"  {recommendation}")


if __name__ == "__main__":
    main()
