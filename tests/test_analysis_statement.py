"""Statement-pass tests: every ASSESS0xx/1xx code has a positive test
(asserting the code *and* its source span) and negative coverage via clean
statements that must produce zero diagnostics."""

from __future__ import annotations

import pytest

from repro.analysis import AnalysisContext, analyze_text
from repro.core.diagnostics import Severity
from repro.core.errors import ValidationError
from repro.parser.parser import parse_statement


@pytest.fixture(scope="module")
def ctx(sales, ssb):
    """Strict context resolving both demo engines (SALES, SSB + BUDGET)."""
    return AnalysisContext.for_engines([sales, ssb])


@pytest.fixture(scope="module")
def schema_only_ctx(sales):
    """Schemas but no engine: level properties cannot be checked."""
    return AnalysisContext(schemas={"SALES": sales.cube("SALES").schema})


def diags(text, ctx, code):
    _, bag = analyze_text(text, ctx)
    matches = [d for d in bag if d.code == code]
    assert matches, f"expected {code}, got {bag.codes()}"
    return matches


def diag(text, ctx, code):
    return diags(text, ctx, code)[0]


def spanned_text(text, diagnostic):
    assert diagnostic.span is not None, f"{diagnostic.code} carries no span"
    return text[diagnostic.span.start:diagnostic.span.end]


COMPLETE_LABELS = "labels {(-inf, 0.9): bad, [0.9, 1.1]: ok, (1.1, inf): good}"

CLEAN_SIBLING = (
    "with SALES for country = 'Italy' by product, country\n"
    "assess quantity against country = 'France'\n"
    "using ratio(quantity, benchmark.quantity)\n" + COMPLETE_LABELS
)

CLEAN_ZERO = (
    "with SALES by month assess quantity "
    "labels {(-inf, 0]: low, (0, inf): high}"
)

CLEAN_EXTERNAL = (
    "with SSB by month, category assess revenue "
    "against BUDGET.expected_revenue "
    "using difference(revenue, benchmark.expected_revenue) "
    + COMPLETE_LABELS
)


# ----------------------------------------------------------------------
# Negative coverage: clean statements produce zero diagnostics.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "text", [CLEAN_SIBLING, CLEAN_ZERO, CLEAN_EXTERNAL], ids=["sibling", "zero", "external"]
)
def test_clean_statement_has_no_diagnostics(text, ctx):
    statement, bag = analyze_text(text, ctx)
    assert bag.codes() == ()
    assert statement is not None  # binding succeeded too


# ----------------------------------------------------------------------
# ASSESS001 — syntax; binding after a clean check
# ----------------------------------------------------------------------
def test_syntax_error_is_assess001(ctx):
    statement, bag = analyze_text("with with with", ctx)
    assert statement is None
    assert bag.codes() == ("ASSESS001",)
    assert bag.has_errors


def test_bind_failure_after_clean_check_propagates(monkeypatch, schema_only_ctx):
    # Binding only resolves names; a failure after a clean check is a
    # checker defect, so it propagates instead of becoming a diagnostic.
    import repro.analysis.statement_passes as statement_passes

    def failing_binder(raw, schema):
        raise RuntimeError("binder defect")

    monkeypatch.setattr(statement_passes, "bind_statement", failing_binder)
    with pytest.raises(RuntimeError, match="binder defect"):
        analyze_text(CLEAN_ZERO, schema_only_ctx)


# ----------------------------------------------------------------------
# ASSESS101 — unknown cube
# ----------------------------------------------------------------------
def test_unknown_cube_strict(ctx):
    text = "with NOPE by month assess quantity labels quartiles"
    d = diag(text, ctx, "ASSESS101")
    assert d.severity is Severity.ERROR
    assert spanned_text(text, d) == "NOPE"


def test_unknown_cube_permissive_is_info(sales):
    permissive = AnalysisContext(
        schemas={"SALES": sales.cube("SALES").schema}, strict=False
    )
    text = "with NOPE by month assess quantity labels quartiles"
    d = diag(text, permissive, "ASSESS101")
    assert d.severity is Severity.INFO
    _, bag = analyze_text(text, permissive)
    assert not bag.has_errors


def test_no_resolver_skips_cube_checks():
    _, bag = analyze_text(
        "with NOPE by month assess quantity labels quartiles",
        AnalysisContext(schemas=None),
    )
    assert "ASSESS101" not in bag.codes()


# ----------------------------------------------------------------------
# ASSESS102 / ASSESS103 — by clause
# ----------------------------------------------------------------------
def test_unknown_by_level(ctx):
    text = "with SALES by mnth assess quantity labels quartiles"
    d = diag(text, ctx, "ASSESS102")
    assert spanned_text(text, d) == "mnth"


def test_two_levels_of_same_hierarchy(ctx):
    text = "with SALES by product, type assess quantity labels quartiles"
    d = diag(text, ctx, "ASSESS103")
    assert spanned_text(text, d) == "type"
    assert "Product" in d.message


# ----------------------------------------------------------------------
# ASSESS104 — unknown measure
# ----------------------------------------------------------------------
def test_unknown_measure(ctx):
    text = "with SALES by month assess bogus labels quartiles"
    d = diag(text, ctx, "ASSESS104")
    assert spanned_text(text, d) == "bogus"
    assert "quantity" in d.hint


# ----------------------------------------------------------------------
# ASSESS105 / ASSESS106 / ASSESS107 — for clause
# ----------------------------------------------------------------------
def test_predicate_on_unknown_level(ctx):
    text = "with SALES for nolevel = 'x' by month assess quantity labels quartiles"
    d = diag(text, ctx, "ASSESS105")
    assert spanned_text(text, d) == "nolevel"


def test_duplicate_predicate_warns(ctx):
    text = (
        "with SALES for country = 'Italy', country = 'Italy' "
        "by product assess quantity labels quartiles"
    )
    d = diag(text, ctx, "ASSESS106")
    assert d.severity is Severity.WARNING
    assert spanned_text(text, d).startswith("country")


def test_contradictory_predicates(ctx):
    text = (
        "with SALES for country = 'Italy', country = 'France' "
        "by product assess quantity labels quartiles"
    )
    d = diag(text, ctx, "ASSESS107")
    assert d.severity is Severity.ERROR
    assert "'Italy'" in d.message and "'France'" in d.message


def test_overlapping_in_predicates_are_compatible(ctx):
    text = (
        "with SALES for country in ('Italy', 'France'), country = 'Italy' "
        "by product assess quantity labels quartiles"
    )
    _, bag = analyze_text(text, ctx)
    assert "ASSESS107" not in bag.codes()


# ----------------------------------------------------------------------
# ASSESS110 / ASSESS111 / ASSESS112 — external benchmarks
# ----------------------------------------------------------------------
def test_unknown_external_cube(ctx):
    text = (
        "with SSB by month assess revenue against NOCUBE.expected "
        "labels quartiles"
    )
    d = diag(text, ctx, "ASSESS110")
    assert "NOCUBE" in spanned_text(text, d)


def test_external_cube_not_joinable(ctx):
    # The demo BUDGET cube lives at (month, category); 'year' is missing.
    text = (
        "with SSB by year assess revenue against BUDGET.expected_revenue "
        "using difference(revenue, benchmark.expected_revenue) labels quartiles"
    )
    d = diag(text, ctx, "ASSESS111")
    assert "'year'" in d.message and "Definition 3.1" in d.message
    assert "BUDGET" in spanned_text(text, d)


def test_external_measure_unknown(ctx):
    text = (
        "with SSB by month, category assess revenue against BUDGET.bogus "
        "using difference(revenue, benchmark.bogus) labels quartiles"
    )
    d = diag(text, ctx, "ASSESS112")
    assert "expected_revenue" in d.hint
    _, bag = analyze_text(text, ctx)
    assert "ASSESS111" not in bag.codes()  # joinable, just the wrong measure


# ----------------------------------------------------------------------
# ASSESS113 — sibling benchmarks
# ----------------------------------------------------------------------
def test_sibling_level_not_in_by_clause(ctx):
    text = (
        "with SALES for country = 'Italy' by product "
        "assess quantity against country = 'France' labels quartiles"
    )
    d = diag(text, ctx, "ASSESS113")
    assert "country" in spanned_text(text, d)


def test_sibling_level_not_sliced(ctx):
    text = (
        "with SALES by product, country "
        "assess quantity against country = 'France' labels quartiles"
    )
    d = diag(text, ctx, "ASSESS113")
    assert "single member" in d.message


def test_sibling_member_equals_target(ctx):
    text = (
        "with SALES for country = 'France' by product, country "
        "assess quantity against country = 'France' labels quartiles"
    )
    d = diag(text, ctx, "ASSESS113")
    assert "must differ" in d.message


# ----------------------------------------------------------------------
# ASSESS114 — past benchmarks
# ----------------------------------------------------------------------
def test_past_without_temporal_slice(ctx):
    text = (
        "with SSB for c_region = 'ASIA' by year, c_region "
        "assess revenue against past 2 labels quartiles"
    )
    d = diag(text, ctx, "ASSESS114")
    assert "slice temporal level 'year'" in d.message


def test_past_needs_temporal_level_in_by(ctx):
    text = (
        "with SSB for c_region = 'ASIA' by c_region "
        "assess revenue against past 2 labels quartiles"
    )
    d = diag(text, ctx, "ASSESS114")
    assert "temporal hierarchy" in d.message


def test_past_k_must_be_positive(ctx):
    text = (
        "with SSB for year = '1997' by year "
        "assess revenue against past 0 labels quartiles"
    )
    d = diag(text, ctx, "ASSESS114")
    assert "k >= 1" in d.message


def test_valid_past_statement_is_clean(ctx):
    text = (
        "with SSB for year = '1997' by year, c_region "
        "assess revenue against past 2 "
        "using difference(revenue, benchmark.revenue) labels quartiles"
    )
    _, bag = analyze_text(text, ctx)
    assert "ASSESS114" not in bag.codes()
    assert not bag.has_errors


# ----------------------------------------------------------------------
# ASSESS115 — ancestor benchmarks
# ----------------------------------------------------------------------
def test_ancestor_needs_finer_level_in_by(ctx):
    text = (
        "with SALES by product assess quantity against ancestor country "
        "labels quartiles"
    )
    d = diag(text, ctx, "ASSESS115")
    assert "finer level" in d.message


def test_ancestor_must_be_coarser(ctx):
    text = (
        "with SALES by country assess quantity against ancestor city "
        "labels quartiles"
    )
    d = diag(text, ctx, "ASSESS115")
    assert "does not roll up" in d.message


def test_ancestor_unknown_level(ctx):
    text = (
        "with SALES by product assess quantity against ancestor galaxy "
        "labels quartiles"
    )
    assert diag(text, ctx, "ASSESS115").severity is Severity.ERROR


def test_valid_ancestor_statement_is_clean(ctx):
    text = (
        "with SALES by product assess quantity against ancestor type "
        "using ratio(quantity, benchmark.quantity) labels quartiles"
    )
    _, bag = analyze_text(text, ctx)
    assert not bag.has_errors


# ----------------------------------------------------------------------
# ASSESS120 / ASSESS121 / ASSESS122 — using-clause functions
# ----------------------------------------------------------------------
def test_unknown_function(ctx):
    text = (
        "with SALES by month assess quantity using nosuchfn(quantity) "
        + COMPLETE_LABELS
    )
    d = diag(text, ctx, "ASSESS120")
    assert spanned_text(text, d).startswith("nosuchfn")
    assert "difference" in d.hint


def test_arity_mismatch(ctx):
    text = (
        "with SALES by month assess quantity using difference(quantity) "
        + COMPLETE_LABELS
    )
    d = diag(text, ctx, "ASSESS121")
    assert "takes 2 arguments, got 1" in d.message


def test_percoftotal_one_arg_is_exempt(ctx):
    text = (
        "with SALES by month assess quantity using percOfTotal(quantity) "
        "labels quartiles"
    )
    _, bag = analyze_text(text, ctx)
    assert "ASSESS121" not in bag.codes()


def test_division_by_constant_zero(ctx):
    text = (
        "with SALES by month assess quantity using quantity / 0 "
        + COMPLETE_LABELS
    )
    d = diag(text, ctx, "ASSESS122")
    assert spanned_text(text, d) == "0"


def test_zero_denominator_in_ratio(ctx):
    text = (
        "with SALES by month assess quantity using ratio(quantity, 0) "
        + COMPLETE_LABELS
    )
    d = diag(text, ctx, "ASSESS122")
    assert "ratio" in d.message


def test_nonzero_division_is_clean(ctx):
    text = (
        "with SALES by month assess quantity using quantity / 2 "
        + COMPLETE_LABELS
    )
    _, bag = analyze_text(text, ctx)
    assert "ASSESS122" not in bag.codes()


# ----------------------------------------------------------------------
# ASSESS123 / ASSESS124 / ASSESS125 / ASSESS126 — references
# ----------------------------------------------------------------------
def test_benchmark_ref_not_provided(ctx):
    text = (
        "with SALES for country = 'Italy' by product, country "
        "assess quantity against country = 'France' "
        "using ratio(quantity, benchmark.bogus) " + COMPLETE_LABELS
    )
    d = diag(text, ctx, "ASSESS123")
    assert "sibling benchmark" in d.message
    assert "quantity" in d.hint


def test_unknown_reference_with_engine_is_error(ctx):
    text = (
        "with SALES by month assess quantity using ratio(bogus, 2) "
        + COMPLETE_LABELS
    )
    d = diag(text, ctx, "ASSESS124")
    assert d.severity is Severity.ERROR
    assert spanned_text(text, d) == "bogus"


def test_unknown_reference_without_engine_is_warning(schema_only_ctx):
    text = (
        "with SALES by month assess quantity using ratio(bogus, 2) "
        + COMPLETE_LABELS
    )
    d = diags(text, schema_only_ctx, "ASSESS124")[0]
    assert d.severity is Severity.WARNING


def test_benchmark_reference_without_engine_is_warning(schema_only_ctx):
    # without an engine a non-measure may still be a level property, as
    # for an unqualified reference
    text = (
        "with SALES for country = 'Italy' by product, country "
        "assess quantity against country = 'France' "
        "using ratio(quantity, benchmark.population) " + COMPLETE_LABELS
    )
    d = diags(text, schema_only_ctx, "ASSESS124")[0]
    assert d.severity is Severity.WARNING
    assert spanned_text(text, d) == "benchmark.population"


def test_unused_benchmark_warns(ctx):
    text = (
        "with SALES for country = 'Italy' by product, country "
        "assess quantity against country = 'France' "
        "using ratio(quantity, 2) " + COMPLETE_LABELS
    )
    d = diag(text, ctx, "ASSESS125")
    assert d.severity is Severity.WARNING
    assert "sibling" in d.message


def test_constant_benchmark_is_never_unused(ctx):
    text = (
        "with SALES by month assess quantity against 1000 "
        "using identity(quantity) " + COMPLETE_LABELS
    )
    _, bag = analyze_text(text, ctx)
    assert "ASSESS125" not in bag.codes()


def test_unknown_qualifier(ctx):
    text = (
        "with SALES by month assess quantity using ratio(foo.quantity, 2) "
        + COMPLETE_LABELS
    )
    d = diag(text, ctx, "ASSESS126")
    assert "'foo'" in d.message


# ----------------------------------------------------------------------
# ASSESS130..ASSESS134 — labels clause
# ----------------------------------------------------------------------
def test_label_gaps_warn(ctx):
    text = (
        "with SALES by month assess quantity "
        "labels {[0, 1]: a, [2, 3]: b}"
    )
    d = diag(text, ctx, "ASSESS130")
    assert d.severity is Severity.WARNING
    # The message enumerates every gap, including the unbounded flanks.
    assert "(1, 2)" in d.message
    assert "(-inf, 0)" in d.message and "(3, inf)" in d.message


def test_label_overlaps_error_once_per_pair(ctx):
    text = (
        "with SALES by month assess quantity "
        "labels {[0, 5]: a, [3, 8]: b, [4, 9]: c}"
    )
    matches = diags(text, ctx, "ASSESS131")
    assert len(matches) == 3  # (a,b), (a,c), (b,c)
    assert all(d.severity is Severity.ERROR for d in matches)
    # Each overlap is anchored at the later rule's range.
    assert spanned_text(text, matches[0]).startswith("[3, 8]")


def test_empty_interval_is_invalid(ctx):
    text = "with SALES by month assess quantity labels {[5, 2]: bad}"
    d = diag(text, ctx, "ASSESS132")
    assert "low 5.0 > high 2.0" in d.message


def test_degenerate_open_interval_is_invalid(ctx):
    text = "with SALES by month assess quantity labels {[1, 1): x}"
    assert diag(text, ctx, "ASSESS132").severity is Severity.ERROR


def test_closed_infinite_bound_is_degenerate_not_crash(ctx):
    # [inf, inf] is forced open by interval semantics, hence degenerate.
    text = "with SALES by month assess quantity labels {[inf, inf]: x}"
    d = diag(text, ctx, "ASSESS132")
    assert "closed on both ends" in d.message


def test_degenerate_closed_interval_is_valid(ctx):
    text = (
        "with SALES by month assess quantity "
        "labels {(-inf, 0): low, [0, 0]: zero, (0, inf): high}"
    )
    _, bag = analyze_text(text, ctx)
    assert bag.codes() == ()


def test_unknown_labeling_warns(ctx):
    text = "with SALES by month assess quantity labels somethingCustom"
    d = diag(text, ctx, "ASSESS133")
    assert d.severity is Severity.WARNING
    assert "quartiles" in d.hint


def test_known_labelings_suppress_warning(sales):
    context = AnalysisContext(
        schemas={"SALES": sales.cube("SALES").schema},
        known_labelings=("somethingCustom",),
    )
    text = "with SALES by month assess quantity labels somethingCustom"
    _, bag = analyze_text(text, context)
    assert "ASSESS133" not in bag.codes()


def test_non_labeling_function_in_labels(ctx):
    text = "with SALES by month assess quantity labels ratio"
    d = diag(text, ctx, "ASSESS134")
    assert "needs a labeling function" in d.message


# ----------------------------------------------------------------------
# Multi-error accumulation and the parse_statement entry point
# ----------------------------------------------------------------------
def test_all_defects_reported_in_one_run(ctx):
    text = (
        "with SALES for nolevel = 'x' by mnth, product, type "
        "assess bogus against country = 'France' "
        "using nosuchfn(quantity) / 0 "
        "labels {[0, 5]: a, [3, 8]: b}"
    )
    _, bag = analyze_text(text, ctx)
    for code in (
        "ASSESS102", "ASSESS103", "ASSESS104", "ASSESS105",
        "ASSESS113", "ASSESS120", "ASSESS122", "ASSESS131",
    ):
        assert code in bag.codes(), f"missing {code} in {bag.codes()}"


def test_parse_statement_raises_first_diagnostic(sales):
    resolver = {"SALES": sales.cube("SALES").schema}
    assert parse_statement(CLEAN_ZERO, resolver) is not None

    text = "with SALES by mnth assess bogus labels quartiles"
    _, bag = analyze_text(text, AnalysisContext(schemas=resolver))
    assert {"ASSESS102", "ASSESS104"} <= set(bag.codes())
    with pytest.raises(ValidationError) as raised:
        parse_statement(text, resolver)
    first = bag.errors()[0]
    assert raised.value.args[0] == first.message
    assert raised.value.position == first.span.start


def test_session_analyze(sales_session):
    bag = sales_session.assess  # session fixture sanity
    bag = sales_session.analyze("with SALES by mnth assess bogus labels quartiles")
    assert {"ASSESS102", "ASSESS104"} <= set(bag.codes())
    assert sales_session.analyze(CLEAN_ZERO).codes() == ()
