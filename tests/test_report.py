"""ValidationReport.tally: the one runner that counts every non-sweep check."""

from vertexkernel.lincomb import LinComb
from vertexkernel.report import ValidationReport


def only(rep):
    (check,) = rep.checks
    return check


def test_tally_counts_a_generator_exactly():
    rep = ValidationReport().tally("c", ((n,) for n in range(7)), lambda n: False, str)
    assert only(rep).passed and only(rep).details == "7 instances checked"


def test_tally_renders_only_failing_cases():
    # the witness runs exactly once, on the first of several failing cases;
    # the others are only counted
    rendered = []

    def witness(n, m):
        rendered.append((n, m))
        return f"{n}+{m} is odd"
    cases = [(n, m) for n in range(3) for m in range(3)]
    rep = ValidationReport().tally("even", cases, lambda n, m: (n + m) % 2, witness)
    assert rendered == [(0, 1)]
    assert not only(rep).passed and only(rep).witness == "0+1 is odd (+3 more)"


def test_tally_reports_the_first_witness_and_the_rest_as_a_count():
    rep = ValidationReport().tally("small", zip(range(10)), lambda n: n > 6, lambda n: f"{n} > 6")
    assert only(rep).witness == "7 > 6 (+2 more)"
    rep = ValidationReport().tally("small", zip(range(8)), lambda n: n > 6, lambda n: f"{n} > 6")
    assert only(rep).witness == "7 > 6"


def test_tally_passes_a_zero_lincomb_defect():
    x = LinComb.single("x", 3)
    rep = ValidationReport().tally("cancel", [(x, x), (x, 2 * x)], lambda a, b: a - b,
                                   lambda a, b: "differ")
    assert only(rep).witness == "differ"
    rep = ValidationReport().tally("cancel", [(x, x)], lambda a, b: a - b, lambda a, b: "differ")
    assert only(rep).passed and only(rep).details == "1 instances checked"


def test_tally_over_no_cases_records_what_record_does():
    rep = ValidationReport().tally("empty", [], lambda: True, lambda: "never")
    assert only(rep).passed and only(rep).details == "0 instances checked"
    assert rep.to_json() == ValidationReport().record("empty", [], 0).to_json()
