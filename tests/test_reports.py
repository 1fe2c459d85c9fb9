"""What the Satake reports print, rebuilt from the oracles alone.

`satake_report_data` builds a report's whole `data` from its task echo:
shapes by enumerate-then-filter, each value from the alternant quotient
evaluated at the entries, the product sides from multiplied-out and
inverted factors, every polynomial in full, and each string from
`format_m`.  None of it runs the production enumerator, Schur evaluator,
projection or printer.  The same oracle rebuilds every Satake report of
the goldens in `tests/test_golden.py`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extsq.polynomials import MultiPoly
from extsq.tasks import parse_task, run_task
from oracles import (
    EntryVector,
    dominant_part,
    expand_m_basis,
    format_m,
    formal_ext_sq_L,
    satake_report_data,
    schur_bialternant,
)

ENTRIES = st.one_of(
    st.just("sym"),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def satake_tasks(draw):
    task = draw(st.sampled_from(["lfactor", "verify-js", "verify-littlewood", "verify-bf", "bf-odd-probe"]))
    if task == "bf-odd-probe":
        entries = draw(st.lists(ENTRIES, min_size=3, max_size=5).filter(lambda e: len(e) % 2))
    else:
        shortest = 1 if task in ("lfactor", "verify-littlewood") else 2
        entries = draw(st.lists(ENTRIES, min_size=shortest, max_size=5))
    if task in ("verify-bf", "bf-odd-probe"):
        truncation = [draw(st.integers(0, 3)), draw(st.integers(0, 3))]
    else:
        truncation = draw(st.integers(0, 4))
    return {"task": task, "satake": [str(e) for e in entries], "truncation": truncation}


@settings(max_examples=60, deadline=None)
@given(satake_tasks())
def test_contributions_and_series(body):
    """Every series, grid, contribution and field of a drawn Satake report."""
    report = run_task(parse_task(body))
    assert report.verdict != "error"
    assert report.data == satake_report_data(report.task)


@pytest.mark.parametrize(
    "body",
    [
        {"task": "lfactor", "satake": ["1/2", "sym", "-2/3"], "truncation": 3},
        {"task": "verify-littlewood", "satake": ["1/2", "1/3", "sym"], "truncation": 3},
        {"task": "verify-js", "satake": ["1/2", "0", "sym", "-3/4"], "truncation": 3},
        {"task": "verify-bf", "satake": ["1/2", "1/3", "sym", "-2"], "truncation": [2, 2]},
        {"task": "verify-bf", "satake": ["1/2", "0", "sym"], "truncation": [2, 2]},
        {"task": "bf-odd-probe", "satake": ["1/2", "1/3", "sym"], "truncation": [1, 1]},
    ],
    ids=lambda body: body["task"],
)
def test_every_scaled_field_prints_the_oracle_text(body):
    """Vectors with D = 6 or 12, whose cells print at D^(i + 2j), omega at D^k and
    roots at D and D^2, each field against the oracle's Fraction text."""
    report = run_task(parse_task(body))
    assert report.data == satake_report_data(report.task)


@st.composite
def symmetric_products(draw):
    """A product of two Schur polynomials and one pair-root series coefficient,
    all by the oracles, in n <= 4 symbols."""
    n = draw(st.integers(1, 4))

    def shape():
        parts = sorted((draw(st.integers(0, 3)) for _ in range(draw(st.integers(0, n)))), reverse=True)
        return tuple(parts)

    order = draw(st.integers(0, 3))
    symbols = EntryVector([MultiPoly.variable(n, i) for i in range(n)], n)
    pair_series = formal_ext_sq_L(symbols).series(order)[order]
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
    return schur_bialternant(shape(), n) * schur_bialternant(shape(), n) * pair_series * scale


@settings(max_examples=60, deadline=None)
@given(symmetric_products())
def test_projection_and_printer_match_the_oracles(p):
    held = p.dominant()
    assert held == dominant_part(p)
    assert held.format_symmetric() == format_m(p)
    assert expand_m_basis(held) == p
