"""What the one-variable reports print, rebuilt from the oracles alone.

`verify-js` and `verify-littlewood` print their series and one
`contributions` entry per doubled shape.  Here the shapes come from
enumerate-then-double (`partitions_bounded`, `doubled_shape`), each value
from the alternant quotient evaluated at the entries, and each string from
`format_terms`; none of it runs the production enumerator, Schur evaluator
or printer.
"""

from fractions import Fraction
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from extsq.polynomials import MultiPoly
from extsq.tasks import parse_task, run_task
from oracles import doubled_shape, format_terms, partitions_bounded, schur_bialternant, substitute

ENTRIES = st.one_of(
    st.just("sym"),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@lru_cache(maxsize=None)
def _bialternant(shape, n):
    return schur_bialternant(shape, n)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["verify-js", "verify-littlewood"]),
    st.lists(ENTRIES, min_size=2, max_size=5),
    st.integers(0, 4),
)
def test_contributions_and_series(task, entries, order):
    nsyms = entries.count("sym")
    names = [f"α{i + 1}" for i in range(nsyms)]
    symbols = iter(range(nsyms))
    values = [
        MultiPoly.variable(nsyms, next(symbols)) if e == "sym" else MultiPoly.constant(nsyms, e)
        for e in entries
    ]
    n = len(values)
    body = {"task": task, "satake": [str(e) for e in entries], "truncation": order}
    data = run_task(parse_task(body)).data
    # torus sums pad their shapes to n; the expansion to k, the nonzero entries
    length = n if task == "verify-js" else sum(1 for v in values if v)
    pairs = (length - 1) // 2 if task == "verify-js" else length // 2
    expected = []
    sums = [MultiPoly.zero(nsyms)] * (order + 1)
    for power in range(order + 1):
        for f in partitions_bounded(power, pairs):
            shape = doubled_shape(f, pairs, length - 2 * pairs)
            value = substitute(_bialternant(shape, n), values, nvars=nsyms)
            text = format_terms(value, names)
            expected.append({"power": power, "shape": list(shape), "coefficient": text})
            sums[power] = sums[power] + value
    assert data["contributions"] == expected
    printed = data["torus_sum" if task == "verify-js" else "expansion"]
    assert printed == [format_terms(c, names) for c in sums]
