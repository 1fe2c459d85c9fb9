import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extsq import galois_tasks, satake_tasks, tasks, torus_sums
from extsq.cli import main
from extsq import weil_deligne
from extsq.polynomials import MultiPoly
from extsq.tasks import (
    ConfigError,
    emit_machine,
    emit_table,
    exit_code,
    parse_document,
    parse_task,
    run_all,
    run_task,
)
from oracles import machine_json


def doc(*task_bodies):
    if len(task_bodies) == 1:
        return {"format_version": 1, **task_bodies[0]}
    return {"format_version": 1, "tasks": list(task_bodies)}


def run_one(body, **kw):
    return run_task(parse_task(body, **kw))


class TestParseDocument:
    def test_single_task(self):
        cfgs = parse_document(doc({"task": "lfactor", "satake": ["sym"]}))
        assert len(cfgs) == 1
        assert cfgs[0].task == "lfactor"

    def test_batch_preserves_order(self):
        cfgs = parse_document(
            doc(
                {"task": "lfactor", "satake": ["sym"]},
                {"task": "verify-js", "satake": ["sym", "sym", "sym"]},
            )
        )
        assert [c.task for c in cfgs] == ["lfactor", "verify-js"]

    def test_missing_format_version(self):
        with pytest.raises(ConfigError, match="format_version"):
            parse_document({"task": "lfactor", "satake": ["sym"]})

    def test_wrong_format_version(self):
        with pytest.raises(ConfigError, match="format_version"):
            parse_document({"format_version": 2, "task": "lfactor", "satake": ["sym"]})

    def test_empty_tasks(self):
        with pytest.raises(ConfigError):
            parse_document({"format_version": 1, "tasks": []})

    def test_location_in_batch_error(self):
        with pytest.raises(ConfigError, match=r"tasks\[1\]"):
            parse_document(
                doc({"task": "lfactor", "satake": ["sym"]}, {"task": "nope"})
            )


class TestParseTask:
    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="unknown task"):
            parse_task({"task": "frobnicate"})

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            parse_task({"task": "lfactor", "satake": ["sym"], "extra": 1})

    @pytest.mark.parametrize(
        "body, key, message",
        [
            (
                {"task": "galois-divisibility", "random": {"count": 2}, "q": 7},
                "q",
                "a random galois-divisibility suite does not read field 'q'",
            ),
            (
                {"task": "galois-H", "random": {"count": 2}, "group": [3]},
                "group",
                "a random galois-H suite does not read field 'group'",
            ),
            (
                {"task": "galois-H", "random": {"count": 2}, "blocks": [1]},
                "blocks",
                "a random galois-H suite does not read field 'blocks'",
            ),
            (
                {"task": "lfactor", "satake": ["sym"], "q": 5},
                "q",
                "lfactor does not read field 'q'",
            ),
            (
                {"task": "verify-js", "satake": ["sym", "sym"], "blocks": [1]},
                "blocks",
                "verify-js does not read field 'blocks'",
            ),
            (
                {"task": "verify-bf", "satake": ["sym", "sym"], "random": {"count": 1}},
                "random",
                "verify-bf does not read field 'random'",
            ),
            (
                {"task": "bf-odd-probe", "satake": ["sym", "sym", "0"], "group": [2]},
                "group",
                "bf-odd-probe does not read field 'group'",
            ),
            (
                {"task": "galois-H", "blocks": [], "satake": ["sym"]},
                "satake",
                "galois-H with explicit blocks does not read field 'satake'",
            ),
            (
                {"task": "galois-divisibility", "random": {"count": 2}, "n": 2},
                "n",
                "a random galois-divisibility suite does not read field 'n'",
            ),
        ],
    )
    def test_field_the_task_does_not_read(self, body, key, message):
        with pytest.raises(ConfigError) as err:
            parse_task(body)
        assert err.value.location == f"task.{key}"
        assert str(err.value) == f"task.{key}: {message}"

    @pytest.mark.parametrize(
        "body, location, message",
        [
            (
                {"task": "lfactor", "satake": ["sym"], "seed": True},
                "task.seed",
                "seed must be an integer",
            ),
            (
                {"task": "galois-H", "random": {"count": 3}, "seed": -3},
                "task.seed",
                "seed must be >= 0",
            ),
            (
                {"task": "lfactor", "satake": ["sym"], "truncation": False},
                "task.truncation",
                "truncation must be an integer",
            ),
            (
                {"task": "verify-bf", "satake": ["sym", "sym"], "truncation": [True, 2]},
                "task.truncation",
                "truncation must be an int or a pair of ints",
            ),
            (
                {"task": "lfactor", "satake": ["sym", True]},
                "task.satake[1]",
                "satake entries must be 'sym' or exact rationals",
            ),
            (
                {"task": "galois-H", "group": [True], "blocks": []},
                "task.group",
                "group must be a list of positive cyclic orders",
            ),
            (
                {"task": "galois-H", "blocks": [{"grade": [False], "length": 1, "scalar": "a"}]},
                "task.blocks[0].grade",
                "grade must be a list of integers",
            ),
            (
                {"task": "galois-H", "blocks": [{"grade": [0], "length": 1, "scalar": True}]},
                "task.blocks[0].scalar",
                "scalar must be an int, rational string, or symbol name",
            ),
        ],
    )
    def test_bool_is_not_an_integer(self, body, location, message):
        with pytest.raises(ConfigError) as err:
            parse_task(body)
        assert err.value.location == location
        assert str(err.value) == f"{location}: {message}"

    @pytest.mark.parametrize(
        "body",
        [
            {"task": "lfactor", "satake": ["sym"]},
            {"task": "galois-H", "blocks": [{"grade": [0], "length": 1, "scalar": "a"}]},
            {"task": "galois-divisibility", "random": {"count": 2}},
        ],
    )
    def test_every_task_accepts_seed_and_truncation(self, body):
        assert parse_task({**body, "seed": 2, "truncation": 3}).seed == 2

    @pytest.mark.parametrize(
        "truncation, message",
        [
            ("garbage", "truncation must be an integer"),
            (1000000000, "truncation must be <= 32"),
            ([4, 4, 4], "truncation must be an int or a pair of ints"),
            ([2, -1], "truncation must be >= 0"),
        ],
    )
    @pytest.mark.parametrize(
        "body",
        [
            {"task": "galois-H", "random": {"count": 3}},
            {"task": "galois-divisibility", "blocks": [{"grade": [0], "length": 1, "scalar": "a"}]},
        ],
    )
    def test_galois_tasks_refuse_a_bad_truncation(self, body, truncation, message):
        with pytest.raises(ConfigError) as err:
            parse_task({**body, "truncation": truncation})
        assert str(err.value) == f"task.truncation: {message}"

    def test_galois_tasks_take_an_int_or_a_window_and_echo_neither(self):
        body = {"task": "galois-H", "random": {"count": 3}}
        for truncation in (tasks.MAX_TRUNCATION, [4, 4], [0, tasks.MAX_TRUNCATION]):
            assert "truncation" not in parse_task({**body, "truncation": truncation}).echo

    def test_random_suite_echoes_no_q_or_group(self):
        """Each drawn representation has its own q and group."""
        cfg = parse_task({"task": "galois-H", "random": {"count": 3}, "seed": 4})
        assert cfg.echo == {"task": "galois-H", "seed": 4, "random": {"count": 3}}

    def test_satake_required(self):
        with pytest.raises(ConfigError, match="satake"):
            parse_task({"task": "verify-js"})

    def test_bad_satake_entry(self):
        with pytest.raises(ConfigError, match=r"satake\[1\]"):
            parse_task({"task": "lfactor", "satake": ["sym", 1.5]})

    def test_malformed_rational(self):
        with pytest.raises(ConfigError):
            parse_task({"task": "lfactor", "satake": ["2//3"]})

    @pytest.mark.parametrize(
        "entries, index", [(["2//3"], 0), (["2", "1e5", "3"], 1), (["sym", 4, "x"], 2)]
    )
    def test_malformed_string_entry_has_its_index(self, entries, index):
        with pytest.raises(ConfigError, match=r"malformed rational") as err:
            parse_task({"task": "lfactor", "satake": entries})
        assert err.value.location == f"task.satake[{index}]"

    def test_n_mismatch(self):
        with pytest.raises(ConfigError, match="n=3"):
            parse_task({"task": "lfactor", "satake": ["sym", "sym"], "n": 3})

    def test_default_truncation(self):
        cfg = parse_task({"task": "lfactor", "satake": ["sym"]})
        assert cfg.truncation == tasks.DEFAULT_TRUNCATION
        cfg = parse_task({"task": "lfactor", "satake": ["sym"]}, default_truncation=3)
        assert cfg.truncation == 3

    def test_window_tasks_accept_int_or_pair(self):
        body = {"task": "verify-bf", "satake": ["sym", "sym"]}
        assert parse_task({**body, "truncation": 4}).truncation == (4, 4)
        assert parse_task({**body, "truncation": [3, 5]}).truncation == (3, 5)
        with pytest.raises(ConfigError):
            parse_task({**body, "truncation": [1, 2, 3]})

    def test_negative_window_refused(self):
        body = {"task": "verify-bf", "satake": ["sym", "sym"]}
        for window in ([-1, 0], [0, -1]):
            with pytest.raises(ConfigError) as err:
                parse_task({**body, "truncation": window})
            assert str(err.value) == "task.truncation: truncation must be >= 0"

    def test_bf_odd_probe_parity(self):
        with pytest.raises(ConfigError, match="odd"):
            parse_task({"task": "bf-odd-probe", "satake": ["sym", "sym"]})

    @pytest.mark.parametrize("task", ["verify-js", "verify-bf"])
    def test_rank_one_refused(self, task):
        with pytest.raises(ConfigError, match="n >= 2"):
            parse_task({"task": task, "satake": ["sym"]})

    def test_galois_explicit_blocks(self):
        cfg = parse_task(
            {
                "task": "galois-divisibility",
                "q": 3,
                "group": [2],
                "blocks": [{"grade": [1], "length": 1, "scalar": "-2/7"}],
            }
        )
        assert cfg.rep.q == 3
        assert cfg.rep.grades[0] == (1,)

    def test_galois_symbol_scalar(self):
        cfg = parse_task(
            {
                "task": "galois-H",
                "group": [1],
                "blocks": [{"grade": [0], "length": 1, "scalar": "a"}],
            }
        )
        assert cfg.rep.symbols == ("a",)

    def test_galois_bad_scalar(self):
        with pytest.raises(ConfigError, match="scalar"):
            parse_task(
                {
                    "task": "galois-H",
                    "group": [1],
                    "blocks": [{"grade": [0], "length": 1, "scalar": "#"}],
                }
            )

    @pytest.mark.parametrize("scalar", ["1e5", " 2E-3", "-1e10000000"])
    def test_galois_scalar_in_exponent_notation_rejected(self, scalar):
        """Refused as a rational, and not read as a symbol name."""
        with pytest.raises(ConfigError, match=r"blocks\[0\]\.scalar: .*exponent notation"):
            parse_task(
                {
                    "task": "galois-H",
                    "group": [1],
                    "blocks": [{"grade": [0], "length": 1, "scalar": scalar}],
                }
            )

    def test_galois_zero_scalar_rejected(self):
        for scalar in ("0", 0, " -0/7"):
            blocks = [{"grade": [0], "length": 1, "scalar": s} for s in (1, "a", scalar)]
            with pytest.raises(ConfigError) as err:
                parse_task({"task": "galois-divisibility", "group": [1], "blocks": blocks})
            assert str(err.value) == "task.blocks[2].scalar: Frobenius scalar must be nonzero"

    def test_galois_mixed_symbolic_steinberg_rejected(self):
        with pytest.raises(ConfigError, match="mixed symbolic/Steinberg"):
            parse_task(
                {
                    "task": "galois-divisibility",
                    "group": [1],
                    "blocks": [
                        {"grade": [0], "length": 2, "scalar": "a"},
                    ],
                }
            )

    def test_galois_random_mode(self):
        cfg = parse_task(
            {"task": "galois-divisibility", "random": {"count": 5}, "seed": 3}
        )
        assert cfg.random_count == 5 and cfg.seed == 3

    def test_random_count_at_cap(self):
        cap = tasks.MAX_RANDOM_COUNT
        cfg = parse_task({"task": "galois-H", "random": {"count": cap}})
        assert cfg.random_count == cap

    def test_random_count_above_cap(self):
        body = {"task": "galois-divisibility", "random": {"count": tasks.MAX_RANDOM_COUNT + 1}}
        with pytest.raises(ConfigError, match=r"count must be <= 100000") as err:
            parse_task(body)
        assert err.value.location == "task.random.count"

    def test_truncation_at_cap(self):
        cap = tasks.MAX_TRUNCATION
        assert parse_task({"task": "lfactor", "satake": ["sym"], "truncation": cap}).truncation == cap
        window = {"task": "verify-bf", "satake": ["sym", "sym"]}
        assert parse_task({**window, "truncation": cap}).truncation == (cap, cap)
        assert parse_task({**window, "truncation": [cap, 0]}).truncation == (cap, 0)

    @pytest.mark.parametrize(
        "task, truncation",
        [
            ("lfactor", tasks.MAX_TRUNCATION + 1),
            ("verify-bf", tasks.MAX_TRUNCATION + 1),
            ("verify-bf", [2, tasks.MAX_TRUNCATION + 1]),
            ("bf-odd-probe", [tasks.MAX_TRUNCATION + 1, 2]),
        ],
    )
    def test_truncation_above_cap(self, task, truncation):
        body = {"task": task, "satake": ["sym", "sym", "sym"], "truncation": truncation}
        with pytest.raises(ConfigError, match=r"truncation must be <= 32") as err:
            parse_task(body)
        assert err.value.location == "task.truncation"

    def test_rank_at_cap(self):
        cap = tasks.MAX_RANK
        cfg = parse_task({"task": "lfactor", "satake": ["0"] * cap, "n": cap, "truncation": 2})
        assert cfg.params.n == cap

    def test_rank_above_cap(self):
        over = tasks.MAX_RANK + 1
        with pytest.raises(ConfigError, match=r"at most 16 entries") as err:
            parse_task({"task": "verify-js", "satake": ["0"] * over})
        assert err.value.location == "task.satake"
        with pytest.raises(ConfigError, match=r"n must be <= 16") as err:
            parse_task({"task": "verify-js", "satake": ["0", "0"], "n": over})
        assert err.value.location == "task.n"

    def test_grade_wrong_rank(self):
        with pytest.raises(ConfigError):
            parse_task(
                {
                    "task": "galois-H",
                    "group": [2, 2],
                    "blocks": [{"grade": [1], "length": 1, "scalar": "a"}],
                }
            )

    def test_grade_wrong_rank_names_its_block(self, capsys):
        body = {
            "task": "galois-divisibility",
            "group": [2, 3],
            "blocks": [
                {"grade": [1, 2], "length": 1, "scalar": "a"},
                {"grade": [1, 2, 0], "length": 1, "scalar": "b"},
            ],
        }
        with pytest.raises(ConfigError, match=r"does not fit group of rank 2") as err:
            parse_task(body)
        assert err.value.location == "task.blocks[1]"
        blocks = [arg for g in ("1.2", "1.2.0") for arg in ("--block", f"{g}:1:a")]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["galois-divisibility", "--group", "2,3", *blocks])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: task.blocks[1]: element (1, 2, 0)")

    def test_each_explicit_grade_is_reduced_once(self, monkeypatch):
        """The parser checks a grade's rank; `WDRep` alone reduces it."""
        calls = []
        real = weil_deligne.FiniteAbelianGroup.reduce

        def counted(group, a):
            calls.append(tuple(a))
            return real(group, a)

        monkeypatch.setattr(weil_deligne.FiniteAbelianGroup, "reduce", counted)
        blocks = [{"grade": [g, 5], "length": 1, "scalar": "1/2"} for g in range(4)]
        cfg = parse_task({"task": "galois-divisibility", "group": [2, 3], "blocks": blocks})
        assert calls == [(g, 5) for g in range(4)]
        assert list(cfg.rep.grades) == [(g % 2, 2) for g in range(4)]


class TestRunTask:
    def test_lfactor_info(self):
        r = run_one({"task": "lfactor", "satake": ["sym", "sym"], "truncation": 3})
        assert r.verdict == "info"
        assert r.data["standard_roots"] == ["α1", "α2"]
        assert r.data["ext_sq_roots"] == ["α1*α2"]

    def test_littlewood_pass(self):
        r = run_one({"task": "verify-littlewood", "satake": ["sym", "sym", "sym"], "truncation": 4})
        assert r.verdict == "pass"
        assert r.data["first_difference"] is None

    def test_js_even_all_nonzero_is_info(self):
        r = run_one({"task": "verify-js", "satake": ["sym", "sym", "sym", "sym"], "truncation": 3})
        assert r.verdict == "info"
        assert not r.data["positive_conductor"]

    def test_js_even_with_zero_passes(self):
        r = run_one({"task": "verify-js", "satake": ["sym", "sym", "sym", "0"], "truncation": 4})
        assert r.verdict == "pass"

    @pytest.mark.parametrize(
        "body,lead,key,summary",
        [
            (
                {"task": "verify-littlewood", "satake": ["sym", "1/2", "sym"], "truncation": 3},
                ["k"],
                "expansion",
                "expansion differs from the exterior-square factor at t^1",
            ),
            (
                {"task": "verify-js", "satake": ["sym", "-3", "0", "sym"], "truncation": 3},
                ["parity", "positive_conductor"],
                "torus_sum",
                "torus sum differs from the exterior-square factor at t^1",
            ),
        ],
    )
    def test_one_variable_fail_reports_the_first_difference(
        self, monkeypatch, body, lead, key, summary
    ):
        """1 added to the product side at t^1 makes the sides differ there."""
        real = torus_sums.product_grid

        def bumped(params, l1, l2):
            grid = [list(row) for row in real(params, l1, l2)]
            grid[0][1] = grid[0][1] + MultiPoly.constant(params.nvars, params.scale**2)  # 1, at the cell's scale
            return tuple(map(tuple, grid))

        monkeypatch.setattr(torus_sums, "product_grid", bumped)
        r = run_one(body)
        assert (r.verdict, r.summary) == ("fail", summary)
        assert list(r.data) == lead + [key, "product", "first_difference", "contributions", "basis"]
        assert r.data["first_difference"] == {
            "power": 1,
            key: r.data[key][1],
            "product": r.data["product"][1],
        }
        assert r.data[key][1] != r.data["product"][1]

    def test_bf_even_pass(self):
        r = run_one({"task": "verify-bf", "satake": ["sym", "sym"], "truncation": [3, 3]})
        assert r.verdict == "pass"

    def test_bf_odd_all_nonzero_is_info(self):
        r = run_one({"task": "verify-bf", "satake": ["sym", "sym", "sym"], "truncation": 2})
        assert r.verdict == "info"

    def test_probe_pass_and_info(self):
        r = run_one({"task": "bf-odd-probe", "satake": ["sym", "sym", "0"], "truncation": 3})
        assert r.verdict == "pass"
        r = run_one({"task": "bf-odd-probe", "satake": ["sym", "sym", "sym"], "truncation": 2})
        assert r.verdict == "info"
        assert r.data["correction"][0][0] == "1"

    def test_galois_divisibility_pass(self):
        r = run_one(
            {
                "task": "galois-divisibility",
                "q": 5,
                "group": [1],
                "blocks": [{"grade": [0], "length": 2, "scalar": "3/2"}],
            }
        )
        assert r.verdict == "pass"
        assert r.data["strict"] is True
        assert r.data["formal_roots"] == []
        assert r.data["ext_sq_roots"] == r.data["quotient_roots"] == ["9/20"]

    def test_galois_random_pass(self):
        r = run_one({"task": "galois-divisibility", "random": {"count": 5}, "seed": 1})
        assert r.verdict == "pass"
        assert r.data["count"] == 5 and r.data["failures"] == []

    def test_galois_h_precondition_error(self):
        r = run_one(
            {
                "task": "galois-H",
                "group": [3],
                "blocks": [
                    {"grade": [1], "length": 1, "scalar": "a"},
                    {"grade": [2], "length": 1, "scalar": "b"},
                ],
            }
        )
        assert r.verdict == "error"
        assert r.exit_code == 2

    def test_timing_recorded(self):
        r = run_one({"task": "lfactor", "satake": ["2"]})
        assert r.timing_ms >= 0.0


class TestFailBranches:
    """Each fail branch, forced by patching the side of the identity it checks.

    Verdict, summary, exit code, data key order (the table prints keys as
    inserted) and the entries that locate the failure are pinned.
    """

    GALOIS_REP = {
        "q": 5,
        "group": [2],
        "blocks": [
            {"grade": [0], "length": 1, "scalar": "c1"},
            {"grade": [0], "length": 1, "scalar": "c2"},
            {"grade": [1], "length": 1, "scalar": "c3"},
        ],
    }

    @pytest.fixture
    def trivial_ext_sq(self, monkeypatch):
        """An exterior-square factor of 1: the pair-product side no longer fits."""
        monkeypatch.setattr(weil_deligne, "ext_sq_root_indices", lambda rep: [])

    def check(self, body, summary, keys):
        r = run_one(body)
        assert (r.verdict, r.summary, r.exit_code) == ("fail", summary, 1)
        assert list(r.data) == keys
        return r

    def test_divisibility_explicit_does_not_divide(self, trivial_ext_sq):
        r = self.check(
            {"task": "galois-divisibility", **self.GALOIS_REP},
            "pair-product factor does not divide the exterior-square factor",
            ["formal_roots", "ext_sq_roots", "divides", "strict", "quotient_roots"],
        )
        assert r.data == {
            "formal_roots": ["α1*α2"],
            "ext_sq_roots": [],
            "divides": False,
            "strict": False,
            "quotient_roots": None,
        }

    def test_h_explicit_differs(self, trivial_ext_sq):
        r = self.check(
            {"task": "galois-H", **self.GALOIS_REP},
            "factors differ despite the pairing hypothesis",
            ["formal_roots", "ext_sq_roots", "equal"],
        )
        assert r.data == {
            "formal_roots": ["α1*α2"],
            "ext_sq_roots": [],
            "equal": False,
        }

    def test_divisibility_random_fails(self, trivial_ext_sq):
        r = self.check(
            {"task": "galois-divisibility", "random": {"count": 5}, "seed": 0},
            "divisibility failed on 1 of 5 random representations",
            ["count", "all_divide", "strict_count", "failures"],
        )
        assert (r.data["count"], r.data["all_divide"], r.data["strict_count"]) == (5, False, 0)
        assert r.data["failures"] == [
            {
                "index": 3,
                "rep": {
                    "q": 3,
                    "group": [1, 1],
                    "blocks": [
                        {"grade": [0, 0], "length": 1, "scalar": "-2/3"},
                        {"grade": [0, 0], "length": 2, "scalar": "3"},
                        {"grade": [0, 0], "length": 3, "scalar": "-2/5"},
                    ],
                },
            }
        ]

    def test_h_random_fails(self, trivial_ext_sq):
        r = self.check(
            {"task": "galois-H", "random": {"count": 5}, "seed": 0},
            "equality failed on 4 of 5 representations",
            ["count", "all_equal", "failures"],
        )
        assert (r.data["count"], r.data["all_equal"]) == (5, False)
        failures = r.data["failures"]
        assert [f["index"] for f in failures] == [0, 1, 3, 4]
        assert failures[2] == {
            "index": 3,
            "rep": {
                "q": 5,
                "group": [1],
                "blocks": [
                    {"grade": [0], "length": 1, "scalar": "-1/2"},
                    {"grade": [0], "length": 1, "scalar": "6/7"},
                ],
            },
        }

    @pytest.mark.parametrize(
        "satake,keys,torus_sum,expected",
        [
            (
                ["sym", "2", "0"],
                ["parity", "positive_conductor", "torus_sum", "expected", "first_difference", "basis"],
                "8*m(2) + 4*m(3)",
                "1 + 8*m(2) + 4*m(3)",
            ),
            (
                ["sym", "2", "-1", "1/2"],
                ["parity", "torus_sum", "central_product", "expected", "first_difference", "basis"],
                "45/8 + 15/8*m(1) + 35/8*m(2) + 15/4*m(3)",
                "53/8 + 15/8*m(1) + 35/8*m(2) + 15/4*m(3)",
            ),
        ],
    )
    def test_bf_differs_from_its_product_form(self, monkeypatch, satake, keys, torus_sum, expected):
        """1 added to the product side at t1 t2^2."""
        real = torus_sums.product_grid

        def bumped(params, l1, l2):
            grid = [list(row) for row in real(params, l1, l2)]
            grid[1][2] = grid[1][2] + MultiPoly.constant(params.nvars, params.scale**5)  # 1, at the cell's scale
            return tuple(map(tuple, grid))

        monkeypatch.setattr(torus_sums, "product_grid", bumped)
        r = self.check(
            {"task": "verify-bf", "satake": satake, "truncation": [2, 3]},
            "two-variable torus sum differs from its product form at t1^1 t2^2",
            keys,
        )
        assert list(r.data["first_difference"]) == ["t1_power", "t2_power", "torus_sum", "expected"]
        assert r.data["first_difference"] == {
            "t1_power": 1,
            "t2_power": 2,
            "torus_sum": torus_sum,
            "expected": expected,
        }
        assert r.data["torus_sum"][1][2] == torus_sum
        assert r.data["expected"][1][2] == expected

    @pytest.mark.parametrize("satake", [["sym", "sym", "sym"], ["sym", "sym", "0"]])
    def test_probe_fails_where_the_product_side_is_wrong(self, monkeypatch, satake):
        """1 added to the product side at t2^2: the probe names that cell, whether or not an entry vanishes."""
        real = torus_sums.product_grid

        def bumped(params, l1, l2):
            grid = [list(row) for row in real(params, l1, l2)]
            grid[0][2] = grid[0][2] + MultiPoly.constant(params.nvars, params.scale**4)  # 1, at the cell's scale
            return tuple(map(tuple, grid))

        monkeypatch.setattr(torus_sums, "product_grid", bumped)
        r = self.check(
            {"task": "bf-odd-probe", "satake": satake, "truncation": [2, 2]},
            "two-variable torus sum differs from (1 - ω t1 t2^1) times the product of factors at t1^0 t2^2",
            ["conductor_hypothesis", "basis"],
        )
        assert r.data == {"conductor_hypothesis": "0" in satake, "basis": "monomial_symmetric"}


_TEXT = st.text(st.sampled_from('aα"\\/\n\t\x00\x1f\x7f é€😀') | st.characters(), max_size=8)
_SCALARS = st.none() | st.booleans() | st.integers(-(10**40), 10**40) | _TEXT
_VALUES = st.recursive(
    _SCALARS | st.lists(_TEXT, max_size=4) | st.lists(st.integers(-(10**40), 10**40), max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestRandomSuites:
    """The random suites draw each rep's flat fields, with no constructor checks and no Fraction.

    Their verdicts, failures and counts are those of the public path: a
    `WDRep` from `random_wdrep` or `random_k1_rep`, its verdict from
    `divisibility_check` or `prop_H_equality`, printed by `_describe_rep`.
    """

    SUITES = ["galois-divisibility", "galois-H"]

    @staticmethod
    def suite(task, count, seed):
        return run_one({"task": task, "random": {"count": count}, "seed": seed})

    @pytest.mark.parametrize("task", SUITES)
    def test_a_passing_suite_builds_no_objects(self, monkeypatch, task):
        expected = self.suite(task, 200, 11)
        assert expected.verdict == "pass"

        def built(*args, **kwargs):
            raise AssertionError("a passing suite checked a rep or built a Fraction")

        monkeypatch.setattr(weil_deligne.WDRep, "__init__", built)
        monkeypatch.setattr(weil_deligne, "Fraction", built)
        r = self.suite(task, 200, 11)
        assert (r.verdict, r.summary, r.data) == (expected.verdict, expected.summary, expected.data)

    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_suites_agree_with_the_public_path(self, monkeypatch, seed):
        """With the first exterior-square root dropped, both routes fail on the same reps."""
        real = weil_deligne.ext_sq_root_indices
        monkeypatch.setattr(weil_deligne, "ext_sq_root_indices", lambda rep: real(rep)[1:])
        count = 300
        rng = random.Random(seed)
        failures, strict = [], 0
        for i in range(count):
            rep = weil_deligne.random_wdrep(rng)
            verdict = weil_deligne.divisibility_check(rep)
            if not verdict.divides:
                failures.append({"index": i, "rep": galois_tasks._describe_rep(rep)})
            strict += verdict.strict
        r = self.suite("galois-divisibility", count, seed)
        assert json.dumps(r.data["failures"]) == json.dumps(failures)
        assert r.data["strict_count"] == strict
        assert len(failures) >= 10
        rng = random.Random(seed)
        failures = []
        for i in range(count):
            rep = weil_deligne.random_k1_rep(rng, require_hypothesis=True)
            if not weil_deligne.prop_H_equality(rep).equal:
                failures.append({"index": i, "rep": galois_tasks._describe_rep(rep)})
        r = self.suite("galois-H", count, seed)
        assert json.dumps(r.data["failures"]) == json.dumps(failures)
        assert len(failures) >= 10

    @pytest.mark.parametrize(
        "draws, message",
        [
            (
                lambda rng, count, require_hypothesis: weil_deligne._k1_draws(rng, count, require_hypothesis=False),
                "precondition violated: pairing hypothesis violated: ramified grades",
            ),
            (
                lambda rng, count, require_hypothesis: weil_deligne._wdrep_draws(rng, count),
                "precondition violated: equality statement applies to length-1 blocks only",
            ),
        ],
        ids=["hypothesis", "lengths"],
    )
    def test_the_h_suite_checks_each_drawn_rep(self, monkeypatch, draws, message):
        """A drawn rep outside the statement is a precondition error, not a verdict."""
        monkeypatch.setattr(galois_tasks, "_k1_draws", draws)
        r = self.suite("galois-H", 200, 11)
        assert (r.verdict, r.exit_code) == ("error", 2)
        assert r.summary.startswith(message)


def _report(task, summary, data):
    return tasks.Report(task, "pass", summary, data, 0.0)


class TestCanonicalJson:
    """`emit_machine` writes the bytes of the `json.dumps` call in `oracles.machine_json`."""

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(_TEXT, _VALUES, max_size=4), _TEXT, _VALUES)
    @example({}, "", [])
    @example({"k": []}, "α", {"a": {}, "b": [[], {}, ()], "c": [[[]]]})
    @example({"x": ()}, '"\\\n', [True, False, None, 0, -(10**39) - 7, "α\x01"])
    def test_matches_the_oracle(self, task, summary, value):
        reports = [_report(task, summary, {"value": value}), _report({}, "", {})]
        assert emit_machine(reports) == machine_json(reports)

    @pytest.mark.parametrize(
        "value",
        [1.5, 0.0, [1, 2.0], Fraction(1, 2), {"a": {1, 2}}, set(), {1: "a"}, {"a": 1, 2: "b"}, {None: 1}],
        ids=repr,
    )
    def test_refuses_what_json_would_not_keep_exact(self, value):
        with pytest.raises(TypeError):
            emit_machine([_report({}, "", {"value": value})])


class TestFmtAgainst:
    def test_reuses_equal_coefficients_only(self):
        x = MultiPoly.variable(1, 0)
        a = [MultiPoly.one(1), x, x * x]
        a_text = ["1", "m(1)", "m(2)"]
        got = satake_tasks._fmt_row([MultiPoly.one(1), -x, x * x], 1, 1, a, a_text)
        assert got == ["1", "-m(1)", "m(2)"]
        assert got[2] is a_text[2]

    def test_prints_cell_j_at_scale_times_step_to_the_j(self):
        """A row held at 4, 4*9, 4*81 prints each cell divided by its own scale."""
        x = MultiPoly.variable(1, 0)
        row = [MultiPoly.constant(1, 2), x * 18, x * x * 81 * 4]
        assert satake_tasks._fmt_row(row, 4, 9) == ["1/2", "1/2*m(1)", "m(2)"]
        # a differing cell is printed at its own scale too
        got = satake_tasks._fmt_row(row, 4, 9, [MultiPoly.constant(1, 2), x, x], ["ref", "r1", "r2"])
        assert got == ["ref", "1/2*m(1)", "m(2)"]


class TestEmission:
    def make_reports(self):
        return run_all(
            parse_document(
                doc(
                    {"task": "lfactor", "satake": ["sym"], "truncation": 2},
                    {"task": "verify-littlewood", "satake": ["sym", "sym"], "truncation": 3},
                )
            )
        )

    def test_machine_is_json_without_timing(self):
        out = emit_machine(self.make_reports())
        parsed = json.loads(out)
        assert parsed["format_version"] == 1
        assert len(parsed["reports"]) == 2
        for rep in parsed["reports"]:
            assert set(rep) == {"task", "verdict", "summary", "data"}

    def test_machine_is_ascii_and_stable(self):
        a = emit_machine(self.make_reports())
        b = emit_machine(self.make_reports())
        assert a == b
        a.encode("ascii")  # raises if any raw non-ascii slipped through

    def test_table_includes_timing_and_verdict(self):
        out = emit_table(self.make_reports())
        assert "verdict: info" in out and "verdict: pass" in out
        assert "timing:" in out

    def test_table_prints_an_empty_list(self):
        reports = run_all(
            parse_document(
                doc(
                    {
                        "task": "galois-divisibility",
                        "blocks": [{"grade": [0], "length": 2, "scalar": 2}],
                    },
                    {"task": "galois-H", "random": {"count": 2}},
                )
            )
        )
        lines = emit_table(reports).splitlines()
        assert "  formal_roots: []" in lines
        assert "  ext_sq_roots:" in lines and "    [0] 4/5" in lines
        assert "  failures: []" in lines

    def test_machine_matches_the_oracle(self):
        reports = self.make_reports()
        assert emit_machine(reports) == machine_json(reports)

    def test_exit_codes(self):
        reports = self.make_reports()
        assert exit_code(reports) == 0
        reports[0].verdict = "fail"
        assert exit_code(reports) == 1
        reports[1].verdict = "error"
        assert exit_code(reports) == 2
        assert exit_code([]) == 0


class TestCli:
    def run_cli(self, *argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        return code, buf.getvalue()

    def test_inline_lfactor(self):
        code, out = self.run_cli("lfactor", "--satake", "sym,sym", "--truncation", "2")
        assert code == 0
        assert "ext_sq_roots" in out

    def test_machine_format(self):
        code, out = self.run_cli(
            "verify-littlewood", "--satake", "sym,sym", "--truncation", "3", "--format", "machine"
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["reports"][0]["verdict"] == "pass"

    def test_run_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc({"task": "lfactor", "satake": ["2", "3"]})))
        code, out = self.run_cli("run", "--config", str(cfg))
        assert code == 0
        assert "standard_roots" in out

    @pytest.mark.parametrize(
        "body, location",
        [
            ({"format_version": 1, "tasks": [{"task": "lfactor", "satake": ["sym"]}], "truncation": 3},
             "document.truncation"),
            ({"format_version": 1, "task": "galois-H", "random": {"count": 3, "cuont": 7}}, "task.random.cuont"),
            ({"format_version": 1, "task": "galois-H",
              "blocks": [{"grade": [0], "length": 1, "scalar": "2", "lenght": 3}]}, "task.blocks[0].lenght"),
            ({"format_version": True, "task": "lfactor", "satake": ["sym"]}, "document.format_version"),
            ({"format_version": 1.0, "task": "lfactor", "satake": ["sym"]}, "document.format_version"),
        ],
        ids=["beside_tasks", "in_random", "in_block", "version_true", "version_float"],
    )
    def test_config_fields_outside_the_grammar_exit_2(self, tmp_path, capsys, body, location):
        """A field the grammar does not name would be ignored, and `true` or `1.0`
        equals 1 in Python: each is refused, at its location."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(body))
        code, out = self.run_cli("run", "--config", str(cfg))
        assert code == 2 and not out
        assert capsys.readouterr().err.startswith(f"error: {location}: ")

    def test_negative_seeds_exit_2(self, tmp_path, capsys):
        """`random.Random(-s)` draws the stream of s, so a seed -s would echo -s and run the suite of s."""
        assert random.Random(-3).getrandbits(32) == random.Random(3).getrandbits(32)
        cfg = tmp_path / "c.json"
        body = {"task": "galois-divisibility", "random": {"count": 5}}
        cfg.write_text(json.dumps(doc({**body, "seed": -3}, {**body, "seed": 3})))
        for argv, location in [
            (["run", "--config", str(cfg)], "tasks[0].seed"),
            (["galois-H", "--random-count", "5", "--seed", "-3"], "task.seed"),
        ]:
            code, out = self.run_cli(*argv)
            assert code == 2 and not out
            assert capsys.readouterr().err == f"error: {location}: seed must be >= 0\n"

    def test_run_batch_order(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                doc(
                    {"task": "verify-js", "satake": ["sym", "sym", "sym"], "truncation": 3},
                    {"task": "lfactor", "satake": ["sym"], "truncation": 1},
                )
            )
        )
        code, out = self.run_cli("run", "--config", str(cfg), "--format", "machine")
        assert code == 0
        got = [r["task"]["task"] for r in json.loads(out)["reports"]]
        assert got == ["verify-js", "lfactor"]

    def test_truncation_override(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(doc({"task": "lfactor", "satake": ["sym"], "truncation": 9}))
        )
        code, out = self.run_cli(
            "run", "--config", str(cfg), "--truncation", "2", "--format", "machine"
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["task"]["truncation"] == 2
        assert len(report["data"]["standard_series"]) == 3

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv(tasks.TRUNCATION_ENV_VAR, "2")
        code, out = self.run_cli("lfactor", "--satake", "sym", "--format", "machine")
        assert code == 0
        assert json.loads(out)["reports"][0]["task"]["truncation"] == 2

    def test_env_var_invalid(self, monkeypatch, capsys):
        monkeypatch.setenv(tasks.TRUNCATION_ENV_VAR, "six")
        code, _ = self.run_cli("lfactor", "--satake", "sym")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["lfactor", "--satake", "sym,2", "--truncation", "\u0663"],
            ["lfactor", "--satake", "sym,2", "--truncation", "\u20033"],
            ["verify-bf", "--satake", "sym,2", "--truncation", "2,\u0663"],
            ["galois-divisibility", "--q", "\u0663", "--block", "0:1:2"],
            ["galois-divisibility", "--block", "0:1_0:2"],
            ["galois-divisibility", "--group", "\u0662", "--block", "0:1:2"],
            ["galois-divisibility", "--group", "2", "--block", "\u0661:1:2"],
            ["galois-H", "--seed", "\u0667", "--random-count", "5"],
            ["galois-H", "--seed", "7", "--random-count", "\u0665"],
        ],
        ids=["truncation", "truncation_em_space", "window", "q", "length", "group", "grade", "seed", "count"],
    )
    def test_integers_outside_the_ascii_grammar_exit_2(self, argv):
        """`int` reads Arabic-Indic digits and underscores; the command line takes `[-+]?[0-9]+` only."""
        code, _ = self.run_cli(*argv)
        assert code == 2

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["galois-H", "--random-count", "\u0665"], "--random-count"),
            (["galois-divisibility", "--q", "x", "--block", "0:1:2"], "--q"),
            (["galois-H", "--seed", "\u0663", "--random-count", "5"], "--seed"),
        ],
        ids=["count", "q", "seed"],
    )
    def test_integer_errors_name_the_option(self, capsys, argv, option):
        code, _ = self.run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert f"argument {option}: expected an integer, got " in err
        assert "parse_integer" not in err

    def test_integers_may_carry_ascii_whitespace(self, monkeypatch):
        code, out = self.run_cli(
            "galois-H", "--seed", " 7\t", "--random-count", "\t5 ", "--truncation", " 3\t", "--format", "machine"
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert (report["task"]["seed"], report["data"]["count"]) == (7, 5)
        monkeypatch.setenv(tasks.TRUNCATION_ENV_VAR, " 2\n")
        code, out = self.run_cli("lfactor", "--satake", "sym,2", "--format", "machine")
        assert code == 0 and json.loads(out)["reports"][0]["task"]["truncation"] == 2

    @pytest.mark.parametrize("raw", ["\u0662", "1_0", "\u20032"])
    def test_env_var_outside_the_ascii_grammar(self, monkeypatch, capsys, raw):
        monkeypatch.setenv(tasks.TRUNCATION_ENV_VAR, raw)
        code, _ = self.run_cli("lfactor", "--satake", "sym")
        assert code == 2
        assert "environment: EXTSQ_TRUNCATION must be an integer" in capsys.readouterr().err

    def test_truncation_cap_on_the_command_line(self):
        cap = str(tasks.MAX_TRUNCATION)
        code, out = self.run_cli("lfactor", "--satake", "1/2,0", "--truncation", cap, "--format", "machine")
        assert code == 0 and json.loads(out)["reports"][0]["task"]["truncation"] == tasks.MAX_TRUNCATION
        code, _ = self.run_cli("lfactor", "--satake", "1/2,0", "--truncation", str(tasks.MAX_TRUNCATION + 1))
        assert code == 2
        code, _ = self.run_cli("verify-bf", "--satake", "sym,0", "--truncation", f"2,{tasks.MAX_TRUNCATION + 1}")
        assert code == 2

    def test_truncation_cap_in_the_environment(self, monkeypatch, capsys):
        monkeypatch.setenv(tasks.TRUNCATION_ENV_VAR, str(tasks.MAX_TRUNCATION))
        code, out = self.run_cli("lfactor", "--satake", "1/2,0", "--format", "machine")
        assert code == 0 and json.loads(out)["reports"][0]["task"]["truncation"] == tasks.MAX_TRUNCATION
        monkeypatch.setenv(tasks.TRUNCATION_ENV_VAR, str(tasks.MAX_TRUNCATION + 1))
        code, _ = self.run_cli("lfactor", "--satake", "1/2,0")
        assert code == 2
        assert "environment: EXTSQ_TRUNCATION must be between 0 and 32" in capsys.readouterr().err

    def test_window_on_a_mixed_document(self, tmp_path, capsys):
        """--truncation L1,L2 reaches the Galois tasks too; they check it and ignore it."""
        cfg = tmp_path / "c.json"
        bodies = [
            {"task": "verify-bf", "satake": ["sym", "0"]},
            {"task": "galois-H", "random": {"count": 2}},
        ]
        cfg.write_text(json.dumps(doc(*bodies)))
        code, out = self.run_cli("run", "--config", str(cfg), "--truncation", "4,4", "--format", "machine")
        assert code == 0
        assert [r["verdict"] for r in json.loads(out)["reports"]] == ["pass", "pass"]
        bodies[1]["truncation"] = "garbage"
        cfg.write_text(json.dumps(doc(*bodies)))
        code, _ = self.run_cli("run", "--config", str(cfg))
        assert code == 2
        assert "tasks[1].truncation: truncation must be an integer" in capsys.readouterr().err

    def test_rank_above_cap_exit_2(self, capsys):
        code, _ = self.run_cli("lfactor", "--satake", ",".join(["0"] * (tasks.MAX_RANK + 1)))
        assert code == 2
        assert "at most 16 entries" in capsys.readouterr().err

    def test_bad_config_is_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code, _ = self.run_cli("run", "--config", str(cfg))
        assert code == 2

    def test_over_long_integer_in_config_exit_2(self, tmp_path, capsys):
        """json.load refuses an int of more than 4300 digits with a plain ValueError."""
        cfg = tmp_path / "c.json"
        cfg.write_text('{"format_version": 1, "task": "lfactor", "satake": [%s]}' % ("9" * 5000))
        code, _ = self.run_cli("run", "--config", str(cfg))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: invalid JSON: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["lfactor", "--satake", "1e10000000,2"],
            ["galois-divisibility", "--block", "0:1:1e10000000"],
        ],
        ids=["satake", "block_scalar"],
    )
    def test_exponent_notation_exit_2_at_once(self, capsys, argv):
        """Fraction("1e10000000") alone takes seconds; the entry is refused unread."""
        start = time.perf_counter()
        code, _ = self.run_cli(*argv)
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "exponent notation is not accepted" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1_0", "1_000/3", "\u0661\u0662", "\uff11"])
    @pytest.mark.parametrize(
        "argv, location",
        [
            (["lfactor", "--satake", "2,{}"], "task.satake[1]"),
            (["galois-divisibility", "--block", "0:1:1", "--block", "0:1:{}"], "task.blocks[1].scalar"),
        ],
        ids=["satake", "block_scalar"],
    )
    def test_underscores_and_non_ascii_digits_exit_2(self, capsys, token, argv, location):
        """`Fraction` would read them as 10, 1000/3, 12 and 1."""
        code, _ = self.run_cli(*(arg.format(token) for arg in argv))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {location}: ") and f"malformed rational {token!r}" in err

    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0662", "\uff11"])
    @pytest.mark.parametrize(
        "task, location",
        [
            ({"task": "lfactor", "satake": ["sym", "{}"]}, "tasks[1].satake[1]"),
            (
                {"task": "galois-H", "group": [1], "blocks": [{"grade": [0], "length": 1, "scalar": "{}"}]},
                "tasks[1].blocks[0].scalar",
            ),
        ],
        ids=["satake", "block_scalar"],
    )
    def test_config_refuses_underscores_and_non_ascii_digits(self, tmp_path, capsys, token, task, location):
        doc = {"format_version": 1, "tasks": [{"task": "lfactor", "satake": ["1/2"]}, task]}
        cfg = tmp_path / "doc.json"
        cfg.write_text(json.dumps(doc).replace("{}", token), encoding="utf-8")
        code, out = self.run_cli("run", "--config", str(cfg))
        assert code == 2 and not out
        err = capsys.readouterr().err
        assert err.startswith(f"error: {location}: ") and f"malformed rational {token!r}" in err

    @pytest.mark.parametrize("token", ["\u20033", "3\u00a0"], ids=["em_space_before", "no_break_space_after"])
    @pytest.mark.parametrize(
        "argv, location",
        [
            (["lfactor", "--satake", "2,{}"], "task.satake[1]"),
            (["galois-divisibility", "--block", "0:1:1", "--block", "0:1:{}"], "task.blocks[1].scalar"),
        ],
        ids=["satake", "block_scalar"],
    )
    def test_non_ascii_whitespace_exit_2(self, capsys, token, argv, location):
        """Only ASCII whitespace is stripped: `str.strip()` would read both as 3."""
        code, _ = self.run_cli(*(arg.format(token) for arg in argv))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {location}: ") and f"malformed rational {token!r}" in err

    @pytest.mark.parametrize("token", ["\u20033", "3\u00a0"], ids=["em_space_before", "no_break_space_after"])
    @pytest.mark.parametrize(
        "task, location",
        [
            ({"task": "lfactor", "satake": ["sym", "{}"]}, "tasks[1].satake[1]"),
            (
                {"task": "galois-H", "group": [1], "blocks": [{"grade": [0], "length": 1, "scalar": "{}"}]},
                "tasks[1].blocks[0].scalar",
            ),
        ],
        ids=["satake", "block_scalar"],
    )
    def test_config_refuses_non_ascii_whitespace(self, tmp_path, capsys, token, task, location):
        doc = {"format_version": 1, "tasks": [{"task": "lfactor", "satake": ["1/2"]}, task]}
        cfg = tmp_path / "doc.json"
        cfg.write_text(json.dumps(doc, ensure_ascii=False).replace("{}", token), encoding="utf-8")
        code, out = self.run_cli("run", "--config", str(cfg))
        assert code == 2 and not out
        err = capsys.readouterr().err
        assert err.startswith(f"error: {location}: ") and f"malformed rational {token!r}" in err

    def test_ascii_whitespace_around_an_entry_is_stripped(self, tmp_path):
        code, out = self.run_cli("lfactor", "--satake", "2, 3\t", "--format", "machine")
        assert code == 0 and json.loads(out)["reports"][0]["task"]["satake"] == ["2", "3"]
        code, out = self.run_cli("galois-divisibility", "--block", "0:1: 3\t", "--format", "machine")
        assert code == 0 and json.loads(out)["reports"][0]["task"]["blocks"][0]["scalar"] == "3"
        block = {"grade": [0], "length": 1, "scalar": " 3\t"}
        doc = {"format_version": 1, "tasks": [
            {"task": "lfactor", "satake": ["sym", " 3\t"]},
            {"task": "galois-H", "group": [1], "blocks": [block]},
        ]}
        cfg = tmp_path / "doc.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        code, out = self.run_cli("run", "--config", str(cfg), "--format", "machine")
        reports = json.loads(out)["reports"]
        assert code == 0
        assert reports[0]["task"]["satake"] == ["sym", "3"]
        assert reports[1]["task"]["blocks"][0]["scalar"] == "3"

    def test_every_spelling_of_the_grammar_runs(self):
        code, out = self.run_cli("lfactor", "--satake", "0.25,-2/5,+3,.5,5., 7 ", "--format", "machine")
        assert code == 0
        assert json.loads(out)["reports"][0]["task"]["satake"] == ["0.25", "-2/5", "+3", ".5", "5.", "7"]

    def test_malformed_satake_entry_names_its_index(self, capsys):
        code, _ = self.run_cli("lfactor", "--satake", "2,1e5,3")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: task.satake[1]: malformed rational '1e5'")

    def test_eight_symbolic_blocks_print_a_bounded_report(self):
        """The factors print as root lists, so 8 symbols stay small and fast."""
        blocks = [arg for i in range(8) for arg in ("--block", f"0:1:s{i}")]
        start = time.perf_counter()
        code, out = self.run_cli("galois-divisibility", *blocks, "--format", "machine")
        elapsed = time.perf_counter() - start
        assert code == 0
        data = json.loads(out)["reports"][0]["data"]
        assert len(data["formal_roots"]) == len(data["ext_sq_roots"]) == 28
        assert data["quotient_roots"] == []
        assert len(out.encode()) < 20_000
        assert elapsed < 2.0

    def test_eight_symbols_print_a_bounded_lfactor_report(self):
        """The factors print as root lists, so 8 symbols stay small and fast."""
        start = time.perf_counter()
        satake = ",".join(["sym"] * 8)
        code, out = self.run_cli("lfactor", "--satake", satake, "--truncation", "0", "--format", "machine")
        elapsed = time.perf_counter() - start
        assert code == 0
        data = json.loads(out)["reports"][0]["data"]
        assert len(data["standard_roots"]) == 8 and len(data["ext_sq_roots"]) == 28
        assert len(out.encode()) <= 4096
        assert elapsed < 2.0

    def test_zero_block_scalar_names_its_block(self, capsys):
        blocks = [arg for s in ("1", "2", "0") for arg in ("--block", f"0:1:{s}")]
        code, _ = self.run_cli("galois-divisibility", *blocks)
        assert code == 2
        assert capsys.readouterr().err == "error: task.blocks[2].scalar: Frobenius scalar must be nonzero\n"

    def test_missing_config_file(self, tmp_path):
        code, _ = self.run_cli("run", "--config", str(tmp_path / "absent.json"))
        assert code == 2

    def test_usage_error(self):
        code, _ = self.run_cli("lfactor")  # --satake missing
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = self.run_cli("explode")
        assert code == 2

    def test_mixed_symbolic_steinberg_exit_2(self):
        code, _ = self.run_cli(
            "galois-divisibility", "--group", "1", "--block", "0:2:a"
        )
        assert code == 2

    def test_galois_inline_blocks(self):
        code, out = self.run_cli(
            "galois-divisibility",
            "--q", "5",
            "--group", "2",
            "--block", "1:1:b1",
            "--block", "1:1:b2",
            "--format", "machine",
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["verdict"] == "pass"
        assert report["data"]["strict"] is True

    def test_galois_random_inline(self):
        code, out = self.run_cli(
            "galois-H", "--random-count", "3", "--seed", "2", "--format", "machine"
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["data"]["count"] == 3

    def test_random_suite_refuses_explicit_fields_exit_2(self, capsys):
        code, _ = self.run_cli(
            "galois-divisibility",
            "--q", "7",
            "--group", "3",
            "--block", "0:1:2",
            "--random-count", "2",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "task.q: a random galois-divisibility suite does not read field 'q'" in err

    def test_overrides_reach_every_task_of_a_document(self):
        config = Path(__file__).resolve().parents[1] / "configs" / "galois.json"
        code, _ = self.run_cli("run", "--config", str(config), "--truncation", "3", "--seed", "2")
        assert code == 0

    def test_random_count_above_cap_exit_2(self):
        code, _ = self.run_cli("galois-H", "--random-count", "100001")
        assert code == 2

    def test_failing_verdict_exit_1(self, monkeypatch):
        """A fail forced on the product side (as in TestFailBranches) exits 1."""
        real = torus_sums.product_grid

        def bumped(params, l1, l2):
            grid = [list(row) for row in real(params, l1, l2)]
            grid[1][2] = grid[1][2] + MultiPoly.constant(params.nvars, params.scale**5)  # 1, at the cell's scale
            return tuple(map(tuple, grid))

        monkeypatch.setattr(torus_sums, "product_grid", bumped)
        code, out = self.run_cli(
            "verify-bf", "--satake", "sym,2,0", "--truncation", "2,3", "--format", "machine"
        )
        assert code == 1
        assert json.loads(out)["reports"][0]["verdict"] == "fail"

    def test_info_verdict_exits_0(self):
        code, out = self.run_cli(
            "verify-js", "--satake", "sym,sym,sym,sym", "--truncation", "2", "--format", "machine"
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["verdict"] == "info"

    @pytest.mark.parametrize(
        "blocks", [["--block", "0:17:2"], ["--block", "0:1:2"] * 17], ids=["one_block", "17_blocks"]
    )
    def test_galois_dimension_above_cap_exit_2(self, capsys, blocks):
        code, _ = self.run_cli("galois-divisibility", *blocks)
        assert code == 2
        err = capsys.readouterr().err
        assert "task.blocks: blocks must have lengths summing to at most 16, got 17" in err

    def test_galois_dimension_at_cap_exit_0(self):
        blocks = ["--block", "0:1:2"] * 16
        code, out = self.run_cli("galois-divisibility", *blocks, "--format", "machine")
        assert code == 0
        assert json.loads(out)["reports"][0]["verdict"] == "pass"
