import contextlib
import io
import json
import multiprocessing
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tensorlattice.cli as cli
from tensorlattice import projective, suite
from tensorlattice.rng import SplitStream
from tensorlattice.jsonio import MAX_DIGITS

L1 = '{"kind": "weighted_l1", "weights": ["1", "1"]}'
OU12 = '{"kind": "weighted_order_unit", "weights": ["1", "2"]}'
U_FIXTURE = '{"shape": [2, 2], "entries": [["1", "-2"], ["3", "4"]]}'
GAP_U = '{"shape": [2, 2], "entries": [["2", "0"], ["0", "1"]]}'
DIAMOND = '{"generators": [["1", "0"], ["0", "1"]], "decoration": ["Sol", "Conv_b"]}'


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_outcome(argv):
    """Exit 0, 1 or 2 with no traceback; an error is one short `error: ` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1
                         and err.endswith("\n") and len(err) <= 1000), err[:200]


class TestSeminorm:
    def test_closed_pair_exits_zero(self, capsys):
        code, out, err = run(capsys, ["seminorm", L1, L1, U_FIXTURE])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["lower"] == payload["upper"] == "10"
        assert payload["closed_form"] == "10"
        assert payload["gap"] == "0"

    def test_starved_budget_exits_two(self, capsys):
        code, out, _ = run(capsys, ["seminorm", L1, OU12, GAP_U,
                                    "--kmax", "1", "--restarts", "0"])
        assert code == 2
        payload = json.loads(out)
        assert payload["lower"] == "5/2" and payload["upper"] == "3"
        assert payload["gap"] == "1/2"

    def test_tolerance_accepts_the_gap(self, capsys):
        code, _, _ = run(capsys, ["seminorm", L1, OU12, GAP_U,
                                  "--kmax", "1", "--restarts", "0",
                                  "--tolerance", "1"])
        assert code == 0

    def test_full_budget_closes_the_gap(self, capsys):
        code, out, _ = run(capsys, ["seminorm", L1, OU12, GAP_U])
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == payload["upper"] == "5/2"

    def test_block_seminorm_pair_has_a_closed_form(self, capsys):
        # disjoint generators on both sides: l1 sums of block maxima
        p = '{"kind": "polyhedral_gauge", "generators": [["1", "0", "2"], ["0", "1", "0"]]}'
        q = '{"kind": "polyhedral_gauge", "generators": [["-2", "1"]]}'
        u = '{"entries": [["1", "-2"], ["3", "0"], ["4", "1"]]}'
        code, out, err = run(capsys, ["seminorm", p, q, u])
        assert code == 0 and err == ""
        payload = json.loads(out)
        # block {0, 2} x {0, 1}: max(1/2, 2, 1, 1/2) = 2; block {1} x {0, 1}: 3/2
        assert payload["lower"] == payload["upper"] == payload["closed_form"] == "7/2"

    def test_weighted_queries_never_build_the_block_candidate(self, monkeypatch, capsys):
        # the structural candidates close every weighted pair under the
        # default budget, so the block candidate is never reached
        def refuse(*args):
            raise AssertionError("block candidate built for a weighted pair")

        monkeypatch.setattr(projective, "_block_candidate", refuse)
        rng = SplitStream(107).split("weighted-cli")
        kinds = ("weighted_l1", "weighted_order_unit")
        for t in range(200):
            r = rng.split(t)
            n, m = r.randint(1, 4), r.randint(1, 4)
            # l1 weights may vanish; order-unit weights may not
            p, q = (json.dumps({"kind": kind, "weights": [
                str(r.fraction(0 if kind == "weighted_l1" else 1, 3, 4)) for _ in range(dim)]})
                for kind, dim in ((kinds[t % 2], n), (kinds[t // 2 % 2], m)))
            u = json.dumps({"entries": [[str(r.fraction(-3, 3, 4)) for _ in range(m)]
                                        for _ in range(n)]})
            code, out, err = run(capsys, ["seminorm", p, q, u])
            assert code == 0 and err == "", (p, q, u, err)
            assert json.loads(out)["gap"] == "0"

    def test_missing_key_is_diagnosed(self, capsys):
        bad_p = '{"kind": "weighted_l1"}'
        code, out, err = run(capsys, ["seminorm", bad_p, L1, U_FIXTURE])
        assert code == 1
        assert out == ""
        assert err.startswith("error: field")
        assert "weights" in err

    def test_malformed_json_is_diagnosed(self, capsys):
        code, _, err = run(capsys, ["seminorm", "{not json", L1, U_FIXTURE])
        assert code == 1
        assert err.startswith("error: field")

    def test_huge_exponent_is_rejected_quickly(self, capsys):
        huge_u = '{"shape": [1, 2], "entries": [["1", "1e1000000"]]}'
        start = time.perf_counter()
        code, out, err = run(capsys, ["seminorm", '{"kind": "weighted_l1", "weights": ["1"]}',
                                      L1, huge_u])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error: field 'u.entries[0][1]'")

    def test_megabyte_of_digits_is_rejected_quickly(self, capsys):
        huge_u = json.dumps({"shape": [1, 1], "entries": [["7" * 1_000_000]]})
        start = time.perf_counter()
        code, out, err = run(capsys, ["seminorm", '{"kind": "weighted_l1", "weights": ["1"]}',
                                      '{"kind": "weighted_l1", "weights": ["1"]}', huge_u])
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error: field 'u.entries[0][0]'")
        assert "1000000 digits" in err and len(err) < 200

    def test_long_malformed_entry_gives_a_short_diagnostic(self, capsys):
        long_u = json.dumps({"shape": [1, 1], "entries": [["1" * 10000 + "x"]]})
        code, out, err = run(capsys, ["seminorm", '{"kind": "weighted_l1", "weights": ["1"]}',
                                      '{"kind": "weighted_l1", "weights": ["1"]}', long_u])
        assert code == 1 and out == ""
        assert len(err) < 200
        assert "u.entries[0][0]" in err

    def test_ragged_rows_name_the_row(self, capsys):
        ragged = '{"entries": [["1", "2"], ["3"]]}'
        code, out, err = run(capsys, ["seminorm", L1, L1, ragged])
        assert code == 1 and out == ""
        assert err.startswith("error: field 'u.entries[1]'")
        assert "expected 2" in err and "got 1" in err

    def test_deeply_nested_payload_is_diagnosed(self, capsys):
        deep = '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}"
        code, out, err = run(capsys, ["seminorm", L1, L1, deep])
        assert code == 1 and out == ""
        assert err.startswith("error: field 'u': invalid JSON")

    def test_integer_literal_past_the_digit_limit_is_diagnosed(self, capsys):
        long_int = '{"entries": [[' + "7" * 5000 + "]]}"
        code, out, err = run(capsys, ["seminorm", L1, L1, long_int])
        assert code == 1 and out == ""
        assert err.startswith("error: field 'u': invalid JSON")

    def test_json_file_output_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["seminorm", L1, L1, U_FIXTURE,
                                    "--json", str(target)])
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_file_payload_equivalent_to_inline(self, capsys, tmp_path):
        up = tmp_path / "u.json"
        up.write_text(U_FIXTURE)
        code_a, out_a, _ = run(capsys, ["seminorm", L1, L1, str(up)])
        code_b, out_b, _ = run(capsys, ["seminorm", L1, L1, U_FIXTURE])
        assert (code_a, out_a) == (code_b, out_b)


class TestMember:
    def test_solid_scan(self, capsys):
        code, out, _ = run(capsys, ["member",
                                    '{"generators": [["1", "-2"]], "decoration": ["Sol"]}',
                                    '["0", "2"]'])
        assert code == 0
        assert json.loads(out)["membership"] == "member"

    def test_hull_non_member(self, capsys):
        code, out, _ = run(capsys, ["member", DIAMOND, '["1", "1"]'])
        assert code == 0
        assert json.loads(out)["membership"] == "non-member"

    def test_hull_radius_scales(self, capsys):
        code, out, _ = run(capsys, ["member", DIAMOND, '["1", "1"]',
                                    "--radius", "2"])
        assert code == 0
        assert json.loads(out)["membership"] == "member"

    @pytest.mark.parametrize("radius", ["-1", "0"])
    def test_hull_radius_must_be_positive(self, capsys, radius):
        # radius -1 would mirror Conv{(1, 0)} onto (-1, 0), radius 0 shrink it to {0}
        segment = '{"generators": [["1", "0"]], "decoration": ["Conv"]}'
        code, out, err = run(capsys, ["member", segment, '["-1", "0"]', "--radius", radius])
        assert code == 1 and out == ""
        assert err.startswith("error: field 'radius': must be positive")

    def test_zero_seminorm_nbhd_is_decided(self, capsys):
        # p = 0 certifies (p (x) q)(u) = 0, so u lies in W
        zero = '{"kind": "weighted_l1", "weights": ["0", "0"]}'
        target = json.dumps({"p": json.loads(zero), "q": json.loads(L1)})
        code, out, err = run(capsys, ["member", target, U_FIXTURE])
        assert code == 0 and err == ""
        assert json.loads(out)["membership"] == "member"

    @pytest.mark.parametrize("point", [GAP_U, '{"entries": [["0", "0"], ["0", "0"]]}'])
    def test_nbhd_without_seminorms_exits_one(self, capsys, point):
        # a neighborhood is its pair of seminorms, even for the zero tensor
        target = json.dumps({"left": json.loads(DIAMOND), "right": json.loads(DIAMOND)})
        code, out, err = run(capsys, ["member", target, point])
        assert code == 1 and out == ""
        assert err == "error: field 'target.p': missing required key\n"

    def test_nbhd_of_block_seminorms_is_decided(self, capsys):
        # l1 of l-infinity blocks: max(|x_0|, |x_1|) + |x_2| on the left
        p = {"kind": "polyhedral_gauge", "generators": [["1", "1", "0"], ["0", "0", "1"]]}
        target = json.dumps({"p": p, "q": json.loads(OU12)})
        u = '{"entries": [["1", "0"], ["0", "2"], ["3", "0"]]}'
        # (p (x) q)(u) = max(1, 1) + 3 = 4, each block's largest |u_ij| / v_j
        for radius, verdict in (("4", "member"), ("7/2", "non-member")):
            code, out, err = run(capsys, ["member", target, u, "--radius", radius])
            assert code == 0 and err == ""
            assert json.loads(out)["membership"] == verdict

    def test_nbhd_tri_state_undecided_exits_two(self, capsys):
        target = json.dumps({
            "left": {"generators": [["1", "0"], ["0", "1"]],
                     "decoration": ["Sol", "Conv_b"]},
            "right": {"generators": [["1", "1/2"]],
                      "decoration": ["Sol", "Conv_b"]},
            "p": json.loads(L1),
            "q": json.loads(OU12),
        })
        code, out, _ = run(capsys, ["member", target, GAP_U,
                                    "--radius", "11/4",
                                    "--kmax", "1", "--restarts", "0"])
        assert code == 2
        assert json.loads(out)["membership"] == "undecided"

    def test_nbhd_decided_member(self, capsys):
        target = json.dumps({
            "left": {"generators": [["1", "0"], ["0", "1"]],
                     "decoration": ["Sol", "Conv_b"]},
            "right": {"generators": [["1", "1/2"]],
                      "decoration": ["Sol", "Conv_b"]},
            "p": json.loads(L1),
            "q": json.loads(OU12),
        })
        code, out, _ = run(capsys, ["member", target, GAP_U, "--radius", "3"])
        assert code == 0
        assert json.loads(out)["membership"] == "member"


def _long_decoration_set(decoration):
    return json.dumps({"generators": [["1", "0"]], "decoration": decoration})


_NEGATIVE = "-" + "9" * 4000
_NBHD_POINT = '{"entries": [["1", "0"], ["0", "1"]]}'


class TestBoundedDiagnostics:
    """Hostile payloads exit 1 with one short line that names the field."""

    @pytest.mark.parametrize("argv, field", [
        (["seminorm", json.dumps({"kind": "k" * 100_000, "weights": ["1"]}), L1, U_FIXTURE],
         "p.kind"),
        (["seminorm", L1, json.dumps({"kind": ["k"] * 100_000, "weights": ["1"]}), U_FIXTURE],
         "q.kind"),
        (["seminorm", json.dumps({"kind": "weighted_l1", "weights": [_NEGATIVE, "1"]}), L1,
          U_FIXTURE], "'p'"),
        (["member", _long_decoration_set(["y" * 100_000]), '["1", "0"]'],
         "target.decoration[0]"),
        (["member", _long_decoration_set(["Sol", {"op": "y" * 100_000}]), '["1", "0"]'],
         "target.decoration[1]"),
        (["member", _long_decoration_set(["Sol"] * 100_000), '["1", "0"]'],
         "target.decoration"),
        (["member", json.dumps({"left": json.loads(_long_decoration_set(["Sol"] * 100_000)),
                                "right": json.loads(DIAMOND)}), _NBHD_POINT],
         "target.p"),
        (["decompose", "--", json.dumps([_NEGATIVE]), '["1"]', '["1"]'], "'z'"),
        (["member", "--radius", _NEGATIVE, "--", json.dumps({"p": json.loads(L1),
                                                              "q": json.loads(L1)}),
          _NBHD_POINT], "radius"),
        (["decompose", '"' + "x" * 100_000 + '"', '["1"]', '["1"]'], "'z'"),
    ], ids=["kind", "kind-list", "negative-weight", "operator", "operator-object",
            "decoration", "nbhd-factor", "decompose-precondition", "radius", "file-name"])
    def test_short_line_names_the_field(self, capsys, argv, field):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200, err[:200]
        assert field in err


class TestExactDiagnostics:
    """Payload errors print one exact line; a field error names its field."""

    @pytest.mark.parametrize("argv, line", [
        (["member", '{"generators": [["1"], ["1", "0"]], "decoration": ["Sol"]}', '["1"]'],
         "error: field 'target.generators': generators must share a dimension"),
        # a mismatch between two arguments names no single field
        (["member", '{"generators": [["1", "0"]], "decoration": ["Sol"]}', '["1"]'],
         "error: set over dim 2 probed with dim 1"),
        (["seminorm", L1, L1, U_FIXTURE, "--tolerance", "-1"],
         "error: field 'tolerance': must be nonnegative"),
        (["member", "[1]", '["1"]'], "error: field 'target': expected a JSON object"),
        (["seminorm", L1, '{"kind": "weighted_l1", "weights": ["1"]}',
          '{"shape": [2, 1], "entries": [["1"]]}'],
         "error: field 'u.shape': does not match the entries' shape [1, 1]"),
        (["seminorm", '{"kind": "polyhedral_gauge", "generators": [["1"], ["1", "0"]]}',
          '{"kind": "weighted_l1", "weights": ["1"]}', '{"entries": [["1"], ["1"]]}'],
         "error: field 'p': polyhedral gauge generators must share a dimension"),
    ], ids=["set-generator-dims", "set-probe-dims", "tolerance", "member-target",
            "tensor-shape", "gauge-generator-dims"])
    def test_exact_line(self, capsys, argv, line):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", line + "\n")


class TestOptions:
    """A bad command line exits 1 with one `error: ` line, never argparse's exit 2."""

    def test_bad_option_value_exits_one(self, capsys):
        code, out, err = run(capsys, ["member", "S", "x", "--kmax", "x"])
        assert code == 1 and out == ""
        assert err == "error: argument --kmax: invalid int value: 'x'\n"

    def test_unrecognized_arguments_are_cut(self, capsys):
        code, _, err = run(capsys, ["member", "S", "x", "--" + "y" * 100_000, "a\nb"])
        assert code == 1
        assert err.startswith("error: unrecognized arguments: --yyy")
        assert err.count("\n") == 1 and len(err) <= 1000

    def test_restarts_are_bounded(self, capsys):
        # with one term the l1 (x) l1 identity never closes its gap, so every
        # restart would run
        identity = '{"entries": [["1", "0"], ["0", "1"]]}'
        started = time.monotonic()
        code, out, err = run(capsys, ["seminorm", L1, L1, identity,
                                      "--kmax", "1", "--restarts", "1000000"])
        assert time.monotonic() - started < 1
        assert code == 1 and out == ""
        assert err.startswith("error: field 'restarts': must be between 0 and 64")

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.sampled_from(["--kmax", "--restarts", "--seed"]),
           st.one_of(st.text(max_size=8), st.integers().map(str)))
    def test_only_clean_outcomes(self, option, value):
        one = '{"kind": "weighted_l1", "weights": ["1"]}'
        assert_clean_outcome(["seminorm", one, one, '{"entries": [["2"]]}', option, value])


class TestDecompose:
    def test_fixture(self, capsys):
        code, out, _ = run(capsys, ["decompose", '["3"]', '["2"]', '["2"]'])
        assert code == 0
        payload = json.loads(out)
        assert payload["z1"] == ["2"]
        assert payload["z2"] == ["1"]

    def test_two_dim_fixture(self, capsys):
        code, out, _ = run(capsys, ["decompose", '["-3", "1"]', '["-2", "1"]',
                                    '["1", "0"]'])
        assert code == 0
        payload = json.loads(out)
        assert payload["z1"] == ["-2", "1"]
        assert payload["z2"] == ["-1", "0"]

    def test_precondition_violation_exits_one(self, capsys):
        code, _, err = run(capsys, ["decompose", '["5"]', '["2"]', '["2"]'])
        assert code == 1
        assert "precondition" in err

    def test_seed_is_not_an_option(self, capsys):
        # decompose draws nothing, so it takes no seed
        code, out, err = run(capsys, ["decompose", '["3"]', '["2"]', '["2"]', "--seed", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error: unrecognized arguments: --seed 1")
        assert err.count("\n") == 1


class TestSuite:
    def test_small_suite_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["suite", "--triples", "2", "--samples", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_ok"]

    def test_deterministic_output(self, capsys):
        _, out_a, _ = run(capsys, ["suite", "--triples", "2", "--samples", "4"])
        _, out_b, _ = run(capsys, ["suite", "--triples", "2", "--samples", "4"])
        assert out_a == out_b

    @pytest.fixture
    def no_pool(self, monkeypatch):
        """No test starts a process: a worker pool raises."""
        def pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", pool)

    @pytest.mark.parametrize("argv, field", [
        (["--samples", "-1", "--triples", "0"], "triples"),
        (["--samples", "0"], "samples"),
        (["--triples", "-5"], "triples"),
        (["--workers", "0"], "workers"),
        (["--workers", "-3"], "workers"),
        (["--workers", "12"], "workers"),
        (["--workers", "9" * 4000], "workers"),
    ])
    def test_counts_are_bounded_before_any_work(self, capsys, monkeypatch, no_pool, argv, field):
        ran = []
        monkeypatch.setattr(suite, "run_suite", lambda **kwargs: ran.append(kwargs))
        code, out, err = run(capsys, ["suite", *argv])
        assert code == 1 and out == ""
        assert err.startswith(f"error: field '{field}': must be ")
        assert err.count("\n") == 1 and len(err) <= 200, err[:200]
        assert ran == []

    def test_one_triple_checks_an_unreached_direction_on_a_pinned_instance(self, capsys, no_pool):
        # At seed 42 the one triple of law 8 shares no generator between A
        # and B, so it leaves the printed direction vacuous; the pinned
        # instance with shared generators checks it, and nothing fails.
        code, out, err = run(capsys, ["suite", "--triples", "1", "--samples", "1"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["all_ok"]
        law8 = next(s for s in report["statements"] if s["id"] == "hull-law-8")
        assert law8["directions"]["printed"] == {
            "checked": 1, "violations": 0, "vacuous": 1, "witnesses": []}
        assert law8["observed"] == law8["expected"]

    @pytest.mark.parametrize("workers", ["1", "11"])
    def test_worker_bounds_are_inclusive(self, capsys, monkeypatch, no_pool, workers):
        ran = []

        def fake_run_suite(**kwargs):
            ran.append(kwargs)
            return {"all_ok": True}

        monkeypatch.setattr(suite, "run_suite", fake_run_suite)
        code, _, err = run(capsys, ["suite", "--workers", workers, "--triples", "1",
                                    "--samples", "1"])
        assert code == 0 and err == ""
        assert [(r["workers"], r["triples"], r["samples"]) for r in ran] == [(int(workers), 1, 1)]


def test_entry_point_runs_as_subprocess(tmp_path):
    # the installed console script is the same main()
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, "-m", "tensorlattice.cli", "decompose",
         '["3"]', '["2"]', '["2"]'],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["z1"] == ["2"]


def test_cli_import_leaves_multiprocessing_out():
    # only a suite run with more than one worker loads it
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, tensorlattice.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# ---------------------------------------------------------------------------
# The tensor JSON boundary under generated payloads
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.fractions(max_denominator=9).map(str),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    # long digit strings on both sides of the digit bound
    st.builds(lambda n, d: d * n, st.integers(1, MAX_DIGITS + 5_000), st.sampled_from("179")),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=1),
)
_ROWS = st.one_of(st.lists(_SCALARS, max_size=4), _SCALARS)
_ENTRIES = st.one_of(st.lists(_ROWS, max_size=4), _SCALARS)
_SHAPES = st.one_of(st.lists(st.integers(-1, 5), max_size=3), _SCALARS)


@st.composite
def _tensor_payloads(draw):
    """A `u` argument as JSON text, with the factor dimensions that fit it."""
    entries = draw(_ENTRIES)
    rows = entries if isinstance(entries, list) else []
    n = max(len(rows), 1)
    m = max(len(rows[0]) if rows and isinstance(rows[0], list) else 1, 1)
    form = draw(st.sampled_from(["entries", "shaped", "misshaped", "bare", "raw"]))
    if form == "entries":
        payload = {"entries": entries}
    elif form == "shaped":
        payload = {"shape": [len(rows), m], "entries": entries}
    elif form == "misshaped":
        payload = {"shape": draw(_SHAPES), "entries": entries}
    elif form == "bare":
        payload = entries
    else:
        depth = draw(st.integers(1, 50_000))
        literal = "[" * depth + "]" * depth
        digits = "9" * draw(st.integers(1, 6_000))
        return draw(st.sampled_from([literal, f'{{"entries": [[{digits}]]}}'])), n, m
    return json.dumps(payload), n, m


class TestTensorPayloadFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(_tensor_payloads(), st.sampled_from(["seminorm", "member"]),
           st.sampled_from(["weighted_l1", "weighted_order_unit"]))
    def test_only_clean_outcomes(self, case, command, kind):
        u, n, m = case
        p = json.dumps({"kind": kind, "weights": ["1"] * n})
        q = json.dumps({"kind": "weighted_order_unit", "weights": ["2"] * m})
        if command == "seminorm":
            argv = ["seminorm", p, q, u, "--kmax", "1"]
        else:
            argv = ["member", json.dumps({"p": json.loads(p), "q": json.loads(q)}), u]
        assert_clean_outcome(argv)


# ---------------------------------------------------------------------------
# The seminorm, generated-set and element JSON boundary
# ---------------------------------------------------------------------------

_RATIONALS = st.one_of(st.fractions(max_denominator=9).map(str), st.integers(-3, 3))
_WEIGHTS = st.fractions(0, 3, max_denominator=9).map(str)
_KIND_NAMES = ["weighted_l1", "weighted_order_unit", "polyhedral_gauge"]


def _mostly(valid, hostile):
    """Three draws in four from `valid`, so most payloads get past the parser."""
    return st.integers(0, 3).flatmap(lambda i: hostile if i == 3 else valid)


# long numbers of either sign, for the diagnostics that print a value
_LONG_NUMBERS = st.builds(lambda sign, n: sign + "9" * n, st.sampled_from(["", "-"]),
                          st.integers(1, 5_000))


def _elements(dim, values=_RATIONALS):
    return _mostly(st.lists(values, min_size=dim, max_size=dim), st.one_of(
        st.lists(st.one_of(_RATIONALS, _LONG_NUMBERS, _SCALARS), min_size=dim, max_size=dim),
        st.lists(_SCALARS, max_size=3),
        _SCALARS,
    ))


def _generator_lists(dim):
    return _mostly(st.lists(_elements(dim), min_size=1, max_size=3), _SCALARS)


_KINDS = _mostly(st.sampled_from(_KIND_NAMES), st.one_of(
    st.builds(lambda n: "k" * n, st.integers(1, 100_000)),
    _SCALARS,
))
_DECORATIONS = _mostly(
    st.sampled_from([["Sol", "Conv_b"], ["Sol", "Conv"], ["Conv_b"], ["Conv"], ["Sol"], []]),
    st.one_of(
        st.lists(st.one_of(st.sampled_from(["Sol", "Conv", "Conv_b"]), _SCALARS), max_size=3),
        st.builds(lambda name, n: [name] * n, st.sampled_from(["Sol", "x" * 50]),
                  st.integers(1, 50_000)),
        _SCALARS,
    ))


@st.composite
def _seminorm_payloads(draw, dim=2):
    kind = draw(_KINDS)
    key = "generators" if kind == "polyhedral_gauge" else "weights"
    key = draw(_mostly(st.just(key), st.sampled_from(["weights", "generators"])))
    return {"kind": kind,
            key: draw(_elements(dim, _WEIGHTS) if key == "weights" else _generator_lists(dim))}


@st.composite
def _set_payloads(draw, dim=2):
    return {"generators": draw(_generator_lists(dim)), "decoration": draw(_DECORATIONS)}


@st.composite
def _argvs(draw):
    """One CLI invocation with generated p, q, target, point or decompose payloads."""
    # "--" ends the options, so a payload such as -1e+16 reaches the command
    command = draw(st.sampled_from(["seminorm", "nbhd", "set", "decompose"]))
    dim = draw(st.integers(1, 2))
    if command == "decompose":
        return ["decompose", "--"] + [json.dumps(draw(_elements(dim))) for _ in range(3)]
    if command == "set":
        return ["member", "--", json.dumps(draw(_set_payloads(dim))),
                json.dumps(draw(_elements(dim)))]
    p, q = draw(_seminorm_payloads()), draw(_seminorm_payloads())
    u = json.dumps({"entries": [["1", "-1/2"], ["0", "2"]]})
    if command == "seminorm":
        return ["seminorm", "--kmax", "1", "--", json.dumps(p), json.dumps(q), u]
    target = {"p": p, "q": q}
    if draw(st.booleans()):
        target = {"left": draw(_set_payloads()), "right": draw(_set_payloads())}
    radius = draw(_mostly(_WEIGHTS, _LONG_NUMBERS))
    return ["member", "--radius", radius, "--", json.dumps(target), u]


class TestBoundaryFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(_argvs())
    def test_only_clean_outcomes(self, argv):
        assert_clean_outcome(argv)
