import json
import time

import pytest

import tensorlattice.cli as cli

L1 = '{"kind": "weighted_l1", "weights": ["1", "1"]}'
OU12 = '{"kind": "weighted_order_unit", "weights": ["1", "2"]}'
U_FIXTURE = '{"shape": [2, 2], "entries": [["1", "-2"], ["3", "4"]]}'
GAP_U = '{"shape": [2, 2], "entries": [["2", "0"], ["0", "1"]]}'
DIAMOND = '{"generators": [["1", "0"], ["0", "1"]], "decoration": ["Sol", "Conv_b"]}'


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
