import json

import pytest

from qkflag.cli import main
from qkflag.poly import class_from_json
from qkflag.qkring import build_table, qk_product, table_entries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_text_exact_line(capsys):
    code, out, _ = run_cli(capsys, "product", "--n", "3", "--u", "2,1", "--v", "1,3")
    assert code == 0
    assert out.strip() == "O_2,1 * O_1,3 = Q1*O_2,3 + Q1Q2*O_3,1 - Q1Q2*O_2,1"


def test_product_unit_law(capsys):
    code, out, _ = run_cli(capsys, "product", "--n", "5", "--u", "5,1", "--v", "3,2")
    assert code == 0
    assert out.strip() == "O_5,1 * O_3,2 = O_3,2"


def test_product_zero_class_renders_zero(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--n", "5", "--u", "2,1", "--v", "2,1", "--classical"
    )
    assert code == 0
    assert out.strip() == "O_2,1 * O_2,1 = 0"


def test_product_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--n", "4", "--u", "1,4", "--v", "1,4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["u"] == [1, 4] and payload["v"] == [1, 4]
    table = build_table(4)
    assert class_from_json(payload) == qk_product((1, 4), (1, 4), 4, table)


def test_product_invalid_pair_exits_2(capsys):
    code, _, err = run_cli(capsys, "product", "--n", "4", "--u", "2,2", "--v", "1,3")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["product", "--n", "4", "--u", "nonsense", "--v", "1,3"])
    assert exc.value.code == 2


def test_verify_all_checks_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--checks", "positivity,ring,classical,degree"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("status=PASS" in line for line in lines)


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "3", "--checks", "chevalley", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["check"] == "chevalley"
    assert reports[0]["passed"] is True
    assert reports[0]["details"]["step_c_arbitration"]["chosen"] == "h2"


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--checks", "bogus")
    assert code == 2 and "unknown checks" in err


def test_table_csv_row_count(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--format", "csv")
    assert code == 0
    rows = out.strip().splitlines()
    expected = sum(
        len(list(p.terms())) for _, _, _, p in table_entries(build_table(3))
    )
    assert len(rows) - 1 == expected  # header line
    assert rows[0] == "u_i,u_j,v_i,v_j,w_i,w_j,d1,d2,coeff"


def test_table_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "table_n4.json"
    code, _, _ = run_cli(capsys, "table", "--n", "4", "--out", str(cache))
    assert code == 0 and cache.exists()
    code, out, _ = run_cli(
        capsys,
        "product", "--n", "4", "--u", "3,1", "--v", "1,4", "--table", str(cache),
    )
    assert code == 0
    table = build_table(4)
    direct = f"O_3,1 * O_1,4 = {table.product((3, 1), (1, 4))}"
    assert out.strip() == direct


def test_table_cache_wrong_rank_exits_2(tmp_path, capsys):
    cache = tmp_path / "table_n3.json"
    run_cli(capsys, "table", "--n", "3", "--out", str(cache))
    code, _, err = run_cli(
        capsys, "product", "--n", "4", "--u", "3,1", "--v", "1,4", "--table", str(cache)
    )
    assert code == 2 and "n=3" in err


def test_table_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "--n", "3")
    _, second, _ = run_cli(capsys, "table", "--n", "3")
    assert first == second


def test_conjecture_empty_diff(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--n", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["mismatches"] == []
    assert report["gating"] == "flipped"
    assert report["details"]["literal_gating_mismatches"] > 0


def test_conjecture_literal_gating_exits_1(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--n", "3", "--gating", "literal", "--format", "json"
    )
    assert code == 1
    report = json.loads(out)
    assert report["mismatches"]
    first = report["mismatches"][0]
    assert set(first) == {"u", "v", "w", "d1", "d2", "table", "conjecture"}


def test_correlator_two_point(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlator", "--kind", "two", "--n", "5", "--u", "2,3", "--w", "5,3", "--d", "l1",
    )
    assert code == 0 and out.strip() == "1"


def test_correlator_three_point_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "correlator", "--kind", "three", "--n", "4",
        "--u", "3,1", "--v", "2,4", "--w", "4,1", "--d", "1,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1


def test_correlator_pn(capsys):
    code, out, _ = run_cli(
        capsys, "correlator", "--kind", "pn", "--m", "3", "--i", "1,1,1", "--d", "1"
    )
    assert code == 0 and out.strip() == "0"


def test_correlator_unsupported_degree_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        "correlator", "--kind", "two", "--n", "5", "--u", "2,3", "--w", "5,3", "--d", "2,0",
    )
    assert code == 2 and "error" in err


def test_flags_balanced(capsys):
    code, out, _ = run_cli(
        capsys, "flags", "--balanced", "--shape", "2,4", "--degrees", "2,3"
    )
    assert code == 0
    assert out.strip() == "(1,1) (0,1,1,1)"


def test_flags_balanced_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "flags", "--balanced", "--shape", "2", "--degrees", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sequences"] == [[2, 3]]
    assert payload["spread"] == 1


def test_flags_stabilized(capsys):
    code, out, _ = run_cli(
        capsys,
        "flags", "--stabilized", "--shape", "1,3", "--ambient", "4",
        "--degrees", "6,6", "--k", "1", "--r", "3",
    )
    assert code == 0 and out.strip() == "stabilized"
    code, out, _ = run_cli(
        capsys,
        "flags", "--stabilized", "--shape", "1,3", "--ambient", "4",
        "--degrees", "5,6", "--k", "1", "--r", "3",
    )
    assert code == 0 and out.strip() == "not-stabilized"


def test_jobs_env_default(monkeypatch, capsys):
    monkeypatch.setenv("QKFLAG_JOBS", "4")
    code, out, _ = run_cli(capsys, "product", "--n", "3", "--u", "3,1", "--v", "1,2")
    assert code == 0 and out.strip() == "O_3,1 * O_1,2 = O_1,2"


def _assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["product", "verify"])
def test_cache_holding_a_list_exits_2(command, tmp_path, capsys):
    cache = tmp_path / "list.json"
    cache.write_text("[1,2]")
    argv = ["--u", "2,1", "--v", "1,3"] if command == "product" else []
    _assert_one_error_line(*run_cli(capsys, command, "--n", "3", *argv, "--table", str(cache)))


def test_cache_without_entries_exits_2(tmp_path, capsys):
    cache = tmp_path / "no_entries.json"
    cache.write_text('{"n":3}')
    _assert_one_error_line(*run_cli(capsys, "verify", "--n", "3", "--table", str(cache)))


def test_cache_with_empty_entries_exits_2(tmp_path, capsys):
    # an empty table used to print "O_2,1 * O_1,3 = 0" and exit 0
    cache = tmp_path / "empty.json"
    cache.write_text('{"n":3,"entries":[]}')
    result = run_cli(
        capsys, "product", "--n", "3", "--u", "2,1", "--v", "1,3", "--table", str(cache)
    )
    _assert_one_error_line(*result)


def test_cache_with_duplicate_entry_exits_2(tmp_path, capsys):
    cache = tmp_path / "dup.json"
    run_cli(capsys, "table", "--n", "3", "--out", str(cache))
    obj = json.loads(cache.read_text())
    dup = json.loads(json.dumps(obj["entries"][0]))
    dup["poly"][0]["coeff"] = 99
    obj["entries"].append(dup)
    cache.write_text(json.dumps(obj))
    result = run_cli(
        capsys, "product", "--n", "3", "--u", "1,2", "--v", "1,2", "--table", str(cache)
    )
    _assert_one_error_line(*result)


def test_cache_nested_too_deeply_exits_2(tmp_path, capsys):
    cache = tmp_path / "deep.json"
    cache.write_text("[" * 100_000 + "]" * 100_000)
    _assert_one_error_line(*run_cli(capsys, "verify", "--n", "3", "--table", str(cache)))
