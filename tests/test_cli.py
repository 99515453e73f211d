import copy
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qkflag
from qkflag import qkring
from qkflag.cli import CSV_HEADER, FORMATS, build_parser, main, run
from qkflag.errors import InvalidRank, MalformedTable
from qkflag.poly import class_from_json
from qkflag.qkring import build_table, qk_product, table_to_json

GOLDEN_N3 = pathlib.Path(__file__).parent / "data" / "golden_table_n3.json"
SNAPSHOT = pathlib.Path(__file__).parent / "data" / "cli_snapshot.tsv"


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
    expected = sum(len(col.ordered_terms()) for op in build_table(3).ops for col in op.cols)
    assert len(rows) - 1 == expected  # header line
    assert rows[0] == "u_i,u_j,v_i,v_j,w_i,w_j,d1,d2,coeff"


@pytest.mark.parametrize("n", [3, 4])
def test_table_stdout_writes_the_golden_bytes(n, capsys):
    # the parsed comparison elsewhere ignores key order; this pins the written bytes
    golden = (GOLDEN_N3.parent / f"golden_table_n{n}.json").read_text()
    code, out, _ = run_cli(capsys, "table", "--n", str(n))
    assert code == 0
    assert json.dumps(json.loads(out), separators=(",", ":")) + "\n" == golden
    code, out, _ = run_cli(capsys, "table", "--n", str(n), "--format", "csv")
    assert code == 0
    want = [
        ",".join(map(str, [*e["u"], *e["v"], *e["w"], t["d1"], t["d2"], t["coeff"]]))
        for e in json.loads(golden)["entries"]
        for t in e["poly"]
    ]
    assert out.splitlines() == [",".join(CSV_HEADER), *want]


@pytest.mark.parametrize("n", [7, 8])
def test_table_out_writes_the_bytes_of_table_to_json(n, tmp_path, capsys):
    # the rows are streamed; the file must still read as one json.dumps of the whole table
    out = tmp_path / f"t{n}.json"
    code, stdout, _ = run_cli(capsys, "table", "--n", str(n), "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text(encoding="utf-8") == json.dumps(table_to_json(build_table(n))) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_table_stdout_equals_the_out_file(fmt, tmp_path, capsys):
    out = tmp_path / f"t4.{fmt}"
    _, printed, _ = run_cli(capsys, "table", "--n", "4", "--format", fmt)
    code, _, _ = run_cli(capsys, "table", "--n", "4", "--format", fmt, "--out", str(out))
    assert code == 0
    with open(out, encoding="utf-8", newline="") as fh:  # keep the CSV rows' \r\n as written
        assert fh.read() == printed


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_out_holds_no_more_than_twice_the_table(tmp_path):
    # holding the entry list and the whole JSON text as well as the table peaks at about 12x
    out = str(tmp_path / "t8.json")
    run(["table", "--n", "8", "--out", out])  # both peaks below start from the same loaded modules
    built = _traced_peak(lambda: build_table(8))
    written = _traced_peak(lambda: run(["table", "--n", "8", "--out", out]))
    assert written <= 2 * built, (written, built)


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


@pytest.mark.parametrize("d", ["0", "-1"])
def test_correlator_pn_names_the_degree_it_refuses(capsys, d):
    code, out, err = run_cli(capsys, "correlator", "--kind", "pn", "--m", "2", "--i", "1,1,1", "--d", d)
    assert code == 2 and out == ""
    assert err.startswith(f"error: degree {d} is ") and err.count("\n") == 1


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


@pytest.mark.parametrize("mode", (["--balanced"], ["--stabilized", "--k", "1", "--r", "0"]))
def test_flags_wrong_length_degrees_exit_2(capsys, mode):
    code, out, err = run_cli(capsys, "flags", *mode, "--shape", "1,3", "--degrees", "2")
    assert code == 2 and out == ""
    assert err == "error: 1 degrees for an 2-step shape\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("correlator --kind pn --m 3 --i 1,2 --d 1", "--i must list exactly three indices"),
        ("correlator --kind pn --m 3 --i 1,2,3 --d x", "--d must be an integer for --kind pn, got 'x'"),
        ("correlator --kind two --n 5 --u 2,3 --d l1", "--kind two needs --n, --u, --w and --d"),
        ("correlator --kind three --n 4 --u 3,1 --w 4,1 --d 1,1", "--kind three needs --v"),
        ("correlator --kind two --n 5 --u 2,3 --w 5,3 --d 1", "expected 'i,j', got '1'"),
        ("flags --stabilized --shape 1,3 --degrees 6,6", "--stabilized needs --k and --r"),
    ],
)
def test_argument_errors_exit_2_with_one_error_line(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_malformed_integer_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flags", "--balanced", "--shape", "2,x", "--degrees", "1,1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected comma-separated integers, got '2,x'" in err and "Traceback" not in err


def test_jobs_flag_is_gone(capsys):
    # --jobs was parsed and never used; argparse now rejects it
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2", "product", "--n", "3", "--u", "3,1", "--v", "1,2"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert "--jobs" not in build_parser().format_help()


def test_run_reads_a_tuple_argv(capsys):
    assert run(("correlator", "--kind", "pn", "--m", "2", "--i", "1,2,3", "--d", "1")) == 0
    assert capsys.readouterr().out == "1\n"


def test_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch):
    # a build that runs out of memory is an unsupported input, not a failed check
    def exhausted(n, step_c="auto"):
        raise MemoryError

    monkeypatch.setattr(qkring, "build_table", exhausted)
    code, out, err = run_cli(capsys, "verify", "--n", "5")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "Traceback" not in err


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux only")
def test_a_build_past_a_memory_cap_exits_2_with_one_error_line():
    # under a 200 MiB address-space cap the n = 40 build runs out of memory;
    # the message prints only once the failed build's frames are released
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    src = str(pathlib.Path(qkflag.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "qkflag.cli", "verify", "--n", "40", "--checks", "degree"],
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


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



def test_cache_with_huge_n_and_no_entries_exits_2(tmp_path, capsys):
    # the basis and the N^2 empty columns for n = 10^6 used to be allocated first
    cache = tmp_path / "huge.json"
    cache.write_text('{"n": 1000000, "entries": []}')
    result = run_cli(
        capsys, "product", "--n", "3", "--u", "1,2", "--v", "1,2", "--table", str(cache)
    )
    _assert_one_error_line(*result)


@pytest.mark.parametrize("key, index", [("u", [1.5, 2]), ("w", [2.0, 3])], ids=["u", "w"])
def test_cache_with_float_index_exits_2(key, index, tmp_path, capsys):
    # "u": [1.5, 2] used to end in a KeyError traceback, "w": [2.0, 3] to print Q1*O_2.0,3
    obj = json.loads(GOLDEN_N3.read_text())
    obj["entries"][0][key] = index
    cache = tmp_path / "float_index.json"
    cache.write_text(json.dumps(obj))
    result = run_cli(
        capsys, "product", "--n", "3", "--u", "1,2", "--v", "1,2", "--table", str(cache)
    )
    _assert_one_error_line(*result)


def test_cache_of_another_rank_names_its_rank_first(tmp_path, capsys):
    # the rank is compared before the entries are read, so a malformed entry is not the error
    obj = json.loads((GOLDEN_N3.parent / "golden_table_n4.json").read_text())
    obj["entries"][0]["u"] = [1.5, 2]
    cache = tmp_path / "n4.json"
    cache.write_text(json.dumps(obj))
    code, out, err = run_cli(
        capsys, "product", "--n", "3", "--u", "1,2", "--v", "1,2", "--table", str(cache)
    )
    _assert_one_error_line(code, out, err)
    assert err == "error: cached table is for n=4, not n=3\n"


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


def _cache_with_first_term(tmp_path, capsys, edit):
    """Write the n = 3 table with ``edit`` applied to entry 0's poly (O_1,2 * O_1,2)."""
    cache = tmp_path / "edited.json"
    run_cli(capsys, "table", "--n", "3", "--out", str(cache))
    obj = json.loads(cache.read_text())
    assert obj["entries"][0]["u"] == obj["entries"][0]["v"] == [1, 2]
    edit(obj["entries"][0]["poly"])
    cache.write_text(json.dumps(obj))
    return run_cli(
        capsys, "product", "--n", "3", "--u", "1,2", "--v", "1,2", "--table", str(cache)
    )


def test_cache_with_float_coefficient_exits_2(tmp_path, capsys):
    # a coefficient of 1.5 used to be truncated: "Q1*O_2,3", exit 0
    result = _cache_with_first_term(tmp_path, capsys, lambda poly: poly[0].update(coeff=1.5))
    _assert_one_error_line(*result)


def test_cache_with_repeated_degree_exits_2(tmp_path, capsys):
    # a second (1,0) term used to win silently: "5*Q1*O_2,3", exit 0
    result = _cache_with_first_term(
        tmp_path, capsys, lambda poly: poly.append({"d1": 1, "d2": 0, "coeff": 5})
    )
    _assert_one_error_line(*result)


# Fuzz of the cache boundary: any JSON value, and the n = 3 table with
# entries dropped, duplicated or shuffled, or one field replaced.
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
_JSON_KEYS = st.sampled_from(["n", "entries", "u", "v", "w", "poly", "d1", "d2", "coeff"]) | st.text(max_size=3)
JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=12,
)


def _slots(x):
    """Every (container, key) inside a JSON value, a container before what it holds."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield x, key
        yield from _slots(value)


@st.composite
def mutated_tables(draw):
    """The n = 3 golden table after one to three drops, duplications, shuffles or field replacements."""
    obj = json.loads(GOLDEN_N3.read_text())
    entries = obj["entries"]
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "duplicate", "shuffle", "replace"]))
        k = draw(st.integers(0, len(entries) - 1))
        if how == "drop":
            del entries[k]
        elif how == "duplicate":
            entries.insert(draw(st.integers(0, len(entries))), copy.deepcopy(entries[k]))
        elif how == "shuffle":
            entries[:] = draw(st.permutations(entries))
        else:
            container, key = draw(st.sampled_from(list(_slots(obj))))
            container[key] = draw(JSON_VALUES)
    return obj


CACHE_VALUES = JSON_VALUES | mutated_tables()


@settings(max_examples=300, deadline=None)
@given(CACHE_VALUES)
def test_table_from_json_returns_a_table_or_refuses_any_json_value(obj):
    try:
        table = qkring.table_from_json(obj)
    except (MalformedTable, InvalidRank):
        return
    assert table.n == obj["n"] == 3


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(CACHE_VALUES)
def test_product_with_any_cache_exits_0_or_with_one_error_line(tmp_path, capsys, obj):
    # capsys.readouterr() empties the capture, and each example rewrites the one file
    cache = tmp_path / "fuzz.json"
    cache.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "product", "--n", "3", "--u", "1,2", "--v", "1,2", "--table", str(cache))
    if code == 0:
        assert out.startswith("O_1,2 * O_1,2 = ") and err == ""
    else:
        _assert_one_error_line(code, out, err)


_BUILT = [build_table(n, step_c) for n in (3, 4) for step_c in ("h1", "h2")]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_BUILT), st.integers(0, 2**32 - 1))
def test_a_cache_in_any_entry_and_term_order_loads_equal(table, seed):
    # the h1 table is not commutative, so a u read as v shows too
    obj, shuffled, rng = table_to_json(table), table_to_json(table), random.Random(seed)
    rng.shuffle(shuffled["entries"])
    for e in shuffled["entries"]:
        rng.shuffle(e["poly"])
    assert qkring.table_from_json(shuffled).ops == qkring.table_from_json(obj).ops == table.ops


# Fuzz of the argument boundary: every subcommand with generated options in
# any order.  Pairs and integer lists come from a small alphabet, and a table
# is built only at n = 3..5; a classical product may ask for any n up to 10**6.


def _mostly(valid, junk):
    """``valid`` nine draws in ten, else ``junk``."""
    return st.sampled_from([valid] * 9 + [junk]).flatmap(lambda strategy: strategy)


_JUNK = st.text(alphabet="012345,-+ _x", max_size=5)
_INT_LISTS = _mostly(st.lists(st.integers(-1, 6).map(str), min_size=1, max_size=4).map(",".join), _JUNK)
_PAIRS = _mostly(st.lists(st.integers(1, 5).map(str), min_size=2, max_size=2).map(",".join), _JUNK)
_INTS = _mostly(st.integers(-2, 6).map(str), st.sampled_from(["", "x", "1.5"]))
_RANKS = _mostly(st.integers(3, 5).map(str), st.sampled_from(["-1", "0", "2", "x", ""]))
_FORMATS = _mostly(st.sampled_from(FORMATS), st.text(alphabet="jsontx", max_size=4))
# symbolic paths, made real under tmp_path by the test: "@" + name
_TABLES = st.sampled_from(["@cache", "@junk", "@missing", "@dir"])
_OUTS = st.sampled_from(["@out", "@missing/out", "@dir"])
_CHECKS = st.lists(
    st.sampled_from(["positivity", "ring", "classical", "degree", "chevalley", "bogus", " ", ""]), max_size=3
).map(",".join)
_OPTIONS = {
    "product": {"--n": _RANKS, "--u": _PAIRS, "--v": _PAIRS, "--classical": None, "--table": _TABLES,
                "--format": _FORMATS},
    "table": {"--n": _RANKS, "--format": _FORMATS, "--out": _OUTS},
    "verify": {"--n": _RANKS, "--checks": _CHECKS, "--assoc-max": _INTS, "--table": _TABLES,
               "--format": _FORMATS},
    "conjecture": {"--n": _RANKS, "--gating": st.sampled_from(["flipped", "literal", "x"]), "--table": _TABLES,
                   "--format": _FORMATS},
    "correlator": {"--n": _RANKS, "--kind": st.sampled_from(["two", "three", "pn", "x"]), "--u": _PAIRS,
                   "--v": _PAIRS, "--w": _PAIRS, "--d": st.sampled_from(["l1", "l2", "l1+l2"]) | _PAIRS,
                   "--m": _INTS, "--i": _INT_LISTS, "--format": _FORMATS},
    "flags": {"--balanced": None, "--stabilized": None, "--shape": _INT_LISTS, "--degrees": _INT_LISTS,
              "--ambient": _INTS, "--k": _INTS, "--r": _INTS, "--format": _FORMATS},
}
# drawn nine times in ten, so that most commands get past the parser
_USUAL = {
    "--n", "--u", "--v", "--w", "--d", "--kind", "--balanced", "--shape", "--degrees", "--k", "--r", "--m", "--i"
}


@st.composite
def cli_argvs(draw):
    """A subcommand and a subset of its options, each with a drawn value, in a drawn order."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    usual = st.sampled_from([True] * 9 + [False])
    chosen = [name for name in options if draw(usual if name in _USUAL else st.booleans())]
    if {"--balanced", "--stabilized"} <= set(chosen) and draw(usual):  # the parser takes one of the two
        chosen.remove(draw(st.sampled_from(["--balanced", "--stabilized"])))
    argv = []
    for name in draw(st.permutations(chosen)):
        value = options[name]
        if name == "--n" and "--classical" in chosen:
            value = st.integers(-1, 10**6).map(str)
        argv += [name] if value is None else [name, draw(value)]
    return [command, *argv]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_argvs())
def test_any_argv_exits_0_1_or_2_without_a_traceback(tmp_path, capsys, argv):
    paths = {"@missing/out": str(tmp_path / "missing" / "out"), "@dir": str(tmp_path)}
    for name, text in [("cache", None), ("junk", "[1, "), ("out", "")]:
        path = paths["@" + name] = tmp_path / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(table_to_json(build_table(3))) if text is None else text)
    paths["@missing"] = str(tmp_path / "absent.json")
    argv = [str(paths.get(a, a)) for a in argv]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse: a usage error, or --help
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out + err, argv
    if code == 2 and not err.startswith("usage: "):
        _assert_one_error_line(code, out, err)


@pytest.mark.parametrize("checks", [",,", "", " , "])
def test_verify_empty_check_list_exits_2(checks, capsys):
    # ",," used to build the table, print an empty line and exit 0
    _assert_one_error_line(*run_cli(capsys, "verify", "--n", "3", "--checks", checks))


def test_gating_choices_match_conjecture():
    from qkflag.conjecture import GATINGS

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    gating = next(a for a in sub.choices["conjecture"]._actions if a.dest == "gating")
    assert tuple(gating.choices) == GATINGS
    assert gating.default == GATINGS[0]


# A fresh interpreter runs one command (or a bare ``import qkflag``) and
# reports the exit code and the qkflag and dataclasses modules it imported.
_IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
argv = json.loads(sys.argv[1])
if argv is None:
    import qkflag
    code = 0
else:
    from qkflag.cli import run
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
new = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("qkflag", "dataclasses"))
print(json.dumps({"code": code, "modules": new}))
"""

_TABLE_FREE = {"qkflag.qkring", "qkflag.verify", "qkflag.conjecture"}
_SWEEP_FREE = {"qkflag.verify", "qkflag.conjecture", "qkflag.correlators", "qkflag.flags"}
_FLAGS = ["flags", "--shape", "1,3", "--degrees", "2,4"]
_TWO_POINT = ["correlator", "--kind", "two", "--n", "5", "--u", "2,3", "--w", "5,3", "--d"]
_PN = ["correlator", "--kind", "pn", "--m", "3", "--i", "1,2,3", "--d", "1"]
_CLASSICAL = ["product", "--n", "5", "--u", "4,1", "--v", "3,5", "--classical", "--format", "csv"]
_PRODUCT = ["product", "--n", "3", "--u", "2,1", "--v", "1,3", "--format", "json"]
_VERIFY = ["verify", "--n", "3", "--checks", "positivity,ring,classical,degree,chevalley"]

# (argv, exit code, modules it must load, modules it must not load)
_BUDGETS = {
    "import": (None, 0, {"qkflag"}, {"qkflag.errors"}),
    "flags-balanced": (_FLAGS + ["--balanced"], 0, {"qkflag.flags"}, _TABLE_FREE | {"qkflag.poly", "qkflag.basis"}),
    "flags-stabilized": (
        _FLAGS + ["--stabilized", "--k", "2", "--r", "3", "--format", "json"],
        0,
        {"qkflag.flags"},
        _TABLE_FREE | {"qkflag.poly", "qkflag.basis"},
    ),
    "correlator-two": (_TWO_POINT + ["l1"], 0, {"qkflag.correlators"}, _TABLE_FREE | {"qkflag.flags"}),
    "correlator-unsupported": (_TWO_POINT + ["2,1"], 2, {"qkflag.correlators"}, _TABLE_FREE),
    "correlator-pn": (_PN, 0, {"qkflag.correlators"}, _TABLE_FREE),
    "product-classical": (_CLASSICAL, 0, {"qkflag.kring"}, _SWEEP_FREE | {"qkflag.qkring"}),
    "product": (_PRODUCT, 0, {"qkflag.qkring"}, _SWEEP_FREE),
    "table": (["table", "--n", "3", "--format", "csv"], 0, {"qkflag.qkring"}, _SWEEP_FREE),
    "verify": (_VERIFY, 0, {"qkflag.verify"}, _SWEEP_FREE - {"qkflag.verify"}),
    "conjecture": (["conjecture", "--n", "3"], 0, {"qkflag.conjecture"}, _SWEEP_FREE - {"qkflag.conjecture"}),
}


@pytest.mark.parametrize("argv, code, loads, never", _BUDGETS.values(), ids=_BUDGETS)
def test_command_imports_only_what_it_runs(argv, code, loads, never):
    src = str(pathlib.Path(qkflag.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    modules = set(report["modules"])
    assert report["code"] == code
    assert "dataclasses" not in modules
    assert loads <= modules and not modules & never, sorted(modules)
    if argv is None:
        assert modules == {"qkflag"}


@pytest.mark.parametrize("ns", ["3,x", ""])
def test_bench_layers_refuses_a_bad_rank_list_with_a_usage_line(ns):
    # "--ns 3,x" used to end in a ValueError traceback
    tool = pathlib.Path(__file__).parents[1] / "tools" / "bench_layers.py"
    src = str(pathlib.Path(qkflag.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, str(tool), "--ns", ns, "--repeat", "1"],
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and "argument --ns" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_snapshot_matches_the_committed_one():
    # tools/cli_snapshot.py hashes the stdout, exit code and written file of
    # 104 fixed commands; a change that keeps the CLI's output keeps its bytes
    tool = pathlib.Path(__file__).parents[1] / "tools" / "cli_snapshot.py"
    src = str(pathlib.Path(qkflag.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, str(tool)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == SNAPSHOT.read_bytes()
