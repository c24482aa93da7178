import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimod import cli
from fimod.cli import build_parser, main
from fimod.presentations import FIPresentation, FreeElement, free_presentation
from fimod.injections import Injection
from fimod.rings import GF, QQ, ZZ
from fimod.sampling import instantiate, random_structure


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.fim"
    path.write_text(free_presentation(QQ, 2).dumps())
    return str(path)


@pytest.fixture
def submodule_file(tmp_path):
    w = FreeElement(2, {(0, Injection(1, 2, (1,))): 1,
                        (0, Injection(1, 2, (2,))): 1})
    path = tmp_path / "w.fim"
    path.write_text(FIPresentation(ZZ, [1], [w]).dumps())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_matches_expected_table(m2_file, capsys):
    code, out = run_cli(capsys, "eval", "--module", m2_file,
                        "--n", "0..6", "--ring", "Q")
    assert code == 0
    body = out[out.index("n,dim"):]
    assert body.splitlines()[1:8] == \
        ["0,0", "1,0", "2,2", "3,6", "4,12", "5,20", "6,30"]


def test_check_inductive_command(m2_file, capsys):
    code, out = run_cli(capsys, "check-inductive", "--module", m2_file,
                        "--N", "2", "--n", "3..5")
    assert code == 0
    assert out.count("check inductive-description") == 3
    assert "fail" not in out


def test_coinv_fit_command(capsys):
    code, out = run_cli(capsys, "coinv", "--r", "1", "--J", "1",
                        "--ring", "Q", "--n", "1..8", "--fit")
    assert code == 0
    assert "polynomial -1 + 1*C(n,1), onset 1" in out


def test_coinv_rejects_integer_ring(capsys):
    code = main(["coinv", "--r", "1", "--J", "1", "--ring", "Z",
                 "--n", "1..3"])
    assert code == 3


def test_saturate_command(submodule_file, capsys):
    code, out = run_cli(capsys, "saturate", "--submodule", submodule_file,
                        "--a-max", "4", "--slack", "3")
    assert code == 0
    assert "N = 1" in out


def test_homology_and_homotopy_commands(m2_file, capsys):
    code, out = run_cli(capsys, "homology", "--module", m2_file, "--n", "3")
    assert code == 0
    code, out = run_cli(capsys, "homotopy-check", "--module", m2_file,
                        "--n", "2")
    assert code == 0


def test_find_n_and_h0(m2_file, capsys):
    code, out = run_cli(capsys, "find-N", "--module", m2_file,
                        "--n-max", "5")
    assert code == 0 and "N = 2" in out
    code, out = run_cli(capsys, "h0", "--module", m2_file, "--n-max", "4")
    assert code == 0 and "largest nonzero h0 at 2" in out


def test_shift_and_derivative_round_trip(m2_file, tmp_path, capsys):
    out_path = tmp_path / "shifted.fim"
    code, _ = run_cli(capsys, "shift", "--module", m2_file, "--a", "1",
                      "--emit", str(out_path))
    assert code == 0
    shifted = FIPresentation.loads(out_path.read_text())
    assert sorted(shifted.generator_degrees) == [1, 1, 2]
    code, out = run_cli(capsys, "derivative", "--module", m2_file)
    assert code == 0 and "presentation:" in out


def test_torsion_command_statuses(tmp_path, capsys):
    handmade = tmp_path / "t.fim"
    handmade.write_text(FIPresentation(
        ZZ, [0], [FreeElement(1, {(0, Injection(0, 1, ())): 1})]).dumps())
    code, out = run_cli(capsys, "torsion", "--module", str(handmade),
                        "--n", "0", "--a-max", "3")
    assert code == 0 and "stabilized: pass" in out
    code, out = run_cli(capsys, "torsion", "--module", str(handmade),
                        "--n", "0", "--a-max", "2")
    assert code == 2       # too short a chain to stabilize: inconclusive


def test_arnold_command(tmp_path, capsys):
    emit = tmp_path / "arnold.fim"
    code, out = run_cli(capsys, "arnold", "--m", "1", "--n", "2..7",
                        "--ring", "Q", "--fit",
                        "--emit-presentation", str(emit))
    assert code == 0
    assert "1*C(n,2)" in out
    assert FIPresentation.loads(emit.read_text()).generator_degrees == (2,)


def test_arnold_command_at_n_40(capsys):
    # C(780, 3) edge-sets; the table reads full-support summands s <= 6.
    # 71,284,200 is the t^3 coefficient of (1 + t)(1 + 2t)...(1 + 39t).
    code, out = run_cli(capsys, "arnold", "--m", "3", "--n", "40..40",
                        "--ring", "Z")
    assert code == 0
    assert out[out.index("n,free_rank"):].splitlines()[1] == "40,71284200,"


def test_tail_equal_command(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("n,dim\n1,0\n2,0\n3,0\n")
    b.write_text("n,dim\n1,5\n2,0\n3,0\n")
    code, out = run_cli(capsys, "tail-equal", "--table-a", str(a),
                        "--table-b", str(b), "--window", "2", "--ring", "Q")
    assert code == 0 and "result: true" in out
    code, out = run_cli(capsys, "tail-equal", "--table-a", str(a),
                        "--table-b", str(b), "--window", "3", "--ring", "Q")
    assert "result: false" in out


@pytest.mark.parametrize("text", [
    "", "n,dim\n", "n,free_rank,torsion\n0,1,\n1,2,2\n",
    # padded, signed and Arabic-Indic cells: int() alone takes all three
    "n,dim\n 0 ,1\n+1,2\n\u0662,3\n3,4\n4,5\n",
])
@pytest.mark.parametrize("command", ["fit", "tail-equal"])
def test_bad_table_exit_code(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    good = tmp_path / "good.csv"
    good.write_text("n,dim\n0,1\n1,2\n")
    argv = ["fit", "--table", str(bad)] if command == "fit" else \
        ["tail-equal", "--table-a", str(bad), "--table-b", str(good),
         "--window", "2"]
    assert main(argv + ["--ring", "Q"]) == 3
    err = capsys.readouterr().err
    assert "invalid table" in err and len(err.strip().splitlines()) == 1


def test_impossible_integer_table_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("n,free_rank,torsion\n" +
                   "".join(f"{n},-1,0;-2;3\n" for n in range(4)))
    assert main(["tail-equal", "--table-a", str(bad), "--table-b", str(bad),
                 "--window", "2", "--ring", "Z"]) == 3
    err = capsys.readouterr().err
    assert "invalid table" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("modulus", [2.5, "7", True, 10 ** 16 + 61])
def test_bad_fp_modulus_exit_code(tmp_path, capsys, modulus):
    doc = {"ring": {"Fp": modulus}, "generators": [1], "relations": []}
    bad = tmp_path / "fp.fim"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--module", str(bad), "--n", "0..2"]) == 3
    assert "invalid presentation document" in capsys.readouterr().err


def test_large_fp_ring_option_exit_code(m2_file, capsys):
    assert main(["eval", "--module", m2_file, "--n", "0..2",
                 "--ring", "F10000000000000061"]) == 3
    assert "2^31" in capsys.readouterr().err


@pytest.mark.parametrize("ring", ["F7)))", "GF(7", "F_7)", "GF(7))"])
def test_malformed_ring_option_exit_code(m2_file, capsys, ring):
    assert main(["eval", "--module", m2_file, "--n", "0..2",
                 "--ring", ring]) == 3
    err = capsys.readouterr().err
    assert "unrecognized ring" in err and len(err.strip().splitlines()) == 1


def test_eval_fit_inconclusive_exit_code(tmp_path, capsys):
    path = tmp_path / "short.fim"
    path.write_text(free_presentation(QQ, 2).dumps())
    code, out = run_cli(capsys, "eval", "--module", str(path),
                        "--n", "0..2", "--fit")
    assert code == 2 and "status: inconclusive" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.fim"
    bad.write_text("{not json")
    assert main(["eval", "--module", str(bad), "--n", "0..2"]) == 3
    err = capsys.readouterr().err
    assert "parse error" in err and "line" in err


def test_deeply_nested_document_exit_code(tmp_path, capsys):
    # deeper than the json decoder's recursion limit
    bad = tmp_path / "deep.fim"
    bad.write_text('{"ring": ' + "[" * 10000 + "]" * 10000 + "}")
    assert main(["eval", "--module", str(bad), "--n", "0..2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fimod: error:")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_nonprime_ring_rejected(tmp_path, capsys):
    doc = {"ring": {"Fp": 6}, "generators": [1], "relations": []}
    bad = tmp_path / "f6.fim"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--module", str(bad), "--n", "0..2"]) == 3
    assert "not prime" in capsys.readouterr().err


@pytest.mark.parametrize("ring,coeff", [({"Fp": 3}, "1/3"), ("Q", "1/0")])
def test_degenerate_coefficient_exit_code(tmp_path, capsys, ring, coeff):
    doc = {"ring": ring, "generators": [1], "relations": [
        {"degree": 2, "terms": [{"gen": 0, "injection": [1],
                                 "coeff": coeff}]}]}
    bad = tmp_path / "coeff.fim"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--module", str(bad), "--n", "0..2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("fimod: error:")


# Fraction() reads every one of these; "1e99999999" builds 10**99999999
@pytest.mark.parametrize("coeff", ["1e99999999", "1e3", "1_000", " 7 ", "1.5"])
def test_coefficient_grammar_exit_code(tmp_path, capsys, coeff):
    doc = {"ring": "Q", "generators": [1], "relations": [
        {"degree": 2, "terms": [{"gen": 0, "injection": [1],
                                 "coeff": coeff}]}]}
    bad = tmp_path / "coeff.fim"
    bad.write_text(json.dumps(doc))
    assert main(["eval", "--module", str(bad), "--n", "0..2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("fimod: error:")


def test_internal_error_exit_code(monkeypatch, capsys, m2_file):
    def broken(args):
        raise RuntimeError("boom")

    # the parser is built once per process and holds the command functions
    monkeypatch.setattr(cli, "cmd_eval", broken)
    build_parser.cache_clear()
    try:
        code = main(["eval", "--module", m2_file, "--n", "0..2"])
    finally:
        build_parser.cache_clear()
    assert code == 4
    assert capsys.readouterr().err == \
        "fimod: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("where", ["generator degree", "relation degree",
                                   "coefficient"])
def test_out_of_range_number_exit_code(tmp_path, capsys, where):
    # 1e999 parses to a float infinity, which no integer or fraction holds
    degrees = {"generator degree": ("1e999", "2", '"1"'),
               "relation degree": ("1", "1e999", '"1"'),
               "coefficient": ("1", "2", "1e999")}[where]
    bad = tmp_path / "huge.fim"
    bad.write_text(
        '{"ring": "Q", "generators": [%s], "relations": [{"degree": %s, '
        '"terms": [{"gen": 0, "injection": [1], "coeff": %s}]}]}' % degrees)
    assert main(["eval", "--module", str(bad), "--n", "0..2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("fimod: error:")


@pytest.mark.parametrize("generators,degree,coeff", [
    ("[1.7]", "2", '"1"'),       # int() would truncate to 1
    ("[1]", "2.9", '"1"'),
    ("[1]", "2", "0.1"),         # Fraction(0.1) is a binary fraction
    ("[true]", "2", '"1"'),      # bool counts as an int in Python
    ("[1]", "true", '"1"'),
])
def test_non_integral_number_exit_code(tmp_path, capsys, generators, degree,
                                       coeff):
    bad = tmp_path / "float.fim"
    bad.write_text(
        '{"ring": "Q", "generators": %s, "relations": [{"degree": %s, '
        '"terms": [{"gen": 0, "injection": [1], "coeff": %s}]}]}'
        % (generators, degree, coeff))
    assert main(["eval", "--module", str(bad), "--n", "0..2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fimod: error:")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["homology", "homotopy-check"])
def test_negative_degree_exit_code(m2_file, capsys, command):
    assert main([command, "--module", m2_file, "--n", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fimod: error: --n must be >= 0, got -1\n"


def test_colimit_negative_degree_exit_code(m2_file, capsys):
    assert main(["colimit", "--module", m2_file, "--n", "-1",
                 "--N", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fimod: error: degree must be >= 0\n"


def test_unwritable_out_exit_code(m2_file, tmp_path, capsys):
    dest = tmp_path / "missing" / "report.txt"
    assert main(["eval", "--module", m2_file, "--n", "0..2",
                 "--out", str(dest)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"fimod: error: cannot write {dest}: " \
        f"[Errno 2] No such file or directory: '{dest}'\n"


def test_unwritable_emit_exit_code(m2_file, tmp_path, capsys):
    dest = tmp_path / "missing" / "shifted.fim"
    assert main(["shift", "--module", m2_file, "--a", "1",
                 "--emit", str(dest)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"fimod: error: cannot write {dest}:")


def test_usage_error_exit_code(capsys):
    assert main(["eval", "--n", "0..2"]) == 3


def test_one_parser_serves_many_commands(m2_file, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    commands = [
        ["eval", "--module", m2_file, "--n", "0..3"],
        ["coinv", "--r", "1", "--J", "2", "--ring", "F3", "--n", "1..4"],
        ["arnold", "--m", "1", "--n", "2..5", "--ring", "Z", "--fit"],
        ["homology", "--module", m2_file, "--n", "3"],
        ["eval", "--n", "0..2"],
        ["eval", "--module", m2_file, "--n", "0..2", "--out", str(out_path)],
        ["eval", "--module", m2_file, "--n", "0..4"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    shared = [run(argv) for argv in commands]
    assert build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 3, 0, 0]
    # the --out of one call does not carry over to the next
    assert out_path.read_text() == shared[5][1]


def test_reports_byte_identical(m2_file, capsys):
    _, first = run_cli(capsys, "eval", "--module", m2_file, "--n", "0..4")
    _, second = run_cli(capsys, "eval", "--module", m2_file, "--n", "0..4")
    assert first == second


def test_report_written_to_out(m2_file, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    _, shown = run_cli(capsys, "eval", "--module", m2_file, "--n", "0..3",
                       "--out", str(out_path))
    assert out_path.read_text() == shown


def test_round_trip_hash_through_cli_emit(tmp_path, capsys):
    src = free_presentation(QQ, 1)
    path = tmp_path / "m1.fim"
    path.write_text(src.dumps())
    again = FIPresentation.loads(path.read_text())
    assert again.content_hash() == src.content_hash()


def test_eval_fit_on_integer_table(tmp_path, capsys):
    path = tmp_path / "m1z.fim"
    path.write_text(free_presentation(ZZ, 1).dumps())
    code, out = run_cli(capsys, "eval", "--module", str(path),
                        "--n", "0..6", "--fit")
    assert code == 0
    assert "free-rank column" in out and "1*C(n,1)" in out


def test_coinv_map_empty_matrix_block(capsys):
    code, out = run_cli(capsys, "coinv-map", "--r", "1", "--J", "2",
                        "--ring", "F2", "--images", "2,1", "--target", "3")
    assert code == 0
    assert "dual map matrix (2 x 0)" in out
    assert "\nmatrix:\n(empty)\nstatus: pass\n" in out


COINV = ["coinv", "--r", "1", "--J", "2", "--ring", "Q", "--n", "1..3"]


@pytest.mark.parametrize("argv", [
    ["coinv", "--r", "1", "--J", "1_0", "--ring", "Q", "--n", "1..3"],
    ["coinv", "--r", "1", "--J", "٢", "--ring", "Q", "--n", "1..3"],
    ["coinv", "--r", "2", "--J", "1, 1", "--ring", "Q", "--n", "1..3"],
    COINV[:-1] + [" 1..3"],
    COINV[:-1] + ["1..3\n"],
    COINV[:-1] + ["1_1"],
    ["coinv", "--r", "+1"] + COINV[3:],
    ["coinv", "--r", " 1"] + COINV[3:],
    COINV + ["--fit", "--min-tail", "0_3"],
    ["coinv-map", "--r", "1", "--J", "1", "--ring", "Q",
     "--images", "1, 2", "--target", "3"],
    ["coinv-map", "--r", "1", "--J", "1", "--ring", "Q",
     "--images", "1,2", "--target", "3 "],
    ["homology", "--module", "{m2}", "--n", "2", "--positions", "0, 1"],
    ["homology", "--module", "{m2}", "--n", "٢"],
    ["check-inductive", "--module", "{m2}", "--N", "2_0", "--n", "2..3"],
    ["find-N", "--module", "{m2}", "--n-max", "+2"],
])
def test_strict_integer_exit_code(m2_file, capsys, argv):
    assert main([a.replace("{m2}", m2_file) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fimod: error: ")
    assert "int value" in captured.err or "bad degree range" in captured.err
    assert captured.err.count("\n") == 1


@pytest.fixture
def torsion_file(tmp_path):
    """A one-generator Z module with the degree-0 relation 2x, so homology
    reports the field-wise table over FIMOD_PRIMES."""
    path = tmp_path / "tors.fim"
    path.write_text(FIPresentation(
        ZZ, [0], [FreeElement(0, {(0, Injection(0, 0, ())): 2})]).dumps())
    return str(path)


def test_fimod_primes_lists_fields(torsion_file, monkeypatch, capsys):
    monkeypatch.setenv("FIMOD_PRIMES", "2,11")
    code, out = run_cli(capsys, "homology", "--module", torsion_file,
                        "--n", "1")
    assert code == 0
    assert '"primes": "2,11"' in out
    assert [line.split(":")[0] for line in out.splitlines()
            if line.startswith("over ")] == ["over Q", "over F2", "over F11"]


@pytest.mark.parametrize("primes", [
    "1_1", " 3 ,٣", "٣", "2,2", "3,03", "2,,3", "2,", ",", "+3", "4", "1",
    "0", "2147483659",
])
def test_fimod_primes_grammar_exit_code(torsion_file, monkeypatch, capsys,
                                        primes):
    monkeypatch.setenv("FIMOD_PRIMES", primes)
    assert main(["homology", "--module", torsion_file, "--n", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fimod: error: FIMOD_PRIMES: ")
    assert captured.err.count("\n") == 1


# -- fuzz: generated documents through eval, homology and shift --------------

FUZZ_COMMANDS = (["eval", "--n", "0..3"], ["homology", "--n", "2"],
                 ["shift", "--a", "1"])
# small values only: a large degree is a legitimately large request
FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(-2, 5),
    st.sampled_from(["", "Q", "Z", "F2", "F3", "F4", "x", "1/2", "2/0",
                     "-3", "+1", "1e3", " 1"]))
FUZZ_JSON = st.recursive(
    FUZZ_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["ring", "generators", "relations",
                                         "degree", "terms", "gen",
                                         "injection", "coeff", "x"]),
                        inner, max_size=4)),
    max_leaves=8)


def _paths(node, path=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A valid presentation document with one field respelled (a number
    or a coefficient string of the same kind), replaced, deleted or
    extended."""
    rng = draw(st.randoms(use_true_random=False))
    ring = draw(st.sampled_from([QQ, ZZ, GF(2), GF(3)]))
    doc = instantiate(random_structure(rng), ring).to_document()
    action = draw(st.sampled_from(["respell"] * 3 +
                                  ["replace", "delete", "append"]))
    paths = list(_paths(doc))[1:]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if action == "respell" and type(value) in (int, str):
        parent[path[-1]] = draw(st.integers(-1, 4) if type(value) is int else
                                st.sampled_from(["0", "-1", "2", "3", "6",
                                                 "1/2", "2/3", "-4"]))
    elif action == "delete":
        del parent[path[-1]]
    elif action == "append" and isinstance(value, list):
        value.append(draw(FUZZ_JSON))
    else:
        parent[path[-1]] = draw(FUZZ_JSON)
    return doc


def _check_fuzzed(doc, directory):
    """Every command exits 0 with a report or 3 with one stderr line, and a
    document that loads survives a dumps/loads round trip."""
    path = directory / "fuzz.fim"
    path.write_text(json.dumps(doc))
    try:
        p = FIPresentation.from_document(doc)
    except (ValueError, KeyError, TypeError, ZeroDivisionError,
            OverflowError):
        p = None
    if p is not None:
        assert FIPresentation.loads(p.dumps()) == p
    for command in FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "--module", str(path), *command[1:]])
        if code == 0:
            assert out.getvalue().endswith("status: pass\n") and \
                not err.getvalue(), command
        else:
            assert code == 3, (command, err.getvalue())
            assert err.getvalue().count("\n") == 1, command
            assert err.getvalue().startswith("fimod: error: "), command


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_documents())
def test_fuzzed_valid_documents_keep_exit_contract(tmp_path_factory, doc):
    _check_fuzzed(doc, tmp_path_factory.mktemp("fuzz"))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(FUZZ_JSON)
def test_fuzzed_arbitrary_json_keeps_exit_contract(tmp_path_factory, doc):
    _check_fuzzed(doc, tmp_path_factory.mktemp("fuzz"))
