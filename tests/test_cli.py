"""End-to-end tests of the command-line interface."""

import json
import subprocess
import sys

from padiclab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_eval_mul_example(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--p", "5", "--K", "3",
        "--spec", '{"family":"mul","s":3,"a":"1","A":"1"}',
        "--x", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 123
    assert data["digits"] == [3, 4, 4]


def test_eval_add_and_identity(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--p", "5", "--K", "3",
        "--spec", '{"family":"add","A":"7"}', "--x", "3",
    )
    assert code == 0 and json.loads(out)["value"] == 21
    code, out = run_cli(
        capsys,
        "eval", "--p", "5", "--K", "3",
        "--spec", '{"family":"add","A":"1"}', "--x", "88",
    )
    assert code == 0 and json.loads(out)["value"] == 88


def test_eval_rejects_composite_p(capsys):
    code, _ = run_cli(
        capsys,
        "eval", "--p", "4", "--K", "2",
        "--spec", '{"family":"add","A":"1"}', "--x", "1",
    )
    assert code == 1


def test_vdp_roundtrip_via_files(tmp_path, capsys):
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps({"p": 3, "K": 2, "table": list(range(9))}))
    code, out = run_cli(capsys, "vdp", "--in", f"@{fn_path}")
    assert code == 0
    series = json.loads(out)
    assert series["B"][7] == 6
    series_path = tmp_path / "series.json"
    series_path.write_text(out)
    code, out = run_cli(capsys, "vdp", "--in", f"@{series_path}", "--inverse")
    assert code == 0
    assert json.loads(out)["table"] == list(range(9))


def test_check_reports_criteria(capsys):
    code, out = run_cli(
        capsys, "check", "--in", json.dumps({"p": 2, "K": 2, "table": [0, 1, 0, 1]})
    )
    assert code == 0
    data = json.loads(out)
    assert data["tower_compatible"]
    assert not data["measure_preserving_vdp"]
    assert not data["measure_preserving_coord"]
    assert not data["bijective_all_levels"]


def test_check_reports_violation(capsys):
    code, out = run_cli(
        capsys, "check", "--in", json.dumps({"p": 2, "K": 2, "table": [0, 2, 1, 3]})
    )
    assert code == 0
    data = json.loads(out)
    assert not data["tower_compatible"]
    assert data["violation"] == {"x": 0, "y": 2, "level": 1}


def test_make_aut_then_check_hom(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "make-aut", "--p", "3", "--K", "2",
        "--spec", '{"family":"xor","alpha":[[2],[1,2]]}',
    )
    assert code == 0
    fn_path = tmp_path / "aut.json"
    fn_path.write_text(out)
    code, out = run_cli(capsys, "check-hom", "--in", f"@{fn_path}", "--ops", "xor,plus")
    assert code == 0
    results = {r["op"]: r for r in json.loads(out)["results"]}
    assert results["xor"]["ok"]
    assert not results["plus"]["ok"]
    assert results["plus"]["counterexample"] is not None


def test_analyze_g(capsys):
    code, out = run_cli(
        capsys,
        "analyze-g", "--p", "5", "--K", "2",
        "--g", '{"c":"0","a":"1","b":"0","terms":[[1,4,"1"]]}',
    )
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 4
    assert data["witnesses"] == [1, 7, 18, 24]


def test_enumerate_and_report(tmp_path, capsys):
    paths = []
    for p, k, ops in [(3, 1, "plus"), (3, 2, "plus"), (2, 3, "xor")]:
        code, out = run_cli(
            capsys, "enumerate", "--p", str(p), "--k", str(k), "--ops", ops
        )
        assert code == 0
        path = tmp_path / f"enum_{p}_{k}_{ops}.json"
        path.write_text(out)
        paths.append(str(path))
    code, out = run_cli(capsys, "report", "--in", *paths)
    assert code == 0
    table = json.loads(out)["table"]
    assert table == [
        {"p": 2, "k": 3, "ops": "xor", "count": 8},
        {"p": 3, "k": 1, "ops": "plus", "count": 2},
        {"p": 3, "k": 2, "ops": "plus", "count": 6},
    ]


def test_report_empty_input(capsys):
    code, out = run_cli(capsys, "report")
    assert code == 0
    assert json.loads(out) == {"table": []}


def test_enumerate_budget_exit_code(capsys):
    code, _ = run_cli(
        capsys, "enumerate", "--p", "5", "--k", "2", "--ops", "plus",
        "--budget", "5",
    )
    assert code == 3


def test_enumerate_budget_error_is_one_line(capsys):
    code = main(["enumerate", "--p", "5", "--k", "2", "--ops", "plus", "--budget", "200"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == [
        "error: search expanded 201 nodes, budget 200; stopped at level 2 "
        "(maps mod p**2) with 7 complete maps found"
    ]


def test_enumerate_oversized_is_validation_error(capsys):
    # each op table would hold 65521**4 entries; the size guard fires first
    code = main(["enumerate", "--p", "65521", "--k", "2", "--ops", "plus"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_verify_claims_structure(capsys):
    code, out = run_cli(capsys, "verify", "--p", "2", "--k", "2", "--seed", "7")
    data = json.loads(out)
    assert data["seed"] == 7
    names = [c["name"] for c in data["claims"]]
    assert "family-matches-oracle-plus" in names
    assert "trivial-pairs" in names
    assert "criterion-equivalence" in names
    by_name = {c["name"]: c for c in data["claims"]}
    # quotient extras for the carry-free pairs make this claim honestly fail
    assert not by_name["trivial-pairs"]["pass"]
    assert code == 2
    assert data["all_pass"] is False
    assert by_name["family-matches-oracle-plus"]["pass"]
    assert by_name["criterion-equivalence"]["pass"]


def test_verify_exit_codes_validation():
    assert main(["verify", "--p", "4", "--k", "2"]) == 1


def test_cipher_encrypt_decrypt(capsys):
    key = '{"kind":"keystream","p":3,"gamma":[1,0]}'
    code, out = run_cli(
        capsys, "cipher", "encrypt", "--key", key,
        "--word", '{"p":3,"symbols":[2,1]}',
    )
    assert code == 0
    assert json.loads(out)["symbols"] == [0, 1]
    code, out = run_cli(
        capsys, "cipher", "decrypt", "--key", key, "--word", out.strip()
    )
    assert code == 0
    assert json.loads(out)["symbols"] == [2, 1]


def test_cipher_demo(capsys):
    code, out = run_cli(
        capsys,
        "cipher", "demo",
        "--key", '{"kind":"keystream","p":2,"gamma":[1,0,1]}',
        "--formula", '["xor",["leaf",0],["leaf",1]]',
        "--data", '[{"p":2,"symbols":[1,0,1]},{"p":2,"symbols":[0,1,1]}]',
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is False
    assert data["mismatch_positions"] == [0, 2]


def test_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out = run_cli(
        capsys,
        "eval", "--p", "3", "--K", "2",
        "--spec", '{"family":"add","A":"2"}', "--x", "4",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["value"] == 8


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab.cli", "report"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"table": []}
