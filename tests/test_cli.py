import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from quasidet import contfrac as cf
from quasidet import symmfn as sf
from quasidet.cli import main
from quasidet.harness import replay_counterexample
from quasidet.rings import DomainError


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(
            {"rows": 2, "cols": 2, "entries": [["1", "2"], ["3", "4"]]}
        )
    )
    return str(path)


@pytest.fixture
def wide_matrix_file(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps(
            {
                "rows": 1,
                "cols": 3,
                "entries": [["2", "3", "5"]],
            }
        )
    )
    return str(path)


def test_qdet_subcommand(matrix_file, capsys):
    code = main(["qdet", "--matrix", matrix_file, "--p", "1", "--q", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "-1/2"


def test_qdet_method_flag(matrix_file, capsys):
    code = main(
        ["qdet", "--matrix", matrix_file, "--p", "1", "--q", "1", "--method", "recursive"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "-1/2"


def test_qpc_left(wide_matrix_file, capsys):
    code = main(["qpc", "left", "--matrix", wide_matrix_file, "--i", "2", "--j", "3"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "5/3"


def test_gauss_emits_factors(matrix_file, capsys):
    code = main(["gauss", "--matrix", matrix_file])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"U", "Y", "L"}
    assert payload["Y"][1][1] == "4"


def test_verify_with_report_and_replay(tmp_path, capsys):
    report_path = str(tmp_path / "out.json")
    code = main(
        [
            "verify",
            "--only",
            "FALSE-COMMUTE,RING-AXIOMS",
            "--samples",
            "3",
            "--seed",
            "0xBEEF",
            "--report",
            report_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FALSE-COMMUTE" in out and "counterexample" in out
    code = main(["replay", "--report", report_path, "--id", "FALSE-COMMUTE"])
    assert code == 0
    replay_out = json.loads(capsys.readouterr().out)
    assert replay_out["reproduced"]


def test_replay_in_a_separate_process(tmp_path, capsys):
    report_path = str(tmp_path / "out.json")
    code = main(
        ["verify", "--only", "FALSE-COMMUTE", "--samples", "3", "--report", report_path]
    )
    assert code == 0
    capsys.readouterr()
    # a fresh interpreter shares no objects or caches with this one
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "quasidet.cli", "replay"]
        + ["--report", report_path, "--id", "FALSE-COMMUTE"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"reproduced": true' in proc.stdout


def _replay_rewritten(ident, rewrite, tmp_path, capsys):
    """Exit code and standard error of replaying ``ident``'s counterexample
    from the report that ``rewrite`` returns for the one written."""
    report_path = tmp_path / "out.json"
    assert main(["verify", "--only", ident, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    report_path.write_text(json.dumps(rewrite(report)))
    capsys.readouterr()
    code = main(["replay", "--report", str(report_path), "--id", ident])
    return code, capsys.readouterr().err


def _replay_edited(ident, edit, tmp_path, capsys):
    """As ``_replay_rewritten``, after ``edit`` of the draw log."""

    def rewrite(report):
        (entry,) = report["identities"]
        edit(entry["counterexample"]["draws"])
        return report

    return _replay_rewritten(ident, rewrite, tmp_path, capsys)


def test_replay_of_an_edited_draw_log_is_a_usage_error(tmp_path, capsys):
    def edit(draws):
        assert draws[0]["ring"] == {"kind": "matrices", "d": 2}
        draws[0]["ring"] = {"kind": "matrices", "d": 3}

    code, err = _replay_edited("FALSE-COMMUTE", edit, tmp_path, capsys)
    assert code == 3
    assert "replay log mismatch" in err


def _edit_first_matrix_entry(draws):
    first = next(rec for rec in draws if rec["t"] == "matrix")
    first["v"]["entries"][0][0] = ["1", "2"]


def _edit_first_scalar_to_3x3(draws):
    assert draws[0]["ring"] == {"kind": "matrices", "d": 2}
    draws[0]["v"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "ident,edit",
    [("FALSE-COMMUTE", _edit_first_scalar_to_3x3), ("FALSE-QDET-ENTRY", _edit_first_matrix_entry)],
    ids=["3x3-under-M2", "list-for-a-rational"],
)
def test_replay_of_a_value_its_ring_cannot_hold_is_a_usage_error(ident, edit, tmp_path, capsys):
    code, err = _replay_edited(ident, edit, tmp_path, capsys)
    assert code == 3
    assert "replay log mismatch" in err


def test_replay_of_a_log_with_records_left_over_is_a_usage_error(tmp_path, capsys):
    code, err = _replay_edited(
        "FALSE-COMMUTE", lambda draws: draws.append({"t": "int", "v": 1}), tmp_path, capsys
    )
    assert code == 3
    assert "left unread" in err


def _set_cell(field, value):
    def rewrite(report):
        report["identities"][0]["counterexample"][field] = value
        return report

    return rewrite


def _set_first_record(value):
    def rewrite(report):
        report["identities"][0]["counterexample"]["draws"][0] = value
        return report

    return rewrite


def _counterexample_as_list(report):
    entry = report["identities"][0]
    entry["counterexample"] = [entry["counterexample"]]
    return report


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda report: report["identities"],
        lambda report: {**report, "identities": None},
        _set_cell("d", "2"),
        _set_cell("d", [2]),
        _set_cell("d", True),
        _set_cell("n", -1),
        _set_cell("draws", None),
        _set_first_record(7),
        _set_first_record(["scalar"]),
        _counterexample_as_list,
    ],
    ids=[
        "top-level-list", "identities-null", "d-string", "d-list", "d-bool", "n-negative",
        "draws-null", "first-record-int", "first-record-list", "counterexample-list",
    ],
)
def test_replay_of_a_malformed_report_is_a_usage_error(rewrite, tmp_path, capsys):
    code, err = _replay_rewritten("FALSE-COMMUTE", rewrite, tmp_path, capsys)
    assert code == 3
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "ident,claims",
    [
        ("FALSE-QDET-ENTRY", {"identity": "QDET-DEF-AGREE", "n": 10**6}),
        ("FALSE-QDET-ENTRY", {"identity": "LAMBDA-SYMMETRY", "n": 10**6}),
        ("FALSE-QDET-ENTRY", {"identity": "RIBBON-BASIS", "n": 10**6}),
        ("FALSE-COMMUTE", {"d": 1000}),
    ],
    ids=["matrix-labels", "permutation", "compositions", "ring-dimension"],
)
def test_replay_of_a_record_larger_than_its_cell_is_a_usage_error_in_small_memory(
    ident, claims, tmp_path, capsys
):
    # the record's draws are those of a small cell: replay has to refuse
    # them at the cost of their own size, not of the size the record claims
    report_path = tmp_path / "out.json"
    assert main(["verify", "--only", ident, "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    report["identities"][0]["counterexample"].update(claims)
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    gc.collect()
    tracemalloc.start()
    try:
        code = main(["replay", "--report", str(report_path), "--id", ident])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "replay log mismatch" in capsys.readouterr().err
    assert peak < 5 * 2**20


# 100,000 nested arrays: deeper than json's decoder recurses
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "text,command",
    [
        (_DEEP, ["replay", "--id", "X", "--report"]),
        (f'{{"entries": {_DEEP}}}', ["qdet", "--p", "1", "--q", "1", "--matrix"]),
    ],
    ids=["report", "matrix"],
)
def test_a_json_file_nested_too_deeply_is_a_usage_error(text, command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(command + [str(path)]) == 3
    assert "nested too deeply" in capsys.readouterr().err


def test_verify_filters_dims(capsys):
    code = main(
        ["verify", "--only", "RING-AXIOMS", "--dims", "1", "--samples", "2"]
    )
    assert code == 0


def test_list_identities(capsys):
    code = main(["list-identities"])
    assert code == 0
    out = capsys.readouterr().out
    assert "SYLVESTER" in out and "GAUSS-DECOMP" in out


def _verdict(capsys) -> dict:
    return json.loads(capsys.readouterr().out)


def test_symm_vieta(capsys):
    code = main(["symm", "--n", "2", "--d", "1", "--check", "vieta", "--seed", "5"])
    assert code == 0
    verdict = _verdict(capsys)
    assert verdict["status"] == "verified" and verdict["succeeded"] == 1
    assert verdict["cells"][0]["n"] == 2 and verdict["cells"][0]["d"] == 1


def test_symm_bezout(capsys):
    code = main(["symm", "--n", "2", "--d", "2", "--check", "bezout", "--seed", "5"])
    assert code == 0
    assert _verdict(capsys)["status"] == "verified"


def test_symm_complete_and_ribbon(capsys):
    code = main(["symm", "--n", "2", "--d", "2", "--check", "complete", "--seed", "5"])
    assert code == 0
    assert _verdict(capsys)["status"] == "verified"
    code = main(["symm", "--n", "2", "--d", "1", "--check", "ribbon", "--seed", "5"])
    assert code == 0
    assert _verdict(capsys)["status"] == "verified"


def test_symm_failing_check_prints_a_replayable_counterexample(monkeypatch, capsys):
    vieta_via_qdet = sf.vieta_via_qdet

    def off_by_one(ring, xs):
        a = vieta_via_qdet(ring, xs)
        return [a[0] + ring.one] + a[1:]

    monkeypatch.setattr(sf, "vieta_via_qdet", off_by_one)
    code = main(["symm", "--n", "2", "--d", "2", "--check", "vieta", "--seed", "5"])
    assert code == 1
    verdict = _verdict(capsys)
    assert verdict["status"] == "counterexample"
    found = verdict["counterexample"]
    assert found["identity"] == "VIETA-COEFFS" and found["label"] == "word-vs-ratio-1"
    assert replay_counterexample(found)["reproduced"]


@pytest.mark.parametrize("n,d,seed", [(2, 1, 0), (3, 1, 26), (3, 2, 79), (4, 3, 267)])
def test_symm_resamples_past_a_singular_minor(n, d, seed, capsys):
    # each first independent draw meets a singular minor inside the check
    code = main(["symm", "--n", str(n), "--d", str(d), "--check", "vieta", "--seed", str(seed)])
    out, err = capsys.readouterr()
    assert code == 0, err
    verdict = json.loads(out)
    assert verdict["status"] == "verified" and verdict["attempted"] >= 2


@pytest.mark.parametrize("command", [["symm", "--check", "vieta"], ["contfrac"]])
def test_exhausted_resampling_exits_2(command, monkeypatch, capsys):
    targets = {"symm": (sf, "vieta_via_qdet"), "contfrac": (cf, "convergents_explicit")}
    module, name = targets[command[0]]

    def singular(*args):
        raise DomainError("singular")

    # every attempt of the entry's check meets a DomainError
    monkeypatch.setattr(module, name, singular)
    assert main(command) == 2
    verdict = _verdict(capsys)
    assert verdict["status"] == "domain_exhausted"
    assert verdict["attempted"] == 50 and verdict["succeeded"] == 0


def test_qpc_with_bordering_set(tmp_path, capsys):
    path = tmp_path / "two_rows.json"
    path.write_text(
        json.dumps(
            {
                "rows": 2,
                "cols": 4,
                "entries": [["1", "2", "0", "3"], ["0", "1", "4", "1"]],
            }
        )
    )
    code = main(
        ["qpc", "left", "--matrix", str(path), "--i", "1", "--j", "3", "--set", "2"]
    )
    assert code == 0
    # minor-ratio oracle: p = p_{(3,2)} / p_{(1,2)} = (0*1-4*2)/(1*1-0*2)
    assert capsys.readouterr().out.strip() == "-8"


def test_contfrac_command(capsys):
    code = main(["contfrac", "--n", "4", "--d", "2", "--seed", "5"])
    assert code == 0
    verdict = _verdict(capsys)
    assert verdict["status"] == "verified" and verdict["cells"][0]["n"] == 4


def test_rr_command(capsys):
    code = main(["rr", "--order", "3", "--depth", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "all coefficients match: True" in out
    assert "z^1" in out


def test_usage_error_exit_code(capsys, tmp_path):
    assert main(["qdet", "--matrix", str(tmp_path / "missing.json"), "--p", "1", "--q", "1"]) == 3
    assert main(["verify", "--only", "NOPE"]) == 3


def test_resample_limit_flag_is_a_usage_error(capsys):
    assert main(["verify", "--only", "RING-AXIOMS", "--resample-limit", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --resample-limit 5" in err


def test_qdet_method_auto_is_a_usage_error(matrix_file, capsys):
    assert main(["qdet", "--matrix", matrix_file, "--p", "1", "--q", "1", "--method", "auto"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'auto'" in err


@pytest.mark.parametrize("flag", ["--samples"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_sample_counts_are_usage_errors(flag, value, capsys):
    assert main(["verify", "--only", "RING-AXIOMS", flag, value]) == 3
    out, err = capsys.readouterr()
    assert "verified" not in out
    assert "must be >= 1" in err


@pytest.mark.parametrize("check", ["vieta", "bezout", "lambda", "complete", "ribbon", "contfrac"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_symm_size_below_one_is_a_usage_error(check, value, capsys):
    command = ["contfrac"] if check == "contfrac" else ["symm", "--check", check]
    assert main(command + ["--n", value]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: n must be >= 1, got {value}\n"


@pytest.mark.parametrize("command", [["symm", "--check", "bezout"], ["contfrac"]])
def test_dimension_below_one_is_a_usage_error(command, capsys):
    assert main(command + ["--d", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dimension must be >= 1\n"


@pytest.mark.parametrize("flag,value", [("--dims", "7"), ("--sizes", "99")])
def test_filters_leaving_no_cell_fail_the_run(flag, value, capsys):
    assert main(["verify", "--only", "QDET-DEF-AGREE", flag, value]) == 1
    out = capsys.readouterr().out
    assert "FAIL QDET-DEF-AGREE" in out and "no_cells" in out
    assert "0 verified" in out


@pytest.mark.parametrize("entry", [1.5, True, None])
def test_non_integer_json_entries_are_usage_errors(entry, tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
    assert main(["qdet", "--matrix", str(path), "--p", "1", "--q", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "expression strings" in err


@pytest.mark.parametrize(
    "content,message",
    [
        ([[1]], "JSON object"),
        ({"rows": 2, "cols": 1, "entries": [["1"], 5]}, "list of rows"),
    ],
    ids=["top-level-list", "row-not-a-list"],
)
def test_misshapen_matrix_files_are_usage_errors(content, message, tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(content))
    assert main(["qdet", "--matrix", str(path), "--p", "1", "--q", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


NESTED_ENTRIES = {
    "parentheses": "(" * 2000 + "1" + ")" * 2000,
    "unary-minus": "-" * 5000 + "1",
    "inv": "inv(" * 1000 + "1" + ")" * 1000,
}


@pytest.mark.parametrize("entry", NESTED_ENTRIES.values(), ids=NESTED_ENTRIES.keys())
def test_deeply_nested_entries_are_usage_errors(entry, tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
    assert main(["qdet", "--matrix", str(path), "--p", "1", "--q", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested deeper than 200" in err


def test_entry_nested_200_deep_evaluates(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    entry = "(" * 200 + "1" + ")" * 200
    path.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[entry]]}))
    assert main(["qdet", "--matrix", str(path), "--p", "1", "--q", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_bad_subcommand_exit_code():
    assert main(["not-a-command"]) == 3
