"""End-to-end command behavior through main(argv); no subprocesses."""

import csv
import io
import json

import pytest

from ggq.cli import (
    CliConfig,
    emit_csv,
    emit_json,
    emit_text,
    load_config,
    main,
    parse_json,
)
from ggq import partitions, registry
from ggq.registry import run_all


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "--id", "1.1", "--order", "61")
    assert code == 0
    assert err == ""
    assert "1.1" in out and "pass" in out
    assert "1 check(s), 0 failed" in out


def test_verify_unknown_id(capsys):
    code, out, err = run(capsys, "verify", "--id", "8.1")
    assert code == 2
    assert err.startswith("error:")
    assert "8.1" in err and "4.20" in err  # lists the catalog


def test_verify_inapplicable_flag(capsys):
    code, _, err = run(capsys, "verify", "--id", "1.1", "--k", "2")
    assert code == 2
    assert "--k" in err


def test_verify_order_on_orderless_check(capsys):
    code, _, err = run(capsys, "verify", "--id", "4.15", "--order", "41")
    assert code == 2
    assert "--order" in err or "order" in err


def test_verify_grid_flags(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "4.15", "--k", "2", "--l", "4", "--m", "4"
    )
    assert code == 0
    assert "pass" in out


def test_verify_negative_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--id", "thm3", "--n", "-3")
    assert code == 2
    assert out == "" and "n_max" in err


def test_verify_negative_grid_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--id", "4.20", "--l", "-1")
    assert code == 2
    assert out == "" and "l_max" in err


def test_verify_k_below_one_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--id", "4.12", "--k", "0")
    assert code == 2
    assert out == "" and "k must be at least 1" in err


@pytest.mark.parametrize(
    "argv,bound",
    [
        (["--id", "1.1", "--order", "1"], "order2"),
        (["--id", "1.1", "--order", "2"], "order2"),
        (["--id", "3.3", "--order", "1"], "order2"),
        (["--id", "4.11", "--order", "1"], "order2"),
        (["--id", "4.9", "--order", "1"], "order2"),
        (["--id", "thm1", "--n", "0"], "n_max"),
        (["--id", "2.7", "--n", "0"], "sigma_max"),
        (["--id", "4.15", "--l", "0"], "l_max"),
        (["--id", "4.20", "--l", "0"], "l_max"),
    ],
)
def test_verify_bound_past_nothing_is_usage_error(capsys, argv, bound):
    # each of these would compare nothing past q^0 and pass
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and f"{bound} must be at least" in err


def test_verify_corrupt_fails(capsys):
    code, out, _ = run(
        capsys, "verify", "--id", "1.1", "--order", "41", "--corrupt", ":1"
    )
    assert code == 1
    assert "fail" in out and "e2=0" in out


def test_corrupt_flag_parse_error(capsys):
    code, _, err = run(
        capsys, "verify", "--id", "1.1", "--order", "41", "--corrupt", "zap"
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--id", "1.1", "--order", "41", "--corrupt", "3:1"],  # an index on a series
        ["--id", "thm1", "--n", "10", "--corrupt", "1,0,0:1"],  # a series key on counts
    ],
)
def test_corrupt_key_of_the_wrong_kind_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == "" and "takes a corruption" in err


def test_count_text_and_csv(capsys):
    code, out, _ = run(capsys, "count", "--family", "Q2", "--max", "6")
    assert code == 0
    assert out == "1,1,0,1,2,2,1\n"
    code, out, _ = run(capsys, "count", "--family", "Q2", "--max", "2", "--emit", "csv")
    assert out == "n,count\n0,1\n1,1\n2,0\n"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--family", "P", "--max", "9", "--emit", "json")
    assert code == 0
    assert json.loads(out)["counts"] == [1, 0, 0, 1, 1, 0, 0, 1, 2, 1]


def test_count_negative_max_is_usage_error(capsys):
    code, out, err = run(capsys, "count", "--family", "Q2", "--max", "-1")
    assert code == 2
    assert out == "" and "--max" in err


def test_count_residue_family(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "residue:4:1,2", "--max", "3"
    )
    assert code == 0
    assert out == "1,1,2,2\n"  # parts in {1,2,5,6,...}, repeats allowed
    code, _, err = run(capsys, "count", "--family", "residue:4", "--max", "3")
    assert code == 2
    code, _, err = run(capsys, "count", "--family", "nope", "--max", "3")
    assert code == 2
    assert "unknown family" in err


def test_count_asks_the_counter_its_top_first(capsys, monkeypatch):
    # a family no other test counts, so its memo starts empty: asked from
    # the top, the counter computes 0..300 once, not 0, 1, 2, 4, ..., 512
    tops = []
    counts_to = partitions._counts_to

    def recorded(family, top):
        tops.append(top)
        return counts_to(family, top)

    monkeypatch.setattr(partitions, "_counts_to", recorded)
    code, out, _ = run(capsys, "count", "--family", "residue:11:1,3,4,5,9", "--max", "300")
    assert code == 0
    assert len(out.split(",")) == 301
    assert tops == [300]


def test_bijection_summary_and_trace(capsys):
    code, out, _ = run(capsys, "bijection", "--n", "5")
    assert code == 0
    assert "pi=5 choice=1 -> pi1=5 pi3=0 pi4=0" in out
    assert "pi=5 choice=2 -> pi1=0 pi3=4 pi4=1" in out
    code, out, _ = run(capsys, "bijection", "--n", "5", "--trace")
    assert out.count("member: 5") == 2
    assert "pi3: 4" in out and "pi4: 1" in out


def test_verify_all_json_roundtrip(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, _, _ = run(
        capsys,
        "verify",
        "--id",
        "thm1",
        "--n",
        "12",
        "--emit",
        "json",
        "--out",
        str(path),
    )
    assert code == 0
    text = path.read_text()
    payload = json.loads(text)
    assert payload["version"] == 1
    reports = parse_json(text)
    assert emit_json(reports) == text


def test_report_conversion(capsys, tmp_path):
    reports = run_all(ids=["thm1", "1.1"], corrupt_id="1.1")
    path = tmp_path / "r.json"
    path.write_text(emit_json(reports))
    code, out, _ = run(capsys, "report", str(path), "--emit", "csv")
    assert code == 1  # carries the failure through
    assert out.splitlines()[0] == "id,params,order2,status,first_mismatch,elapsed_ms,failed_facet"
    assert ",fail," in out
    code, out, _ = run(capsys, "report", str(path))
    assert "2 check(s), 1 failed" in out


def test_failed_facet_in_json_and_text(capsys):
    reports = run_all(ids=["thm1", "1.1"], corrupt_id="1.1")
    text = emit_json(reports)
    failed, passed = json.loads(text)["checks"]
    assert failed["failed_facet"] == "sum-vs-product"
    assert "failed_facet" not in passed  # only on failure; schema stays 1
    assert parse_json(text) == reports
    line = emit_text(reports).splitlines()[0]
    assert line.endswith("  sum-vs-product: " + reports[0].first_mismatch)


def test_failed_facet_in_csv(capsys):
    # the label is the last column, empty on a pass
    code, out, _ = run(capsys, "verify", "--id", "1.1", "--corrupt", ":1", "--emit", "csv")
    assert code == 1
    header, row = csv.reader(io.StringIO(out))
    assert header[-1] == "failed_facet"
    assert row[3] == "fail" and row[-1] == "sum-vs-product"
    code, out, _ = run(capsys, "verify", "--id", "1.1", "--emit", "csv")
    _, row = csv.reader(io.StringIO(out))
    assert code == 0 and row[3] == "pass" and row[-1] == ""


def test_verify_echoes_compared_count_bound(capsys):
    code, out, _ = run(capsys, "verify", "--id", "1.1", "--order", "3")
    assert code == 0
    assert "counts_max=1" in out


def test_report_bad_version(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"version": 99, "checks": []}))
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert "version" in err


def test_report_of_no_checks_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"version": 1, "checks": []}))
    code, out, err = run(capsys, "report", str(path))
    assert code == 2
    assert out == ""
    assert "nonempty" in err


def test_report_top_level_not_an_object(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text("[]")
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert "JSON object" in err


def test_report_check_not_an_object(capsys, tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"version": 1, "checks": [1]}))
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert "list of objects" in err


_SAVED = {"id": "1.1", "params": {"counts_max": 2}, "order2": 5, "status": "pass",
          "elapsed_ms": 0}


@pytest.mark.parametrize(
    "field, value",
    [("params", []), ("status", "bogus"), ("id", 11), ("order2", "5"), ("order2", True),
     ("elapsed_ms", 0.5), ("elapsed_ms", False), ("first_mismatch", 3),
     ("failed_facet", ["sum-vs-product"])],
)
def test_report_of_a_malformed_check_is_a_usage_error(capsys, tmp_path, field, value):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"version": 1, "checks": [_SAVED]}))
    assert run(capsys, "report", str(path))[0] == 0  # the well-formed check reads
    path.write_text(json.dumps({"version": 1, "checks": [{**_SAVED, field: value}]}))
    code, out, err = run(capsys, "report", str(path))
    assert code == 2
    assert out == ""
    assert "malformed" in err


def test_report_of_a_check_missing_a_field_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "r.json"
    saved = {k: v for k, v in _SAVED.items() if k != "elapsed_ms"}
    path.write_text(json.dumps({"version": 1, "checks": [saved]}))
    code, out, err = run(capsys, "report", str(path))
    assert code == 2
    assert out == ""
    assert "malformed" in err


def test_a_key_error_is_no_usage_error(capsys, monkeypatch):
    # a KeyError inside a check is a defect of the program, not of the
    # command line, so it is not turned into exit 2
    def run_check(*args, **kwargs):
        raise KeyError(5)

    monkeypatch.setattr(registry, "run_check", run_check)
    with pytest.raises(KeyError):
        main(["verify-all", "--level", "quick"])


def test_config_file_and_env(capsys, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"default_order2": 41, "output_format": "json"}))
    code, out, _ = run(capsys, "--config", str(path), "verify", "--id", "1.1")
    assert code == 0
    assert json.loads(out)["checks"][0]["order2"] == 41

    monkeypatch.setenv("GGQ_CONFIG", str(path))
    code, out, _ = run(capsys, "verify", "--id", "1.1")
    assert json.loads(out)["checks"][0]["order2"] == 41

    # flags beat the config
    code, out, _ = run(capsys, "verify", "--id", "1.1", "--order", "61", "--emit", "text")
    assert "order2=61" in out


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"order": 10}))
    code, _, err = run(capsys, "--config", str(path), "verify", "--id", "1.1")
    assert code == 2
    assert "unknown config keys" in err


def test_config_validation():
    with pytest.raises(ValueError):
        CliConfig(parallelism=0)
    with pytest.raises(ValueError):
        CliConfig(output_format="xml")
    assert load_config(None) == CliConfig()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_parallelism_flag_below_one_is_usage_error(capsys, value):
    code, out, err = run(capsys, "verify-all", "--parallelism", value)
    assert code == 2
    assert out == ""
    assert "parallelism must be >= 1" in err


@pytest.mark.parametrize(
    "raw",
    [
        {"parallelism": "2"},
        {"parallelism": True},
        {"parallelism": None},
        {"default_order2": 3.5},
        {"default_order2": "41"},
        {"out_path": 5},
        [1, 2],
    ],
)
def test_config_of_the_wrong_type_is_usage_error(tmp_path, capsys, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    for argv in (["verify", "--id", "thm1", "--n", "3"], ["verify-all", "--level", "quick"]):
        code, out, err = run(capsys, "--config", str(path), *argv)
        assert code == 2, (raw, argv)
        assert out == "" and err.startswith("error:")


def test_emitters_align():
    reports = run_all(ids=["thm1"])
    text = emit_text(reports)
    assert text.endswith("1 check(s), 0 failed\n")
    csv_text = emit_csv(reports)
    assert csv_text.startswith("id,params,order2,status")
