import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import claimcheck
from claimcheck.cli import main
from claimcheck.stubserver import FixtureStubServer


def run(argv: list[str]) -> int:
    return main(argv)


@pytest.fixture()
def verified_run(tmp_path) -> tuple[Path, Path]:
    corpus = tmp_path / "corpus"
    out = tmp_path / "out"
    assert run(["gen-corpus", "--out", str(corpus), "--n", "6",
                "--consistency", "0.8", "--seed", "3"]) == 0
    assert run(["verify", "--corpus", str(corpus), "--out", str(out),
                "--backend", "mock", "--parallelism", "2"]) == 0
    return corpus, out


class TestVerifyCommand:
    def test_happy_path_outputs(self, verified_run):
        corpus, out = verified_run
        app_dirs = [p for p in out.iterdir() if p.is_dir() and p.name.startswith("app_")]
        assert len(app_dirs) == 6
        for app_dir in app_dirs:
            for kind in ("eligibility", "common_core", "typology"):
                assert (app_dir / f"{kind}.json").is_file()
                assert (app_dir / f"{kind}.html").is_file()
            assert (app_dir / "extraction.json").is_file()
        assert (out / "metrics.json").is_file()
        assert (out / "cost_time.csv").is_file()
        assert (out / "manifest.json").is_file()

    def test_corrupt_form_exits_2_but_processes_rest(self, tmp_path):
        corpus = tmp_path / "corpus"
        out = tmp_path / "out"
        run(["gen-corpus", "--out", str(corpus), "--n", "4", "--seed", "1"])
        (corpus / "app_00002" / "form.xml").write_text("<broken")
        assert run(["verify", "--corpus", str(corpus), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["applications_processed"] == 3
        assert manifest["counts"]["applications_failed"] == 1
        assert manifest["failures"][0]["app_id"] == "app_00002"
        assert not (out / "app_00002").exists()

    def test_bad_endpoint_exits_1_before_processing(self, tmp_path):
        corpus = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus), "--n", "1", "--seed", "1"])
        out = tmp_path / "out"
        code = run(["verify", "--corpus", str(corpus), "--out", str(out),
                    "--backend", "remote", "--endpoint", "not a url"])
        assert code == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("endpoint", ["http://127.0.0.1:port", "http://:8080"])
    def test_endpoint_without_a_usable_host_and_port_exits_1(self, tmp_path, endpoint):
        corpus = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus), "--n", "1", "--seed", "1"])
        out = tmp_path / "out"
        code = run(["verify", "--corpus", str(corpus), "--out", str(out),
                    "--backend", "remote", "--endpoint", endpoint])
        assert code == 1
        assert not (out / "manifest.json").exists()

    def test_negative_retries_exits_1_before_processing(self, tmp_path):
        corpus = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus), "--n", "1", "--seed", "1"])
        out = tmp_path / "out"
        code = run(["verify", "--corpus", str(corpus), "--out", str(out),
                    "--backend", "remote", "--endpoint", "http://127.0.0.1:9",
                    "--retries", "-1"])
        assert code == 1
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("option, value, named", [
        ("--amount-tolerance-cents", "-5", "amount tolerance"),
        ("--max-file-mb", "-1", "max file size"),
        ("--max-file-mb", "0", "max file size"),
        ("--max-file-mb", "nan", "max file size"),
        ("--timeout", "-1", "timeout"),
        ("--timeout", "0", "timeout"),
        ("--timeout", "inf", "timeout"),
    ])
    def test_value_that_would_degrade_the_run_exits_1_before_processing(
            self, tmp_path, capsys, option, value, named):
        corpus = tmp_path / "corpus"
        run(["gen-corpus", "--out", str(corpus), "--n", "3", "--seed", "5"])
        out = tmp_path / "out"
        code = run(["verify", "--corpus", str(corpus), "--out", str(out),
                    "--backend", "remote", "--endpoint", "http://127.0.0.1:9", option, value])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_unsafe_app_id_writes_nothing_outside_out(self, tmp_path):
        corpus = tmp_path / "corpus"
        out = tmp_path / "work" / "out"
        run(["gen-corpus", "--out", str(corpus), "--n", "2", "--seed", "1"])
        form = corpus / "app_00002" / "form.xml"
        form.write_text(form.read_text(encoding="utf-8").replace(
            'id="app_00002"', 'id="../escaped"'), encoding="utf-8")
        assert run(["verify", "--corpus", str(corpus), "--out", str(out)]) == 2
        assert list((tmp_path / "work").iterdir()) == [out]
        manifest = json.loads((out / "manifest.json").read_text())
        assert [f["app_id"] for f in manifest["failures"]] == ["app_00002"]
        assert "not a plain name" in manifest["failures"][0]["reason"]

    def test_manifest_file_accounting(self, verified_run):
        corpus, out = verified_run
        manifest = json.loads((out / "manifest.json").read_text())
        files = manifest["files"]
        categorized = set(files["processed"]) | set(files["unsupported"]) | set(files["failed"])
        on_disk = {str(p.relative_to(corpus)) for p in corpus.rglob("*") if p.is_file()}
        assert on_disk == {f for f in categorized if "!" not in f}


class TestMetricsCommand:
    def test_metrics_without_labels(self, verified_run):
        _, out = verified_run
        assert run(["metrics", "--out", str(out)]) == 0
        summary = json.loads((out / "metrics.json").read_text())
        assert "taxonomy" not in summary
        assert 0.0 <= summary["total"]["suppression_rate"] <= 1.0

    def test_metrics_with_generated_labels(self, verified_run):
        corpus, out = verified_run
        assert run(["metrics", "--out", str(out),
                    "--labels", str(corpus / "labels.csv")]) == 0
        summary = json.loads((out / "metrics.json").read_text())
        taxonomy = summary["taxonomy"]
        assert taxonomy["false_positive"] == 0
        assert taxonomy["false_negative"] == 0
        assert taxonomy["labeled_total"] == summary["total"]["checks_total"]

    def test_unknown_label_app_exits_1(self, verified_run, capsys):
        corpus, out = verified_run
        labels = out / "bad_labels.csv"
        labels.write_text("app_id,check_id,real_error\nghost_app,common.receipt_number_found,true\n")
        assert run(["metrics", "--out", str(out), "--labels", str(labels)]) == 1
        assert "ghost_app" in capsys.readouterr().err

    def test_labels_of_an_application_verify_failed_name_the_application(self, tmp_path,
                                                                          capsys):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        assert run(["gen-corpus", "--out", str(corpus), "--n", "4", "--seed", "3"]) == 0
        (corpus / "app_00002" / "form.xml").write_text("not xml")
        assert run(["verify", "--corpus", str(corpus), "--out", str(out)]) == 2
        written = (out / "metrics.json").read_bytes()
        capsys.readouterr()
        assert run(["metrics", "--out", str(out), "--labels", str(corpus / "labels.csv")]) == 1
        assert ("label references application app_00002, which has no reports (for example, "
                "because verify failed it)") in capsys.readouterr().err
        assert (out / "metrics.json").read_bytes() == written

    def test_missing_outputs_exit_1(self, tmp_path):
        assert run(["metrics", "--out", str(tmp_path / "nothing")]) == 1

    def test_short_label_row_exits_1(self, verified_run, capsys):
        _, out = verified_run
        labels = out / "short_labels.csv"
        labels.write_text("app_id,check_id,real_error\napp_00001,common.receipt_number_found\n")
        assert run(["metrics", "--out", str(out), "--labels", str(labels)]) == 1
        assert "label line 2 lacks a value" in capsys.readouterr().err

    def test_label_file_with_a_byte_order_mark_is_read(self, verified_run):
        corpus, out = verified_run
        header, first = (corpus / "labels.csv").read_text().splitlines()[:2]
        labels = out / "bom_labels.csv"
        labels.write_text(f"{header}\n{first}\n", encoding="utf-8-sig")
        assert labels.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run(["metrics", "--out", str(out), "--labels", str(labels)]) == 0
        assert json.loads((out / "metrics.json").read_text())["taxonomy"]["labeled_total"] == 1

    @pytest.mark.parametrize("value", ["y", "t", "maybe", ""])
    def test_real_error_outside_true_false_exits_1_naming_its_line(self, verified_run, capsys,
                                                                     value):
        _, out = verified_run
        written = (out / "metrics.json").read_bytes()
        labels = out / "odd_labels.csv"
        labels.write_text("app_id,check_id,real_error\n"
                          "app_00001,common.company_tax_id_matches_invoice, No \n"
                          f"app_00001,common.declared_expense_matches_invoice,{value}\n")
        assert run(["metrics", "--out", str(out), "--labels", str(labels)]) == 1
        assert "label line 3" in capsys.readouterr().err
        assert (out / "metrics.json").read_bytes() == written

    def test_a_check_labelled_twice_exits_1_naming_both_lines(self, verified_run, capsys):
        _, out = verified_run
        labels = out / "twice_labels.csv"
        labels.write_text("app_id,check_id,real_error\n"
                          "app_00001,common.company_tax_id_matches_invoice,false\n"
                          "app_00001,common.declared_expense_matches_invoice,false\n"
                          "app_00001,common.company_tax_id_matches_invoice,true\n")
        assert run(["metrics", "--out", str(out), "--labels", str(labels)]) == 1
        err = capsys.readouterr().err
        assert "label lines 2 and 4" in err
        assert "app_00001/common.company_tax_id_matches_invoice" in err


# cli imports verify_corpus only when verify runs, so it is patched where it lives
@pytest.mark.parametrize("command, target", [
    pytest.param("verify", "claimcheck.pipeline.verify_corpus", id="verify-verify_corpus"),
    pytest.param("metrics", "claimcheck.cli.compute_metrics", id="metrics-compute_metrics"),
])
def test_internal_error_exits_3_and_logs_its_traceback(tmp_path, monkeypatch, caplog,
                                                        command, target):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("a defect")

    monkeypatch.setattr(target, crash)
    argv = {"verify": ["verify", "--corpus", str(tmp_path), "--out", str(tmp_path / "out")],
            "metrics": ["metrics", "--out", str(tmp_path)]}[command]
    with caplog.at_level("INFO", logger="claimcheck"):
        assert run(argv) == 3
    [event] = [json.loads(r.getMessage()) for r in caplog.records
               if '"internal_error"' in r.getMessage()]
    assert event["command"] == command
    assert "ZeroDivisionError" in event["error"]
    assert "Traceback" in event["traceback"] and "in crash" in event["traceback"]


class TestEvalTextCommand:
    def test_pairs_to_csv(self, tmp_path):
        pairs = tmp_path / "pairs.jsonl"
        rows = [
            {"id": "p1", "candidate": "the cat sat", "reference": "the cat sat",
             "candidate_vec": [1.0, 0.0], "reference_vec": [2.0, 0.0]},
            {"id": "p2", "candidate": "a b", "reference": "a b c d"},
        ]
        pairs.write_text("\n".join(json.dumps(r) for r in rows))
        out_csv = tmp_path / "scores.csv"
        assert run(["eval-text", "--pairs", str(pairs), "--out", str(out_csv)]) == 0
        with out_csv.open() as handle:
            parsed = list(csv.DictReader(handle))
        by_id = {row["id"]: row for row in parsed}
        assert float(by_id["p1"]["rouge_l_f1"]) == 1.0
        assert float(by_id["p1"]["cosine"]) == pytest.approx(1.0)
        assert by_id["p2"]["cosine"] == ""
        assert "mean" in by_id and "pooled" in by_id

    def test_missing_pairs_file(self, tmp_path):
        assert run(["eval-text", "--pairs", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "x.csv")]) == 1


class TestConfigFile:
    def test_config_file_defaults(self, tmp_path):
        corpus = tmp_path / "corpus"
        config = tmp_path / "config.yaml"
        config.write_text("consistency: 1.0\n")
        assert run(["gen-corpus", "--out", str(corpus), "--n", "2",
                    "--seed", "1", "--config", str(config)]) == 0
        manifest = json.loads((corpus / "corpus_manifest.json").read_text())
        assert manifest["inconsistent_checks"] == 0

    def test_consistency_flag_wins_over_config_file(self, tmp_path):
        corpus = tmp_path / "corpus"
        config = tmp_path / "config.yaml"
        config.write_text("consistency: 1.0\n")
        assert run(["gen-corpus", "--out", str(corpus), "--n", "2", "--seed", "1",
                    "--config", str(config), "--consistency", "0.5"]) == 0
        manifest = json.loads((corpus / "corpus_manifest.json").read_text())
        assert manifest["inconsistent_checks"] > 0

    def test_missing_config_file(self, tmp_path):
        assert run(["gen-corpus", "--out", str(tmp_path / "c"), "--n", "1",
                    "--config", str(tmp_path / "none.yaml")]) == 1

    def test_config_file_that_is_no_mapping_exits_1(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("- backend\n")
        assert run(["gen-corpus", "--out", str(tmp_path / "c"), "--n", "1",
                    "--config", str(config)]) == 1

    @pytest.mark.parametrize("mix", ["1:abc", "x:1", "1:2,", "9:1", "1:-1,3:2", "1:0", "1:nan"])
    def test_malformed_typology_mix_exits_1_and_writes_nothing(self, tmp_path, capsys, mix):
        out = tmp_path / "c"
        assert run(["gen-corpus", "--out", str(out), "--n", "3", "--seed", "5",
                    "--typology-mix", mix]) == 1
        assert "--typology-mix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n", "-1"), ("--consistency", "1.5"), ("--consistency", "-0.1"),
        ("--consistency", "nan"), ("--unsupported-rate", "1.01"), ("--unsupported-rate", "-1"),
        ("--docs-per-app", "5"), ("--docs-per-app", "-3"),
    ])
    def test_a_value_that_gives_another_corpus_exits_1_and_writes_nothing(
            self, tmp_path, capsys, flag, value):
        out = tmp_path / "c"
        args = ["gen-corpus", "--out", str(out), "--n", "3", "--seed", "5"]
        assert run([*args, flag, value]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_a_consistency_from_the_config_file_outside_0_1_exits_1(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("consistency: 1.5\n")
        out = tmp_path / "c"
        assert run(["gen-corpus", "--out", str(out), "--n", "3", "--config", str(config)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-corpus", "verify"])
    def test_unknown_config_key_exits_1(self, tmp_path, capsys, command):
        config = tmp_path / "config.yaml"
        config.write_text("backnd: remote\nconsistency: 1.0\n")
        args = ["--n", "1"] if command == "gen-corpus" else ["--corpus", str(tmp_path)]
        out = tmp_path / "out"
        assert run([command, "--out", str(out), "--config", str(config), *args]) == 1
        assert "backnd" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, expected", [(["--backend", "mock"], "mock"),
                                                ([], "remote")])
    def test_backend_flag_wins_over_config_file(self, tmp_path, flag, expected):
        corpus = tmp_path / "corpus"
        out = tmp_path / "out"
        run(["gen-corpus", "--out", str(corpus), "--n", "1", "--seed", "1"])
        with FixtureStubServer(corpus) as server:
            config = tmp_path / "config.yaml"
            config.write_text(f"backend: remote\nendpoint: {server.url}\n")
            assert run(["verify", "--corpus", str(corpus), "--out", str(out),
                        "--config", str(config), *flag]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["backend"] == expected
        assert manifest["config"]["endpoint"] == server.url

    def test_endpoint_flag_wins_over_config_file(self, tmp_path):
        corpus = tmp_path / "corpus"
        out = tmp_path / "out"
        run(["gen-corpus", "--out", str(corpus), "--n", "1", "--seed", "1"])
        config = tmp_path / "config.yaml"
        config.write_text("backend: remote\nendpoint: http://127.0.0.1:9\n")
        with FixtureStubServer(corpus) as server:
            assert run(["verify", "--corpus", str(corpus), "--out", str(out),
                        "--config", str(config), "--endpoint", server.url]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["endpoint"] == server.url


@pytest.mark.parametrize("option, text, named", [
    ("--config", "backend: [mock\n", "config file"),
    ("--catalog", None, "cannot be read"),
    ("--catalog", "checks: [unclosed\n", "cannot be read"),
    ("--catalog", "checks: [{id: x}]\n", "checks[0] (id 'x'): missing key 'report'"),
], ids=["config-not-yaml", "catalog-missing", "catalog-not-yaml", "catalog-entry-missing-key"])
def test_unusable_operator_file_exits_1(tmp_path, capsys, option, text, named):
    path = tmp_path / "operator.yaml"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    assert run(["verify", "--corpus", str(tmp_path), "--out", str(out), option, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(path) in err and named in err
    assert not out.exists()


SRC = Path(claimcheck.__file__).resolve().parents[1]
HTTP_CLIENT_MODULES = {"ssl", "http.client", "urllib.request", "email"}
# what only verify (and gen-corpus) need: metrics reads finished reports
VERIFY_MODULES = {"claimcheck.pipeline", "claimcheck.rules", "claimcheck.ingest",
                  "claimcheck.extract", "claimcheck.normalize", "claimcheck.catalog",
                  "claimcheck.report", "xml.etree.ElementTree", "yaml"}


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds once it has run ``code``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return set(subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split())


def test_cli_import_loads_no_http_library_and_no_other_command():
    loaded = modules_after("import claimcheck.cli")
    assert "claimcheck.cli" in loaded
    for module in ("requests", "yaml", "claimcheck.gencorpus", "claimcheck.textmetrics",
                   *HTTP_CLIENT_MODULES, *VERIFY_MODULES):
        assert module not in loaded


def test_mock_verify_and_metrics_load_no_http_client_and_metrics_no_yaml(tmp_path):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert run(["gen-corpus", "--out", str(corpus), "--n", "2", "--seed", "1"]) == 0
    commands = {
        "verify": ["verify", "--corpus", str(corpus), "--out", str(out), "--backend", "mock"],
        "metrics": ["metrics", "--out", str(out), "--labels", str(corpus / "labels.csv")],
    }
    loaded = {name: modules_after(f"from claimcheck.cli import main\nassert main({argv!r}) == 0")
              for name, argv in commands.items()}
    assert "claimcheck.pipeline" in loaded["verify"]
    assert not HTTP_CLIENT_MODULES & loaded["verify"]
    assert not HTTP_CLIENT_MODULES & loaded["metrics"]
    assert not VERIFY_MODULES & loaded["metrics"]


def test_verify_of_an_empty_corpus_loads_no_process_pool(tmp_path):
    (tmp_path / "corpus").mkdir()
    argv = ["verify", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "out")]
    loaded = modules_after(f"from claimcheck.cli import main\nassert main({argv!r}) == 0")
    assert "claimcheck.pipeline" in loaded
    assert not {"multiprocessing", "concurrent.futures.process"} & loaded


def test_no_module_under_src_imports_requests():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "requests" for name in names), path
