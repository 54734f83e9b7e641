import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

from kgreason import agent, bench, cli, mining
from kgreason.agent import EpisodeTrace
from kgreason.cli import main
from kgreason.llm import ENDPOINT_URL_VAR
from test_endpoint import FakeEndpoint, openai_style


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def synonyms_file(tmp_path):
    path = tmp_path / "synonyms.json"
    path.write_text(json.dumps({"uncle": ["hasParent", "hasSibling"]}))
    return path


@pytest.fixture
def mined_rules(tmp_path, uncle_world_file):
    out = tmp_path / "rules.jsonl"
    rc = main(
        [
            "mine", "--kg", str(uncle_world_file), "--out", str(out),
            "--min-conf", "0.9", "--max-len", "3",
        ]
    )
    assert rc == 0
    return out


@pytest.fixture
def bundle_dir(tmp_path, uncle_world_file, mined_rules):
    out = tmp_path / "bundle"
    rc = main(
        [
            "bench", "--kg", str(uncle_world_file), "--rules", str(mined_rules),
            "--out-dir", str(out), "--seed", "7", "--groundings-per-rule", "2",
            "--topic-side", "subject",
        ]
    )
    assert rc == 0
    return out


class TestMine:
    def test_writes_rules_and_histogram(self, tmp_path, uncle_world_file, capsys):
        out = tmp_path / "mined.jsonl"
        rc = main(["mine", "--kg", str(uncle_world_file), "--out", str(out),
                   "--min-conf", "0.9", "--max-len", "3"])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["type"] == "composition"
        err = capsys.readouterr().err
        assert "composition" in err
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["inputs"]["kg"]["sha256"]

    def test_empty_graph_is_domain_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        rc = main(["mine", "--kg", str(empty), "--out", str(tmp_path / "r.jsonl")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_threshold_is_usage_like_error(self, tmp_path, uncle_world_file, capsys):
        rc = main(
            ["mine", "--kg", str(uncle_world_file), "--out", str(tmp_path / "r.jsonl"),
             "--min-conf", "7"]
        )
        assert rc == 1
        assert "min_confidence" in capsys.readouterr().err

    def test_rerun_identical_hash(self, tmp_path, uncle_world_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["mine", "--kg", str(uncle_world_file), "--out", str(out),
                         "--max-len", "3"]) == 0
        assert sha(a) == sha(b)

    @pytest.mark.parametrize("fail_in", ["rules", "manifest"])
    def test_failed_write_keeps_previous_outputs(
        self, tmp_path, uncle_world_file, monkeypatch, fail_in
    ):
        out = tmp_path / "rules.jsonl"
        argv = ["mine", "--kg", str(uncle_world_file), "--out", str(out), "--max-len", "3"]
        assert main(argv + ["--min-conf", "0.9"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert before[out.name].count(b"\n") == 1  # a rerun without --min-conf mines 3

        if fail_in == "rules":
            real, calls = mining.rule_to_json, []

            def boom(rule):  # the second rule's row fails, after the first is written
                calls.append(rule)
                if len(calls) == 2:
                    raise OSError("disk full")
                return real(rule)

            monkeypatch.setattr(mining, "rule_to_json", boom)
        else:
            def boom(path, text, **kwargs):  # the manifest fails half written
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_text", boom)
        assert main(argv) == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_missing_subcommand_usage_error(self):
        assert main([]) == 2


class TestBench:
    def test_manifest_counts(self, bundle_dir):
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        c = manifest["counts"]
        assert c["removals"] == c["complete_triples"] - c["incomplete_triples"]
        assert c["questions_final"] >= 1

    def test_template_backend_needs_no_endpoint(self, bundle_dir, monkeypatch):
        # constructed without LLM_ENDPOINT_URL in the fixtures already
        rows = [json.loads(l) for l in (bundle_dir / "questions.jsonl").read_text().splitlines()]
        assert all(r["provenance"]["backend"] == "template" for r in rows)

    def test_external_backend_without_env_fails(self, tmp_path, uncle_world_file, mined_rules, monkeypatch, capsys):
        monkeypatch.delenv(ENDPOINT_URL_VAR, raising=False)
        rc = main(
            ["bench", "--kg", str(uncle_world_file), "--rules", str(mined_rules),
             "--out-dir", str(tmp_path / "b2"), "--question-backend", "external"]
        )
        assert rc == 1
        assert ENDPOINT_URL_VAR in capsys.readouterr().err
        assert not (tmp_path / "b2").exists()

    def test_out_dir_with_foreign_file_is_refused(
        self, bundle_dir, uncle_world_file, mined_rules, monkeypatch, capsys
    ):
        from kgreason import bench

        (bundle_dir / "notes.txt").write_text("not part of a bundle")
        before = {p.name: p.read_bytes() for p in bundle_dir.iterdir()}
        # refused before any removal is planned
        monkeypatch.setattr(bench, "plan_removals", lambda *args: pytest.fail("planned"))
        rc = main(["bench", "--kg", str(uncle_world_file), "--rules", str(mined_rules),
                   "--out-dir", str(bundle_dir), "--seed", "8"])
        assert rc == 1
        assert "notes.txt" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in bundle_dir.iterdir()} == before

    def test_tau_one_keeps_everything(self, tmp_path, uncle_world_file, mined_rules):
        out1 = tmp_path / "b_tau1"
        rc = main(
            ["bench", "--kg", str(uncle_world_file), "--rules", str(mined_rules),
             "--out-dir", str(out1), "--tau", "1.0", "--seed", "7",
             "--groundings-per-rule", "30"]
        )
        assert rc == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        c = manifest["counts"]
        assert c["questions_final"] == c["questions_generated"]


class TestRunAndEval:
    def test_heuristic_run_then_eval(self, tmp_path, bundle_dir, synonyms_file):
        preds = tmp_path / "preds.jsonl"
        traces = tmp_path / "traces.jsonl"
        rc = main(
            ["run", "--bundle", str(bundle_dir), "--policy", "heuristic",
             "--split", "all", "--out", str(preds), "--traces", str(traces),
             "--synonyms", str(synonyms_file)]
        )
        assert rc == 0
        rows = [json.loads(l) for l in preds.read_text().splitlines()]
        questions = (bundle_dir / "questions.jsonl").read_text().splitlines()
        assert len(rows) == len(questions)
        assert all(set(r) == {"id", "prediction", "terminated"} for r in rows)

        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        rc = main(
            ["eval", "--bundle", str(bundle_dir), "--predictions", str(preds),
             "--split", "all", "--out", str(report_path), "--csv", str(csv_path)]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report["metrics"]) == {
            "hits_any", "precision", "recall", "f1", "hits_hard", "hhr",
        }
        assert report["metrics"]["hhr"] == 1.0
        assert csv_path.read_text().startswith("id,hit,hard_hit")

    def test_rerun_heuristic_identical_predictions(self, tmp_path, bundle_dir, synonyms_file):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(
                ["run", "--bundle", str(bundle_dir), "--split", "all",
                 "--out", str(out), "--synonyms", str(synonyms_file)]
            ) == 0
        assert sha(a) == sha(b)

    def test_parallel_matches_serial(self, tmp_path, bundle_dir, synonyms_file):
        serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        main(["run", "--bundle", str(bundle_dir), "--split", "all",
              "--out", str(serial), "--synonyms", str(synonyms_file)])
        main(["run", "--bundle", str(bundle_dir), "--split", "all",
              "--out", str(parallel), "--parallel", "4", "--synonyms", str(synonyms_file)])
        assert sha(serial) == sha(parallel)

    def test_llm_policy_without_endpoint_is_usage_error(self, bundle_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(ENDPOINT_URL_VAR, raising=False)
        rc = main(
            ["run", "--bundle", str(bundle_dir), "--policy", "llm",
             "--out", str(tmp_path / "p.jsonl")]
        )
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_eval_rejects_stray_prediction_ids(self, tmp_path, bundle_dir, capsys):
        preds = tmp_path / "bad.jsonl"
        preds.write_text('{"id": "q99999", "prediction": ["x"], "terminated": true}\n')
        rc = main(
            ["eval", "--bundle", str(bundle_dir), "--predictions", str(preds),
             "--split", "all", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 1
        assert "q99999" in capsys.readouterr().err

    def test_perfect_predictions_score_one(self, tmp_path, bundle_dir):
        questions = [json.loads(l) for l in (bundle_dir / "questions.jsonl").read_text().splitlines()]
        preds = tmp_path / "gold.jsonl"
        with open(preds, "w") as fh:
            for q in questions:
                fh.write(json.dumps({"id": q["id"], "prediction": q["answers"], "terminated": True}) + "\n")
        out = tmp_path / "r.json"
        assert main(["eval", "--bundle", str(bundle_dir), "--predictions", str(preds),
                     "--split", "all", "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert all(v == 1.0 for v in metrics.values())

    def test_empty_predictions_score_zero_hits(self, tmp_path, bundle_dir):
        questions = [json.loads(l) for l in (bundle_dir / "questions.jsonl").read_text().splitlines()]
        preds = tmp_path / "empty.jsonl"
        with open(preds, "w") as fh:
            for q in questions:
                fh.write(json.dumps({"id": q["id"], "prediction": [], "terminated": False}) + "\n")
        out = tmp_path / "r.json"
        assert main(["eval", "--bundle", str(bundle_dir), "--predictions", str(preds),
                     "--split", "all", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["metrics"]["hits_any"] == 0.0


class TestInspect:
    def test_kg_stats(self, uncle_world_file, capsys):
        assert main(["inspect", "--kg", str(uncle_world_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["triples"] == 23
        assert payload["predicates"] == 3

    def test_rules_histogram(self, mined_rules, capsys):
        assert main(["inspect", "--rules", str(mined_rules)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule_type_histogram"]["composition"] == 1

    @pytest.mark.parametrize("stage", ["inspect", "bench"])
    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda row: {k: v for k, v in row.items() if k != "metrics"},
             "line 2: missing field 'metrics'\n"),
            (lambda row: [1, 2], "line 2: not a JSON object\n"),
            (lambda row: {**row, "head": {"p": "hasUncle", "args": ["X"]}},
             "rule r0001: bad head, body or metrics: "),
            (lambda row: {**row, "metrics": {"support": 1}}, "rule r0001: bad head, body or metrics: "),
            (lambda row: {**row, "type": "weird"}, "rule r0001: unknown rule type 'weird'\n"),
            (lambda row: {**row, "metrics": {**row["metrics"], "pca_conf": "x"}},
             "rule r0001: bad head, body or metrics: "),
            (lambda row: {**row, "head": {**row["head"], "p": ["x"]}},
             "rule r0001: bad head, body or metrics: "),
            (lambda row: {**row, "id": 7}, "line 2: id 7 is not a string\n"),
        ],
        ids=["no-metrics", "not-an-object", "one-argument-head", "short-metrics", "unknown-type",
             "text-metric", "list-predicate", "id-not-a-string"],
    )
    def test_malformed_rules_row_is_an_error(
        self, tmp_path, uncle_world_file, mined_rules, capsys, stage, edit, problem
    ):
        row = json.loads(mined_rules.read_text())
        path = tmp_path / "broken.jsonl"
        path.write_text(f"{json.dumps(row)}\n{json.dumps(edit({**row, 'id': 'r0001'}))}\n")
        out = tmp_path / "out"
        argv = {
            "inspect": ["inspect", "--rules", str(path)],
            "bench": ["bench", "--kg", str(uncle_world_file), "--rules", str(path),
                      "--out-dir", str(out)],
        }[stage]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {problem}") and err.count("\n") == 1
        assert not out.exists()

    def test_bundle_verification(self, bundle_dir, capsys):
        assert main(["inspect", "--bundle", str(bundle_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]

    def test_requires_exactly_one_target(self, capsys):
        assert main(["inspect"]) == 2


class TestConfigPrecedence:
    def test_env_var_used_when_flag_absent(self, tmp_path, uncle_world_file, monkeypatch):
        monkeypatch.setenv("KGREASON_MIN_CONF", "0.9")
        out = tmp_path / "r.jsonl"
        assert main(["mine", "--kg", str(uncle_world_file), "--out", str(out),
                     "--max-len", "3"]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["min_conf"] == 0.9
        assert len(out.read_text().splitlines()) == 1  # only the conf-1.0 rule

    def test_flag_beats_env_and_config(self, tmp_path, uncle_world_file, monkeypatch):
        monkeypatch.setenv("KGREASON_MIN_CONF", "0.99")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_conf": 0.98}))
        out = tmp_path / "r.jsonl"
        assert main(["mine", "--kg", str(uncle_world_file), "--out", str(out),
                     "--min-conf", "0.3", "--max-len", "3", "--config", str(cfg)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["min_conf"] == 0.3
        assert len(out.read_text().splitlines()) == 3

    def test_config_file_beats_default(self, tmp_path, uncle_world_file, monkeypatch):
        monkeypatch.delenv("KGREASON_MIN_CONF", raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_conf": 0.9}))
        out = tmp_path / "r.jsonl"
        assert main(["mine", "--kg", str(uncle_world_file), "--out", str(out),
                     "--max-len", "3", "--config", str(cfg)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["min_conf"] == 0.9


def set_option(source, name, value, tmp_path, monkeypatch):
    """Set one option through KGREASON_<NAME> or a --config file; returns the
    extra arguments the command needs."""
    if source == "env":
        monkeypatch.setenv(f"KGREASON_{name.upper()}", "true" if value is True else str(value))
        return []
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({name: value}))
    return ["--config", str(cfg)]


@pytest.mark.parametrize("source", ["env", "config"])
class TestSwitchesResolve:
    def test_instantiated(self, source, tmp_path, uncle_world_file, monkeypatch):
        extra = set_option(source, "instantiated", True, tmp_path, monkeypatch)
        out = tmp_path / "r.jsonl"
        assert main(["mine", "--kg", str(uncle_world_file), "--out", str(out),
                     "--min-conf", "0.9", "--max-len", "3", *extra]) == 0
        manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
        assert manifest["config"]["instantiated"] is True

    def test_anonymize_seed(self, source, tmp_path, uncle_world_file, mined_rules, monkeypatch):
        extra = set_option(source, "anonymize_seed", 3, tmp_path, monkeypatch)
        out = tmp_path / "anon"
        assert main(["bench", "--kg", str(uncle_world_file), "--rules", str(mined_rules),
                     "--out-dir", str(out), "--seed", "7", *extra]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["anonymize_seed"] == 3
        assert (out / "anonymization_map.json").exists()

    @pytest.mark.parametrize("name", ["include_inverse", "synonyms", "parallel"])
    def test_run_options(self, source, name, tmp_path, bundle_dir, synonyms_file, monkeypatch):
        value = {"include_inverse": True, "synonyms": str(synonyms_file), "parallel": 2}[name]
        extra = set_option(source, name, value, tmp_path, monkeypatch)
        out = tmp_path / "preds.jsonl"
        assert main(["run", "--bundle", str(bundle_dir), "--split", "all",
                     "--out", str(out), *extra]) == 0
        manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
        assert manifest["config"][name] == value


class TestBadInputs:
    """A config, tuning value or synonyms file that cannot be used ends the
    command with an `error:` line naming the file or the option."""

    @pytest.mark.parametrize(
        "text, problem",
        [('["min_conf"]', "not a JSON object"), ("{", "not JSON")],
        ids=["list", "not-json"],
    )
    def test_config_that_is_no_json_object(
        self, tmp_path, uncle_world_file, capsys, text, problem
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["mine", "--kg", str(uncle_world_file), "--out", str(tmp_path / "r.jsonl"),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {problem}")

    @pytest.mark.parametrize(
        "source, value",
        [("config", [3]), ("config", None), ("env", "abc")],
        ids=["config", "config-null", "env"],
    )
    def test_tuning_value_that_does_not_convert(
        self, tmp_path, uncle_world_file, monkeypatch, capsys, source, value
    ):
        extra = set_option(source, "max_len", value, tmp_path, monkeypatch)
        assert main(["mine", "--kg", str(uncle_world_file), "--out", str(tmp_path / "r.jsonl"),
                     *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: option max_len: ")
        assert repr(value) in err

    @pytest.mark.parametrize(
        "table", [[1, 2], {"uncle": 3}, {"uncle": ["hasParent", 3]}],
        ids=["list", "number", "number-in-list"],
    )
    def test_synonyms_that_map_no_word_to_names(self, tmp_path, bundle_dir, capsys, table):
        path = tmp_path / "synonyms.json"
        path.write_text(json.dumps(table))
        assert main(["run", "--bundle", str(bundle_dir), "--split", "all",
                     "--out", str(tmp_path / "p.jsonl"), "--synonyms", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--top-k", "-1"), ("--top-k", "0"), ("--parallel", "0"), ("--parallel", "-2"),
         ("--max-endpoint-calls", "0"), ("--max-actions", "0"), ("--max-hops", "0")],
    )
    def test_run_count_below_one(self, tmp_path, bundle_dir, capsys, option, value):
        # refused before any output is opened: the previous run's files stay
        out = tmp_path / "run"
        out.mkdir()
        argv = ["run", "--bundle", str(bundle_dir), "--split", "all",
                "--out", str(out / "p.jsonl"), "--traces", str(out / "t.jsonl")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv + [option, value]) == 1
        name = option[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got {value}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "option, value",
        [("--groundings-per-rule", "0"), ("--groundings-per-rule", "-1"), ("--max-inflight", "0")],
    )
    def test_bench_count_below_one(
        self, bundle_dir, uncle_world_file, mined_rules, monkeypatch, capsys, option, value
    ):
        # refused before any removal is planned: the previous bundle stays
        before = {p.name: p.read_bytes() for p in bundle_dir.iterdir()}
        monkeypatch.setattr(bench, "plan_removals", lambda *args: pytest.fail("planned"))
        capsys.readouterr()
        assert main(["bench", "--kg", str(uncle_world_file), "--rules", str(mined_rules),
                     "--out-dir", str(bundle_dir), "--seed", "7", option, value]) == 1
        name = option[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got {value}\n"
        assert {p.name: p.read_bytes() for p in bundle_dir.iterdir()} == before


def test_switch_rejects_unknown_value(tmp_path, bundle_dir, monkeypatch, capsys):
    monkeypatch.setenv("KGREASON_INCLUDE_INVERSE", "maybe")
    assert main(["run", "--bundle", str(bundle_dir), "--split", "all",
                 "--out", str(tmp_path / "p.jsonl")]) == 1
    assert "maybe" in capsys.readouterr().err


def test_cli_import_loads_no_http_library():
    code = (
        "import sys, kgreason.cli; "
        "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def test_mine_process_loads_only_the_miner(tmp_path, uncle_world_file):
    argv = ["mine", "--kg", str(uncle_world_file), "--out", str(tmp_path / "r.jsonl"),
            "--max-len", "3"]
    code = (
        "import sys\n"
        "from kgreason.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "names = ['kgreason.' + m for m in ('bench', 'agent', 'env', 'evaluate', 'llm')]\n"
        "print(sorted(m for m in names + ['http.client'] if m in sys.modules))\n"
        "import kgreason.bench\n"  # bench loads the endpoint client, not the HTTP stack
        "print('http.client' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == ["[]", "False"]


def modules_loaded(argv: list, names: list) -> list:
    """Those of `names` that a fresh process has loaded once `main(argv)`
    returns 0."""
    code = (
        "import json, sys\n"
        "from kgreason.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(json.dumps(sorted(m for m in {names!r} if m in sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    return json.loads(out.stdout.splitlines()[-1])


# the built-in SHA-256 module serves every offline stage; hashlib would load
# OpenSSL's libcrypto
HASHLIB = ["hashlib", "_hashlib"]


def test_inspect_kg_process_loads_only_the_graph(uncle_world_file, tmp_path):
    argv = ["inspect", "--kg", str(uncle_world_file)]
    assert modules_loaded(argv, ["kgreason.mining", "kgreason.rules", *HASHLIB]) == []
    # the miner hashes its input for the manifest
    argv = ["mine", "--kg", str(uncle_world_file), "--out", str(tmp_path / "r.jsonl"),
            "--max-len", "3"]
    assert modules_loaded(argv, HASHLIB) == []


def test_eval_process_loads_no_hashlib_or_thread_pool(uncle_world_file, mined_rules, tmp_path):
    # bench seeds its draws from hashes and hashes its inputs; run hashes
    # every state. Template questions and one episode at a time need no pool
    bundle = tmp_path / "bundle"
    argv = ["bench", "--kg", str(uncle_world_file), "--rules", str(mined_rules),
            "--out-dir", str(bundle), "--seed", "7", "--question-backend", "template"]
    assert modules_loaded(argv, [*HASHLIB, "concurrent.futures"]) == []
    predictions = tmp_path / "p.jsonl"
    argv = ["run", "--bundle", str(bundle), "--policy", "heuristic", "--split", "all",
            "--out", str(predictions), "--traces", str(tmp_path / "t.jsonl")]
    assert modules_loaded(argv, [*HASHLIB, "concurrent.futures"]) == []
    argv = ["eval", "--bundle", str(bundle), "--predictions", str(predictions),
            "--split", "all", "--out", str(tmp_path / "report.json")]
    assert modules_loaded(argv, [*HASHLIB, "concurrent.futures"]) == []


def test_llm_stages_load_no_http_stack_or_openssl(
    uncle_world_file, mined_rules, tmp_path, monkeypatch, no_proxy_env
):
    # a plain-http endpoint is reached on a socket: no urllib.request,
    # http.client (and its email header parser) or OpenSSL
    def reply(body):
        content = body["messages"][-1]["content"]
        if "ready" in content:
            return openai_style("ready")
        if "Question Entity: " in content:
            topic = content.split("Question Entity: ")[1].splitlines()[0]
            return openai_style(f"Which relative is linked to {topic} here?")
        return openai_style(
            '{"tool":"complete_task","explored_reasoning_paths":[],"answer_entities":[]}'
        )

    stack = ["ssl", "_ssl", *HASHLIB, "http.client", "urllib.request", "email.parser"]
    ep = FakeEndpoint(reply)
    try:
        monkeypatch.setenv(ENDPOINT_URL_VAR, ep.url)
        bundle = tmp_path / "bundle"
        argv = ["bench", "--kg", str(uncle_world_file), "--rules", str(mined_rules),
                "--out-dir", str(bundle), "--seed", "7", "--question-backend", "external"]
        assert modules_loaded(argv, stack) == []
        asked = len(ep.requests)
        argv = ["run", "--bundle", str(bundle), "--policy", "llm", "--split", "all",
                "--out", str(tmp_path / "p.jsonl")]
        assert modules_loaded(argv, stack) == []
        assert asked > 1 and len(ep.requests) > asked
    finally:
        ep.close()


def test_every_export_resolves():
    import kgreason

    for name in kgreason.__all__:
        assert getattr(kgreason, name) is not None, name
    assert set(kgreason.__all__) <= set(dir(kgreason))
    with pytest.raises(AttributeError):
        kgreason.no_such_name


class TestAtomicOutputs:
    """A run or eval that fails part way leaves the previous outputs as
    they were and no temp file beside them."""

    @pytest.fixture
    def run_dir(self, tmp_path, bundle_dir, synonyms_file):
        out = tmp_path / "run"
        out.mkdir()
        argv = ["run", "--bundle", str(bundle_dir), "--split", "all",
                "--out", str(out / "p.jsonl"), "--traces", str(out / "t.jsonl"),
                "--synonyms", str(synonyms_file)]
        assert main(argv + ["--max-actions", "1"]) == 0
        return out, argv

    @pytest.mark.parametrize("fail_in", ["predictions", "traces", "manifest"])
    def test_failed_run_keeps_previous_outputs(self, run_dir, monkeypatch, fail_in):
        out, argv = run_dir
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"p.jsonl", "t.jsonl", "p.jsonl.manifest.json"}
        if fail_in == "predictions":
            real = cli.json_line

            def boom(row):  # the second prediction row fails
                boom.rows += 1
                if boom.rows == 2:
                    raise OSError("disk full")
                return real(row)

            boom.rows = 0
            monkeypatch.setattr(cli, "json_line", boom)
        elif fail_in == "traces":
            real_lines = EpisodeTrace.to_json_lines

            def boom(self):  # the second trace fails, after the first is written
                boom.calls += 1
                if boom.calls == 2:
                    raise OSError("disk full")
                return real_lines(self)

            boom.calls = 0
            monkeypatch.setattr(EpisodeTrace, "to_json_lines", boom)
        else:
            def boom(path, text, **kwargs):  # the manifest fails half written
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            monkeypatch.setattr(Path, "write_text", boom)
        assert main(argv) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_run_bytes_unchanged_by_temp_files(self, run_dir):
        out, argv = run_dir
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv + ["--max-actions", "1"]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    @pytest.mark.parametrize("fail_in", ["report", "csv"])
    def test_failed_eval_keeps_previous_report(self, run_dir, bundle_dir, monkeypatch, fail_in):
        out, _ = run_dir
        argv = ["eval", "--bundle", str(bundle_dir), "--predictions", str(out / "p.jsonl"),
                "--split", "all", "--out", str(out / "report.json"),
                "--csv", str(out / "report.csv")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        if fail_in == "report":
            def boom(obj, fh, **kwargs):
                fh.write("{\n")
                raise OSError("disk full")

            monkeypatch.setattr(json, "dump", boom)
        else:
            import csv

            def boom(fh, *args, **kwargs):
                class Writer:
                    def writerow(self, row):
                        fh.write("id,hit\n")
                        raise OSError("disk full")

                return Writer()

            monkeypatch.setattr(csv, "writer", boom)
        assert main(argv) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("traces", ["p.jsonl", "./p.jsonl", "p.jsonl.manifest.json"])
    def test_run_refuses_one_file_for_two_outputs(
        self, run_dir, bundle_dir, synonyms_file, monkeypatch, capsys, traces
    ):
        out, _ = run_dir
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        monkeypatch.chdir(out)
        capsys.readouterr()
        assert main(["run", "--bundle", str(bundle_dir), "--split", "all", "--out", "p.jsonl",
                     "--traces", traces, "--synonyms", str(synonyms_file)]) == 2
        named = os.path.realpath(traces)
        assert capsys.readouterr().err == f"usage error: one file named for two outputs: {named}\n"
        # the previous outputs are kept and no temp file is left beside them
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_eval_refuses_one_file_for_two_outputs(self, run_dir, bundle_dir, capsys):
        out, _ = run_dir
        argv = ["eval", "--bundle", str(bundle_dir), "--predictions", str(out / "p.jsonl"),
                "--split", "all", "--out", str(out / "report.json")]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv + ["--csv", str(out / "report.json")]) == 2
        named = os.path.realpath(out / "report.json")
        assert capsys.readouterr().err == f"usage error: one file named for two outputs: {named}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.fixture
def wide_bundle(tmp_path, bundle_dir):
    """bundle_dir with its questions repeated under new ids, so that a run
    has many more episodes than any bound on what it may hold."""
    out = tmp_path / "wide"
    shutil.copytree(bundle_dir, out)
    rows = [json.loads(line) for line in (bundle_dir / "questions.jsonl").read_text().splitlines()]
    with open(out / "questions.jsonl", "w", encoding="utf-8") as fh:
        for k in range(-(-60 // len(rows))):
            for row in rows:
                fh.write(json.dumps({**row, "id": f"{row['id']}-{k}"}, sort_keys=True) + "\n")
    return out


class TestStreamingRun:
    """`run` writes each episode as it finishes and holds no finished trace
    beyond those a bounded number of workers may have computed ahead."""

    def run_argv(self, bundle, out, synonyms_file, parallel):
        return ["run", "--bundle", str(bundle), "--split", "all",
                "--out", str(out / "p.jsonl"), "--traces", str(out / "t.jsonl"),
                "--synonyms", str(synonyms_file), "--parallel", str(parallel)]

    @pytest.mark.parametrize("parallel", [1, 4])
    def test_keeps_no_finished_trace_alive(self, tmp_path, wide_bundle, synonyms_file, monkeypatch, parallel):
        serial = tmp_path / "serial"
        serial.mkdir()
        assert main(self.run_argv(wide_bundle, serial, synonyms_file, 1)) == 0

        real = agent.run_episode
        refs: list = []
        most_alive = [0]
        lock = threading.Lock()

        def tracked(*args, **kwargs):
            with lock:
                most_alive[0] = max(most_alive[0], sum(r() is not None for r in refs))
            trace = real(*args, **kwargs)
            with lock:
                refs.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(agent, "run_episode", tracked)
        out = tmp_path / "tracked"
        out.mkdir()
        assert main(self.run_argv(wide_bundle, out, synonyms_file, parallel)) == 0
        questions = (wide_bundle / "questions.jsonl").read_text().splitlines()
        assert len(refs) == len(questions) >= 60
        assert most_alive[0] <= 2 * parallel + 1
        for name in ("p.jsonl", "t.jsonl"):
            assert (out / name).read_bytes() == (serial / name).read_bytes()

    @pytest.mark.parametrize("parallel", [1, 4])
    def test_failed_episode_changes_nothing(self, tmp_path, wide_bundle, synonyms_file, monkeypatch, parallel):
        out = tmp_path / "run"
        out.mkdir()
        argv = self.run_argv(wide_bundle, out, synonyms_file, parallel)
        assert main(argv + ["--max-actions", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"p.jsonl", "t.jsonl", "p.jsonl.manifest.json"}
        third = json.loads((wide_bundle / "questions.jsonl").read_text().splitlines()[2])["id"]
        real = agent.run_episode

        def boom(g, question, *args, **kwargs):
            if question["id"] == third:
                raise RuntimeError("episode failed")
            return real(g, question, *args, **kwargs)

        monkeypatch.setattr(agent, "run_episode", boom)
        assert main(argv) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("parallel", [1, 4])
    def test_run_and_eval_parse_no_question(
        self, tmp_path, wide_bundle, synonyms_file, monkeypatch, capsys, parallel
    ):
        # run reads only id, question and topic of each question row, and
        # eval only id, answers and hard_answer, so neither builds a QAInstance
        def outputs(name):
            out = tmp_path / name
            out.mkdir()
            assert main(self.run_argv(wide_bundle, out, synonyms_file, parallel)) == 0
            assert main(["eval", "--bundle", str(wide_bundle), "--predictions", str(out / "p.jsonl"),
                         "--split", "all", "--out", str(out / "r.json")]) == 0
            return [(out / name).read_bytes() for name in ("p.jsonl", "t.jsonl", "r.json")]

        def inspected():
            capsys.readouterr()
            assert main(["inspect", "--bundle", str(wide_bundle)]) == 0
            return capsys.readouterr().out

        parsed = outputs("parsed"), inspected()

        def boom(cls, row):
            raise RuntimeError("a question was parsed")

        monkeypatch.setattr(bench.QAInstance, "from_json", classmethod(boom))
        # verification reads only id, removed_triple and rule_id
        assert (outputs("unparsed"), inspected()) == parsed

    def test_run_and_eval_skip_removals_and_rules(self, tmp_path, bundle_dir, synonyms_file, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(bundle_dir, broken)
        for name in ("removals.jsonl", "rules.jsonl"):
            (broken / name).write_text("not json {\n")
        outputs = {}
        for bundle in (bundle_dir, broken):
            out = tmp_path / f"out-{bundle.name}"
            out.mkdir()
            assert main(self.run_argv(bundle, out, synonyms_file, 1)) == 0
            assert main(["eval", "--bundle", str(bundle), "--predictions", str(out / "p.jsonl"),
                         "--split", "all", "--out", str(out / "r.json")]) == 0
            outputs[bundle] = [(out / name).read_bytes() for name in ("p.jsonl", "t.jsonl", "r.json")]
        assert outputs[broken] == outputs[bundle_dir]
        # verification still reads both parts
        capsys.readouterr()
        assert main(["inspect", "--bundle", str(broken)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, edit, problem",
        [pytest.param(stage, lambda row, field=field: {k: v for k, v in row.items() if k != field},
                      f"line 2: missing field {field!r}", id=f"{stage}-{field}")
         for stage, field in (("run", "topic"), ("eval", "hard_answer"), ("inspect", "rule_id"))]
        + [pytest.param(stage, lambda row: [1, 2], "line 2: not a JSON object",
                        id=f"{stage}-not-an-object")
           for stage in ("run", "eval", "inspect")]
        # a field of the wrong type
        + [pytest.param("eval", lambda row: {**row, "answers": 5},
                        "line 2: answers 5 is not a list of strings", id="eval-answers-not-a-list"),
           pytest.param("eval", lambda row: {**row, "id": [1]},
                        "line 2: id [1] is not a string", id="eval-id-not-a-string")]
        + [pytest.param("eval", lambda row, field=field, value=value: {**row, field: value},
                        f"line 2: {field} {value!r} is not {what}", id=f"eval-{name}")
           for field, value, what, name in (
               ("hard_answer", None, "a string", "hard-answer-null"),
               ("hard_answer", 5, "a string", "hard-answer-int"),
               ("answers", [None, 5], "a list of strings", "answers-hold-non-strings"),
               ("answers", ["e1", ["e2"]], "a list of strings", "answers-hold-a-list"))]
        + [pytest.param("run", lambda row, field=field, value=value: {**row, field: value},
                        f"line 2: {field} {value!r} is not a string",
                        id=f"run-{field}-{name}")
           for field, name, value in (("question", "int", 5), ("question", "null", None),
                                      ("question", "list", ["who"]), ("topic", "list", ["e1"]))],
    )
    def test_question_row_missing_a_field_is_an_error(
        self, tmp_path, bundle_dir, synonyms_file, capsys, stage, edit, problem
    ):
        out = tmp_path / "out"
        out.mkdir()
        assert main(self.run_argv(bundle_dir, out, synonyms_file, 1)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        broken = tmp_path / "broken"
        shutil.copytree(bundle_dir, broken)
        path = broken / "questions.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        problem = problem.format(id=rows[1]["id"])
        rows[1] = edit(rows[1])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        argv = {
            "run": self.run_argv(broken, out, synonyms_file, 1),
            "eval": ["eval", "--bundle", str(broken), "--predictions", str(out / "p.jsonl"),
                     "--split", "all", "--out", str(out / "r.json")],
            "inspect": ["inspect", "--bundle", str(broken)],
        }[stage]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {problem}\n"
        # refused before any output is replaced
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (lambda row: [row["id"]], "line 2: not a JSON object"),
            (lambda row: {"prediction": row["prediction"]}, "line 2: missing field 'id'"),
            (lambda row: {"id": row["id"], "terminated": True}, "line 2: missing field 'prediction'"),
            (lambda row: {**row, "id": ["q00000"]}, "line 2: id ['q00000'] is not a string"),
        ]
        # a prediction of the wrong type
        + [(lambda row, value=value: {**row, "prediction": value},
            f"line 2: prediction {value!r} is not a string or a list of strings")
           for value in (5, None, {"q00000": "x"})]
        # a list that holds a non-string
        + [(lambda row, value=value: {**row, "prediction": value},
            f"line 2: prediction {value!r} is not a string or a list of strings")
           for value in ([None, 5], ["e1", ["e2"]])],
        ids=["not-an-object", "no-id", "no-prediction", "id-not-a-string",
             "prediction-int", "prediction-null", "prediction-object",
             "prediction-list-of-null-and-int", "prediction-nested-list"],
    )
    def test_prediction_row_missing_a_field_is_an_error(
        self, tmp_path, bundle_dir, synonyms_file, capsys, edit, problem
    ):
        out = tmp_path / "out"
        out.mkdir()
        assert main(self.run_argv(bundle_dir, out, synonyms_file, 1)) == 0
        path = out / "p.jsonl"
        argv = ["eval", "--bundle", str(bundle_dir), "--predictions", str(path),
                "--split", "all", "--out", str(out / "r.json"), "--csv", str(out / "r.csv")]
        assert main(argv) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        problem = problem.replace("{id}", rows[1]["id"])
        rows[1] = edit(rows[1])
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}: {problem}\n"
        # refused before any output is replaced
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_inspect_ties_each_question_to_its_own_removal(self, bundle_dir, wide_bundle, capsys):
        # wide_bundle repeats every question under new ids, so each removal
        # backs several questions
        assert main(["inspect", "--bundle", str(bundle_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]
        assert main(["inspect", "--bundle", str(wide_bundle)]) == 0
        payload = json.loads(capsys.readouterr().out)
        questions = (bundle_dir / "questions.jsonl").read_text().splitlines()
        assert not payload["ok"]
        assert len(payload["violations"]) == payload["questions"] - len(questions) > 0
        assert all("backs another question" in v for v in payload["violations"])
