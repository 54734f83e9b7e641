"""Pipeline driver: mine -> bench -> run -> eval, plus inspection utilities.

Logs go to stderr, data goes to files (inspect prints JSON to stdout). Exit
codes: 0 ok, 1 domain error, 2 usage error. Tuning options (those read
through _Resolver) resolve as CLI flag > KGREASON_<NAME> env var > --config
JSON file > built-in default; paths and the other options are plain flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import ExitStack, closing, contextmanager, suppress
from pathlib import Path

# only the graph module, which `inspect --kg` needs; every other command
# imports its stage's modules when it runs
from .kg import (STRING, STRING_OR_STRINGS, STRINGS, KnowledgeGraph, json_document, json_line,
                 mistyped, read_rows, sha256_file)

log = logging.getLogger("kgreason")


class _Resolver:
    """flag > env var > config file > default, with the winners recorded."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _json_object(args.config) if getattr(args, "config", None) else {}
        self.resolved: dict[str, object] = {}

    def get(self, name: str, default, cast=None):
        """The option `name`, whose flag is stored under the same name."""
        value = getattr(self.args, name)
        if value is None:
            env = os.environ.get(f"KGREASON_{name.upper()}")
            if env is not None:
                value = env
            elif name in self.config:
                value = self.config[name]
            else:
                value = default
        # a null in the config is cast too, unless the option may be unset
        if cast is not None and (value is not None or default is not None):
            try:
                value = cast(value)
            except (TypeError, ValueError) as err:
                raise ValueError(f"option {name}: cannot use {value!r} ({err})") from None
        self.resolved[name] = value
        return value


def _switch(value) -> bool:
    """An on/off option from a flag, a JSON config value or an env var string."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off", ""):
            return False
        raise ValueError(f"not an on/off value: {value!r}")
    return bool(value)


def _json_object(path: str) -> dict:
    """The JSON object a file holds; anything else is refused naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: not JSON ({err})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON object")
    return obj


def _load_synonyms(path: str | None) -> dict | None:
    if not path:
        return None
    table = _json_object(path)
    if mistyped(table, dict.fromkeys(table, STRING_OR_STRINGS)):
        raise ValueError(f"{path}: not an object mapping each word to a predicate "
                         "name or a list of names")
    return table


@contextmanager
def _replacing(*paths):
    """One temp path beside each destination, None for a None path. Once the
    block succeeds, the temp files replace the destinations in the order
    given; if it fails, they are removed and no destination is touched. A
    file named twice is refused before any temp file is opened."""
    real = [os.path.realpath(p) for p in paths if p is not None]
    if len(set(real)) < len(real):
        raise UsageError(f"one file named for two outputs: {max(real, key=real.count)}")
    tmps = [None if p is None else f"{p}.{os.getpid()}.tmp" for p in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            if tmp is not None:
                os.replace(tmp, path)
    finally:
        for tmp in filter(None, tmps):
            with suppress(FileNotFoundError):
                os.remove(tmp)


# -- subcommands ---------------------------------------------------------------


def cmd_mine(args: argparse.Namespace) -> int:
    from . import mining
    from .rules import RULE_TYPES

    # d: the config class, whose attributes hold its field defaults
    res, d = _Resolver(args), mining.MinerConfig
    cfg = mining.MinerConfig(
        min_confidence=res.get("min_conf", d.min_confidence, float),
        min_head_coverage=res.get("min_hc", d.min_head_coverage, float),
        pca_threshold=res.get("pca", d.pca_threshold, float),
        max_rule_length=res.get("max_len", d.max_rule_length, int),
        allow_instantiated_atoms=res.get("instantiated", d.allow_instantiated_atoms, _switch),
    )
    g = KnowledgeGraph.load(args.kg)
    log.info("mining %s: %d triples, %d predicates", args.kg, len(g), len(g.predicates))
    mined = mining.mine(g, cfg)
    hist = mining.rule_type_histogram(mined)
    print("rule type histogram:", file=sys.stderr)
    for name in (*RULE_TYPES, "total"):
        print(f"  {name:<12} {hist[name]}", file=sys.stderr)
    manifest = {
        "command": "mine",
        "config": res.resolved,
        "inputs": {"kg": {"path": str(args.kg), "sha256": sha256_file(args.kg)}},
        "outputs": {"rules": str(args.out), "count": len(mined)},
        "rule_type_histogram": hist,
    }
    with _replacing(args.out, str(args.out) + ".manifest.json") as (rules_tmp, manifest_tmp):
        mining.write_rules_jsonl(mined, rules_tmp)
        Path(manifest_tmp).write_text(json_document(manifest), encoding="utf-8")
    log.info("wrote %d rules to %s", len(mined), args.out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench

    res, d = _Resolver(args), bench.GenConfig
    cfg = bench.GenConfig(
        groundings_per_rule=res.get("groundings_per_rule", d.groundings_per_rule, int),
        tau=res.get("tau", d.tau, float),
        seed=res.get("seed", d.seed, int),
        question_backend=res.get("question_backend", d.question_backend, str),
        topic_side=res.get("topic_side", d.topic_side, str),
        anonymize_seed=res.get("anonymize_seed", d.anonymize_seed, int),
        max_inflight=res.get("max_inflight", d.max_inflight, int),
    )
    manifest = bench.build_bundle(args.kg, args.rules, args.out_dir, cfg)
    counts = manifest["counts"]
    log.info(
        "bundle written to %s: %d removals, %d questions (splits %s)",
        args.out_dir, counts["removals"], counts["questions_final"], counts["splits"],
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from . import agent, bench
    from .env import EnvConfig
    from .llm import ENDPOINT_URL_VAR, LLMClient, in_order

    res = _Resolver(args)
    bundle = bench.load_bundle(args.bundle)
    g = bundle.incomplete if args.graph == "incomplete" else bundle.complete
    questions = bundle.question_rows(args.split, dict.fromkeys(("id", "question", "topic"), STRING))
    if not questions:
        raise ValueError(f"no questions in split {args.split!r}")

    max_actions = res.get("max_actions", agent.MAX_ACTIONS, int)
    max_endpoint_calls = res.get("max_endpoint_calls", 30, int)
    max_hops = res.get("max_hops", EnvConfig.max_hop_limit, int)
    include_inverse = res.get("include_inverse", EnvConfig.include_inverse, _switch)
    synonyms = _load_synonyms(res.get("synonyms", None, str))
    parallel = res.get("parallel", 1, int)
    top_k = res.get("top_k", agent.HeuristicPolicy.TOP_K, int)
    for name, count in (("parallel", parallel), ("top_k", top_k), ("max_actions", max_actions),
                        ("max_endpoint_calls", max_endpoint_calls), ("max_hops", max_hops)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    env_cfg = EnvConfig(max_hop_limit=max_hops, include_inverse=include_inverse)

    if args.policy == "llm":
        if not os.environ.get(ENDPOINT_URL_VAR):
            raise UsageError(f"policy 'llm' needs {ENDPOINT_URL_VAR} set")
        # one client, checked here, serves every episode on every thread
        client = LLMClient()

    def episode(q: dict) -> agent.EpisodeTrace:
        if args.policy == "heuristic":
            policy = agent.HeuristicPolicy(
                q["question"], q["topic"], synonyms=synonyms, top_k=top_k,
                max_hops=env_cfg.max_hop_limit,
            )
        else:
            policy = agent.LLMPolicy(q["question"], q["topic"], client, max_endpoint_calls)
        return agent.run_episode(g, q, policy, max_actions, env_cfg)

    manifest = {
        "command": "run",
        "config": {
            **res.resolved,
            "policy": args.policy,
            "split": args.split,
            "graph": args.graph,
        },
        "inputs": {
            "bundle": str(args.bundle),
            "questions_sha256": sha256_file(Path(args.bundle) / "questions.jsonl"),
        },
        "outputs": {"predictions": str(args.out), "count": len(questions)},
    }
    errored = 0
    # each episode's row and trace lines are written as it ends, in question order
    with ExitStack() as stack:
        predictions_tmp, traces_tmp, manifest_tmp = stack.enter_context(
            _replacing(args.out, args.traces, str(args.out) + ".manifest.json"))
        predictions_fh = stack.enter_context(open(predictions_tmp, "w", encoding="utf-8"))
        traces_fh = stack.enter_context(open(traces_tmp, "w", encoding="utf-8")) if traces_tmp else None
        # a failed run waits only for the episodes already started
        traces = stack.enter_context(closing(in_order(episode, questions, parallel)))
        for t in traces:
            row = {
                "id": t.question_id,
                "prediction": t.prediction,
                "terminated": t.termination == "synthesized",
            }
            predictions_fh.write(json_line(row) + "\n")
            if traces_fh:
                for line in t.to_json_lines():
                    traces_fh.write(line + "\n")
            errored += t.termination == "error"
        Path(manifest_tmp).write_text(json_document(manifest), encoding="utf-8")
    log.info("ran %d episodes, predictions in %s", len(questions), args.out)
    if errored:
        log.warning("%d of %d episodes ended in an endpoint error", errored, len(questions))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import bench, evaluate

    bundle = bench.load_bundle(args.bundle)
    gold = bundle.question_rows(args.split, dict(id=STRING, answers=STRINGS, hard_answer=STRING))
    if not gold:
        raise ValueError(f"no questions in split {args.split!r}")
    predictions = list(read_rows(args.predictions, {"id": STRING, "prediction": STRING_OR_STRINGS}))
    gold_ids = {q["id"] for q in gold}
    strays = [p["id"] for p in predictions if p["id"] not in gold_ids]
    if strays:
        raise ValueError(f"prediction ids not in the evaluated split: {strays[:5]}")
    report = evaluate.compute_report(gold, predictions)
    report.notes.append(f"split={args.split}")
    with _replacing(args.out, args.csv) as (report_tmp, csv_tmp):
        evaluate.write_report(report, report_tmp)
        if csv_tmp:
            evaluate.write_report_csv(report, csv_tmp)
    log.info(" ".join(f"{name} {getattr(report, name):.4f}" for name in evaluate.METRICS))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    chosen = [x for x in (args.kg, args.rules, args.bundle) if x]
    if len(chosen) != 1:
        raise UsageError("inspect needs exactly one of --kg / --rules / --bundle")
    if args.kg:
        g = KnowledgeGraph.load(args.kg)
        payload = {
            "triples": len(g),
            "entities": len(g.entities),
            "predicates": len(g.predicates),
            "duplicates_collapsed": g.duplicates_collapsed,
        }
    elif args.rules:
        from . import mining

        mined = mining.read_rules_jsonl(args.rules)
        payload = {
            "rules": len(mined),
            "rule_type_histogram": mining.rule_type_histogram(mined),
        }
    else:
        from . import bench

        payload = bench.verify_bundle(args.bundle)
    print(json_document(payload))
    return 0


# -- parser ----------------------------------------------------------------------


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgreason",
        description="Build and evaluate KGQA benchmarks under controlled incompleteness.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine Horn rules from a TSV knowledge graph")
    p.add_argument("--kg", required=True, help="triple file (subject<TAB>predicate<TAB>object)")
    p.add_argument("--out", default="rules.jsonl", help="output rules file")
    p.add_argument("--min-conf", dest="min_conf", type=float, default=None)
    p.add_argument("--min-hc", dest="min_hc", type=float, default=None)
    p.add_argument("--pca", type=float, default=None, help="PCA confidence threshold")
    p.add_argument("--max-len", dest="max_len", type=int, default=None,
                   help="max atoms per rule including the head")
    p.add_argument("--instantiated", action="store_true", default=None,
                   help="enable the constant-introducing refinement operator")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("bench", help="generate an incompleteness benchmark bundle")
    p.add_argument("--kg", required=True)
    p.add_argument("--rules", required=True, help="rules.jsonl from mine")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--tau", type=float, default=None,
                   help="downsampling frequency threshold")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--groundings-per-rule", dest="groundings_per_rule", type=int, default=None)
    p.add_argument("--question-backend", dest="question_backend",
                   choices=("template", "external"), default=None)
    p.add_argument("--topic-side", dest="topic_side",
                   choices=("random", "subject", "object"), default=None)
    p.add_argument("--anonymize-seed", dest="anonymize_seed", type=int, default=None,
                   help="anonymize entity ids with this seed")
    p.add_argument("--max-inflight", dest="max_inflight", type=int, default=None,
                   help="concurrent endpoint calls for question generation")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("run", help="run a policy over a bundle's questions")
    p.add_argument("--bundle", required=True)
    p.add_argument("--policy", choices=("heuristic", "llm"), default="heuristic")
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--graph", choices=("incomplete", "complete"), default="incomplete")
    p.add_argument("--out", default="predictions.jsonl")
    p.add_argument("--traces", default=None, help="trace file (JSON lines per step)")
    p.add_argument("--parallel", type=int, default=None, help="concurrent episodes")
    p.add_argument("--max-actions", dest="max_actions", type=int, default=None)
    p.add_argument("--max-endpoint-calls", dest="max_endpoint_calls", type=int, default=None)
    p.add_argument("--max-hops", dest="max_hops", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None,
                   help="relation paths the heuristic policy grounds")
    p.add_argument("--synonyms", default=None,
                   help="JSON file mapping question words to predicate names")
    p.add_argument("--include-inverse", dest="include_inverse", action="store_true", default=None,
                   help="traverse inverse edges as synthetic inv_<p> predicates")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="score predictions against a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--out", default="report.json")
    p.add_argument("--csv", default=None, help="per-question CSV export")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="summarize a KG, rules file, or bundle")
    p.add_argument("--kg", default=None)
    p.add_argument("--rules", default=None)
    p.add_argument("--bundle", default=None)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
