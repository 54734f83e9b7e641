"""Pipeline driver: mine -> bench -> run -> eval, plus inspection utilities.

Logs go to stderr, data goes to files (inspect prints JSON to stdout). Exit
codes: 0 ok, 1 domain error, 2 usage error. Option values resolve as
CLI flag > KGREASON_<NAME> env var > --config JSON file > built-in default.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import agent, bench, evaluate, mining
from .env import EnvConfig
from .kg import KnowledgeGraph
from .llm import ENDPOINT_URL_VAR, LLMClient

log = logging.getLogger("kgreason")


class _Resolver:
    """flag > env var > config file > default, with the winners recorded."""

    def __init__(self, args: argparse.Namespace):
        self.config = {}
        if getattr(args, "config", None):
            with open(args.config, encoding="utf-8") as fh:
                self.config = json.load(fh)
        self.resolved: dict[str, object] = {}

    def get(self, flag_value, name: str, default, cast=None):
        value = flag_value
        if value is None:
            env = os.environ.get(f"KGREASON_{name.upper()}")
            if env is not None:
                value = env
            elif name in self.config:
                value = self.config[name]
            else:
                value = default
        if cast is not None and value is not None:
            value = cast(value)
        self.resolved[name] = value
        return value


def _load_synonyms(path: str | None) -> dict | None:
    if not path:
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- subcommands ---------------------------------------------------------------


def cmd_mine(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    cfg = mining.MinerConfig(
        min_confidence=res.get(args.min_conf, "min_conf", 0.3, float),
        min_head_coverage=res.get(args.min_hc, "min_hc", 0.1, float),
        pca_threshold=res.get(args.pca, "pca", 0.4, float),
        max_rule_length=res.get(args.max_len, "max_len", 4, int),
        allow_instantiated_atoms=bool(args.instantiated),
    )
    g = KnowledgeGraph.load(args.kg)
    log.info("mining %s: %d triples, %d predicates", args.kg, len(g), len(g.predicates))
    mined = mining.mine(g, cfg)
    mining.write_rules_jsonl(mined, args.out)
    hist = mining.rule_type_histogram(mined)
    print("rule type histogram:", file=sys.stderr)
    for name in ("symmetry", "inversion", "hierarchy", "composition", "other", "total"):
        print(f"  {name:<12} {hist[name]}", file=sys.stderr)
    manifest = {
        "command": "mine",
        "config": res.resolved,
        "inputs": {"kg": {"path": str(args.kg), "sha256": bench.sha256_file(args.kg)}},
        "outputs": {"rules": str(args.out), "count": len(mined)},
        "rule_type_histogram": hist,
    }
    with open(str(args.out) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    log.info("wrote %d rules to %s", len(mined), args.out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    cfg = bench.GenConfig(
        groundings_per_rule=res.get(args.groundings_per_rule, "groundings_per_rule", 30, int),
        tau=res.get(args.tau, "tau", 0.05, float),
        seed=res.get(args.seed, "seed", 0, int),
        question_backend=res.get(args.question_backend, "question_backend", "template", str),
        topic_side=res.get(args.topic_side, "topic_side", "random", str),
        anonymize_seed=args.anonymize_seed,
        max_inflight=res.get(args.max_inflight, "max_inflight", 4, int),
    )
    if cfg.question_backend == "external" and not os.environ.get(ENDPOINT_URL_VAR):
        raise ValueError(f"question backend 'external' needs {ENDPOINT_URL_VAR} set")
    manifest = bench.build_bundle(args.kg, args.rules, args.out_dir, cfg)
    counts = manifest["counts"]
    log.info(
        "bundle written to %s: %d removals, %d questions (splits %s)",
        args.out_dir, counts["removals"], counts["questions_final"], counts["splits"],
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    bundle = bench.load_bundle(args.bundle)
    g = bundle.incomplete if args.graph == "incomplete" else bundle.complete
    questions = [q for q in bundle.questions if args.split == "all" or q.split == args.split]
    if not questions:
        raise ValueError(f"no questions in split {args.split!r}")

    max_actions = res.get(args.max_actions, "max_actions", 10, int)
    max_endpoint_calls = res.get(args.max_endpoint_calls, "max_endpoint_calls", 30, int)
    env_cfg = EnvConfig(
        max_hop_limit=res.get(args.max_hops, "max_hops", 3, int),
        include_inverse=bool(args.include_inverse),
    )
    synonyms = _load_synonyms(args.synonyms)
    top_k = res.get(args.top_k, "top_k", 5, int)

    if args.policy == "llm" and not os.environ.get(ENDPOINT_URL_VAR):
        raise UsageError(f"policy 'llm' needs {ENDPOINT_URL_VAR} set")

    def episode(q: bench.QAInstance) -> agent.EpisodeTrace:
        budget = agent.PolicyBudget(max_actions=max_actions)
        if args.policy == "heuristic":
            policy = agent.HeuristicPolicy(
                q.question, q.topic, synonyms=synonyms, top_k=top_k,
                max_hops=env_cfg.max_hop_limit,
            )
        else:
            client = LLMClient(max_calls=max_endpoint_calls)
            policy = agent.LLMPolicy(q.question, q.topic, client)
        return agent.run_episode(g, q.to_json(), policy, budget, env_cfg)

    if args.parallel > 1:
        with ThreadPoolExecutor(max_workers=args.parallel) as pool:
            traces = list(pool.map(episode, questions))
    else:
        traces = [episode(q) for q in questions]

    with open(args.out, "w", encoding="utf-8") as fh:
        for t in traces:
            row = {
                "id": t.question_id,
                "prediction": t.prediction,
                "terminated": t.termination == "synthesized",
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    if args.traces:
        with open(args.traces, "w", encoding="utf-8") as fh:
            for t in traces:
                for line in t.to_json_lines():
                    fh.write(line + "\n")
    manifest = {
        "command": "run",
        "config": {
            **res.resolved,
            "policy": args.policy,
            "split": args.split,
            "graph": args.graph,
            "include_inverse": bool(args.include_inverse),
            "parallel": args.parallel,
        },
        "inputs": {
            "bundle": str(args.bundle),
            "questions_sha256": bench.sha256_file(Path(args.bundle) / "questions.jsonl"),
        },
        "outputs": {"predictions": str(args.out), "count": len(traces)},
    }
    with open(str(args.out) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    log.info("ran %d episodes, predictions in %s", len(traces), args.out)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    bundle = bench.load_bundle(args.bundle)
    gold = [
        q.to_json()
        for q in bundle.questions
        if args.split == "all" or q.split == args.split
    ]
    if not gold:
        raise ValueError(f"no questions in split {args.split!r}")
    predictions = list(mining.read_jsonl(args.predictions))
    gold_ids = {q["id"] for q in gold}
    strays = [p["id"] for p in predictions if p["id"] not in gold_ids]
    if strays:
        raise ValueError(f"prediction ids not in the evaluated split: {strays[:5]}")
    report = evaluate.compute_report(gold, predictions)
    report.notes.append(f"split={args.split}")
    evaluate.write_report(report, args.out)
    if args.csv:
        evaluate.write_report_csv(report, args.csv)
    m = report.to_json()["metrics"]
    log.info(
        "hits_any %.4f precision %.4f recall %.4f f1 %.4f hits_hard %.4f hhr %.4f",
        m["hits_any"], m["precision"], m["recall"], m["f1"], m["hits_hard"], m["hhr"],
    )
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
        mined = mining.read_rules_jsonl(args.rules)
        payload = {
            "rules": len(mined),
            "rule_type_histogram": mining.rule_type_histogram(mined),
        }
    else:
        payload = bench.verify_bundle(args.bundle)
    print(json.dumps(payload, indent=2, sort_keys=True))
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
    p.add_argument("--instantiated", action="store_true",
                   help="enable the constant-introducing refinement operator")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("bench", help="generate an incompleteness benchmark bundle")
    p.add_argument("--kg", required=True)
    p.add_argument("--rules", required=True, help="rules.jsonl from mine")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--tau", type=float, default=None,
                   help="downsampling frequency threshold (default 0.05)")
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
    p.add_argument("--parallel", type=int, default=1, help="concurrent episodes")
    p.add_argument("--max-actions", dest="max_actions", type=int, default=None)
    p.add_argument("--max-endpoint-calls", dest="max_endpoint_calls", type=int, default=None)
    p.add_argument("--max-hops", dest="max_hops", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None,
                   help="relation paths the heuristic policy grounds")
    p.add_argument("--synonyms", default=None,
                   help="JSON file mapping question words to predicate names")
    p.add_argument("--include-inverse", dest="include_inverse", action="store_true",
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
