"""Run one `kgreason` CLI stage with spans around its public functions.

    python3 perfbench/traced.py SPANS.json <kgreason cli arguments...>

Each patched call records (id, name, start, end, parent id) in memory; the
parent is the innermost open span of the same thread. Counts are taken at the
same boundaries. Everything is written to SPANS.json when the stage ends. Only
public functions and methods are patched, at the name their caller looks up;
private helpers show up in the self time of the span that calls them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

from kgreason import agent, bench, cli, evaluate, mining
from kgreason.agent import EpisodeTrace, HeuristicPolicy, LLMPolicy
from kgreason.env import AgentState
from kgreason.kg import KnowledgeGraph
from kgreason.llm import LLMClient


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        ids, local, spans = self._ids, self._local, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, nid, t0, t1, parent))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, on_result)))
        else:
            setattr(owner, attr, self.wrap(raw, name, on_result))

    def dump(self, path: str) -> None:
        payload = {"names": self.names, "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _count_only(fn, on_result):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(result)
        return result

    return counted


def install(t: Tracer) -> None:
    def counter(name, size=len):
        return lambda result: t.count(name, size(result))

    t.patch(mining, "mine", "mining.mine", counter("mining.rules_emitted"))
    t.patch(mining, "refine", "mining.refine", counter("mining.candidates"))
    t.patch(mining, "canonicalize", "rules.canonicalize")
    t.patch(mining, "compute_metrics", "mining.compute_metrics")
    t.patch(mining, "check_rule_shape", "rules.check_rule_shape")
    t.patch(mining, "classify_rule", "rules.classify_rule")

    t.patch(bench, "build_bundle", "bench.build_bundle")
    t.patch(bench, "enumerate_groundings", "mining.enumerate_groundings",
            counter("mining.groundings_enumerated"))
    t.patch(bench, "plan_removals", "bench.plan_removals",
            counter("bench.removals", lambda plan: len(plan.entries)))
    t.patch(bench, "generate_questions", "bench.generate_questions")
    bench.generate_question = _count_only(
        bench.generate_question,
        lambda out: t.count("bench.question_fallbacks", int(out[2].get("fallback", False))),
    )
    t.patch(bench, "check_answerability", "bench.check_answerability")
    t.patch(bench, "downsample", "bench.downsample")
    t.patch(bench, "load_bundle", "bench.load_bundle")

    t.patch(KnowledgeGraph, "load", "kg.load")
    t.patch(KnowledgeGraph, "remove", "kg.remove")
    t.patch(KnowledgeGraph, "save", "kg.save")

    t.patch(agent, "run_episode", "agent.run_episode")
    t.patch(agent, "explore", "env.explore", counter("env.relation_paths"))
    t.patch(agent, "ground", "env.ground", counter("env.reasoning_paths", lambda r: len(r[0])))
    t.patch(agent, "apply_transition", "env.apply_transition")
    t.patch(AgentState, "digest", "env.digest")
    t.patch(HeuristicPolicy, "decide", "agent.decide")
    t.patch(HeuristicPolicy, "repair", "agent.repair")
    t.patch(LLMPolicy, "decide", "agent.llm_decide")
    t.patch(LLMPolicy, "repair", "agent.llm_repair")
    LLMPolicy.drain_events = _count_only(
        LLMPolicy.drain_events,
        lambda events: t.count("agent.repairs", sum(e.startswith("repair:") for e in events)),
    )
    t.patch(EpisodeTrace, "to_json_lines", "agent.trace_serialize")
    t.patch(LLMClient, "chat", "llm.chat")

    t.patch(evaluate, "compute_report", "evaluate.compute_report")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    stage = next(a for a in argv if not a.startswith("-"))
    root = tracer.wrap(cli.main, f"cli.{stage}")
    try:
        return root(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
