"""Per-layer metrics from the span files that traced.py writes.

A `<layer>_s` figure is the inclusive time of that layer's spans; a
`<layer>_self_s` figure subtracts the spans directly inside it. Times sum over
every span of the traced stages of one iteration, across threads, so the
external question backend's two concurrent calls can add up to more than the
wall time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

STAGES = ("mine", "bench", "run", "eval")


class Spans:
    def __init__(self, paths: list[Path]):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self.counts = defaultdict(int)
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            names, spans = payload["names"], payload["spans"]
            inside = defaultdict(float)
            for _, _, t0, t1, parent in spans:
                if parent >= 0:
                    inside[parent] += t1 - t0
            for sid, nid, t0, t1, _ in spans:
                name = names[nid]
                self.total[name] += t1 - t0
                self.self_time[name] += t1 - t0 - inside[sid]
                self.calls[name] += 1
                self.durations[name].append(t1 - t0)
            for name, n in payload["counts"].items():
                self.counts[name] += n

    def percentile_ms(self, name: str, pct: int) -> float:
        """The pct-th percentile of the span durations, 0 when there are too
        few spans to leave ten samples above it."""
        values = self.durations.get(name, [])
        if len(values) * (100 - pct) < 1000:
            return 0.0
        return 1000.0 * statistics.quantiles(values, n=100)[pct - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sp: Spans, stub_requests: int, stub_service_s: float) -> dict[str, float]:
    t, s, n, c = sp.total, sp.self_time, sp.calls, sp.counts
    chat_s = t["llm.chat"]
    out = {
        "mining.mine_self_s": s["mining.mine"],
        "mining.refine_s": t["mining.refine"],
        "mining.refine_calls": n["mining.refine"],
        "mining.candidates": c["mining.candidates"],
        "rules.canonicalize_s": t["rules.canonicalize"],
        "rules.canonicalize_calls": n["rules.canonicalize"],
        "mining.dedup_ratio": _ratio(c["mining.candidates"], n["rules.canonicalize"]),
        "rules.check_rule_shape_s": t["rules.check_rule_shape"],
        "rules.classify_rule_s": t["rules.classify_rule"],
        "mining.compute_metrics_s": t["mining.compute_metrics"],
        "mining.compute_metrics_calls": n["mining.compute_metrics"],
        "mining.rules_emitted": c["mining.rules_emitted"],
        "mining.emit_ratio": _ratio(c["mining.rules_emitted"], n["mining.compute_metrics"]),
        "mining.enumerate_groundings_s": t["mining.enumerate_groundings"],
        "mining.groundings_enumerated": c["mining.groundings_enumerated"],
        "bench.plan_removals_s": t["bench.plan_removals"],
        "bench.removals": c["bench.removals"],
        "bench.removal_yield": _ratio(c["bench.removals"], c["mining.groundings_enumerated"]),
        "bench.generate_questions_s": t["bench.generate_questions"],
        "bench.question_fallbacks": c["bench.question_fallbacks"],
        "bench.check_answerability_s": t["bench.check_answerability"],
        "bench.downsample_s": t["bench.downsample"],
        "bench.build_bundle_self_s": s["bench.build_bundle"],
        "kg.load_s": t["kg.load"],
        "kg.load_calls": n["kg.load"],
        "kg.remove_s": t["kg.remove"],
        "kg.save_s": t["kg.save"],
        "bench.load_bundle_s": t["bench.load_bundle"],
        "env.explore_s": t["env.explore"],
        "env.explore_calls": n["env.explore"],
        "env.relation_paths": c["env.relation_paths"],
        "env.ground_s": t["env.ground"],
        "env.ground_calls": n["env.ground"],
        "env.reasoning_paths": c["env.reasoning_paths"],
        "env.digest_s": t["env.digest"],
        "env.apply_transition_s": t["env.apply_transition"],
        "agent.decide_s": t["agent.decide"] + t["agent.llm_decide"],
        "agent.decide_calls": n["agent.decide"] + n["agent.llm_decide"],
        "agent.run_episode_self_s": s["agent.run_episode"],
        "agent.trace_serialize_s": t["agent.trace_serialize"],
        "agent.episode_ms_p50": sp.percentile_ms("agent.run_episode", 50),
        "agent.episode_ms_p95": sp.percentile_ms("agent.run_episode", 95),
        "agent.repairs": c["agent.repairs"],
        "agent.llm_decide_self_s": s["agent.llm_decide"] + s["agent.llm_repair"],
        "llm.chat_s": chat_s,
        "llm.chat_calls": n["llm.chat"],
        "llm.chat_ms_p50": sp.percentile_ms("llm.chat", 50),
        "llm.chat_ms_p95": sp.percentile_ms("llm.chat", 95),
        "llm.stub_requests": stub_requests,
        "llm.stub_service_s": stub_service_s,
        "llm.client_overhead_s": chat_s - stub_service_s if n["llm.chat"] else 0.0,
        "llm.retries": stub_requests - n["llm.chat"],
        "evaluate.compute_report_s": t["evaluate.compute_report"],
    }
    for stage in STAGES:
        out[f"cli.{stage}_self_s"] = s[f"cli.{stage}"]
    return out
