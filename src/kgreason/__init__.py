"""KGQA benchmarks under controlled knowledge-graph incompleteness, plus an
interactive graph-reasoning agent environment and evaluation protocol.

The exports below load on first use (PEP 562), so `import kgreason` or a
single stage imports only the modules it needs.
"""

import importlib

_EXPORTS = {
    "kg": ("KnowledgeGraph", "Triple"),
    "rules": ("Atom", "HornRule", "Term", "canonicalize", "check_rule_shape", "classify_rule"),
    "mining": (
        "MinedRule", "MinerConfig", "RuleMetrics", "compute_metrics", "enumerate_groundings",
        "mine", "refine",
    ),
    "bench": (
        "GenConfig", "QAInstance", "RemovalPlan", "build_bundle", "downsample",
        "generate_question", "load_bundle", "plan_removals", "split_dataset", "verify_bundle",
    ),
    "env": ("AgentState", "EnvConfig", "apply_transition", "explore", "ground"),
    "agent": (
        "Action", "EpisodeTrace", "HeuristicPolicy", "LLMPolicy", "replay_trace", "run_episode",
    ),
    "evaluate": ("MetricsReport", "compute_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
