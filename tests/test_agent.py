import hashlib
import json

import pytest

from kgreason.agent import (
    Action,
    EpisodeTrace,
    HeuristicPolicy,
    LLMPolicy,
    PolicyError,
    content_tokens,
    parse_tool_call,
    replay_trace,
    run_episode,
)
from kgreason.kg import KnowledgeGraph
from kgreason.llm import EndpointBudgetExceeded, EndpointError


def q(qid, text, topic):
    return {"id": qid, "question": text, "topic": topic}


class ScriptedClient:
    """Stands in for the endpoint: returns canned responses in order; an
    exception among them is raised instead. Each request is recorded as sent,
    so a later change to the caller's message list does not rewrite it."""

    def __init__(self, responses, max_calls=None):
        self.responses = list(responses)
        self.calls = 0
        self.max_calls = max_calls
        self.requests = []

    def chat(self, messages):
        if self.max_calls is not None and self.calls >= self.max_calls:
            raise EndpointBudgetExceeded("out of calls")
        self.requests.append([dict(m) for m in messages])
        self.calls += 1
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


class TestContentTokens:
    def test_camel_split_and_linkwords(self):
        assert content_tokens("hasUncle") == {"uncle"}
        assert content_tokens("Which entity has relation brotherOf with 139?") == {
            "brother", "139",
        }

    def test_snake_tokens(self):
        assert content_tokens("wife_of") == {"wife"}


class TestHeuristicPolicy:
    def test_brother_question_grounds_brother_path_first(self):
        g = KnowledgeGraph(
            [
                ("139", "brotherOf", "205"),
                ("139", "brotherOf", "138"),
                ("139", "fatherOf", "14"),
            ]
        )
        question = q("b1", "Who is 139's brother?", "139")
        policy = HeuristicPolicy(
            question["question"], "139", synonyms={"brother": ["brotherOf"]}, max_hops=3
        )
        trace = run_episode(g, question, policy)
        kinds = [s["action"]["kind"] for s in trace.steps]
        assert kinds == ["explore", "ground", "synthesize"]
        ground_step = trace.steps[1]["action"]
        assert ground_step["paths"][0] == "brotherOf"
        assert set(trace.prediction) == {"205", "138"}

    def test_uncle_composition_fixture(self):
        # hasUncle(justin, john) removed; the composition body survives
        g = KnowledgeGraph(
            [("justin", "hasParent", "mary"), ("mary", "hasSibling", "john")]
        )
        question = q("u1", "Which entity has relation hasUncle with justin? [topic is subject]", "justin")
        policy = HeuristicPolicy(
            question["question"],
            "justin",
            synonyms={"uncle": ["hasParent", "hasSibling"]},
            max_hops=3,
        )
        trace = run_episode(g, question, policy)
        assert "john" in trace.prediction
        assert trace.termination == "synthesized"
        # oracle check: john is exactly the 2-hop terminal
        assert trace.prediction == ["john"]

    def test_no_overlap_abstains_after_max_escalation(self):
        g = KnowledgeGraph([("justin", "hasParent", "mary"), ("mary", "hasSibling", "john")])
        question = q("a1", "completely unrelated words here", "justin")
        policy = HeuristicPolicy(question["question"], "justin", max_hops=3)
        trace = run_episode(g, question, policy)
        kinds = [s["action"]["kind"] for s in trace.steps]
        assert kinds == ["explore", "explore", "explore", "synthesize"]
        assert trace.prediction == []
        assert trace.termination == "synthesized"

    def test_deterministic_action_sequence(self, celebrity_family):
        question = q("d1", "Who is Justin Bieber's parent?", "Justin Bieber")
        runs = []
        for _ in range(2):
            policy = HeuristicPolicy(question["question"], "Justin Bieber", max_hops=3)
            trace = run_episode(celebrity_family, question, policy)
            runs.append([json.dumps(s["action"], sort_keys=True) for s in trace.steps])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_one_is_refused(self, top_k):
        # a negative top_k would ground ranked[:top_k], every path but the last few
        with pytest.raises(ValueError, match=f"top_k must be >= 1, got {top_k}"):
            HeuristicPolicy("Who is 139's brother?", "139", top_k=top_k)
        assert HeuristicPolicy("Who is 139's brother?", "139", top_k=1).top_k == 1

    def test_prediction_justified_by_supporting_paths(self, celebrity_family):
        question = q("j1", "Who is Justin Bieber's parent?", "Justin Bieber")
        policy = HeuristicPolicy(question["question"], "Justin Bieber", max_hops=3)
        trace = run_episode(celebrity_family, question, policy)
        assert trace.prediction
        assert trace.unjustified == []
        for entity in trace.prediction:
            assert any(entity in path for path in trace.supporting_paths)


class TestGroundingByText:
    """A ground action names relation paths by their text; the environment
    grounds the paths of its own state that read so."""

    def test_predicate_with_an_arrow(self):
        g = KnowledgeGraph([("a", "has->part", "p"), ("a", "colour", "red")])
        question = q("h1", "Which part does a have?", "a")
        trace = run_episode(g, question, HeuristicPolicy(question["question"], "a"))
        assert [s["action"]["kind"] for s in trace.steps] == ["explore", "ground", "synthesize"]
        assert "(a, has->part, p)" in trace.steps[1]["observation"]["reasoning_paths"]
        assert trace.prediction == ["p"]
        assert replay_trace(g, trace)

    def test_paths_that_share_a_text_are_both_grounded(self):
        # the one-predicate path "a -> b" and the two-hop path a, b read alike
        g = KnowledgeGraph([("x", "a -> b", "y"), ("x", "a", "m"), ("m", "b", "n")])
        client = ScriptedClient(
            [
                '{"tool":"relation_path_mining","entity":"x","max_hops":2}',
                '{"tool":"path_grounding","entity":"x","relation_paths":["a -> b"]}',
                '{"tool":"complete_task","explored_reasoning_paths":[],"answer_entities":[]}',
            ]
        )
        question = q("c1", "what is b of x?", "x")
        trace = run_episode(g, question, LLMPolicy(question["question"], "x", client))
        assert trace.steps[1]["observation"]["reasoning_paths"] == [
            "(x, a -> b, y)",
            "(x, a, m) ; (m, b, n)",
        ]
        assert replay_trace(g, trace)


class TestBudget:
    def test_budget_one_action_flags_fallback(self, celebrity_family):
        question = q("f1", "Who is Justin Bieber's parent?", "Justin Bieber")
        policy = HeuristicPolicy(question["question"], "Justin Bieber", max_hops=3)
        trace = run_episode(celebrity_family, question, policy, max_actions=1)
        assert trace.termination == "budget"
        assert trace.fallback
        assert trace.step_count == 1  # only the first explore ran

    def test_fallback_prediction_ranks_overlapping_paths(self, celebrity_family):
        # two actions: explore + ground happen, then the budget ends the episode
        question = q("f2", "Who is Justin Bieber's parent?", "Justin Bieber")
        policy = HeuristicPolicy(question["question"], "Justin Bieber", max_hops=3)
        trace = run_episode(celebrity_family, question, policy, max_actions=2)
        assert trace.termination == "budget"
        assert trace.fallback
        assert "Jeremy Bieber" in trace.prediction

    def test_budget_validation(self, celebrity_family):
        question = q("f3", "Who is Justin Bieber's parent?", "Justin Bieber")
        policy = HeuristicPolicy(question["question"], "Justin Bieber")
        with pytest.raises(ValueError, match=r"^max_actions must be >= 1, got 0$"):
            run_episode(celebrity_family, question, policy, max_actions=0)


class TestToolCallParsing:
    def test_direct_parse(self):
        action = parse_tool_call(
            '{"tool":"relation_path_mining","entity":"calvados","max_hops":2}'
        )
        assert action == Action("explore", entity="calvados", hops=2)

    def test_grounding_parse(self):
        action = parse_tool_call(
            '{"tool":"path_grounding","entity":"e","relation_paths":["p -> q"]}'
        )
        assert action == Action("ground", entity="e", paths=("p -> q",))

    def test_synthesis_parse_strips_evidence_prefix(self):
        action = parse_tool_call(
            '{"tool":"complete_task","explored_reasoning_paths":["Evidence: (a, p, b)"],'
            '"answer_entities":["b"]}'
        )
        assert action.selected == ("(a, p, b)",)
        assert action.answers == ("b",)

    def test_json_embedded_in_prose(self):
        action = parse_tool_call(
            'Sure, I will explore. {"tool": "relation_path_mining", "entity": "x", "max_hops": 1} Done.'
        )
        assert action.kind == "explore"

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError, match="unknown tool"):
            parse_tool_call('{"tool":"teleport","entity":"x"}')

    def test_no_json_rejected(self):
        unclosed = '{"tool": "relation_path_mining", "entity": "x"'
        for text in ("I have no idea.", unclosed, '{"a": ' * 2000):
            with pytest.raises(ValueError, match="no JSON object"):
                parse_tool_call(text)

    def test_braces_and_escaped_quotes_inside_strings(self):
        action = parse_tool_call(
            'Here: {"tool": "path_grounding", "entity": "a}{b \\"}\\"", '
            '"relation_paths": ["p -> q"]} ok'
        )
        assert action == Action("ground", entity='a}{b "}"', paths=("p -> q",))

    def test_invalid_object_then_valid_one(self):
        action = parse_tool_call(
            '{tool: explore} no, this: {"tool": "relation_path_mining", "entity": "x"}'
        )
        assert action == Action("explore", entity="x", hops=1)

    @pytest.mark.parametrize(
        "call",
        [
            '{"tool":"relation_path_mining","entity":"a","max_hops":[2]}',
            '{"tool":"path_grounding","entity":"a","relation_paths":"p"}',
            '{"tool":"complete_task","explored_reasoning_paths":"(a, p, b)","answer_entities":[]}',
            '{"tool":"complete_task","explored_reasoning_paths":["(a, p, b)"],"answer_entities":"b1"}',
        ],
        ids=["hops-list", "paths-string", "selected-string", "answers-string"],
    )
    def test_wrongly_typed_field_is_a_parse_failure(self, call):
        with pytest.raises(ValueError):
            parse_tool_call(call)

    def test_list_items_become_strings(self):
        # anonymized entity ids may come back as numbers
        action = parse_tool_call(
            '{"tool":"complete_task","explored_reasoning_paths":["(a, p, 17)"],'
            '"answer_entities":[17]}'
        )
        assert action.answers == ("17",)

    def test_stray_open_brace_before_valid_object(self):
        action = parse_tool_call(
            'Let me think { about it. {"tool": "relation_path_mining", "entity": "x", '
            '"max_hops": 2}'
        )
        assert action == Action("explore", entity="x", hops=2)


class TestLLMPolicyEpisodes:
    def test_scripted_three_step_episode(self):
        g = KnowledgeGraph(
            [
                ("Ian Holm", "spouse", "Penelope Wilton"),
                ("Ian Holm", "awardNominee", "Cate Blanchett"),
            ]
        )
        client = ScriptedClient(
            [
                '{"tool":"relation_path_mining","entity":"Ian Holm","max_hops":1}',
                '{"tool":"path_grounding","entity":"Ian Holm","relation_paths":["spouse"]}',
                '{"tool":"complete_task","explored_reasoning_paths":'
                '["(Ian Holm, spouse, Penelope Wilton)"],"answer_entities":["Penelope Wilton"]}',
            ]
        )
        question = q("i1", "Who is Ian Holm's spouse?", "Ian Holm")
        policy = LLMPolicy(question["question"], "Ian Holm", client)
        trace = run_episode(g, question, policy)
        assert trace.prediction == ["Penelope Wilton"]
        assert trace.termination == "synthesized"
        # system prompt and the three tool payloads ride along every turn
        system = client.requests[0][0]
        assert system["role"] == "system"
        assert "relation_path_mining" in system["content"]
        user = client.requests[0][1]["content"]
        assert "Mine relation paths" in user
        assert "Ground relation paths" in user
        assert "Complete the knowledge graph exploration" in user

    def test_unjustified_compares_whole_entities(self):
        # "p1" is a substring of "p12" but no entity of the selected path
        g = KnowledgeGraph([("a", "r", "p12"), ("b", "r", "p1")])
        client = ScriptedClient(
            [
                '{"tool":"relation_path_mining","entity":"a","max_hops":1}',
                '{"tool":"path_grounding","entity":"a","relation_paths":["r"]}',
                '{"tool":"complete_task","explored_reasoning_paths":'
                '["(a, r, p12)"],"answer_entities":["p1","p12"]}',
            ]
        )
        question = q("u1", "What is r of a?", "a")
        policy = LLMPolicy(question["question"], "a", client)
        trace = run_episode(g, question, policy)
        assert trace.termination == "synthesized"
        assert trace.prediction == ["p1", "p12"]
        assert trace.unjustified == ["p1"]

    def test_unparseable_response_repaired_once(self):
        g = KnowledgeGraph([("a", "p", "b")])
        client = ScriptedClient(
            [
                "gibberish with no tool call",
                '{"tool":"relation_path_mining","entity":"a","max_hops":1}',
                '{"tool":"complete_task","explored_reasoning_paths":[],"answer_entities":[]}',
            ]
        )
        question = q("r1", "anything about a?", "a")
        policy = LLMPolicy(question["question"], "a", client)
        trace = run_episode(g, question, policy)
        assert trace.steps[0]["action"]["kind"] == "explore"
        assert any("repair" in e for e in trace.steps[0]["events"])

    def test_wrongly_typed_fields_get_the_repair_round_trip(self):
        g = KnowledgeGraph([("a", "p", "b1")])
        select = '{"tool":"complete_task","explored_reasoning_paths":["(a, p, b1)"],"answer_entities":'
        client = ScriptedClient(
            [
                '{"tool":"relation_path_mining","entity":"a","max_hops":[2]}',
                '{"tool":"relation_path_mining","entity":"a","max_hops":1}',
                '{"tool":"path_grounding","entity":"a","relation_paths":["p"]}',
                select + '"b1"}',
                select + '["b1"]}',
            ]
        )
        question = q("r3", "what is p of a?", "a")
        trace = run_episode(g, question, LLMPolicy(question["question"], "a", client))
        assert trace.termination == "synthesized"
        assert trace.prediction == ["b1"]
        events = [s["events"] for s in trace.steps]
        assert [len(e) for e in events] == [1, 0, 1]
        assert all(e[0].startswith("repair: unparseable response") for e in (events[0], events[2]))

    def test_two_unparseable_responses_abort(self):
        g = KnowledgeGraph([("a", "p", "b")])
        client = ScriptedClient(["nope", "still nope"])
        question = q("r2", "anything?", "a")
        policy = LLMPolicy(question["question"], "a", client)
        trace = run_episode(g, question, policy)
        assert trace.termination == "aborted"
        assert trace.prediction == []

    def test_premature_synthesis_with_answers_but_no_evidence_repaired(self):
        g = KnowledgeGraph([("a", "p", "b")])
        client = ScriptedClient(
            [
                '{"tool":"complete_task","explored_reasoning_paths":[],"answer_entities":["b"]}',
                '{"tool":"relation_path_mining","entity":"a","max_hops":1}',
                '{"tool":"complete_task","explored_reasoning_paths":[],"answer_entities":[]}',
            ]
        )
        question = q("p1", "what is p of a?", "a")
        policy = LLMPolicy(question["question"], "a", client)
        trace = run_episode(g, question, policy)
        assert trace.steps[0]["action"]["kind"] == "explore"
        # the repair is recorded once, by the episode loop
        assert trace.steps[0]["events"] == [
            "repair: synthesis with answers needs supporting reasoning paths"
        ]

    def test_hop_limit_out_of_range_gets_the_repair_round_trip(self):
        g = KnowledgeGraph([("a", "p", "b")])
        client = ScriptedClient(
            [
                '{"tool":"relation_path_mining","entity":"a","max_hops":9}',
                '{"tool":"relation_path_mining","entity":"a","max_hops":1}',
                '{"tool":"complete_task","explored_reasoning_paths":[],"answer_entities":[]}',
            ]
        )
        question = q("h1", "what is p of a?", "a")
        trace = run_episode(g, question, LLMPolicy(question["question"], "a", client))
        reason = "hop limit must be in [1, 3], got 9"
        assert client.requests[1][-1]["content"].startswith(
            f"The previous action was invalid: {reason}.\n"
        )
        assert trace.steps[0]["events"] == [f"repair: {reason}"]
        assert trace.steps[0]["action"] == {"kind": "explore", "entity": "a", "hops": 1}
        assert trace.termination == "synthesized"
        assert replay_trace(g, trace)

    def test_endpoint_budget_exhaustion_terminates_with_fallback(self):
        g = KnowledgeGraph([("a", "p", "b")])
        client = ScriptedClient(
            ['{"tool":"relation_path_mining","entity":"a","max_hops":1}'] * 3,
            max_calls=1,
        )
        question = q("e1", "what?", "a")
        policy = LLMPolicy(question["question"], "a", client)
        trace = run_episode(g, question, policy)
        assert trace.termination == "budget"
        assert trace.fallback
        # running out inside decide records one abort step, as in repair
        assert [s["i"] for s in trace.steps] == [0, 1]
        assert set(trace.steps[1]) == {"i", "state_digest", "events"}
        assert trace.steps[1]["events"] == ["abort: out of calls"]


class TestTraces:
    def run_one(self, celebrity_family):
        question = q("t1", "Who is Justin Bieber's parent?", "Justin Bieber")
        policy = HeuristicPolicy(question["question"], "Justin Bieber", max_hops=3)
        return run_episode(celebrity_family, question, policy)

    def test_replay_byte_for_byte(self, celebrity_family):
        trace = self.run_one(celebrity_family)
        assert replay_trace(celebrity_family, trace)

    def test_replay_detects_graph_change(self, celebrity_family):
        trace = self.run_one(celebrity_family)
        mutated = celebrity_family.remove([("Justin Bieber", "hasParent", "Jeremy Bieber")])
        with pytest.raises(AssertionError):
            replay_trace(mutated, trace)

    def test_replay_detects_state_change(self, celebrity_family):
        # without the first explore, the second step starts from another state
        trace = self.run_one(celebrity_family)
        del trace.steps[0]
        with pytest.raises(AssertionError, match=r"^state digest mismatch at step 1$"):
            replay_trace(celebrity_family, trace)

    def test_json_lines_roundtrip(self, celebrity_family):
        trace = self.run_one(celebrity_family)
        lines = trace.to_json_lines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "start"
        assert parsed[-1]["type"] == "final"
        again = EpisodeTrace.from_json_lines(parsed)
        assert again == trace
        assert replay_trace(celebrity_family, again)

    def test_final_line_without_unjustified_reads_as_none(self, celebrity_family):
        trace = self.run_one(celebrity_family)
        trace.unjustified = ["x"]
        parsed = [json.loads(line) for line in trace.to_json_lines()]
        del parsed[-1]["unjustified"]
        assert EpisodeTrace.from_json_lines(parsed).unjustified == []


EXPLORE_A = '{"tool":"relation_path_mining","entity":"a","max_hops":1}'
GROUND_P = '{"tool":"path_grounding","entity":"a","relation_paths":["p"]}'
ABSTAIN = '{"tool":"complete_task","explored_reasoning_paths":[],"answer_entities":[]}'
ANSWER_NO_EVIDENCE = (
    '{"tool":"complete_task","explored_reasoning_paths":[],"answer_entities":["b"]}'
)

# name -> (scripted replies, endpoint call budget, max actions); one per way
# an episode can end
EXIT_PATHS = {
    "synthesis": (
        [EXPLORE_A, GROUND_P, '{"tool":"complete_task","explored_reasoning_paths":'
         '["(a, p, b)"],"answer_entities":["b"]}'],
        None, 10,
    ),
    "parse_repair_then_success": (["gibberish", EXPLORE_A, ABSTAIN], None, 10),
    "two_unparseable": (["nope", "still nope"], None, 10),
    "validation_repair_then_success": ([ANSWER_NO_EVIDENCE, EXPLORE_A, ABSTAIN], None, 10),
    "unparseable_repair": (
        ['{"tool":"path_grounding","entity":"a","relation_paths":["zzz"]}', "garbage"],
        None, 10,
    ),
    "still_invalid_after_repair": (
        ['{"tool":"relation_path_mining","entity":"a","max_hops":9}', GROUND_P], None, 10,
    ),
    "budget_in_repair": ([EXPLORE_A, "gibberish", ANSWER_NO_EVIDENCE], 3, 10),
    "max_actions": ([EXPLORE_A, GROUND_P], None, 2),
}

# SHA-256 of (trace JSON lines, requests the endpoint received)
EXIT_PATH_GOLDEN = {
    "budget_in_repair": (
        "d169e000e3cf23af0a2a3e37665397d1fcc721ee8a66b16551766b8b2a8c85b3",
        "407185678624cef659d9b74af7dfe38f9abc976fde9c778a85eccd93fc47687f",
    ),
    "heuristic": "7e2647861a5df9a5d7190c5dc5474b228f85fb911462959a3f897493f8e10164",
    "max_actions": (
        "cc615d4372352c4544ed04347f8018a008a797b34bbb68815435705275f0794b",
        "2fb0839de037e2fcf2fb05751124e5e65cd4f745c69e798e83ea8ae5b221b15e",
    ),
    "parse_repair_then_success": (
        "74e4c76398a9f51b21bbe0cc3dc85bc0289328b346d9b8dca0ecb6f7c6653eaf",
        "50cda50117ba8a5a6131bb829e6dff21110e9b009a1f8ebbe02d2c095353e5fe",
    ),
    "still_invalid_after_repair": (
        "ba764d73cd807d2dce5bb7c6ca8ffc9a656a6d5c44ba3b3079d9ee65bae6470b",
        "83c0c419fb7d9b742bd98de761fbc6c5d1473de208976e767db2e5dddabe6134",
    ),
    "synthesis": (
        "14da7f4d792011bb4c8736d116735ed1e7b072ed9ef84580e17c9b80de5938bd",
        "231df402163ecc2ec2823858f8e3e44711010ab7fbea8a873c39f65a20d59d4d",
    ),
    "truncated_state_message": (
        "17ab18616a7d76d2e937b35d242332c68dbe08839fc2c65a3c217bcd1ca62892",
        "eec0ac0c316b3d093945d36cecd50b83e6892744218bd72de5daa3b43ffa3afc",
    ),
    "two_unparseable": (
        "1cc0825f7be6d8361d36b5f5a7ca5ef8b0d82bbc2bb906745bf529689ca1abd9",
        "7f79aab62dd3e958c5dbe40199e6bfd5edbb933b83d45acd600bb5fd478645ac",
    ),
    "unparseable_repair": (
        "faebfff41d27cbc4d00f7bef79abfad370feeaa735d2eb3a194681783602960b",
        "403a818a9aed767d263a5fb23de235927503f4cc71460b7b90335090760cc301",
    ),
    "validation_repair_then_success": (
        "9f50524d07d30ff103e55667a698670318c18effc8c142e66fd2a45e1cf98e44",
        "cbe06289a240a52e3abc5def05e522607cf988f4cbffb3702e4395c501536ddb",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestExitPaths:
    """Pins every exit of the episode loop byte for byte: the trace and the
    requests sent to the endpoint."""

    graph = KnowledgeGraph([("a", "p", "b"), ("b", "q", "c"), ("a", "r", "d")])
    question = q("x1", "what is p of a?", "a")

    def run_scripted(self, replies, max_calls, max_actions):
        client = ScriptedClient(replies, max_calls=max_calls)
        policy = LLMPolicy(self.question["question"], "a", client)
        trace = run_episode(self.graph, self.question, policy, max_actions=max_actions)
        return trace, client

    @pytest.mark.parametrize("name", sorted(EXIT_PATHS))
    def test_scripted_exit_path_golden(self, name):
        trace, client = self.run_scripted(*EXIT_PATHS[name])
        assert not client.responses  # every scripted reply was asked for
        digests = (
            _sha("\n".join(trace.to_json_lines())),
            _sha(json.dumps(client.requests, sort_keys=True)),
        )
        assert digests == EXIT_PATH_GOLDEN[name]

    def test_truncated_state_message_golden(self):
        # 70 relation paths and 70 reasoning paths: both lists in the state
        # message are cut to the 60 that best overlap the question
        wide = KnowledgeGraph([("a", f"p{i}", f"b{i}") for i in range(70)])
        paths = json.dumps([f"p{i}" for i in range(70)])
        client = ScriptedClient([
            EXPLORE_A,
            f'{{"tool":"path_grounding","entity":"a","relation_paths":{paths}}}',
            ABSTAIN,
        ])
        question = q("w1", "what is p7 of a?", "a")
        trace = run_episode(wide, question, LLMPolicy(question["question"], "a", client))
        assert trace.steps[2]["events"] == [
            "truncated relation paths to 60 in state message",
            "truncated reasoning paths to 60 in state message",
        ]
        digests = (
            _sha("\n".join(trace.to_json_lines())),
            _sha(json.dumps(client.requests, sort_keys=True)),
        )
        assert digests == EXIT_PATH_GOLDEN["truncated_state_message"]

    def test_heuristic_celebrity_golden(self, celebrity_family):
        question = q("t1", "Who is Justin Bieber's parent?", "Justin Bieber")
        policy = HeuristicPolicy(question["question"], "Justin Bieber", max_hops=3)
        trace = run_episode(celebrity_family, question, policy)
        assert _sha("\n".join(trace.to_json_lines())) == EXIT_PATH_GOLDEN["heuristic"]

    def test_endpoint_error_ends_the_episode(self):
        error = EndpointError("endpoint failed after 3 attempts: server error 500")
        trace, _ = self.run_scripted([EXPLORE_A, GROUND_P, error], None, 10)
        assert trace.termination == "error"
        assert not trace.fallback
        assert trace.prediction == []
        assert [s["i"] for s in trace.steps] == [0, 1, 2]
        assert trace.steps[2]["events"] == [f"abort: {error}"]
