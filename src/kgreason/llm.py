"""HTTP client for an external chat-completion endpoint, plus the fixed
prompt payloads used for question generation and the agent's tool calls.

The endpoint is configured through LLM_ENDPOINT_URL / LLM_API_TOKEN and
speaks JSON: request {"messages": [{"role", "content"}], "temperature": 0},
response containing the generated text.
"""

from __future__ import annotations

import logging
import os
import time

import requests

log = logging.getLogger(__name__)

ENDPOINT_URL_VAR = "LLM_ENDPOINT_URL"
API_TOKEN_VAR = "LLM_API_TOKEN"


QUESTION_GENERATION_PROMPT = """You are an expert in knowledge graph question generation.

Given:
Removed Triple: ({entity_h}, {predicate_T}, {entity_t})
Question Entity: {topic_entity}
Answer Entity: {answer_entity}

Write a clear, natural-language question that asks for the Answer Entity, using the given predicate and Topic Entity.

Requirements:
- Express the predicate {predicate_T} naturally (paraphrasing allowed, but preserve core meaning; e.g., "wife_of" -> "wife").
- Mention the Topic Entity {topic_entity}.
- The answer should be the Answer Entity {answer_entity}.
- Do not mention the Answer Entity {answer_entity} in the question.
- Do not ask a yes/no question.
- Output only the question as plain text.

Example:
Removed Triple: ("Alice", "wife_of", "Carol")
Question Entity: Carol
Answer Entity: Alice

Output:
Who is Carol's wife?

Now, generate the question for:
Removed Triple: ({entity_h}, {predicate_T}, {entity_t})
Question Entity: {topic_entity}
Answer Entity: {answer_entity}"""


EXPLORATION_TOOL_PROMPT = """Mine relation paths from an entity to discover reasoning patterns.


This tool returns ALL paths from 1-hop up to max_hops combined in one list.

CRITICAL USAGE:
- Select the starting entity strategically.
- Use small hop limits for efficient exploration, and increase gradually 
   if evidence is insufficient.
- Collected relation paths will serve as potential reasoning skeletons 
  for grounding and synthesis.

Args:
    entity: Starting entity for exploration 
    max_hops: Maximum path length 
    

Returns:
    Combined relation paths represented as strings, e.g.,
    ['rel1', 'rel1 -> rel4', 'rel2 -> rel1']"""


GROUNDING_TOOL_PROMPT = """Ground relation paths to find concrete entity sequences that answer the question.


This tool finds actual entity sequences that follow the selected patterns, providing
concrete evidence for reasoning.


Args:
    entity: Starting entity for grounding 
    relation_paths: Selected relation path strings from relation_path_match
   

Returns:
    Grounded path descriptions with entity sequences and evidence triples"""


SYNTHESIS_TOOL_PROMPT = """Complete the knowledge graph exploration when reasoning paths are sufficient 
to answer the question.

The agent should return the final answer based on reasoning over the discovered 
reasoning paths to terminate the exploration.

CRITICAL QUESTION UNDERSTANDING:
- Carefully analyze what the question is asking for.
- Extract answer entities that directly answer the question, not related but 
  irrelevant entities
- Select only reasoning paths that lead to the correct entity type being asked for

The explored_reasoning_paths are formatted as strings containing the grounded 
path evidence:
     Evidence: <supporting_reasoning_paths>


The agent should focus on answering the original question using reasoning over 
these paths. Use the reasoning paths to infer the correct answer entities 
through pattern matching and evidence analysis.



Reasoning strategies:
- Direct matches: triples that directly answer the query
- Fuzzy matches: similar relation/entity names that approximately match the target
- Inverse relationships: if you find "A relation B", consider "B inverse_relation A"
- Chain reasoning: use patterns like "A rel1 B" + "B rel2 C" to infer "A answers C"
- Evidence stacking: multiple consistent triples together provide sufficient evidence

CRITICAL: Among the explored reasoning paths, only a subset can actually answer 
the question. The agent should carefully select the most reasonable and reliable 
subset as supporting reasoning paths. Note that entities appearing in reasoning 
paths as intermediate steps may not be answer entities. Use them to infer the 
answer while excluding false evidence. 

Args:
    explored_reasoning_paths (list[str]): Grounded reasoning paths that support the final answer
    answer_entities (list[str]): Final answer entity IDs only

Returns:
    dict[str, Any]: Final results with answers and reasoning path evidence"""


SYSTEM_PROMPT = """You are a helpful assistant that answers queries by exploring a knowledge 
graph using advanced path-based reasoning.

Available tools:
- relation_path_mining: Discover all possible relation paths around an entity to find reasoning patterns.
- path_grounding: Instantiate selected relation paths with concrete entities 
  to find actual reasoning chains.
- complete_task: Finalize the answer using reasoning paths as evidence.

The toolkit maintains an evidence store of discovered entities and triples. 
Use the tools iteratively--discover, select, extract--then finalize when ready 
with concrete entity answers.

Important context:
- Real-world knowledge graphs are always incomplete. Do NOT expect to always 
  find a direct triple that answers the question.
- Instead, you must rely on indirect evidence, combining multiple facts and 
  relation paths. If no direct edge exists, reason over intermediate nodes and 
  multi-hop chains to imply the answer.
- Avoid finalizing prematurely if only partial evidence is present; keep 
  exploring relation paths to assemble a reasoning chain.

Key principles:
- Focus on RELATION PATHS as reasoning patterns, not individual triples
- Multi-hop reasoning is essential -- explore 1-hop, 2-hop, and 3-hop patterns
- Select paths strategically based on semantic relevance to the question
- Ground selected paths to get concrete evidence chains
- A reasoning path can connect topic entity and answer entity through 
  intermediate entities
- Look for both direct relations and inverse relations
- Use path grounding results as structured evidence for your final answer"""


class EndpointError(RuntimeError):
    """Endpoint unreachable or returned an unusable response; retriable."""


class EndpointBudgetExceeded(RuntimeError):
    """The per-episode endpoint call budget ran out."""


def extract_text(payload: dict) -> str:
    """Pull the generated text out of common response envelope shapes."""
    if isinstance(payload, dict):
        choices = payload.get("choices")
        if isinstance(choices, list) and choices:
            msg = choices[0].get("message", {})
            if isinstance(msg, dict) and isinstance(msg.get("content"), str):
                return msg["content"]
            if isinstance(choices[0].get("text"), str):
                return choices[0]["text"]
        msg = payload.get("message")
        if isinstance(msg, dict) and isinstance(msg.get("content"), str):
            return msg["content"]
        for key in ("content", "text", "output"):
            if isinstance(payload.get(key), str):
                return payload[key]
    raise EndpointError(f"no generated text found in response: {str(payload)[:200]}")


class LLMClient:
    """Thin POST wrapper with bounded retries and an optional call budget."""

    def __init__(
        self,
        base_url: str | None = None,
        token: str | None = None,
        max_calls: int | None = None,
        timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.5,
    ):
        self.base_url = base_url or os.environ.get(ENDPOINT_URL_VAR)
        if not self.base_url:
            raise ValueError(f"no endpoint configured ({ENDPOINT_URL_VAR} unset)")
        self.token = token if token is not None else os.environ.get(API_TOKEN_VAR)
        if max_calls is not None and max_calls < 1:
            raise ValueError("max_calls must be >= 1")
        self.max_calls = max_calls
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.calls = 0

    def chat(self, messages: list[dict], temperature: float = 0.0) -> str:
        if self.max_calls is not None and self.calls >= self.max_calls:
            raise EndpointBudgetExceeded(
                f"endpoint call budget of {self.max_calls} exhausted"
            )
        self.calls += 1
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        body = {"messages": messages, "temperature": temperature}
        last_err: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                resp = requests.post(
                    self.base_url, json=body, headers=headers, timeout=self.timeout
                )
                if resp.status_code >= 500:
                    raise EndpointError(f"server error {resp.status_code}")
                if resp.status_code != 200:
                    raise EndpointError(f"status {resp.status_code}: {resp.text[:200]}")
                return extract_text(resp.json())
            except (requests.RequestException, ValueError, EndpointError) as err:
                last_err = err
                if attempt < self.retries:
                    time.sleep(self.backoff * (attempt + 1))
        raise EndpointError(f"endpoint failed after {self.retries + 1} attempts: {last_err}")
