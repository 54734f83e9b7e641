"""HTTP client for an external chat-completion endpoint, plus the fixed
prompt payloads used for question generation and the agent's tool calls.

The endpoint is configured through LLM_ENDPOINT_URL / LLM_API_TOKEN and
speaks JSON: request {"messages": [{"role", "content"}], "temperature": 0.0},
always at that temperature, response containing the generated text.
"""

from __future__ import annotations

import json
import os
import re
import time
from urllib.parse import urlsplit

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
    """Thin POST wrapper with bounded retries. The URL, the token and the
    route are read and checked once, when the client is built, and no call
    changes the client, so one serves a whole stage from any thread. A URL
    that is not http:// or https://, holds user information, names no host
    or holds a space or control character, or a token with a control
    character, raises ValueError naming the URL without its user
    information and never the token.

    Each attempt is one HTTP/1.1 request on a connection of its own, written
    in one piece; the response is framed by its Content-Length or chunked
    coding (RFC 9112), else read to close, and a 3xx is reported, not
    followed. An https:// URL is verified against the system trust store,
    with one TLS context per client. A URL that the proxy environment
    (HTTP_PROXY, HTTPS_PROXY, NO_PROXY) sends through a proxy goes through
    urllib.request instead."""

    def __init__(
        self,
        base_url: str | None = None,
        token: str | None = None,
        timeout: float = 60.0,
        retries: int = 2,
        backoff: float = 0.5,
    ):
        self.base_url = base_url or os.environ.get(ENDPOINT_URL_VAR)
        if not self.base_url:
            raise ValueError(f"no endpoint configured ({ENDPOINT_URL_VAR} unset)")
        self.token = token if token is not None else os.environ.get(API_TOKEN_VAR)
        for name, value in (("retries", retries), ("backoff", backoff)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        # a zero timeout would make the socket non-blocking
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        try:  # a bracket that does not close, or a port that is no number, raises
            url = urlsplit(self.base_url)
            port = url.port
            problem = (
                "not an http:// or https:// URL" if url.scheme not in ("http", "https")
                # it would go out as part of the Host header, never as credentials
                else "user information in the URL" if "@" in url.netloc
                else "no host" if not url.hostname
                else "a space, control or non-Latin-1 character in the URL"
                if _UNSAFE_IN_URL.search(url.netloc + url.path + url.query)
                else "a control or non-Latin-1 character in the token"
                if _UNSAFE_IN_VALUE.search(self.token or "") else None
            )
        except ValueError as err:
            problem = str(err)
        if problem:
            shown = _USERINFO.sub(r"\1", self.base_url)
            raise ValueError(f"endpoint URL {shown!r} not fit for a request: {problem}")
        # as urllib.request's proxy handler decides; urllib.request is loaded
        # only when a `<scheme>_proxy` variable is set, in any case
        self._proxied = False
        if any(name.lower() == f"{url.scheme}_proxy" for name in os.environ):
            import urllib.request

            proxies = urllib.request.getproxies_environment()
            bypass = urllib.request.proxy_bypass_environment(url.netloc, proxies)
            self._proxied = url.scheme in proxies and not bypass
        https = url.scheme == "https"
        self._address = (url.hostname, port or (443 if https else 80))
        # the request head up to the body's length, the one part that varies
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        head = f"POST {target} HTTP/1.1\r\nHost: {url.netloc}\r\nContent-Type: application/json\r\n"
        if self.token:
            head += f"Authorization: Bearer {self.token}\r\n"
        self._head = (head + "Connection: close\r\nContent-Length: ").encode("latin-1")
        self._tls = None
        if https and not self._proxied:
            import ssl

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])

    def chat(self, messages: list[dict]) -> str:
        data = json.dumps({"messages": messages, "temperature": 0.0}).encode()
        post = self._urlopen if self._proxied else self._post
        last_err: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                status, raw = post(data)
                if status >= 500:
                    raise EndpointError(f"server error {status}")
                if status != 200:
                    text = raw.decode("utf-8", "replace")
                    raise EndpointError(f"status {status}: {text[:200]}")
                return extract_text(json.loads(raw))
            except (OSError, ValueError, EndpointError) as err:
                last_err = err
                if attempt < self.retries:
                    time.sleep(self.backoff * (attempt + 1))
        raise EndpointError(f"endpoint failed after {self.retries + 1} attempts: {last_err}")

    def _post(self, data: bytes) -> tuple[int, bytes]:
        """POST `data` on a new connection; the response's status and body."""
        # imported on first use, so that loading this module (as bench and
        # agent do) loads no socket
        import socket

        sock = socket.create_connection(self._address, self.timeout)
        try:
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
            sock.sendall(self._head + b"%d\r\n\r\n" % len(data) + data)
            with sock.makefile("rb") as response:
                return _read_response(response)
        finally:
            sock.close()

    def _urlopen(self, data: bytes) -> tuple[int, bytes]:
        """POST `data` through urllib.request's default opener, which takes
        the proxy and follows redirects."""
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        req = urllib.request.Request(self.base_url, data, headers, method="POST")
        try:
            try:
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    return resp.status, resp.read()
            except urllib.error.HTTPError as err:
                with err:
                    return err.code, err.read()
        except http.client.HTTPException as err:
            raise EndpointError(str(err)) from err


def in_order(fn, items, workers: int):
    """fn(item) for each item, yielded in input order. With one worker this
    is map and loads no thread pool; with more, the calls run on that many
    threads, at most 2 * workers of them submitted and not yet read. A call
    that raises, or closing the iterator early, cancels the calls not yet
    started and waits for the running ones."""
    if workers == 1:
        yield from map(fn, items)
        return
    from collections import deque
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        yield from (f.result() for f in pending)
    finally:
        pool.shutdown(cancel_futures=True)


# the user information of a URL's authority, up to its last "@"
_USERINFO = re.compile(r"^([^/?#]*//)[^/?#]*@")
# a request target or host holds no space, control or non-Latin-1 character;
# a header value holds no control or non-Latin-1 character
_UNSAFE_IN_URL = re.compile(r"[^\x21-\x7e\x80-\xff]")
_UNSAFE_IN_VALUE = re.compile(r"[^\x20-\x7e\x80-\xff]")
_STATUS_LINE = re.compile(rb"HTTP/\d\.\d (\d{3})[ \r\n]")
_MAX_LINE = 65536
_MAX_FIELDS = 100


def _read_response(response) -> tuple[int, bytes]:
    """Status and body of the HTTP/1.1 response read from the binary file
    `response`, after any interim (1xx) responses. The body is framed by
    chunked coding, else by Content-Length, else by the connection's close."""
    status = 100
    while status < 200:
        line = _read_line(response)
        if not line:
            raise EndpointError("connection closed without a response")
        m = _STATUS_LINE.match(line)
        if m is None:
            raise EndpointError(f"bad status line: {line[:100]!r}")
        status = int(m[1])
        fields = _read_fields(response)
    coding = fields.get(b"transfer-encoding")
    if coding is not None:
        if coding.rsplit(b",", 1)[-1].strip().lower() == b"chunked":
            return status, _read_chunked(response)
        return status, response.read()
    length = fields.get(b"content-length")
    if length is None:
        return status, response.read()
    if not length.isdigit():
        raise EndpointError(f"bad Content-Length: {length[:100]!r}")
    return status, _read_exactly(response, int(length))


def _read_line(response) -> bytes:
    line = response.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise EndpointError(f"response line longer than {_MAX_LINE} bytes")
    return line


def _read_fields(response) -> dict[bytes, bytes]:
    """Header (or trailer) fields up to the blank line, by lower-case name;
    a repeated field's values are joined with commas."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _read_line(response)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        name, value = name.strip().lower(), value.strip()
        fields[name] = fields[name] + b", " + value if name in fields else value
    raise EndpointError(f"more than {_MAX_FIELDS} header fields")


def _read_chunked(response) -> bytes:
    chunks = []
    while True:
        size = _read_line(response).split(b";", 1)[0].strip()
        if not size or size.strip(b"0123456789abcdefABCDEF"):
            raise EndpointError(f"bad chunk size: {size[:100]!r}")
        n = int(size, 16)
        if n == 0:
            _read_fields(response)  # the trailer
            return b"".join(chunks)
        chunks.append(_read_exactly(response, n))
        if _read_line(response) not in (b"\r\n", b"\n"):
            raise EndpointError("chunk data not followed by a line end")


def _read_exactly(response, n: int) -> bytes:
    data = response.read(n)
    if len(data) < n:
        raise EndpointError(f"incomplete body: {len(data)} bytes read, {n} expected")
    return data
