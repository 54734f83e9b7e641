"""Scripted, deterministic chat endpoint on 127.0.0.1 for the llm workload.

    python3 perfbench/stub.py

Prints `port <n>` on stdout once it listens, then serves until terminated.
POST any path with {"messages": [...]} for a chat reply; GET /stats for the
number of chat requests served and the seconds spent serving them. At most
two connections are served at a time; no request is ever answered with an
error status, because the client's fixed back-off sleep would then dominate
the wall time.

Replies depend only on the messages, never on arrival order:

* question-generation prompts get a question naming the predicate and the
  topic entity; one prompt in LEAK_EVERY also names the answer entity, so the
  retry and template-fallback path runs;
* tool-call prompts get explore (two hops from the topic), then ground (the
  TOP_K relation paths that best overlap the question's words), then
  complete_task (the best-overlapping reasoning paths); one
  reply in QUIRK_EVERY wraps the JSON in prose and another is unparseable,
  so the repair round-trip runs. Repair requests always get clean JSON.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MAX_CONNECTIONS = 2
LEAK_EVERY = 16
QUIRK_EVERY = 20
EXPLORE_HOPS = 2
TOP_K = 5

_TRIPLE_RE = re.compile(r"Removed Triple: \((.*?), (.*?), (.*?)\)\nQuestion Entity: (.*)\nAnswer Entity: (.*)")
_SECTION_RE = re.compile(
    r"Question: (?P<question>[^\n]*)\n\nTopic entity: (?P<topic>[^\n]*)\n\n"
    r"Relation paths discovered so far:\n(?P<rel>.*?)\n\n"
    r"Reasoning paths grounded so far:\n(?P<evid>.*?)\n\nFrontier entities:",
    re.DOTALL,
)
_WORD_RE = re.compile(r"[a-z0-9]+")
_REPAIR_PREFIXES = ("Your previous reply could not be parsed", "The previous action was invalid")


def _bucket(text: str, every: int) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") % every


def question_reply(prompt: str) -> str:
    head, pred, _, topic, answer = _TRIPLE_RE.findall(prompt)[-1]
    if topic == head:
        text = f"Whose {pred} is {topic}?"
    else:
        text = f"Who is the {pred} of {topic}?"
    if _bucket(prompt, LEAK_EVERY) == 0:
        text += f" (It is {answer}.)"
    return text


def _overlap(words: set[str], predicates) -> int:
    return len(set(predicates) & words)


def tool_reply(messages: list[dict]) -> str:
    state = messages[1]["content"]
    m = _SECTION_RE.search(state)
    if m is None:
        return json.dumps({"tool": "complete_task", "explored_reasoning_paths": [], "answer_entities": []})
    words = set(_WORD_RE.findall(m["question"].lower()))
    topic = m["topic"]
    paths = []
    for line in m["rel"].splitlines():
        start, sep, path = line.partition(": ")
        if sep and start == topic:
            paths.append(path)
    evidence = [line[len("Evidence: "):] for line in m["evid"].splitlines() if line.startswith("Evidence: ")]

    if evidence:
        scored = [(_overlap(words, re.findall(r", (\S+?), ", " " + e)), e) for e in evidence]
        best = max(s for s, _ in scored)
        chosen = sorted(e for s, e in scored if s == best) if best else []
        answers = sorted({e.rsplit(", ", 1)[1].rstrip(")") for e in chosen})
        call = {"tool": "complete_task", "explored_reasoning_paths": chosen, "answer_entities": answers}
    elif paths:
        ranked = sorted(paths, key=lambda p: (-_overlap(words, p.split(" -> ")), p.count("->"), p))
        call = {"tool": "path_grounding", "entity": topic, "relation_paths": ranked[:TOP_K]}
    else:
        call = {"tool": "relation_path_mining", "entity": topic, "max_hops": EXPLORE_HOPS}
    text = json.dumps(call)

    last = messages[-1]["content"]
    if last.startswith(_REPAIR_PREFIXES):
        return text
    quirk = _bucket(last, QUIRK_EVERY)
    if quirk == 0:
        return f"Sure, here is my next step: {text} Let me know what you find."
    if quirk == 1:
        return "I need to think about the relation paths a bit more before choosing a tool."
    return text


def reply(messages: list[dict]) -> str:
    last = messages[-1]["content"]
    if "Reply with the single word: ready" in last:
        return "ready"
    if "Removed Triple:" in last:
        return question_reply(last)
    return tool_reply(messages)


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address):
        super().__init__(address, _Handler)
        self.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self.lock = threading.Lock()
        self.requests = 0
        self.service_s = 0.0

    def process_request(self, request, client_address):
        self.slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()


class _Handler(BaseHTTPRequestHandler):
    def _send(self, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        t0 = time.perf_counter()
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self._send({"choices": [{"message": {"role": "assistant", "content": reply(body["messages"])}}]})
        elapsed = time.perf_counter() - t0
        with self.server.lock:
            self.server.requests += 1
            self.server.service_s += elapsed

    def do_GET(self):
        with self.server.lock:
            stats = {"requests": self.server.requests, "service_s": self.server.service_s}
        self._send(stats)

    def log_message(self, format, *args):
        pass


def main() -> None:
    server = StubServer(("127.0.0.1", 0))
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
