"""``stream-steady`` — independent clients of ``python -m repro.service serve``.

The server is the real CLI in a subprocess, warmed, so in steady state the
numeric core does nothing: every request is a session-cache hit and the
cost is socket + JSON codec + coalescer + session bookkeeping — the
service package's own cost, and the workload on which a core optimisation
predicts no change.  The generator speaks the documented JSON-lines
protocol over raw asyncio sockets (not ``StreamClient``): an open loop
with seeded Poisson arrivals, timed from the instant each request was
*due*, then a closed loop for throughput.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.topology import edge_switches, fat_tree

from harness import Context, Measured, ast_oracle, delivered_mass, percentile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FAILURE_PROBABILITY = 0.001
#: Eight destinations are 3.7 s of server start, three times a run; four
#: keep a run inside the driver's budget (README, "cuts").
DESTINATIONS = 4
CONNECTIONS = min(os.cpu_count() or 1, 4)
#: Open-loop rate of the end-to-end latency metrics, requests per second.
OPEN_RATE = 1000
#: Rates of the traced run's per-rate phases.
TRACE_RATES = (500, 1000, 2000)
#: Requests in flight during the closed loop, over all connections.
OUTSTANDING = 64
DISTRIBUTION_SHARE = 0.2
#: A rate is sustainable when p99 from due time stays within this.
LATENCY_LIMIT_MS = 25.0
REPLY_GRACE_S = 5.0
#: Open loop at ``OPEN_RATE`` that ends every set-up, untimed: the first
#: second of load on a fresh server is 10-20 % slower than the rest.
WARM_SECONDS = 1.0
#: Windows of the end-to-end metrics: latency percentiles per half second
#: of arrivals (500 requests), throughput per chunk of 1000 replies.
LATENCY_WINDOW_S = 0.5
RATE_CHUNK = 1000
PINGS = 200

TEMPLATE = b'{"id": %%d, "kind": "%s", "ingress": [%d, %d], "dest": %d}\n'


# -- the server subprocess ----------------------------------------------------------

def start_server(k: int, dests) -> tuple[subprocess.Popen, int]:
    command = [
        sys.executable, "-m", "repro.service", "serve", "--topology", f"fattree:{k}",
        "--scheme", "ecmp", "--failure-prob", str(FAILURE_PROBABILITY), "--warm", "--port", "0",
    ]
    for dest in dests:
        command += ["--dest", str(dest)]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    server = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, text=True)
    banner = server.stdout.readline()  # "serving fattree:6/ecmp on 127.0.0.1:PORT (...)"
    if " on " not in banner:
        stop_server(server)
        raise RuntimeError(f"server did not start: {banner!r}")
    return server, int(banner.split(" on ")[1].split()[0].rsplit(":", 1)[1])


def stop_server(server: subprocess.Popen) -> None:
    """SIGTERM drains the server; it is reaped here so its RSS is counted."""
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        server.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        server.kill()
        server.communicate()


# -- inputs and oracle ---------------------------------------------------------------

def inputs(ctx: Context):
    """Seeded destinations; every (ingress, dest) pair with its oracle answers."""
    k = 4 if ctx.smoke else 6
    topology = fat_tree(k)
    failable = downward_failable_ports(topology)
    dests = sorted(ctx.rng.sample(edge_switches(topology), DESTINATIONS))
    requests, expected = [], {}
    for dest in dests:
        model = build_model(
            topology, routing=ecmp_policy(topology, dest), dest=dest,
            failure=independent_failure_program(failable, FAILURE_PROBABILITY),
            failable=failable,
        )
        for packet, labelled in ast_oracle(model, model.ingress_packets).items():
            switch, port = packet.get("sw"), packet.get("pt")
            for kind, want in (
                ("delivery", delivered_mass(labelled, dest)), ("distribution", labelled)
            ):
                key = (switch, port, dest, kind)
                expected[key] = want
                requests.append((TEMPLATE % (kind.encode(), switch, port, dest), key))
    return k, dests, requests, ctx.tamper(expected)


def request_stream(rng: random.Random, requests) -> "itertools.cycle":
    """Endless seeded sweeps: every pair once per sweep, 20 % asking for distributions."""
    delivery = [r for r in requests if r[1][3] == "delivery"]
    distribution = [r for r in requests if r[1][3] == "distribution"]
    sweeps = []
    for _ in range(16):
        order = list(range(len(delivery)))
        rng.shuffle(order)
        sweeps += [
            distribution[i] if rng.random() < DISTRIBUTION_SHARE else delivery[i] for i in order
        ]
    return itertools.cycle(sweeps)


# -- the generator --------------------------------------------------------------------

@dataclass
class Phase:
    """Everything one load phase saw, indexed by request id."""

    keys: list = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    received: list[float] = field(default_factory=list)
    replies: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    backlog_at_end: int = 0  # open loop: unanswered when the schedule ended
    wall: float = 0.0  # closed loop: first send to last reply

    def new_request(self, key, due: float) -> int:
        for column, value in (
            (self.keys, key), (self.due, due), (self.sent, 0.0),
            (self.received, 0.0), (self.replies, None), (self.lines, b""),
        ):
            column.append(value)
        return len(self.keys) - 1

    def record(self, line: bytes, now: float) -> None:
        reply = json.loads(line)
        rid = reply["id"]
        self.received[rid], self.replies[rid], self.lines[rid] = now, reply, line

    def answered(self) -> int:
        return sum(1 for reply in self.replies if reply is not None)

    def late_ms(self) -> list[float]:
        return [1e3 * (sent - due) for sent, due in zip(self.sent, self.due)]


async def read_replies(reader, phase: Phase, count: int) -> None:
    for _ in range(count):
        line = await reader.readline()
        now = time.perf_counter()
        if not line:
            return
        phase.record(line, now)


async def open_loop(conns, stream, rate: float, seconds: float, rng: random.Random) -> Phase:
    """Poisson arrivals at ``rate`` in total, one paced sender per connection."""
    phase = Phase()
    schedules = []
    for _conn in conns:
        offset, items = 0.0, []
        while True:
            offset += rng.expovariate(rate / len(conns))
            if offset >= seconds:
                break
            line, key = next(stream)
            items.append((phase.new_request(key, offset), line))
        schedules.append(items)
    origin = time.perf_counter() + 0.05
    phase.due = [origin + offset for offset in phase.due]

    async def send(writer, items) -> None:
        for rid, line in items:
            delay = phase.due[rid] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.sent[rid] = time.perf_counter()
            writer.write(line % rid)
        await writer.drain()

    readers = [
        asyncio.create_task(read_replies(reader, phase, len(items)))
        for (reader, _writer), items in zip(conns, schedules)
    ]
    await asyncio.gather(*(send(writer, items) for (_r, writer), items in zip(conns, schedules)))
    phase.backlog_at_end = len(phase.keys) - phase.answered()
    _done, pending = await asyncio.wait(readers, timeout=REPLY_GRACE_S)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    return phase


async def closed_loop(conns, stream, seconds: float) -> Phase:
    """Keep ``OUTSTANDING`` requests in flight; a reply releases the next request."""
    phase = Phase()
    begin = time.perf_counter()
    deadline = begin + seconds

    async def drive(reader, writer) -> None:
        in_flight = 0

        def issue() -> None:
            nonlocal in_flight
            line, key = next(stream)
            now = time.perf_counter()
            rid = phase.new_request(key, now)
            phase.sent[rid] = now
            writer.write(line % rid)
            in_flight += 1

        for _ in range(max(1, OUTSTANDING // len(conns))):
            issue()
        while in_flight:
            try:
                line = await asyncio.wait_for(reader.readline(), REPLY_GRACE_S)
            except asyncio.TimeoutError:
                return  # the unanswered requests fail the oracle check
            now = time.perf_counter()
            if not line:
                return
            phase.record(line, now)
            in_flight -= 1
            if now < deadline:
                issue()

    await asyncio.gather(*(drive(reader, writer) for reader, writer in conns))
    phase.wall = time.perf_counter() - begin
    return phase


def sweep_spans(phase: Phase, pairs: int) -> list[tuple[float, float]]:
    """(first send, last reply) of every complete all-pairs sweep of a closed loop."""
    spans = []
    for first in range(0, len(phase.keys) - pairs + 1, pairs):
        window = slice(first, first + pairs)
        if all(reply is not None for reply in phase.replies[window]):
            spans.append((min(phase.sent[window]), max(phase.received[window])))
    return spans


def latencies_ms(phase: Phase) -> list[float]:
    """Latency from due time; a lost or refused request never met any limit."""
    return [
        1e3 * (got - due) if reply is not None and "value" in reply else float("inf")
        for got, due, reply in zip(phase.received, phase.due, phase.replies)
    ]


def bucketed(times: list[float], values: list, width: float) -> list[list]:
    """``values`` grouped into windows of ``width`` seconds by their ``times``."""
    origin = min(times)
    buckets = [[] for _ in range(max(1, round((max(times) - origin) / width)))]
    for moment, value in zip(times, values):
        buckets[min(int((moment - origin) / width), len(buckets) - 1)].append(value)
    return buckets


def check_phase(ctx: Context, phase: Phase, expected) -> None:
    """Every request against the oracle; lost and refused requests fail."""
    for key, reply in zip(phase.keys, phase.replies):
        if reply is None or "value" not in reply:
            ctx.check(False)
        else:
            ctx.check_close(reply["value"], expected[key])


async def connect(port: int):
    return [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]


async def disconnect(conns) -> None:
    for _reader, writer in conns:
        writer.close()
        await writer.wait_closed()


async def warm_up(port: int, requests, rng: random.Random) -> None:
    """Set-up's last step: every pair once through the socket, then a second of load."""
    conns = await connect(port)
    try:
        phase = Phase()
        for index, (line, key) in enumerate(requests):
            conns[index % len(conns)][1].write(line % phase.new_request(key, 0.0))
        counts = [len(requests[i::len(conns)]) for i in range(len(conns))]
        await asyncio.gather(*(
            read_replies(reader, phase, count) for (reader, _w), count in zip(conns, counts)
        ))
        await open_loop(conns, request_stream(rng, requests), OPEN_RATE, WARM_SECONDS, rng)
    finally:
        await disconnect(conns)


def served(ctx: Context, k, dests, requests):
    """A fresh, warmed server as a timed set-up; stopped again on every way out."""
    def build():
        server, port = start_server(k, dests)
        try:
            asyncio.run(warm_up(port, requests, ctx.rng))
        except BaseException:
            stop_server(server)
            raise
        return server, port

    return ctx.fresh(build, teardown=lambda state: stop_server(state[0]))


def reply_rates(phase: Phase) -> list[float]:
    """Replies per second over consecutive chunks of a closed loop, its first chunk dropped."""
    answered = sorted(
        got for got, reply in zip(phase.received, phase.replies) if reply is not None
    )
    edges = answered[::RATE_CHUNK]
    rates = [RATE_CHUNK / (end - start) for start, end in zip(edges, edges[1:])]
    return rates[1:] or rates or [len(answered) / phase.wall]


# -- untraced: the end-to-end metrics -------------------------------------------------

def measure(ctx: Context) -> Measured:
    k, dests, requests, expected = inputs(ctx)
    stream = request_stream(ctx.rng, requests)
    share = ctx.segment_seconds

    async def load(port):
        conns = await connect(port)
        try:
            opened = await open_loop(conns, stream, OPEN_RATE, 0.6 * share, ctx.rng)
            closed = await closed_loop(conns, stream, 0.4 * share)
        finally:
            await disconnect(conns)
        return opened, closed

    rates, windows = [], []
    for _ in range(ctx.setup_reps):
        with served(ctx, k, dests, requests) as (_server, port):
            ctx.settle()
            opened, closed = asyncio.run(load(port))
        check_phase(ctx, opened, expected)
        check_phase(ctx, closed, expected)
        rates += reply_rates(closed)
        windows += bucketed(opened.due, latencies_ms(opened), LATENCY_WINDOW_S)
    return Measured([], len(requests) // 2, rates, windows)


# -- traced: per-rate phases, server introspection, generator cost ------------------------

async def control(conn, payload: dict) -> dict:
    reader, writer = conn
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def trace(ctx: Context) -> dict[str, float]:
    k, dests, requests, expected = inputs(ctx)
    pairs = len(requests) // 2
    rec = ctx.rec
    share = ctx.seconds / (len(TRACE_RATES) + 2)

    async def load(port):
        conns = await connect(port)
        try:
            for _ in range(PINGS):
                with ctx.span("server.ping"):
                    await control(conns[0], {"op": "ping", "id": 0})
            stream = request_stream(ctx.rng, requests)
            before = (await control(conns[0], {"op": "stats", "id": 0}))["stats"]["coalescer"]
            phases = {
                rate: await open_loop(conns, stream, rate, share, ctx.rng) for rate in TRACE_RATES
            }
            plain = await closed_loop(conns, stream, share)
            traced = await closed_loop(conns, stream, share)
            after = (await control(conns[0], {"op": "stats", "id": 0}))["stats"]["coalescer"]
        finally:
            await disconnect(conns)
        return phases, plain, traced, before, after

    with served(ctx, k, dests, requests) as (_server, port):
        ctx.settle()
        phases, plain, traced, before, after = asyncio.run(load(port))
    for phase in (*phases.values(), plain, traced):
        check_phase(ctx, phase, expected)
    # The traced closed loop becomes spans: a sweep, and under it its requests.
    for start, end in sweep_spans(traced, pairs):
        rec.add("sweep", start, end, None, 0)
    sweeps = [i for i, span in enumerate(rec.spans) if span[0] == "sweep"]
    for rid, reply in enumerate(traced.replies):
        if reply is not None and rid // pairs < len(sweeps):
            rec.add(
                "request", traced.sent[rid], traced.received[rid], sweeps[rid // pairs],
                1 + rid % OUTSTANDING,
            )
    # All JSON work one query causes, replayed here on the recorded lines:
    # the server's decode and encode, and the generator's decode.
    template = {key: line for line, key in requests}
    sample = [
        (template[key] % rid, reply, line)
        for rid, (key, reply, line) in enumerate(zip(traced.keys, traced.replies, traced.lines))
        if reply is not None
    ][:2000]
    with ctx.span("generator.json"):
        for request_line, reply, reply_line in sample:
            json.loads(request_line)
            json.dumps(reply)
            json.loads(reply_line)
    json_us = 1e6 * rec.total("generator.json") / len(sample)
    tail = {rate: percentile(latencies_ms(phase), 99) for rate, phase in phases.items()}
    sustained = [
        rate for rate, phase in phases.items()
        if tail[rate] <= LATENCY_LIMIT_MS
        and phase.answered() == len(phase.keys)
        and phase.backlog_at_end <= rate * LATENCY_LIMIT_MS / 1e3
    ]
    batches = after["batches"] - before["batches"]
    all_replies = [
        reply for phase in (*phases.values(), plain, traced)
        for reply in phase.replies if reply is not None
    ]
    top = phases[max(TRACE_RATES)]
    return {
        "server.ping_rtt_ms": 1e3 * statistics.median(rec.durations("server.ping")),
        "server.json_us_per_query": json_us,
        "coalesce.batches": batches,
        "coalesce.batch_mean": (
            (after["coalesced_queries"] - before["coalesced_queries"]) / batches if batches else 0.0
        ),
        "coalesce.overloaded": after["overloaded"] - before["overloaded"],
        "session.cache_hit_share": (
            sum(1 for reply in all_replies if reply.get("cached")) / len(all_replies)
        ),
        "stream.latency_p99_ms_at_500": tail[500],
        "stream.latency_p99_ms_at_2000": tail[2000],
        "stream.rate_ok_qps": max(sustained, default=0),
        "stream.generator_late_p99_ms": max(
            percentile(phase.late_ms(), 99) for phase in phases.values()
        ),
        "stream.backlog_at_end": top.backlog_at_end,
        "trace.overhead_pct": 100.0 * (
            (plain.answered() / plain.wall) / (traced.answered() / traced.wall) - 1.0
        ),
        "residual_share": rec.residual_share("sweep"),
    }
