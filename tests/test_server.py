"""Tests for the streaming front end: admission coalescing
(``repro.service.coalesce``), the asyncio JSON-lines server
(``repro.service.server``), and the CLI ``serve`` subcommand."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.analysis.queries import delivery_probability
from repro.network.model import build_model
from repro.routing import ecmp_policy
from repro.service import (
    AnalysisSession,
    BatchCoalescer,
    DeadlineExceeded,
    Overloaded,
    Query,
    QueryServer,
    ShuttingDown,
    StreamClient,
)
from repro.service.cli import serve_main
from repro.topology import edge_switches, fat_tree

from polling import wait_until


def ecmp_model(topo, dest: int):
    return build_model(topo, routing=ecmp_policy(topo, dest), dest=dest)


@pytest.fixture(scope="module")
def topo():
    return fat_tree(4)


@pytest.fixture(scope="module")
def models(topo):
    return {dest: ecmp_model(topo, dest) for dest in edge_switches(topo)[:2]}


@pytest.fixture(scope="module")
def all_pairs(models):
    return [
        Query.delivery(packet, dest)
        for dest, model in models.items()
        for packet in model.ingress_packets
    ]


@pytest.fixture(scope="module")
def per_call_values(models, all_pairs):
    return [
        delivery_probability(models[query.dest], inputs=[query.ingress])
        for query in all_pairs
    ]


@pytest.fixture()
def session(models):
    with AnalysisSession(models=models.values(), workers=4) as session:
        yield session


def wire(query: Query) -> dict:
    """The JSON-lines message for one query (the CLI batch-file shape)."""
    return {
        "kind": query.kind,
        "ingress": [query.ingress["sw"], query.ingress["pt"]],
        "dest": query.dest,
    }


# ---------------------------------------------------------------------------
# BatchCoalescer: the admission window, in-process
# ---------------------------------------------------------------------------
class TestCoalescer:
    def test_window_coalesces_across_submitters(self, session, all_pairs, per_call_values):
        """Concurrent single submissions within one window become one batch."""

        async def run():
            coalescer = BatchCoalescer(session, window=0.05)
            answers = await asyncio.gather(
                *[coalescer.submit(query) for query in all_pairs]
            )
            await coalescer.aclose()
            return answers, coalescer.stats()

        answers, stats = asyncio.run(run())
        assert stats["batches"] == 1
        assert stats["batch_mean"] == len(all_pairs)
        assert all(answer.batch == len(all_pairs) for answer in answers)
        for answer, expected in zip(answers, per_call_values):
            assert answer.value == pytest.approx(expected, abs=1e-9)

    def test_window_zero_disables_coalescing(self, session, all_pairs, per_call_values):
        async def run():
            coalescer = BatchCoalescer(session, window=0.0)
            answers = [await coalescer.submit(query) for query in all_pairs[:6]]
            await coalescer.aclose()
            return answers, coalescer.stats()

        answers, stats = asyncio.run(run())
        assert stats["batches"] == 6
        assert stats["batch_mean"] == 1.0
        assert all(answer.batch == 1 for answer in answers)
        for answer, expected in zip(answers, per_call_values):
            assert answer.value == pytest.approx(expected, abs=1e-9)

    def test_max_batch_dispatches_early(self, session, all_pairs):
        async def run():
            coalescer = BatchCoalescer(session, window=30.0, max_batch=4)
            answers = await asyncio.gather(
                *[coalescer.submit(query) for query in all_pairs[:8]]
            )
            await coalescer.aclose()
            return answers, coalescer.stats()

        answers, stats = asyncio.run(run())
        # A 30 s window never fires in-test: only the max_batch early
        # dispatch can have answered, in two full batches of four.
        assert stats["batches"] == 2
        assert all(answer.batch == 4 for answer in answers)

    def test_pre_expired_deadline_rejected_at_admission(self, session, all_pairs):
        async def run():
            coalescer = BatchCoalescer(session, window=0.05)
            with pytest.raises(DeadlineExceeded):
                await coalescer.submit(all_pairs[0], deadline=time.monotonic() - 1)
            await coalescer.aclose()
            return coalescer.stats()

        stats = asyncio.run(run())
        assert stats["deadline_exceeded"] == 1
        assert stats["outstanding"] == 0

    def test_deadline_expires_inside_window(self, session, all_pairs):
        """A deadline shorter than the window fails at dispatch, not silently."""

        async def run():
            coalescer = BatchCoalescer(session, window=0.2)
            doomed = coalescer.submit_nowait(
                all_pairs[0], deadline=time.monotonic() + 0.01
            )
            alive = coalescer.submit_nowait(all_pairs[1])
            with pytest.raises(DeadlineExceeded):
                await doomed
            answer = await alive
            await coalescer.aclose()
            return answer, coalescer.stats()

        answer, stats = asyncio.run(run())
        assert answer.batch == 1  # the doomed entry never reached dispatch
        assert stats["deadline_exceeded"] == 1
        assert stats["answered"] == 1
        assert stats["outstanding"] == 0

    def test_backpressure_bounds_outstanding(self, session, all_pairs):
        async def run():
            coalescer = BatchCoalescer(session, window=0.5, max_pending=2)
            first = coalescer.submit_nowait(all_pairs[0])
            second = coalescer.submit_nowait(all_pairs[1])
            with pytest.raises(Overloaded) as excinfo:
                coalescer.submit_nowait(all_pairs[2])
            assert excinfo.value.retryable
            await coalescer.aclose()  # flushes and answers the two admitted
            return await first, await second, coalescer.stats()

        first, second, stats = asyncio.run(run())
        assert first.batch == second.batch == 2
        assert stats["overloaded"] == 1
        assert stats["outstanding"] == 0

    def test_poisoned_batch_is_isolated(self, session, all_pairs, per_call_values):
        """One unknown-destination query must not take down its window."""
        poison = Query.delivery((1, 1), 99)  # dest 99: no model, no factory

        async def run():
            coalescer = BatchCoalescer(session, window=0.05)
            good = [coalescer.submit_nowait(query) for query in all_pairs[:3]]
            bad = coalescer.submit_nowait(poison)
            answers = await asyncio.gather(*good)
            with pytest.raises(KeyError, match="99"):
                await bad
            await coalescer.aclose()
            return answers, coalescer.stats()

        answers, stats = asyncio.run(run())
        assert stats["isolation_retries"] == 1
        assert stats["outstanding"] == 0
        for answer, expected in zip(answers, per_call_values):
            assert answer.value == pytest.approx(expected, abs=1e-9)
            assert answer.batch == 1  # answered by the per-query retry pass

    def test_aclose_drains_then_refuses(self, session, all_pairs):
        async def run():
            coalescer = BatchCoalescer(session, window=5.0)
            pending = [coalescer.submit_nowait(query) for query in all_pairs[:4]]
            await coalescer.aclose()  # flushes the un-fired 5 s window
            answers = [await future for future in pending]
            with pytest.raises(ShuttingDown):
                coalescer.submit_nowait(all_pairs[0])
            return answers

        answers = asyncio.run(run())
        assert len(answers) == 4
        assert all(answer.batch == 4 for answer in answers)


# ---------------------------------------------------------------------------
# QueryServer over TCP, in-process and process-hosted replicas
# ---------------------------------------------------------------------------
class TestServer:
    @pytest.mark.parametrize("pool_mode", ["thread", "process"])
    def test_concurrent_clients_agree_with_per_call(
        self, models, all_pairs, per_call_values, pool_mode
    ):
        """Streamed queries from many clients match ``repro.analysis``
        per-call results within 1e-9, and coalesce across clients."""
        n_clients = 4

        async def client(port, share):
            conn = await StreamClient.connect("127.0.0.1", port)
            replies = await asyncio.gather(
                *[conn.request(wire(query)) for query in share]
            )
            await conn.aclose()
            return replies

        async def run(session):
            async with QueryServer(session, window=0.05) as server:
                shares = [all_pairs[i::n_clients] for i in range(n_clients)]
                return await asyncio.gather(
                    *[client(server.port, share) for share in shares]
                )

        with AnalysisSession(
            models=models.values(),
            workers=4,
            pool_size=2 if pool_mode == "process" else 1,
            pool_mode=pool_mode,
        ) as session:
            outcomes = asyncio.run(run(session))

        expected = {
            id(query): value for query, value in zip(all_pairs, per_call_values)
        }
        batched = []
        for share, replies in zip(
            [all_pairs[i::n_clients] for i in range(n_clients)], outcomes
        ):
            for query, reply in zip(share, replies):
                assert "error" not in reply, reply
                assert reply["value"] == pytest.approx(
                    expected[id(query)], abs=1e-9
                )
                batched.append(reply["batched"])
        # Cross-client coalescing: replies carry multi-query batch sizes.
        assert max(batched) > 1

    def test_deadline_backpressure_and_bad_request(self, session, all_pairs):
        async def run():
            async with QueryServer(
                session, window=0.3, max_pending=3
            ) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                first = await conn.send(wire(all_pairs[0]))
                second = await conn.send(wire(all_pairs[1]))
                # Deadline: admitted, but expires inside the long window.
                doomed = await conn.send({**wire(all_pairs[3]), "deadline_ms": 1})
                # Backpressure: the fourth in-window query overflows
                # max_pending and is refused with a retryable error.
                overloaded = await conn.request(wire(all_pairs[2]))
                assert overloaded["error"]["code"] == "overloaded"
                assert overloaded["error"]["retry"] is True
                # Bad requests answer immediately, before the window fires.
                missing = await conn.request({"kind": "delivery", "dest": 1})
                assert missing["error"]["code"] == "bad-request"
                unknown_op = await conn.request({"op": "nope"})
                assert unknown_op["error"]["code"] == "bad-request"
                replies = await asyncio.gather(first, second, doomed)
                await conn.aclose()
                return replies

        first, second, doomed = asyncio.run(run())
        assert "error" not in first and "error" not in second
        assert doomed["error"]["code"] == "deadline-exceeded"
        assert doomed["error"]["retry"] is False

    def test_ping_and_stats_ops(self, session, all_pairs):
        async def run():
            async with QueryServer(session, window=0.01) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                pong = await conn.request({"op": "ping"})
                await conn.request(wire(all_pairs[0]))
                stats = (await conn.request({"op": "stats"}))["stats"]
                await conn.aclose()
                return pong, stats

        pong, stats = asyncio.run(run())
        assert pong["pong"] is True
        assert stats["queries_answered"] >= 1
        assert stats["coalescer"]["answered"] >= 1
        assert stats["pool"]["mode"] == "thread"

    def test_midstream_shutdown_drains_inflight_replies(self, models, all_pairs):
        """stop() during an open admission window loses no admitted query."""

        async def run(session):
            server = QueryServer(session, window=5.0, owns_session=True)
            await server.start()
            conn = await StreamClient.connect("127.0.0.1", server.port)
            # Admitted into a 5 s window that will never fire on its own:
            # only the shutdown drain can flush and answer these.
            pending = [await conn.send(wire(query)) for query in all_pairs[:6]]
            # The server has read every line once all six are admitted.
            admitted = lambda: server.coalescer.stats()["submitted"] == 6
            assert await asyncio.to_thread(wait_until, admitted)
            await server.stop()
            replies = await asyncio.gather(*pending)
            # The drained connection is closed once its replies are out:
            # a later request fails loudly instead of hanging forever.
            with pytest.raises(ConnectionError):
                await conn.request(wire(all_pairs[6]))
            await conn.aclose()
            return replies

        session = AnalysisSession(models=models.values(), workers=2)
        replies = asyncio.run(run(session))
        assert session._closed  # owns_session: drained, then closed
        for reply in replies:
            assert "error" not in reply, reply
            assert reply["batched"] == 6

    def test_stop_is_idempotent_and_unowned_session_survives(self, session):
        async def run():
            server = QueryServer(session, window=0.01)
            await server.start()
            await server.stop()
            await server.stop()

        asyncio.run(run())
        assert not session._closed

    @pytest.mark.parametrize("seconds", [0.0, -0.005, float("inf"), float("nan")])
    def test_default_deadline_must_be_positive_and_finite(self, session, seconds):
        with pytest.raises(ValueError, match="default_deadline"):
            QueryServer(session, default_deadline=seconds)

    def test_past_per_query_deadline_is_deadline_exceeded(self, session, all_pairs):
        """A client's own ``deadline_ms`` may be spent already: that query
        is answered ``deadline-exceeded``, not refused as a bad request."""

        async def run():
            async with QueryServer(session, window=0.01, default_deadline=30.0) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                reply = await conn.request({**wire(all_pairs[0]), "deadline_ms": -5})
                await conn.aclose()
                return reply

        reply = asyncio.run(run())
        assert reply["error"]["code"] == "deadline-exceeded"


#: ``(entry point, argv, message fragment)``: bad input met while setting
#: up, reported by ``python -m repro.service [serve]`` as a one-line error.
#: ``{name}`` stands for a query file the test writes.
BAD_INPUT = [
    ("batch", ["--all-pairs", "--workers", "0"], "workers must be >= 1"),
    ("serve", ["--workers", "0"], "workers must be >= 1"),
    ("serve", ["--max-batch", "0"], "max_batch must be >= 1"),
    ("serve", ["--max-pending", "0"], "max_pending must be >= 1"),
    ("serve", ["--max-line-kib", "0"], "max_line_bytes must be >= 1024"),
    ("batch", ["--all-pairs", "--topology", "fattree:3"], "even integer"),
    ("serve", ["--topology", "fattree:3"], "even integer"),
    (
        "batch",
        ["--all-pairs", "--scheme", "f10_0", "--max-failures", "-1"],
        "max_failures must be non-negative",
    ),
    (
        "serve",
        ["--scheme", "f10_0", "--max-failures", "-1"],
        "max_failures must be non-negative",
    ),
    (
        "batch",
        ["--all-pairs", "--scheme", "ecmp", "--max-failures", "1"],
        "--scheme ecmp takes none",
    ),
    (
        "serve",
        ["--scheme", "ecmp", "--failure-prob", "0.1", "--max-failures", "-1"],
        "--scheme ecmp takes none",
    ),
    ("serve", ["--deadline-ms", "-5"], "default_deadline must be positive"),
    ("serve", ["--deadline-ms", "nan"], "default_deadline must be positive"),
    ("batch", ["--queries", "{missing}"], "No such file"),
    ("batch", ["--queries", "{not-json}"], "Expecting value"),
    ("batch", ["--queries", "{unknown-kind}"], "unknown query kind"),
    ("batch", ["--queries", "{bad-ingress}"], "ingress"),
    ("batch", ["--queries", "{dest-99}"], "destination switch 99"),
    # Usage errors: argparse exits with code 2 and prints the message.
    ("batch", ["--all-pairs", "--backend", "matrix"], 2),
    ("serve", ["--backend", "matrix"], 2),
]


# ---------------------------------------------------------------------------
# CLI: python -m repro.service serve
# ---------------------------------------------------------------------------
class TestServeCommand:
    def test_serve_end_to_end(self, capsys):
        holder: dict[str, object] = {}
        ready = threading.Event()

        def started(server):
            holder["server"] = server
            ready.set()

        thread = threading.Thread(
            target=serve_main,
            args=(
                [
                    "--topology",
                    "fattree:4",
                    "--dest",
                    "1",
                    "--window-ms",
                    "10",
                    "--deadline-ms",
                    "30000",
                ],
                started,
            ),
        )
        thread.start()
        try:
            assert ready.wait(timeout=60), "serve did not start"
            server = holder["server"]

            async def drive():
                conn = await StreamClient.connect("127.0.0.1", server.port)
                topo = fat_tree(4)
                queries = [
                    {"ingress": [sw, pt], "dest": 1}
                    for sw, pt in topo.ingress_locations(exclude=[1])
                ]
                replies = await asyncio.gather(
                    *[conn.request(message) for message in queries]
                )
                await conn.aclose()
                return replies

            replies = asyncio.run(drive())
            assert all("error" not in reply for reply in replies)
            assert all(0.0 <= reply["value"] <= 1.0 for reply in replies)
            assert max(reply["batched"] for reply in replies) > 1
        finally:
            holder["server"].request_stop()
            thread.join(timeout=60)
        assert not thread.is_alive()

    def test_serve_flag_validation(self):
        with pytest.raises(SystemExit):
            serve_main(["--window-ms", "-1"])
        with pytest.raises(SystemExit):
            serve_main(["--pool-size", "0"])
        # More than one replica needs worker processes.
        with pytest.raises(SystemExit, match="--pool-mode process"):
            serve_main(["--pool-size", "3"])

    @pytest.mark.parametrize(
        "entry, argv, message",
        BAD_INPUT,
        ids=[f"{entry} {' '.join(argv)}" for entry, argv, _ in BAD_INPUT],
    )
    def test_bad_input_is_a_one_line_error(self, tmp_path, capsys, entry, argv, message):
        from repro.service import cli

        files = {
            "{missing}": None,
            "{not-json}": "nope",
            "{unknown-kind}": '[{"kind": "bogus", "ingress": [2, 3], "dest": 1}]',
            "{bad-ingress}": '[{"ingress": "x", "dest": 1}]',
            "{dest-99}": '[{"ingress": [2, 3], "dest": 99}]',
        }
        resolved = []
        for arg in argv:
            if arg in files:
                path = tmp_path / "queries.json"
                if files[arg] is not None:
                    path.write_text(files[arg])
                arg = str(path)
            resolved.append(arg)
        run = cli.serve_main if entry == "serve" else cli.main
        with pytest.raises(SystemExit) as exit_info:
            run(resolved)
        if message == 2:
            assert exit_info.value.code == 2
            assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
            return
        text = str(exit_info.value.code)
        assert message in text
        assert "\n" not in text and exit_info.value.__suppress_context__

    def test_main_dispatches_serve(self, monkeypatch):
        from repro.service import cli

        seen: dict[str, object] = {}

        def fake_serve_main(argv):
            seen["argv"] = argv
            return 0

        monkeypatch.setattr(cli, "serve_main", fake_serve_main)
        assert cli.main(["serve", "--port", "7"]) == 0
        assert seen["argv"] == ["--port", "7"]


# ---------------------------------------------------------------------------
# Session async surface
# ---------------------------------------------------------------------------
class TestAsyncSubmission:
    def test_submit_batch_returns_future(self, session, all_pairs, per_call_values):
        handle = session.submit_batch(all_pairs[:4])
        results = handle.result(timeout=60)
        for result, expected in zip(results.results, per_call_values):
            assert result.value == pytest.approx(expected, abs=1e-9)

    def test_query_batch_async(self, session, all_pairs, per_call_values):
        async def run():
            return await session.query_batch_async(all_pairs[:4])

        results = asyncio.run(run())
        for result, expected in zip(results.results, per_call_values):
            assert result.value == pytest.approx(expected, abs=1e-9)

    def test_submit_batch_on_closed_session_raises(self, models):
        session = AnalysisSession(models=models.values(), workers=1)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.submit_batch([])


# ---------------------------------------------------------------------------
# Replica-failure classification and client-side retry backoff
# ---------------------------------------------------------------------------
class TestFailureClassification:
    def test_replica_failures_classify_retryable(self):
        from repro.service.coalesce import Unavailable, classify_failure
        from repro.service.pool import PoolUnavailable, ReplicaFailure

        for error in (
            ReplicaFailure("worker 1 (pid 7) died while serving 'query'"),
            PoolUnavailable("all 2 replica(s) are dead"),
        ):
            mapped = classify_failure(error)
            assert isinstance(mapped, Unavailable)
            assert mapped.retryable is True
            assert mapped.code == "unavailable"
            assert mapped.__cause__ is error
        # Semantic failures pass through untouched: retrying cannot help.
        semantic = KeyError("99")
        assert classify_failure(semantic) is semantic

    def test_pool_failure_fails_batch_retryable(self, session, all_pairs, monkeypatch):
        """A poisoned batch whose cause is the *pool* (not a query) fails
        every entry with the retryable Unavailable, not a terminal error."""
        from repro.service import Unavailable
        from repro.service.pool import PoolUnavailable

        def doomed(*args, **kwargs):
            raise PoolUnavailable("all replicas dead")

        monkeypatch.setattr(session, "query_batch", doomed)

        async def run():
            coalescer = BatchCoalescer(session, window=0.01)
            with pytest.raises(Unavailable) as excinfo:
                await coalescer.submit(all_pairs[0])
            await coalescer.aclose()
            return excinfo.value, coalescer.stats()

        error, stats = asyncio.run(run())
        assert error.retryable is True
        assert stats["unavailable"] == 1
        assert stats["outstanding"] == 0

    def test_server_maps_pool_failure_to_unavailable_wire_error(
        self, session, all_pairs, monkeypatch
    ):
        from repro.service.pool import PoolUnavailable

        def doomed(*args, **kwargs):
            raise PoolUnavailable("all 1 replica(s) are dead")

        monkeypatch.setattr(session, "query_batch", doomed)

        async def run():
            async with QueryServer(session, window=0.01) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                reply = await conn.request(wire(all_pairs[0]))
                await conn.aclose()
                return reply

        reply = asyncio.run(run())
        assert reply["error"]["code"] == "unavailable"
        assert reply["error"]["retry"] is True

    def test_stats_expose_supervision_counters(self, session):
        async def run():
            async with QueryServer(session, window=0.01) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                stats = (await conn.request({"op": "stats"}))["stats"]
                await conn.aclose()
                return stats

        stats = asyncio.run(run())
        assert stats["pool"] == {"mode": "thread", "size": 1, "dead": []}

    def test_replica_crash_in_a_coalesced_batch_is_not_isolated(
        self, session, all_pairs, monkeypatch
    ):
        """A replica crash is no query's fault: every query of the window
        gets the retryable Unavailable at once, none is re-dispatched."""
        from repro.service import Unavailable
        from repro.service.pool import ReplicaFailure

        calls: list[int] = []

        def crash(batch, **kwargs):
            calls.append(len(batch))
            raise ReplicaFailure("worker 0 (pid 7) died while serving 'query'")

        monkeypatch.setattr(session, "query_batch", crash)

        async def run():
            coalescer = BatchCoalescer(session, window=0.05)
            pending = [coalescer.submit_nowait(query) for query in all_pairs[:3]]
            outcomes = await asyncio.gather(*pending, return_exceptions=True)
            await coalescer.aclose()
            return outcomes, coalescer.stats()

        outcomes, stats = asyncio.run(run())
        assert calls == [3]
        assert [type(outcome) for outcome in outcomes] == [Unavailable] * 3
        assert stats["isolation_retries"] == 0
        assert stats["unavailable"] == 3


class TestClientBackoff:
    """StreamClient.request(retries=...) against a scripted fake server."""

    @staticmethod
    def _scripted_server(script):
        """An asyncio JSON-lines server answering per the scripted replies.

        ``script`` maps the 1-based attempt number to either the string
        ``"ok"`` (answer with a value) or an error code (answer with that
        wire error).  Later attempts reuse the last entry.
        """
        import json

        from repro.service.wire import error_payload

        attempts: list[dict] = []

        async def handle(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = json.loads(line)
                attempts.append(message)
                action = script[min(len(attempts), len(script)) - 1]
                if action == "ok":
                    body = {"id": message["id"], "value": 1.0}
                else:
                    body = {
                        "id": message["id"],
                        "error": error_payload(action, f"scripted {action}"),
                    }
                writer.write(json.dumps(body).encode("utf-8") + b"\n")
                await writer.drain()
            writer.close()

        return handle, attempts

    def _drive(self, script, retries):
        async def run():
            handle, attempts = self._scripted_server(script)
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            conn = await StreamClient.connect("127.0.0.1", port)
            reply = await conn.request(
                {"kind": "delivery"}, retries=retries, backoff=0.001
            )
            client_retries = conn.retries
            await conn.aclose()
            server.close()
            await server.wait_closed()
            return reply, client_retries, attempts

        return asyncio.run(run())

    def test_retryable_errors_resent_until_success(self):
        reply, retries, attempts = self._drive(
            ["unavailable", "overloaded", "ok"], retries=5
        )
        assert reply["value"] == 1.0
        assert retries == 2
        assert len(attempts) == 3
        # Every attempt is a fresh request with its own correlation id.
        assert len({message["id"] for message in attempts}) == 3

    def test_retries_exhausted_returns_last_error(self):
        reply, retries, attempts = self._drive(["unavailable"], retries=2)
        assert reply["error"]["code"] == "unavailable"
        assert retries == 2
        assert len(attempts) == 3

    def test_terminal_errors_are_not_retried(self):
        reply, retries, attempts = self._drive(["bad-request"], retries=5)
        assert reply["error"]["code"] == "bad-request"
        assert retries == 0
        assert len(attempts) == 1


# ---------------------------------------------------------------------------
# Line limits: large requests served, oversize refused in-protocol
# ---------------------------------------------------------------------------
class TestLineLimits:
    def test_request_line_over_64k_is_served(
        self, session, all_pairs, per_call_values
    ):
        """Regression: a >64 KiB request line must be served, not dropped.

        asyncio's default StreamReader limit is 64 KiB and ``readline``
        *raises* past it, which used to kill the connection for any
        large-but-valid line; the server now raises the stream limit to
        ``max_line_bytes`` (default 1 MiB).
        """
        message = wire(all_pairs[0])
        message["pad"] = "x" * (128 * 1024)  # ignored extra field
        assert len(str(message)) > 64 * 1024

        async def run():
            async with QueryServer(session, window=0.0) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port)
                reply = await conn.request(message)
                await conn.aclose()
                return reply

        reply = asyncio.run(run())
        assert "error" not in reply
        assert reply["value"] == pytest.approx(per_call_values[0], abs=1e-9)

    def test_oversize_line_refused_without_dropping_connection(
        self, session, all_pairs, per_call_values
    ):
        """Past ``max_line_bytes`` the server answers a non-retryable
        ``too-large`` error and keeps serving the same connection."""
        import json

        query = wire(all_pairs[0])

        async def run():
            async with QueryServer(
                session, window=0.0, max_line_bytes=4096
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                big = dict(query, id=1, pad="x" * (64 * 1024))
                writer.write(json.dumps(big).encode() + b"\n")
                await writer.drain()
                refused = json.loads(await reader.readline())
                # The same connection still serves ordinary queries.
                writer.write(json.dumps(dict(query, id=2)).encode() + b"\n")
                await writer.drain()
                served = json.loads(await reader.readline())
                stats = server.stats()
                writer.close()
                await writer.wait_closed()
                return refused, served, stats

        refused, served, stats = asyncio.run(run())
        assert refused["error"]["code"] == "too-large"
        assert refused["error"]["retry"] is False
        assert served["id"] == 2
        assert served["value"] == pytest.approx(per_call_values[0], abs=1e-9)
        assert stats["oversize_refused"] == 1

    def test_client_refuses_a_line_over_its_limit(self, session, all_pairs, per_call_values):
        """``StreamClient.send`` raises for a line the server would discard
        unparsed (that reply carries ``"id": null``, which no request
        awaits); nothing is written and the connection keeps serving."""
        query = wire(all_pairs[0])

        async def run():
            async with QueryServer(session, window=0.0, max_line_bytes=4096) as server:
                conn = await StreamClient.connect("127.0.0.1", server.port, limit=4096)
                with pytest.raises(ValueError, match="4096-byte line limit"):
                    await conn.send(dict(query, pad="x" * (64 * 1024)))
                served = await conn.request(query)
                stats = server.stats()
                await conn.aclose()
                return served, stats

        served, stats = asyncio.run(run())
        assert served["value"] == pytest.approx(per_call_values[0], abs=1e-9)
        assert stats["oversize_refused"] == 0

    def test_max_line_bytes_is_validated(self, session):
        with pytest.raises(ValueError, match="max_line_bytes"):
            QueryServer(session, max_line_bytes=100)
