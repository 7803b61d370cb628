"""Tests for remote replica hosts (``repro.service.host`` +
``RemoteReplicas``), happy path.

Everything here runs against in-process :class:`HostServer` instances on
localhost TCP — real sockets, real worker processes, but no induced
failures (partitions, host kills, and reconnect storms live in
``test_chaos.py`` under the ``chaos`` marker).  The core claim: remote
pools speak the *unchanged* lease/affinity/steal protocol, so answers
agree with the process pool and per-call analysis to 1e-9 under every
planner, and remote workers are spec-fed (0 AST compilations) exactly
like local ones.
"""

from __future__ import annotations

import pytest

from repro.analysis.queries import delivery_probability
from repro.backends import MatrixBackend
from repro.failure.models import independent_failure_program
from repro.network.model import build_model
from repro.routing import downward_failable_ports, ecmp_policy
from repro.service import AnalysisSession, HostServer, Query
from repro.service.procpool import open_pool, parse_host_list
from repro.topology import edge_switches, fat_tree


def ecmp_model(topo, dest: int):
    failable = downward_failable_ports(topo)
    return build_model(
        topo,
        routing=ecmp_policy(topo, dest),
        dest=dest,
        failure=independent_failure_program(failable, 1 / 1000),
        failable=failable,
    )


@pytest.fixture(scope="module")
def topo():
    return fat_tree(4)


@pytest.fixture(scope="module")
def all_models(topo):
    return {dest: ecmp_model(topo, dest) for dest in edge_switches(topo)}


@pytest.fixture(scope="module")
def all_pairs(all_models):
    """The 112-pair all-pairs delivery batch of the acceptance criterion."""
    batch = [
        Query.delivery(packet, dest)
        for dest, model in all_models.items()
        for packet in model.ingress_packets
    ]
    assert len(batch) == 112
    return batch


@pytest.fixture(scope="module")
def per_call_values(all_models, all_pairs):
    with MatrixBackend() as backend:
        return [
            delivery_probability(
                all_models[query.dest], inputs=[query.ingress], backend=backend
            )
            for query in all_pairs
        ]


@pytest.fixture(scope="module")
def process_values(all_models, all_pairs):
    """Reference answers from the local process pool (same batch)."""
    with AnalysisSession(
        models=all_models.values(), pool_size=4, pool_mode="process", workers=4
    ) as session:
        return session.query_batch(all_pairs).values


@pytest.fixture(scope="module")
def host_daemon():
    """One in-process worker host on an ephemeral localhost port."""
    with HostServer(workers=4).start() as server:
        yield server


def host_addr(server: HostServer) -> str:
    return f"{server.address[0]}:{server.port}"


class TestParseHostList:
    def test_accepts_strings_and_pairs(self):
        parsed = parse_host_list(["127.0.0.1:7001", ("10.0.0.2", 7002)])
        assert parsed == [("127.0.0.1", 7001), ("10.0.0.2", 7002)]

    def test_rejects_portless_spec(self):
        with pytest.raises(ValueError):
            parse_host_list(["localhost"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_host_list([])


class TestRemoteAgreement:
    def test_all_pairs_agreement_across_planners(
        self, host_daemon, all_models, all_pairs, per_call_values, process_values
    ):
        """The acceptance criterion's exactness half: localhost TCP remote
        answers match the process pool and per-call analysis within 1e-9
        under every planner, spec-fed only."""
        address = host_addr(host_daemon)
        for planner in ("destination", "ingress:8", "round-robin:4"):
            with AnalysisSession(
                models=all_models.values(),
                pool_size=4,
                pool_mode="remote",
                hosts=[address],
                workers=4,
                planner=planner,
            ) as session:
                served = session.query_batch(all_pairs)
                for value, process_value, per_call in zip(
                    served.values, process_values, per_call_values
                ):
                    assert value == pytest.approx(process_value, abs=1e-9)
                    assert value == pytest.approx(per_call, abs=1e-9)
                reports = session.pool.worker_reports()
                assert len(reports) == 4
                # Remote workers rebuilt every plan from shipped specs.
                assert all(report["ast_compilations"] == 0 for report in reports)
                assert all(report["host"] == address for report in reports)
                assert all(report["transport"] == "tcp" for report in reports)
                assert sum(report["queries"] for report in reports) >= len(all_pairs)

    def test_shards_report_remote_mode_and_real_pids(
        self, host_daemon, all_models, all_pairs
    ):
        import os

        with AnalysisSession(
            models=all_models.values(),
            pool_size=2,
            pool_mode="remote",
            hosts=[host_addr(host_daemon)],
            workers=2,
        ) as session:
            result = session.query_batch(all_pairs)
            pids = {pid for report in result.shards for pid in report.workers}
            assert len(pids) > 1
            assert os.getpid() not in pids
            assert all(report.pool_mode == "remote" for report in result.shards)


class TestRemoteIntrospection:
    def test_stats_expose_placement_and_failover_counters(
        self, host_daemon, all_models
    ):
        address = host_addr(host_daemon)
        model = next(iter(all_models.values()))
        with AnalysisSession(
            model,
            pool_size=2,
            pool_mode="remote",
            hosts=[address],
            workers=2,
        ) as session:
            session.query("delivery", model.ingress_packets[0], model.dest)
            stats = session.pool.stats()
            assert stats["mode"] == "remote"
            assert stats["hosts_configured"] == [address]
            assert stats["hosts"] == [address, address]
            assert stats["transports"] == ["tcp", "tcp"]
            assert stats["reconnects"] == [0, 0]
            assert stats["failovers"] == 0
            assert stats["remote_reconnects"] == 0
            assert stats["local_fallbacks"] == 0
            reports = session.pool.worker_reports()
            for report in reports:
                assert report["host"] == address
                assert report["transport"] == "tcp"
                assert report["reconnects"] == 0
                assert "heartbeat_misses" in report

    def test_local_pools_report_placement_defaults(self, all_models):
        """The new per-replica stats columns exist for every pool mode."""
        model = next(iter(all_models.values()))
        with AnalysisSession(model, workers=2) as session:
            stats = session.pool.stats()
            assert stats["hosts"] == ["local"]
            assert stats["transports"] == ["inproc"]
            assert stats["reconnects"] == [0]
        with AnalysisSession(
            model, pool_size=1, pool_mode="process", workers=1
        ) as session:
            stats = session.pool.stats()
            assert stats["hosts"] == ["local"]
            assert stats["transports"] == ["pipe"]
            (report,) = session.pool.worker_reports()
            assert report["host"] == "local"
            assert report["transport"] == "pipe"

    def test_default_pool_size_is_two_per_host(self, host_daemon, all_models):
        model = next(iter(all_models.values()))
        with AnalysisSession(
            model,
            pool_mode="remote",
            hosts=[host_addr(host_daemon)],
            workers=2,
        ) as session:
            assert session.pool_size == 2

    def test_replicas_spread_across_hosts_round_robin(self, all_models):
        model = next(iter(all_models.values()))
        with HostServer(workers=2).start() as second:
            with HostServer(workers=2).start() as first:
                hosts = [host_addr(first), host_addr(second)]
                with AnalysisSession(
                    model,
                    pool_mode="remote",
                    hosts=hosts,
                    workers=4,
                ) as session:
                    assert session.pool_size == 4  # 2 per host by default
                    placement = session.pool.stats()["hosts"]
                    assert placement == [hosts[0], hosts[1], hosts[0], hosts[1]]
                    value = session.query(
                        "delivery", model.ingress_packets[0], model.dest
                    )
                    expected = delivery_probability(
                        model, inputs=[model.ingress_packets[0]]
                    )
                    assert value == pytest.approx(expected, abs=1e-9)

    def test_metrics_export_remote_counters(self, host_daemon, all_models):
        from repro.service.telemetry import Telemetry

        model = next(iter(all_models.values()))
        with AnalysisSession(
            model,
            pool_size=1,
            pool_mode="remote",
            hosts=[host_addr(host_daemon)],
            workers=1,
            telemetry=Telemetry(),
        ) as session:
            session.query("delivery", model.ingress_packets[0], model.dest)
            text = session.metrics_text()
            assert "repro_remote_reconnects_total" in text
            assert "repro_host_failovers_total" in text


class TestRemoteConfiguration:
    def test_session_requires_hosts(self, all_models):
        model = next(iter(all_models.values()))
        with pytest.raises(ValueError, match="remote.*hosts"):
            AnalysisSession(model, pool_mode="remote")

    def test_unreachable_host_fails_fast_without_local_fallback(self):
        from repro.service.pool import PoolUnavailable

        with MatrixBackend() as backend:
            with pytest.raises(PoolUnavailable):
                open_pool(
                    "remote",
                    backend,
                    1,
                    hosts=["127.0.0.1:1"],  # reserved port: nothing listens
                    remote_options={"connect_timeout": 0.2, "local_fallback": False},
                )

    def test_at_capacity_host_refuses_attach(self, all_models):
        from repro.service.pool import PoolUnavailable

        with HostServer(workers=1, max_workers=1).start() as server:
            with MatrixBackend() as backend:
                with pytest.raises(PoolUnavailable):
                    open_pool(
                        "remote",
                        backend,
                        2,  # one more than the hard cap
                        hosts=[host_addr(server)],
                        remote_options={"local_fallback": False},
                    )

    def test_cli_prints_hosts_line(self, host_daemon, capsys):
        from repro.service.cli import main as service_main

        code = service_main(
            [
                "--topology",
                "fattree:4",
                "--scheme",
                "ecmp",
                "--dest",
                "1",
                "--all-pairs",
                "--pool-mode",
                "remote",
                "--remote-host",
                host_addr(host_daemon),
                "--workers",
                "2",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "remote-hosted replicas" in printed
        assert "hosts: " in printed
        assert host_addr(host_daemon) + "/tcp" in printed
        assert "failover(s)" in printed

    def test_cli_rejects_remote_without_hosts(self):
        from repro.service.cli import main as service_main

        with pytest.raises(SystemExit, match="--remote-host"):
            service_main(["--all-pairs", "--pool-mode", "remote"])
