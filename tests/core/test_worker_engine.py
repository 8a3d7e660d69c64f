"""Unit tests for the WorkerSP engines and the FaaSFlow system."""

import pytest

from repro.core import (
    EngineConfig,
    FaaSFlowSystem,
    HyperFlowServerlessSystem,
    Placement,
)
from repro.metrics import InvocationStatus

from .conftest import MB, all_on, fanout_dag, linear_dag, round_robin


def make_system(cluster, **config_kwargs):
    config_kwargs.setdefault("ship_data", False)
    return FaaSFlowSystem(cluster, EngineConfig(**config_kwargs))


class TestDeployment:
    def test_structures_distributed_by_placement(self, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=4)
        placement = round_robin(dag, ["worker-0", "worker-1"])
        system.deploy(dag, placement)
        engine0 = system.engine("worker-0")
        engine1 = system.engine("worker-1")
        assert engine0.structure("lin", 1).local_names == ("f0", "f2")
        assert engine1.structure("lin", 1).local_names == ("f1", "f3")
        assert not system.engine("worker-2").deployed_count

    def test_quotas_applied_on_deploy(self, cluster):
        system = make_system(cluster)
        dag = linear_dag()
        system.deploy(
            dag, all_on(dag, "worker-0"), quotas={"worker-0": 64 * MB}
        )
        assert cluster.node("worker-0").memstore.quota == 64 * MB

    def test_version_increments_on_redeploy(self, cluster):
        system = make_system(cluster)
        dag = linear_dag()
        system.deploy(dag, all_on(dag, "worker-0"))
        assert system.current_version("lin") == 1
        system.deploy(dag, all_on(dag, "worker-1"))
        assert system.current_version("lin") == 2

    def test_undeployed_workflow_rejected(self, env, cluster):
        system = make_system(cluster)
        with pytest.raises(KeyError):
            next(system.invoke("ghost"))


class TestInvocation:
    def test_end_to_end_completion(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=3)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = env.run(until=env.process(system.invoke("lin")))
        assert record.status == InvocationStatus.OK
        assert record.cold_starts == 3

    def test_cross_worker_chain(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=4)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = env.run(until=env.process(system.invoke("lin")))
        assert record.status == InvocationStatus.OK

    def test_cross_worker_sync_messages_counted(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=4)
        system.deploy(dag, round_robin(dag, ["worker-0", "worker-1"]))
        env.run(until=env.process(system.invoke("lin")))
        synced = sum(e.states_synced for e in system.engines.values())
        assert synced == 3  # every edge crosses workers

    def test_local_chain_needs_no_sync_messages(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=4)
        system.deploy(dag, all_on(dag, "worker-2"))
        env.run(until=env.process(system.invoke("lin")))
        assert sum(e.states_synced for e in system.engines.values()) == 0

    def test_fanout_with_virtual_nodes(self, env, cluster):
        from repro.wdl import parse_workflow

        wdl = """
name: par
steps:
  - task: head
    service_time: 50ms
    output_size: 1MB
  - parallel: split
    branches:
      - - task: a
          service_time: 100ms
      - - task: b
          service_time: 100ms
  - task: tail
    service_time: 50ms
"""
        system = make_system(cluster)
        dag = parse_workflow(wdl)
        system.deploy(dag, round_robin(dag, cluster.worker_names()))
        record = env.run(until=env.process(system.invoke("par")))
        assert record.status == InvocationStatus.OK

    def test_warm_invocations_approach_critical_exec(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=3, service_time=0.1)
        system.deploy(dag, all_on(dag, "worker-0"))
        env.run(until=env.process(system.invoke("lin")))
        record = env.run(until=env.process(system.invoke("lin")))
        assert record.scheduling_overhead < 0.05

    def test_invocation_state_released_after_completion(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag()
        system.deploy(dag, all_on(dag, "worker-0"))
        env.run(until=env.process(system.invoke("lin")))
        structure = system.engine("worker-0").structure("lin", 1)
        assert structure.live_invocations == 0


class TestWorkerSPvsMasterSP:
    def test_worker_sp_has_lower_scheduling_overhead(self, env, cluster):
        """The headline claim (Fig. 11) on a small chain, warm."""
        dag_m = linear_dag(name="m", n=6)
        dag_w = linear_dag(name="w", n=6)
        placement_m = round_robin(dag_m, cluster.worker_names())
        placement_w = round_robin(dag_w, cluster.worker_names())
        master = HyperFlowServerlessSystem(
            cluster, EngineConfig(ship_data=False)
        )
        master.register(dag_m, placement_m)
        worker = make_system(cluster)
        worker.deploy(dag_w, placement_w)
        # Warm both, then measure.
        env.run(until=env.process(master.invoke("m")))
        env.run(until=env.process(worker.invoke("w")))
        rec_m = env.run(until=env.process(master.invoke("m")))
        rec_w = env.run(until=env.process(worker.invoke("w")))
        assert rec_w.scheduling_overhead < rec_m.scheduling_overhead


class TestTimeout:
    def test_timeout_marks_record(self, env, cluster):
        system = make_system(cluster, execution_timeout=0.3)
        dag = linear_dag(service_time=1.0)
        system.deploy(dag, all_on(dag, "worker-0"))
        record = env.run(until=env.process(system.invoke("lin")))
        assert record.status == InvocationStatus.TIMEOUT
        assert record.latency == pytest.approx(0.3)

    def test_late_sink_completion_after_timeout_is_harmless(self, env, cluster):
        system = make_system(cluster, execution_timeout=0.3)
        dag = linear_dag(service_time=1.0)
        system.deploy(dag, all_on(dag, "worker-0"))
        env.run(until=env.process(system.invoke("lin")))
        env.run()  # drain the straggler processes
        assert len(system.metrics.invocations) == 1


class TestRedBlackDeployment:
    def test_old_version_drains_then_retires(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=2, service_time=0.3)
        system.deploy(dag, all_on(dag, "worker-0"))
        invocation = env.process(system.invoke("lin"))
        env.run(until=env.now + 0.05)  # in flight on v1
        system.deploy(dag, all_on(dag, "worker-1"))  # v2 goes live
        engine0 = system.engine("worker-0")
        assert engine0.has_structure("lin", 1)  # v1 still draining
        record = env.run(until=invocation)
        assert record.status == InvocationStatus.OK
        assert not engine0.has_structure("lin", 1)  # retired after drain

    def test_new_invocations_use_new_version(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=2)
        system.deploy(dag, all_on(dag, "worker-0"))
        env.run(until=env.process(system.invoke("lin")))
        system.deploy(dag, all_on(dag, "worker-1"))
        env.run(until=env.process(system.invoke("lin")))
        # worker-1 executed the second invocation.
        assert cluster.node("worker-1").containers.cold_starts == 2

    def test_stale_idle_containers_recycled_on_retire(self, env, cluster):
        system = make_system(cluster)
        dag = linear_dag(n=2)
        system.deploy(dag, all_on(dag, "worker-0"))
        env.run(until=env.process(system.invoke("lin")))
        pool = cluster.node("worker-0").containers
        assert pool.total_containers == 2
        system.deploy(dag, all_on(dag, "worker-0"))  # v2, same worker
        env.run(until=env.process(system.invoke("lin")))
        env.run(until=env.now + 1.0)  # settle, but stay within keep-alive
        # v1 containers were destroyed; only v2's remain.
        assert pool.total_containers == 2
        versions = {
            c.version
            for cs in pool._all.values()
            for c in cs
        }
        assert versions == {2}
