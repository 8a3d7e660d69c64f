"""Property-based end-to-end tests: random workflows, hard invariants.

Hypothesis generates random WDL-shaped workflows (sequences, parallel,
switch and foreach steps); MasterSP, WorkerSP and DataflowSP execute
them on fresh clusters with spans on, under drawn engine settings
(runtime switch evaluation, batched control, eager shipping, data
shipping), and so does the monolithic baseline, which has no settings
to draw.  The invariants that define a correct workflow engine are
checked on the span trees (see ``tests/span_oracle.py``):

- the invocation completes,
- every function executes exactly once — step markers and skipped
  switch arms included,
- no function starts before all of its predecessors have finished,
- no process of the invocation is left alive,
- the same invariants hold under any placement.

Under drawn fault plans (a crash of one worker plus a function-failure
rate) each engine must still end every invocation exactly once, OK or
FAILED, run the sinks of every OK invocation exactly once, leave no
live process in the registry and leave every FaaStore drained.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients import run_closed_loop
from repro.core import (
    DataflowSystem,
    EngineConfig,
    FaaSFlowSystem,
    FaultDriver,
    FaultInjector,
    FaultPlan,
    HyperFlowServerlessSystem,
    MonolithicSystem,
    NodeCrash,
    hash_partition,
)
from repro.metrics import InvocationStatus
from repro.sim import Cluster, ClusterConfig, ContainerSpec, Environment
from repro.wdl import workflow_from_dict

from ..span_oracle import (
    assert_executed_correctly,
    execution_counts,
    install_spans,
)

MB = 1024.0 * 1024.0


@st.composite
def random_wdl(draw):
    """A random workflow document: sequences, parallel, switch, foreach."""
    counter = {"n": 0}

    def task():
        counter["n"] += 1
        return {
            "task": f"t{counter['n']}",
            "service_time": draw(
                st.floats(min_value=0.01, max_value=0.2)
            ),
            "output_size": draw(
                st.sampled_from([0, 0.1 * MB, 1 * MB, 4 * MB])
            ),
            "memory": "48MB",
        }

    def step(depth):
        if depth >= 2:
            return task()
        kind = draw(
            st.sampled_from(["task", "task", "parallel", "switch", "foreach"])
        )
        if kind == "task":
            return task()
        if kind == "parallel":
            arms = [
                [step(depth + 1) for _ in range(draw(st.integers(1, 2)))]
                for _ in range(draw(st.integers(2, 3)))
            ]
            counter["n"] += 1
            return {"parallel": f"p{counter['n']}", "branches": arms}
        if kind == "switch":
            cases = [
                {
                    "condition": f"c{index}",
                    "steps": [
                        step(depth + 1)
                        for _ in range(draw(st.integers(1, 2)))
                    ],
                }
                for index in range(draw(st.integers(2, 3)))
            ]
            counter["n"] += 1
            return {"switch": f"s{counter['n']}", "cases": cases}
        counter["n"] += 1
        return {
            "foreach": f"fe{counter['n']}",
            "items": draw(st.integers(2, 4)),
            "steps": [task()],
        }

    steps = [step(0) for _ in range(draw(st.integers(1, 4)))]
    return {"name": "random-wf", "steps": steps}


def fresh_cluster():
    env = Environment()
    return Cluster(
        env,
        ClusterConfig(
            workers=3,
            container=ContainerSpec(cold_start_time=0.05),
        ),
    )


def build_system(engine, cluster, dag, config, faults=None):
    """``engine``'s system on ``cluster`` with ``dag`` hash-placed."""
    placement = hash_partition(dag, cluster.worker_names())
    if engine == "master":
        system = HyperFlowServerlessSystem(cluster, config, faults=faults)
        system.register(dag, placement)
        return system
    system_class = DataflowSystem if engine == "dataflow" else FaaSFlowSystem
    system = system_class(cluster, config, faults=faults)
    system.deploy(dag, placement)
    for worker in cluster.workers:
        worker.set_faastore_quota(256 * MB, workflow=dag.name)
    return system


def run_once(engine, document, config):
    """One invocation of ``document`` on a fresh, traced cluster."""
    dag = workflow_from_dict(document)
    cluster = fresh_cluster()
    spans = install_spans(cluster)
    system = build_system(engine, cluster, dag, config)
    record = run_closed_loop(system, dag.name, 1)[0]
    cluster.env.run(until=cluster.env.now)
    return dag, system, spans, record


def run_monolithic(document):
    """One monolithic invocation of ``document`` on a fresh, traced cluster."""
    dag = workflow_from_dict(document)
    cluster = fresh_cluster()
    spans = install_spans(cluster)
    system = MonolithicSystem(cluster)
    system.register(dag)
    record = run_closed_loop(system, dag.name, 1)[0]
    cluster.env.run(until=cluster.env.now)
    return dag, spans, record


def check_invariants(dag, system, spans, record):
    assert record.status == "ok"
    assert_executed_correctly(dag, spans, record.invocation_id)
    assert system.registry.live_count == 0


SWITCHES = st.booleans()
BATCHED = st.booleans()


class TestRandomWorkflows:
    @settings(max_examples=30, deadline=None)
    @given(
        document=random_wdl(), ship_data=st.booleans(),
        evaluate_switches=SWITCHES, batch_control=BATCHED,
    )
    def test_worker_sp_invariants(
        self, document, ship_data, evaluate_switches, batch_control
    ):
        config = EngineConfig(
            ship_data=ship_data, evaluate_switches=evaluate_switches,
            batch_control=batch_control,
        )
        check_invariants(*run_once("worker", document, config))

    @settings(max_examples=30, deadline=None)
    @given(
        document=random_wdl(), ship_data=st.booleans(),
        evaluate_switches=SWITCHES, batch_control=BATCHED,
    )
    def test_master_sp_invariants(
        self, document, ship_data, evaluate_switches, batch_control
    ):
        config = EngineConfig(
            ship_data=ship_data, evaluate_switches=evaluate_switches,
            batch_control=batch_control,
        )
        check_invariants(*run_once("master", document, config))

    @settings(max_examples=30, deadline=None)
    @given(
        document=random_wdl(), ship_data=st.booleans(),
        evaluate_switches=SWITCHES, batch_control=BATCHED,
        eager_ship=st.booleans(),
    )
    def test_dataflow_sp_invariants(
        self, document, ship_data, evaluate_switches, batch_control,
        eager_ship,
    ):
        config = EngineConfig(
            ship_data=ship_data, evaluate_switches=evaluate_switches,
            batch_control=batch_control, eager_ship=eager_ship,
        )
        check_invariants(*run_once("dataflow", document, config))

    @settings(max_examples=30, deadline=None)
    @given(document=random_wdl())
    def test_monolithic_invariants(self, document):
        """The monolith never evaluates switches: every arm runs once."""
        dag, spans, record = run_monolithic(document)
        assert record.status == "ok"
        assert_executed_correctly(dag, spans, record.invocation_id)

    @settings(max_examples=15, deadline=None)
    @given(document=random_wdl(), evaluate_switches=SWITCHES)
    def test_both_engines_run_the_same_functions(
        self, document, evaluate_switches
    ):
        """The three schedule patterns must execute identical work."""
        config = EngineConfig(
            ship_data=False, evaluate_switches=evaluate_switches
        )
        counts = []
        for engine in ("worker", "master", "dataflow"):
            _, _, spans, record = run_once(engine, document, config)
            counts.append(execution_counts(spans, record.invocation_id))
        assert counts[0] == counts[1] == counts[2]

    @settings(max_examples=15, deadline=None)
    @given(document=random_wdl(), seed=st.integers(0, 100))
    def test_grouped_placement_preserves_invariants(self, document, seed):
        """Algorithm 1 placements are as correct as hash placements."""
        from repro.core import GraphScheduler
        from repro.dag import estimate_edge_weights

        dag = workflow_from_dict(document)
        cluster = fresh_cluster()
        spans = install_spans(cluster)
        system = FaaSFlowSystem(cluster, EngineConfig(ship_data=True))
        scheduler = GraphScheduler(cluster, seed=seed)
        estimate_edge_weights(dag, bandwidth=cluster.config.storage_bandwidth)
        placement, quotas, _ = scheduler.schedule(dag, force_grouping=True)
        system.deploy(dag, placement, quotas=quotas)
        record = run_closed_loop(system, dag.name, 1)[0]
        cluster.env.run(until=cluster.env.now)
        check_invariants(dag, system, spans, record)


@st.composite
def fault_plans(draw):
    """A crash of one worker and a function-failure rate."""
    return {
        "crash": NodeCrash(
            node=f"worker-{draw(st.integers(0, 2))}",
            at=draw(st.floats(min_value=0.0, max_value=1.5)),
            recovery=draw(st.floats(min_value=0.1, max_value=2.0)),
        ),
        "failure_rate": draw(st.sampled_from([0.0, 0.05, 0.2])),
        "seed": draw(st.integers(0, 1000)),
        "max_retries": draw(st.integers(0, 2)),
    }


INVOCATIONS = 2


def run_faulty(engine, document, plan, ship_data):
    """Closed-loop invocations of ``document`` under a drawn fault plan,
    run until nothing is left queued."""
    dag = workflow_from_dict(document)
    cluster = fresh_cluster()
    spans = install_spans(cluster)
    config = EngineConfig(ship_data=ship_data, max_retries=plan["max_retries"])
    faults = FaultInjector(
        default_rate=plan["failure_rate"], seed=plan["seed"]
    )
    system = build_system(engine, cluster, dag, config, faults)
    FaultDriver(cluster, FaultPlan(node_crashes=[plan["crash"]])).attach(
        system
    ).start()
    records = run_closed_loop(system, dag.name, INVOCATIONS)
    cluster.env.run()
    return dag, cluster, system, spans, records


def check_fault_invariants(dag, cluster, system, spans, records):
    ids = [record.invocation_id for record in records]
    assert len(set(ids)) == INVOCATIONS
    # Ended exactly once: one record each, none left in flight.
    assert [
        record.invocation_id for record in system.metrics.invocations_of(dag.name)
    ] == ids
    assert system.in_flight == 0
    for record in records:
        assert record.status in (InvocationStatus.OK, InvocationStatus.FAILED)
        if record.status == InvocationStatus.OK:
            counts = execution_counts(spans, record.invocation_id)
            assert {sink: counts.get(sink) for sink in dag.sinks()} == (
                dict.fromkeys(dag.sinks(), 1)
            )
    # Nothing registered after its invocation closed, alive or not.
    assert system.registry.tracked_invocations == 0
    assert system.registry.live_count == 0
    for worker in cluster.workers:
        assert worker.memstore.key_count == 0


class TestFaultPlans:
    @settings(max_examples=20, deadline=None)
    @given(document=random_wdl(), plan=fault_plans(), ship_data=st.booleans())
    def test_master_sp_under_faults(self, document, plan, ship_data):
        check_fault_invariants(*run_faulty("master", document, plan, ship_data))

    @settings(max_examples=20, deadline=None)
    @given(document=random_wdl(), plan=fault_plans(), ship_data=st.booleans())
    def test_worker_sp_under_faults(self, document, plan, ship_data):
        check_fault_invariants(*run_faulty("worker", document, plan, ship_data))

    @settings(max_examples=20, deadline=None)
    @given(document=random_wdl(), plan=fault_plans(), ship_data=st.booleans())
    def test_dataflow_sp_under_faults(self, document, plan, ship_data):
        check_fault_invariants(
            *run_faulty("dataflow", document, plan, ship_data)
        )
