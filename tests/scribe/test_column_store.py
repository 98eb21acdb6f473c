"""The column layout against a dict-keyed model, by generated sequences.

Categories keep heads and online flags as columns, and the checkpoint
store keeps each job's cursors as one offsets list per category, indexed
by partition number. Here a drawn sequence of producer, consumer and
store operations runs against two buses: one with the column store, one
with :class:`DictStore` — the store as one dict of offsets per job keyed
by partition id — and a plain per-partition model of the heads. After
every operation the results, the errors raised, every head (bit for
bit), every snapshot and every ``TaskCheckpoint.encode()`` text must be
equal. One job reads both categories in turn, so its cursors span two
columns; the ids include ``c/10`` (string order puts it before ``c/2``),
one past the category's last partition, and ids that name no numbered
partition at all.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScribeError
from repro.jobs import JobSpec
from repro.scribe import ScribeBus
from repro.scribe.checkpoints import CheckpointStore
from repro.tasks import RunningTask, TaskSpec
from repro.tasks.checkpoint import TaskCheckpoint, _RecordHeader
from repro.tasks.runtime import step_container
from repro.testing.reference import step_container_per_call

#: Two categories whose ids interleave in string order (``c-x/0`` < ``c/0``).
SIZES = {"c": 12, "c-x": 2}
JOBS = ["j", "k"]
PARTITION_IDS = (
    [f"{name}/{index}" for name, size in SIZES.items() for index in range(size)]
    + ["c/12", "c/01", "c/", "c/x", "p0", "c-x"]
)


class DictStore:
    """The checkpoint store as one dict of offsets per job, keyed by
    partition id: the model the column store must agree with."""

    def __init__(self):
        self.offsets = {}

    def fit(self, name, size):
        pass

    def get(self, job_id, partition_id):
        return self.offsets.get(job_id, {}).get(partition_id, 0.0)

    def commit(self, job_id, partition_id, offset):
        if not 0 <= offset < math.inf:
            raise ScribeError(f"bad checkpoint offset: {offset}")
        current = self.get(job_id, partition_id)
        if offset < current - 1e-6:
            raise ScribeError(
                f"checkpoint for {job_id}/{partition_id} cannot move backwards: "
                f"{offset} < {current}"
            )
        self.offsets.setdefault(job_id, {})[partition_id] = offset

    def partitions_of(self, job_id):
        return sorted(self.offsets.get(job_id, {}))

    def snapshot(self, job_id):
        return {
            partition_id: self.offsets[job_id][partition_id]
            for partition_id in self.partitions_of(job_id)
        }

    def job_ids(self):
        return list(self.offsets)

    def drop_job(self, job_id):
        self.offsets.pop(job_id, None)

    def head_and_lag_mb(self, job_id, category, indices):
        total = lag = 0
        for index in indices:
            partition = category.partitions[index]
            offset = self.get(job_id, partition.partition_id)
            head = partition.head
            if offset < 0 or offset > head + 1e-6:
                raise partition.offset_error(offset)
            total += head
            lag += head - offset
        return total, lag

    def lag_mb(self, job_id, category, indices):
        return self.head_and_lag_mb(job_id, category, indices)[1]


class HeadsModel:
    """Per-partition heads and weights, appended one ``+=`` at a time."""

    def __init__(self):
        self.heads = {name: [0.0] * size for name, size in SIZES.items()}
        self.weights = dict.fromkeys(SIZES)

    def set_weights(self, name, weights):
        if weights is None:
            self.weights[name] = None
            return
        if len(weights) != SIZES[name]:
            raise ScribeError("wrong weight count")
        if not all(math.isfinite(weight) and weight >= 0 for weight in weights):
            raise ScribeError("bad weight")
        total = sum(weights)
        if not (math.isfinite(total) and total > 0):
            raise ScribeError("bad weight sum")
        self.weights[name] = [weight / total for weight in weights]

    def append(self, name, num_bytes):
        if not (math.isfinite(num_bytes) and num_bytes >= 0):
            raise ScribeError("bad byte count")
        heads, weights = self.heads[name], self.weights[name]
        for index in range(len(heads)):
            if weights is None:
                heads[index] += num_bytes / len(heads)
            else:
                heads[index] += num_bytes * weights[index]


def spec(job_id, name, task_count, task_index, rate):
    config = JobSpec(
        job_id=job_id, input_category=name, task_count=task_count,
        rate_per_thread_mb=1.0,
    ).to_provisioner_config()
    config["perf"] = {"rate_per_thread_mb": rate}
    return TaskSpec.from_job_config(job_id, task_index, config)


def outcome(call):
    """What a call returned (floats by their bits), or the error it raised."""
    try:
        result = call()
    except ScribeError as error:
        return ("raises", str(error))
    return ("returns", bits(result))


def bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    if isinstance(value, dict):
        return [(key, bits(item)) for key, item in value.items()]
    if isinstance(value, RunningTask):
        return value.spec.task_id
    return value


offsets = st.one_of(
    st.floats(0.0, 400.0),
    st.sampled_from([0.0, -0.0, 5e-7, 1e-300, -1.0, math.nan, math.inf, -math.inf]),
)
byte_counts = st.one_of(
    st.floats(0.0, 300.0),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e308]),
)
weight_values = st.one_of(
    st.floats(0.0, 10.0), st.sampled_from([-1.0, math.nan, math.inf, 1e308])
)
names = st.sampled_from(sorted(SIZES))
jobs = st.sampled_from(JOBS)
operations = st.one_of(
    st.tuples(st.just("append"), names, byte_counts),
    st.tuples(
        st.just("set_weights"), names,
        st.none() | st.lists(weight_values, min_size=1, max_size=12)
        | names.flatmap(lambda name: st.lists(
            st.floats(0.0, 10.0), min_size=SIZES[name], max_size=SIZES[name],
        )),
    ),
    st.tuples(st.just("online"), names, st.integers(0, 11), st.booleans()),
    st.tuples(st.just("commit"), jobs, st.sampled_from(PARTITION_IDS), offsets),
    st.tuples(st.just("get"), jobs, st.sampled_from(PARTITION_IDS)),
    st.tuples(
        st.just("lag"), jobs, names,
        st.tuples(st.integers(1, 3), st.integers(0, 2)),
    ),
    st.tuples(st.just("drop_job"), jobs),
    # Job ``j`` reads one category, then maybe the other, with one task
    # of a ``task_count``-task job stepped over it.
    st.tuples(
        st.just("step"), names, st.integers(1, 3), st.integers(0, 2),
        st.sampled_from([0.7, 10.0]), st.sampled_from([0.3, 4.0, 60.0]),
    ),
)


class Worlds:
    def __init__(self):
        self.columns, self.model = ScribeBus(), ScribeBus()
        self.model.checkpoints = DictStore()
        for bus in (self.columns, self.model):
            for name, size in SIZES.items():
                bus.create_category(name, size)
        self.heads = HeadsModel()
        self.layouts = {}

    def both(self, call):
        """``call(bus)`` on both buses: the two outcomes must be equal."""
        seen = [outcome(lambda: call(bus)) for bus in (self.columns, self.model)]
        assert seen[0] == seen[1]
        return seen[0]

    def apply(self, operation):
        kind, *args = operation
        if kind == "append":
            name, num_bytes = args
            expected = outcome(lambda: self.heads.append(name, num_bytes))
            got = self.both(lambda bus: bus.get_category(name).append(num_bytes))
            assert (got[0], expected[0]) in (("returns",) * 2, ("raises",) * 2)
        elif kind == "set_weights":
            name, weights = args
            expected = outcome(lambda: self.heads.set_weights(name, weights))
            got = self.both(lambda bus: bus.get_category(name).set_weights(weights))
            assert got[0] == expected[0]
        elif kind == "online":
            name, index, online = args
            if index < SIZES[name]:
                for bus in (self.columns, self.model):
                    bus.get_category(name).partitions[index].online = online
        elif kind == "commit":
            self.both(lambda bus: bus.checkpoints.commit(*args))
        elif kind == "get":
            self.both(lambda bus: bus.checkpoints.get(*args))
        elif kind == "lag":
            job_id, name, (task_count, task_index) = args
            task_index %= task_count
            self.both(lambda bus: bus.checkpoints.head_and_lag_mb(
                job_id, bus.get_category(name),
                bus.get_category(name).slice_indices(task_index, task_count),
            ))
            self.both(lambda bus: bus.checkpoints.lag_mb(
                job_id, bus.get_category(name), range(SIZES[name]),
            ))
            self.both(lambda bus: bus.head_and_backlog_mb(job_id, name))
        elif kind == "drop_job":
            self.both(lambda bus: bus.checkpoints.drop_job(*args))
        elif kind == "step":
            name, task_count, task_index, dt, rate = args
            task_index %= task_count
            flat, per_call = (
                RunningTask(spec("j", name, task_count, task_index, rate), bus)
                for bus in (self.columns, self.model)
            )
            assert outcome(
                lambda: step_container(self.columns, [flat], [], dt, 0.0)
            ) == outcome(
                lambda: step_container_per_call(self.model, [per_call], [], dt, 0.0)
            )
            assert bits(flat.total_processed_mb) == bits(per_call.total_processed_mb)
            assert bits(flat.last_rate_mb) == bits(per_call.last_rate_mb)

    def check(self):
        for name in SIZES:
            category, twin = (bus.get_category(name) for bus in (self.columns, self.model))
            assert bits(category.heads) == bits(twin.heads)
            assert [p.head for p in category.partitions] == category.heads
            assert category.online == twin.online
        # The model's heads follow the same ``+=`` in the same order, except
        # where a step published downstream (nothing here has an output).
        assert bits([self.columns.get_category(n).heads for n in SIZES]) == bits(
            [self.heads.heads[n] for n in SIZES]
        )
        store, model = self.columns.checkpoints, self.model.checkpoints
        assert sorted(store.job_ids()) == sorted(model.job_ids())
        for job_id in JOBS:
            assert store.partitions_of(job_id) == model.partitions_of(job_id)
            assert bits(store.snapshot(job_id)) == bits(model.snapshot(job_id))
            for partition_id in PARTITION_IDS:
                assert bits(store.get(job_id, partition_id)) == bits(
                    model.get(job_id, partition_id)
                )
            expected = TaskCheckpoint(job_id, 30.0, model.snapshot(job_id)).encode()
            assert TaskCheckpoint(job_id, 30.0, store.snapshot(job_id)).encode() == expected
            # The plane's way to the same text: a cached layout, the
            # id-order permutation, one header per layout.
            layout = self.layouts[job_id] = store.layout(job_id, self.layouts.get(job_id))
            header = _RecordHeader(job_id, layout.ids, layout)
            values = layout.values(store.columns.get(job_id, {}))
            assert header.record(30.0, values) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, min_size=1, max_size=40))
def test_columns_agree_with_the_dict_model(sequence):
    worlds = Worlds()
    for operation in sequence:
        worlds.apply(operation)
        worlds.check()


def test_a_column_is_never_shorter_than_its_category():
    """A commit before the category exists, or past its last partition,
    sizes the column to cover both."""
    bus = ScribeBus()
    bus.checkpoints.commit("j", "c/1", 2.0)
    bus.create_category("c", 4)
    assert bus.checkpoints.columns["j"]["c"] == [0.0, 2.0, 0.0, 0.0]
    bus.checkpoints.commit("j", "c/5", 1.0)
    assert bus.checkpoints.columns["j"]["c"] == [0.0, 2.0, 0.0, 0.0, 0.0, 1.0]
    assert bus.checkpoints.partitions_of("j") == ["c/1", "c/5"]
    store = CheckpointStore()
    store.commit("k", "c/0", 0.0)
    assert store.partitions_of("k") == ["c/0"]
    assert "k" in store.job_ids()
