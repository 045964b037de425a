"""Unit tests for streaming reducers and the ordered fold."""

import pytest
from hypothesis import given, strategies as st

from repro.fleet.errors import FleetError
from repro.fleet.records import pack_record, unpack_record
from repro.fleet.reducers import OrderedFold, StreamingReducer
from repro.fleet.studies import synthetic_reducer


def trace_reducer() -> StreamingReducer:
    """A reducer whose state is the exact fold sequence it observed."""
    return StreamingReducer(
        init=list,
        fold=lambda state, envelope, index: state.append((index, envelope)),
        finalize=lambda state, meta: {"trace": list(state), "meta": dict(meta)},
    )


def sum_reducer() -> StreamingReducer:
    return StreamingReducer(
        init=lambda: [0],
        fold=lambda state, envelope, index: state.__setitem__(0, state[0] + envelope),
        finalize=lambda state, meta: {"total": state[0]},
    )


class TestOrderedFold:
    def test_in_order_arrivals_fold_immediately(self):
        fold = OrderedFold(trace_reducer(), [0, 1, 2])
        for index in range(3):
            fold.offer(index, lambda i=index: f"r{i}")
        assert fold.complete
        assert fold.peak_buffered == 1  # never more than the newest arrival
        assert fold.finalize({})["trace"] == [(0, "r0"), (1, "r1"), (2, "r2")]

    def test_out_of_order_arrivals_fold_in_shard_order(self):
        fold = OrderedFold(trace_reducer(), [0, 1, 2, 3])
        for index in (3, 1, 2, 0):
            fold.offer(index, lambda i=index: f"r{i}")
        assert fold.finalize({})["trace"] == [
            (0, "r0"), (1, "r1"), (2, "r2"), (3, "r3"),
        ]
        # 3, 1, 2 waited on 0; the arrival of 0 itself counts before it
        # drains, so the high-water mark is 4.
        assert fold.peak_buffered == 4

    def test_thunks_run_lazily_at_fold_time(self):
        loaded = []
        fold = OrderedFold(trace_reducer(), [0, 1])

        def thunk_for(index):
            return lambda: loaded.append(index) or f"r{index}"

        fold.offer(1, thunk_for(1))
        assert loaded == []  # buffered, not loaded
        fold.offer(0, thunk_for(0))
        assert loaded == [0, 1]

    def test_resident_records_load_through_reader(self):
        reads = []

        def reader(index):
            reads.append(index)
            return f"spool{index}"

        fold = OrderedFold(trace_reducer(), [0, 1, 2], reader=reader)
        fold.offer_resident(2)
        fold.offer_resident(0)
        assert reads == [0]  # 2 still waits on 1, costs no memory
        fold.offer(1, lambda: "live1")
        assert reads == [0, 2]
        assert fold.finalize({})["trace"] == [
            (0, "spool0"), (1, "live1"), (2, "spool2"),
        ]

    def test_offer_resident_without_reader_rejected(self):
        fold = OrderedFold(trace_reducer(), [0])
        with pytest.raises(FleetError, match="reader"):
            fold.offer_resident(0)

    def test_skip_unblocks_the_cursor(self):
        fold = OrderedFold(trace_reducer(), [0, 1, 2])
        fold.offer(2, lambda: "r2")
        fold.offer(0, lambda: "r0")
        fold.skip(1)  # quarantined
        assert fold.complete
        assert fold.finalize({})["trace"] == [(0, "r0"), (2, "r2")]

    def test_duplicate_offers_fold_once(self):
        fold = OrderedFold(sum_reducer(), [0, 1])
        fold.offer(0, lambda: 5)
        fold.offer(0, lambda: 5)  # late duplicate (retry raced a success)
        fold.offer(1, lambda: 7)
        assert fold.finalize({})["total"] == 12

    def test_finalize_incomplete_names_the_stall(self):
        fold = OrderedFold(trace_reducer(), [0, 1, 2])
        fold.offer(2, lambda: "r2")
        assert fold.pending_index() == 0
        with pytest.raises(FleetError, match="stalled on shard 0"):
            fold.finalize({})


class TestReduceEnvelopes:
    def test_matches_manual_fold(self):
        reducer = sum_reducer()
        assert reducer.reduce_envelopes([3, 4, 5], {})["total"] == 12


# -- arrival order ----------------------------------------------------------
#
# Workers finish out of order (stragglers, retries, steals) and the parent
# offers each record as it arrives: a thunk over the ring bytes, or a
# spool-resident index.  Quarantined shards are skipped.  Whatever the
# arrival order and mix, the aggregate must equal folding the surviving
# envelopes in shard order.

@st.composite
def _envelope(draw):
    users = draw(st.integers(0, 512))
    return {
        "first": draw(st.integers(0, 1 << 20)),
        "users": users,
        "checksum": draw(st.integers(0, (1 << 61) - 1)),
        # Events are per-user successes: at most one per user, so the
        # event-rate proportion stays well-formed.
        "events": draw(st.integers(0, users)),
        "counters": draw(
            st.dictionaries(
                st.sampled_from(["a.ops", "b.ops", "c.ops"]),
                st.integers(0, 1 << 30),
                min_size=1,
            )
        ),
    }


envelopes = st.lists(_envelope(), min_size=0, max_size=12)


@given(envelopes=envelopes, data=st.data())
def test_any_arrival_order_folds_like_shard_order(envelopes, data):
    count = len(envelopes)
    arrival = data.draw(st.permutations(range(count)), label="arrival")
    resident = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    skipped = data.draw(st.sets(st.sampled_from(range(count))) if count else st.just(set()))
    packed = [pack_record(envelope) for envelope in envelopes]

    # The synthetic sums are order-blind, so also record the fold order.
    folded_order = []
    synthetic = synthetic_reducer()

    def fold_in_order(state, envelope, index):
        folded_order.append(index)
        synthetic.fold(state, envelope, index)

    reducer = StreamingReducer(synthetic.init, fold_in_order, synthetic.finalize)
    fold = OrderedFold(reducer, range(count), reader=lambda index: unpack_record(packed[index]))
    for index in arrival:
        if index in skipped:
            fold.skip(index)
        elif resident[index]:
            fold.offer_resident(index)
        else:
            fold.offer(index, lambda record=packed[index]: unpack_record(record))

    meta = {"population": 0, "shards": count, "study": "synthetic"}
    kept = [index for index in range(count) if index not in skipped]
    assert folded_order == kept
    expected = synthetic.reduce_envelopes([envelopes[index] for index in kept], meta)
    assert fold.finalize(meta) == expected


@given(
    counter_sets=st.lists(
        st.dictionaries(
            st.sampled_from(["a.ops", "b.ops", "c.ops", "d.ops"]),
            st.integers(-(1 << 40), 1 << 40),
        ),
        max_size=8,
    )
)
def test_counter_merge_commutes_up_to_snapshot(counter_sets):
    """Counter merging is value-commutative: any arrival order produces the
    same sorted snapshot (the engine still folds in shard order so that
    *non*-commutative state, like float sums, stays deterministic too)."""
    from repro.obs.counters import Counters

    forward = Counters.merged(counter_sets).snapshot()
    backward = Counters.merged(list(reversed(counter_sets))).snapshot()
    assert forward == backward
