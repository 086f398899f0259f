"""Sliding-window driver tests (Definitions 1-2 semantics)."""
import pandas as pd
import pytest

from repro.streams.window import sliding_batches


def _stream(n_per_stream=30):
    rows = []
    rid = 0
    for i in range(n_per_stream):
        for sid in (0, 1):
            rows.append({"rid": rid, "stream_id": sid, "ts": rid, "v": rid})
            rid += 1
    return pd.DataFrame(rows)


def _unbalanced(n=60):
    """Every third tuple is on stream 1, so stream 0 fills its window first."""
    rows = [{"rid": i, "stream_id": int(i % 3 == 0), "ts": i, "v": i} for i in range(n)]
    return pd.DataFrame(rows)


class TestSlidingBatches:
    def test_warmup_fills_each_stream(self):
        s = _stream(30)
        batches = list(sliding_batches(s, w=10, batch_size=5))
        wb0 = batches[0]
        assert wb0.step == 0
        assert (wb0.arrived["stream_id"] == 0).sum() == 10
        assert (wb0.arrived["stream_id"] == 1).sum() == 10
        assert wb0.expired_rids == []
        assert wb0.window_before.empty

    def test_steady_state_batch_size(self):
        s = _stream(30)
        batches = list(sliding_batches(s, w=10, batch_size=5))
        for wb in batches[1:-1]:
            assert len(wb.arrived) == 10  # 5 per stream x 2 streams

    def test_expiry_count_matches_arrivals(self):
        s = _stream(30)
        batches = list(sliding_batches(s, w=10, batch_size=5))
        wb1 = batches[1]
        # window full after warmup: every arrival expires one tuple
        assert len(wb1.expired_rids) == len(wb1.arrived)

    def test_expired_are_oldest(self):
        s = _stream(30)
        batches = list(sliding_batches(s, w=10, batch_size=5))
        wb1 = batches[1]
        oldest = s.iloc[: len(wb1.expired_rids)]["rid"].tolist()
        assert sorted(wb1.expired_rids) == sorted(oldest)

    def test_window_before_is_w_per_stream(self):
        s = _stream(30)
        batches = list(sliding_batches(s, w=10, batch_size=5))
        wb1 = batches[1]
        counts = wb1.window_before["stream_id"].value_counts()
        assert counts[0] == 10 and counts[1] == 10

    def test_window_slides(self):
        s = _stream(30)
        batches = list(sliding_batches(s, w=10, batch_size=5))
        w1 = set(batches[1].window_before["rid"])
        w2 = set(batches[2].window_before["rid"])
        assert w1 != w2
        assert len(w1) == len(w2) == 20
        # window_before(step 2) = window_before(step 1) minus step-1
        # expirations plus step-1 arrivals
        expect = (w1 - set(batches[1].expired_rids)) | set(batches[1].arrived["rid"])
        assert w2 == expect

    def test_max_batches(self):
        s = _stream(50)
        batches = list(sliding_batches(s, w=10, batch_size=5, max_batches=2))
        assert [b.step for b in batches] == [0, 1, 2]

    def test_stream_exhaustion(self):
        s = _stream(12)
        batches = list(sliding_batches(s, w=10, batch_size=5))
        total = sum(len(b.arrived) for b in batches)
        assert total == len(s)

    def test_no_warmup(self):
        s = _stream(12)
        batches = list(sliding_batches(s, w=10, batch_size=3, warmup=False))
        assert batches[0].step == 0
        assert len(batches[0].arrived) == 6

    def test_fill_overflow_expires_oldest(self):
        s = _unbalanced(60)
        batches = list(sliding_batches(s, w=10, batch_size=5))
        wb0 = batches[0]
        # The fill ends with the 10th stream-1 tuple (rid 27); stream 0 has
        # 18 tuples by then, and its 8 oldest leave the window.
        assert wb0.arrived["rid"].tolist() == list(range(28))
        stream0 = [r for r in range(28) if r % 3 != 0]
        assert wb0.expired_rids == stream0[:8]
        w1 = batches[1].window_before
        assert set(w1["rid"]) == set(range(28)) - set(stream0[:8])
        counts = w1["stream_id"].value_counts()
        assert counts[0] == 10 and counts[1] == 10

    def test_frames_keep_stream_rows_and_dtypes(self):
        s = _unbalanced(60)
        for wb in sliding_batches(s, w=10, batch_size=5):
            for frame in (wb.arrived, wb.window_before):
                assert frame.dtypes.to_dict() == s.dtypes.to_dict()
                assert list(frame.index) == list(range(len(frame)))
                pd.testing.assert_frame_equal(
                    frame, s.set_index("rid", drop=False).loc[frame["rid"]]
                    .reset_index(drop=True))
