"""Protocol message kinds and the wire codecs for tuples and quaternions."""

import pytest

from repro.core.tuples import UncertainTuple
from repro.net.message import MessageKind, Quaternion, decode_tuple, encode_tuple
from repro.net.stats import NetworkStats


class TestTupleCodec:
    def test_roundtrip(self):
        t = UncertainTuple(42, (1.5, -2.0, 3.25), 0.625)
        assert decode_tuple(encode_tuple(t)) == t

    def test_encoding_is_json_compatible(self):
        import json

        t = UncertainTuple(1, (0.1, 0.2), 0.3)
        json.dumps(encode_tuple(t))  # must not raise


class TestQuaternion:
    def test_fields(self):
        t = UncertainTuple(7, (1.0, 2.0), 0.8)
        q = Quaternion(site=3, tuple=t, local_probability=0.65)
        assert q.key == 7
        assert q.existential == 0.8
        assert q.site == 3

    def test_roundtrip(self):
        t = UncertainTuple(7, (1.0, 2.0), 0.8)
        q = Quaternion(site=3, tuple=t, local_probability=0.65)
        assert Quaternion.from_dict(q.to_dict()) == q


def _billed_tuples(kind, tuples=None):
    stats = NetworkStats()
    stats.bill(kind, "a", "b", tuples=tuples)
    return stats.tuples_transmitted


class TestBandwidthSemantics:
    """Only tuple-bearing kinds may cost bandwidth (§3.2's metric)."""

    @pytest.mark.parametrize(
        "kind", [MessageKind.REPRESENTATIVE, MessageKind.FEEDBACK,
                 MessageKind.UPDATE, MessageKind.DATA]
    )
    def test_tuple_bearing_kinds(self, kind):
        assert _billed_tuples(kind) == 1

    @pytest.mark.parametrize(
        "kind", [MessageKind.PREPARE, MessageKind.PREPARE_REPLY,
                 MessageKind.NEXT_REQUEST, MessageKind.EXHAUSTED,
                 MessageKind.PROBE_REPLY, MessageKind.RESULT,
                 MessageKind.CONTROL]
    )
    def test_control_kinds_are_free(self, kind):
        assert _billed_tuples(kind) == 0

    @pytest.mark.parametrize("kind", [MessageKind.FEEDBACK, MessageKind.CONTROL])
    def test_tuple_count_overrides_the_kind_default(self, kind):
        # A batched FEEDBACK bears one tuple per quaternion it carries;
        # an explicit count wins over the per-kind default either way.
        assert _billed_tuples(kind, tuples=3) == 3
        assert _billed_tuples(kind, tuples=0) == 0
