import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minins.engine import EventEngine
from minins.errors import TraceError
from minins.netmodel import Network, Packet
from minins.qdisc import QdiscConfig
from minins.trace import FLAGS, TraceWriter, parse_event, parse_line
from minins.traffic import SinkMonitor
from minins.units import format_time_fixed

from net_helpers import seconds


def sample_packet(**overrides):
    fields = dict(uid=7, fid=2, ptype="cbr", size=1000, src=1, sport=0,
                  dst=3, dport=1, seq=0, birth=0)
    fields.update(overrides)
    return Packet(**fields)


def written_lines(tmp_path, *records):
    """Lines a TraceWriter writes for (op, time, from, to, pkt) records."""
    path = tmp_path / "out.tr"
    writer = TraceWriter(str(path))
    for record in records:
        writer.record(*record)
    writer.close_flush()
    return path.read_text().splitlines(keepends=True)


def test_writer_matches_fixed_layout(tmp_path):
    lines = written_lines(tmp_path, ("+", seconds(1), 1, 2, sample_packet()))
    assert lines == ["+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7\n"]


def fixed_layout(op, time, from_node, to_node, pkt):
    return (f"{op} {format_time_fixed(time)} {from_node} {to_node} {pkt.ptype} {pkt.size}"
            f" {FLAGS} {pkt.fid} {pkt.src}.{pkt.sport} {pkt.dst}.{pkt.dport} {pkt.seq} {pkt.uid}\n")


def test_writer_formats_tail_per_packet_and_time_per_instant(tmp_path):
    a = sample_packet()
    b = sample_packet(uid=8, fid=3, ptype="exp", size=40, src=4, sport=1, dst=5, dport=2, seq=9)
    records = [
        ("+", 0, 1, 2, a),  # first record at time 0
        ("-", 0, 1, 2, a),  # same packet, same instant
        ("+", 0, 4, 2, b),  # a second packet, interleaved with the first
        ("+", 800_000, 2, 3, a),  # a later instant
        ("-", 800_000, 4, 2, b),
        ("-", 800_000, 2, 3, a),
        ("r", 1_600_000, 2, 3, a),
        ("d", seconds(2) + 1, 4, 2, b),
    ]
    assert written_lines(tmp_path, *records) == [fixed_layout(*r) for r in records]


def test_time_renders_with_nine_fractional_digits():
    assert format_time_fixed(21_600_000) == "0.021600000"
    assert format_time_fixed(0) == "0.000000000"
    assert format_time_fixed(seconds(500)) == "500.000000000"
    assert format_time_fixed(1) == "0.000000001"


def test_every_line_has_twelve_fields(tmp_path):
    records = [(op, seconds(1), 1, 2, sample_packet()) for op in "+-rd"]
    for line in written_lines(tmp_path, *records):
        assert len(line.split()) == 12


naturals = st.integers(min_value=0, max_value=2**64)


@given(op=st.sampled_from("+-rd"), time=naturals, from_node=naturals, to_node=naturals,
       ptype=st.sampled_from(["cbr", "exp"]), size=naturals, fid=naturals, src=naturals,
       sport=naturals, dst=naturals, dport=naturals, seq=naturals, uid=naturals)
def test_writer_lines_parse_back(tmp_path_factory, op, time, from_node, to_node, ptype,
                                 size, fid, src, sport, dst, dport, seq, uid):
    pkt = Packet(uid=uid, fid=fid, ptype=ptype, size=size, src=src, sport=sport,
                 dst=dst, dport=dport, seq=seq, birth=0)
    [line] = written_lines(tmp_path_factory.mktemp("rt"), (op, time, from_node, to_node, pkt))
    assert parse_line(line, 1) == (op, time, from_node, to_node, ptype, size, FLAGS,
                                   fid, src, sport, dst, dport, seq, uid)


VALID_FIELDS = "+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7".split()
odd_text = st.one_of(st.text(), st.sampled_from(["０", "²", "\udcff", "9" * 5000, "1.", ".1"]))
# A valid line with one field replaced, so the checks behind the field count run too.
one_field_off = st.builds(lambda i, text: " ".join(VALID_FIELDS[:i] + [text] + VALID_FIELDS[i + 1:]),
                          st.integers(0, 11), odd_text)


@given(st.one_of(st.text(), one_field_off))
def test_parse_line_returns_tuple_or_trace_error(text):
    try:
        fields = parse_line(text, 9)
    except TraceError as err:
        assert err.lineno == 9
    else:
        assert isinstance(fields, tuple) and len(fields) == 14
        assert text.isascii()


packets = st.builds(Packet, uid=naturals, fid=naturals, ptype=st.sampled_from(["cbr", "exp"]),
                    size=naturals, src=naturals, sport=naturals, dst=naturals,
                    dport=naturals, seq=naturals, birth=st.just(0))
records = st.tuples(st.sampled_from("+-rd"), naturals, naturals, naturals, packets)


@given(st.one_of(odd_text, one_field_off, records))
@example(" ".join(VALID_FIELDS[:10] + ["9" * 5000] + VALID_FIELDS[11:]))  # a seq int() refuses
def test_parse_event_agrees_with_parse_line(tmp_path_factory, source):
    if isinstance(source, tuple):  # a record, so the line TraceWriter writes for it
        [text] = written_lines(tmp_path_factory.mktemp("ev"), source)
    else:
        text = source
    try:
        fields = parse_line(text, 9)
    except TraceError as err:
        with pytest.raises(TraceError) as fast_err:
            parse_event(text, 9)
        assert (str(fast_err.value), fast_err.value.lineno) == (str(err), err.lineno)
    else:
        assert parse_event(text, 9) == tuple(fields[i] for i in (0, 1, 2, 3, 5, 7, 13))


def test_writer_appends_one_line_per_record(tmp_path):
    path = tmp_path / "out.tr"
    writer = TraceWriter(str(path))
    pkt = Packet(uid=0, fid=1, ptype="cbr", size=500, src=0, sport=0,
                 dst=1, dport=0, seq=0, birth=0)
    writer.record("+", 0, 0, 1, pkt)
    writer.record("-", 0, 0, 1, pkt)
    writer.record("r", 5_000_000, 0, 1, pkt)
    writer.close_flush()
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert [l.split()[0] for l in lines] == ["+", "-", "r"]


def test_close_flush_is_idempotent_and_empty_run_leaves_empty_file(tmp_path):
    path = tmp_path / "empty.tr"
    writer = TraceWriter(str(path))
    writer.close_flush()
    writer.close_flush()
    assert path.exists() and path.read_text() == ""


def test_trace_lines_follow_dispatch_order(tmp_path):
    path = tmp_path / "mini.tr"
    eng = EventEngine()
    writer = TraceWriter(str(path))
    net = Network(eng, writer, 2,
                  [(0, 1, 1_000_000, seconds(0.001), QdiscConfig("droptail", 50))])
    net.bind_sink(SinkMonitor(1, 0))
    for uid in range(5):
        pkt = Packet(uid=uid, fid=1, ptype="cbr", size=100, src=0, sport=0,
                     dst=1, dport=0, seq=uid, birth=0)
        eng.schedule(uid * 300, lambda pkt=pkt: net.forward(0, pkt))
    eng.run_until(seconds(1))
    writer.close_flush()
    times = [parse_line(l, i)[1] for i, l in enumerate(path.read_text().splitlines(), 1)]
    assert times == sorted(times)
    assert len(times) == 15  # +, -, r per packet
