import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minins import trace
from minins.engine import EventEngine
from minins.errors import TraceError
from minins.netmodel import Network, Packet, SimplexLink
from minins.qdisc import QdiscConfig
from minins.trace import FLAGS, TraceWriter, format_time_fixed, parse_line, parse_time_fixed
from minins.traffic import SinkMonitor
from minins.units import NS_PER_SEC

from net_helpers import seconds, sink_at


def sample_packet(dst=3, dport=1, **overrides):
    """A packet for the writer alone, to a sink at node `dst`, port `dport`."""
    fields = dict(uid=7, fid=2, ptype="cbr", size=1000, src=1, sport=0,
                  seq=0, birth=0, sink=SinkMonitor(dst, dport))
    fields.update(overrides)
    return Packet(**fields)


def link(from_node, to_node):
    return SimplexLink(from_node, to_node, 1, 0, None)


def link_ends(via, pkt):
    """A line's from and to: the link's, or the packet's own node twice."""
    return (pkt.sink.node, pkt.sink.node) if via is None else (via.from_node, via.to_node)


def written_lines(tmp_path, *records):
    """Lines a TraceWriter writes for (op, time, link, pkt) records."""
    path = tmp_path / "out.tr"
    writer = TraceWriter(str(path))
    for record in records:
        writer.record(*record)
    writer.close_flush()
    return path.read_text().splitlines(keepends=True)


def test_writer_matches_fixed_layout(tmp_path):
    lines = written_lines(tmp_path, ("+", seconds(1), link(1, 2), sample_packet()))
    assert lines == ["+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7\n"]


def fixed_layout(op, time, via, pkt):
    from_node, to_node = link_ends(via, pkt)
    return (f"{op} {format_time_fixed(time)} {from_node} {to_node} {pkt.ptype} {pkt.size}"
            f" {FLAGS} {pkt.fid} {pkt.src}.{pkt.sport} {pkt.sink.node}.{pkt.sink.port}"
            f" {pkt.seq} {pkt.uid}\n")


def test_writer_formats_tail_per_packet_and_time_per_instant(tmp_path):
    a = sample_packet()
    b = sample_packet(uid=8, fid=3, ptype="exp", size=40, src=4, sport=1, dst=5, dport=2, seq=9)
    c = sample_packet(uid=9, src=5, dst=5)
    l12, l42, l23 = link(1, 2), link(4, 2), link(2, 3)
    records = [
        ("+", 0, l12, a),  # first record at time 0
        ("-", 0, l12, a),  # same packet, same instant, same link
        ("+", 0, l42, b),  # a second packet, interleaved with the first
        ("+", 800_000, l23, a),  # a later instant
        ("-", 800_000, l42, b),
        ("-", 800_000, l23, a),
        ("r", 1_600_000, l23, a),
        ("r", 1_600_000, None, c),  # delivered at its own node: no link
        ("d", seconds(2) + 1, l42, b),
    ]
    assert written_lines(tmp_path, *records) == [fixed_layout(*r) for r in records]
    assert (l12.ends, l42.ends, l23.ends) == (" 1 2", " 4 2", " 2 3")


def test_time_renders_with_nine_fractional_digits():
    assert format_time_fixed(21_600_000) == "0.021600000"
    assert format_time_fixed(0) == "0.000000000"
    assert format_time_fixed(seconds(500)) == "500.000000000"
    assert format_time_fixed(1) == "0.000000001"
    assert format_time_fixed(NS_PER_SEC - 1) == "0.999999999"
    assert format_time_fixed(NS_PER_SEC) == "1.000000000"


naturals = st.integers(min_value=0, max_value=2**64)


@given(naturals)
def test_time_text_parses_back(ns):
    assert parse_time_fixed(format_time_fixed(ns)) == ns


@given(naturals)
def test_time_text_matches_divmod_layout(ns):
    assert format_time_fixed(ns) == f"{ns // NS_PER_SEC}.{ns % NS_PER_SEC:09d}"


def test_every_line_has_twelve_fields(tmp_path):
    records = [(op, seconds(1), link(1, 2), sample_packet()) for op in "+-rd"]
    for line in written_lines(tmp_path, *records):
        assert len(line.split()) == 12


links = st.builds(link, naturals, naturals)


@given(op=st.sampled_from("+-rd"), time=naturals, via=st.one_of(st.none(), links),
       ptype=st.sampled_from(["cbr", "exp"]), size=naturals, fid=naturals, src=naturals,
       sport=naturals, dst=naturals, dport=naturals, seq=naturals, uid=naturals)
def test_writer_lines_parse_back(tmp_path_factory, op, time, via, ptype,
                                 size, fid, src, sport, dst, dport, seq, uid):
    pkt = Packet(uid=uid, fid=fid, ptype=ptype, size=size, src=src, sport=sport,
                 seq=seq, birth=0, sink=SinkMonitor(dst, dport))
    [line] = written_lines(tmp_path_factory.mktemp("rt"), (op, time, via, pkt))
    from_node, to_node = link_ends(via, pkt)
    fields = parse_line(line, 1)
    # every field as the text it was written from: canonical decimal numbers
    assert fields == (op, format_time_fixed(time), str(from_node), str(to_node),
                      str(size), str(fid), f"{src}.{sport}", f"{dst}.{dport}", str(uid))
    assert parse_time_fixed(fields[1]) == time
    # the fields parse_line only checks, as written
    assert line.split(" ")[4:] == [ptype, str(size), FLAGS, str(fid), f"{src}.{sport}",
                                   f"{dst}.{dport}", str(seq), f"{uid}\n"]


VALID_FIELDS = "+ 1.000000000 1 2 cbr 1000 ------- 2 1.0 3.1 0 7".split()
odd_text = st.one_of(st.text(), st.sampled_from(["０", "²", "\udcff", "9" * 5000, "1.", ".1",
                                                 "01", "007", "00"]))
# A valid line with one field replaced, so the checks behind the field count run too.
one_field_off = st.builds(lambda i, text: " ".join(VALID_FIELDS[:i] + [text] + VALID_FIELDS[i + 1:]),
                          st.integers(0, 11), odd_text)


def is_blank(text):
    """Empty, or only spaces before an optional LF."""
    return set(text.removesuffix("\n")) <= {" "}


@given(st.one_of(st.text(), st.text(" \n"), one_field_off))
def test_parse_line_returns_tuple_or_trace_error(text):
    try:
        fields = parse_line(text, 9)
    except TraceError as err:
        assert err.lineno == 9
    else:
        if fields is None:
            assert is_blank(text)
            return
        assert isinstance(fields, tuple) and len(fields) == 9
        assert all(isinstance(field, str) for field in fields)
        assert text.isascii()


packets = st.builds(Packet, uid=naturals, fid=naturals, ptype=st.sampled_from(["cbr", "exp"]),
                    size=naturals, src=naturals, sport=naturals, seq=naturals,
                    birth=st.just(0), sink=st.builds(SinkMonitor, naturals, naturals))
records = st.tuples(st.sampled_from("+-rd"), naturals, st.one_of(st.none(), links), packets)
# Each number of a line: its field index, and for an address or the time
# the part before (0) or after (1) the dot.
NUMBERS = {"time": (1, 0), "from": (2, None), "to": (3, None), "size": (5, None),
           "fid": (7, None), "src node": (8, 0), "src port": (8, 1),
           "dst node": (9, 0), "dst port": (9, 1), "seq": (10, None), "uid": (11, None)}


def with_number(name, digits):
    """The valid line with the number `name` written as `digits`."""
    fields = list(VALID_FIELDS)
    index, part = NUMBERS[name]
    if part is None:
        fields[index] = digits
    else:
        parts = fields[index].split(".")
        parts[part] = digits
        fields[index] = ".".join(parts)
    return " ".join(fields) + "\n"


too_wide = st.builds(with_number, st.sampled_from(sorted(NUMBERS)),
                     st.integers(10**20, 10**30).map(str))


# The whole line in one pattern, built from the field table itself: the
# grammar that parse_line applies one field at a time.
WHOLE_LINE = re.compile(" ".join(f"({pattern})" if returned else pattern
                                 for _, pattern, returned in trace._FIELDS) + r"\n?", re.ASCII)


@given(st.one_of(odd_text, one_field_off, records, too_wide))
@example(" ".join(VALID_FIELDS[:10] + ["9" * 5000] + VALID_FIELDS[11:]))  # a 5000-digit seq
def test_field_checks_name_what_the_pattern_rejects(tmp_path_factory, source):
    # parse_line accepts exactly the lines the whole-line pattern does and
    # returns its groups; a line it rejects that is not blank raises on its
    # line, with a reason a field check gives.
    if isinstance(source, tuple):  # a record, so the line TraceWriter writes for it
        [text] = written_lines(tmp_path_factory.mktemp("ev"), source)
    else:
        text = source
    match = WHOLE_LINE.fullmatch(text)
    try:
        fields = parse_line(text, 9)
    except TraceError as err:
        assert match is None and not is_blank(text)
        assert err.lineno == 9 and str(err).startswith("line 9: ")
        assert str(err) != "line 9: malformed line"
    else:
        assert fields == (None if match is None else match.groups())
        assert (fields is None) == is_blank(text)


@pytest.mark.parametrize("name", NUMBERS)
def test_numbers_are_bounded_to_20_digits(name):
    widest = "9" * 20  # more than 2**64 - 1, which has 20 digits
    fields = parse_line(with_number(name, widest), 3)
    src_node, src_port = fields[6].split(".")
    dst_node, dst_port = fields[7].split(".")
    returned = {"time": parse_time_fixed(fields[1]) // NS_PER_SEC, "from": int(fields[2]),
                "to": int(fields[3]), "size": int(fields[4]), "fid": int(fields[5]),
                "src node": int(src_node), "src port": int(src_port),
                "dst node": int(dst_node), "dst port": int(dst_port), "uid": int(fields[8])}
    assert returned.get(name, int(widest)) == int(widest)
    with pytest.raises(TraceError) as err:
        parse_line(with_number(name, "1" + "0" * 20), 3)
    assert err.value.lineno == 3 and str(err.value) != "line 3: malformed line"


FIELD_NAMES = ["event type", "time", "from", "to", "ptype", "size", "flags", "fid",
               "source address", "destination address", "seq", "uid"]
BAD_VALUES = ["x", "1.0", "01", "-1", "", "1e3", "------", "0x1", "1", "3.01", "9" * 21, "+7"]


@pytest.mark.parametrize("index", range(12), ids=FIELD_NAMES)
def test_each_field_names_itself(index):
    # A valid line with one field made bad: the reason names that field and its text.
    bad = BAD_VALUES[index]
    line = " ".join(VALID_FIELDS[:index] + [bad] + VALID_FIELDS[index + 1:]) + "\n"
    with pytest.raises(TraceError) as err:
        parse_line(line, 4)
    assert str(err.value) == f"line 4: bad {FIELD_NAMES[index]} field {bad!r}"


def test_writer_appends_one_line_per_record(tmp_path):
    path = tmp_path / "out.tr"
    writer = TraceWriter(str(path))
    pkt = Packet(uid=0, fid=1, ptype="cbr", size=500, src=0, sport=0,
                 seq=0, birth=0, sink=SinkMonitor(1, 0))
    l01 = link(0, 1)
    writer.record("+", 0, l01, pkt)
    writer.record("-", 0, l01, pkt)
    writer.record("r", 5_000_000, l01, pkt)
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
    sink = sink_at(net, 1)
    for uid in range(5):
        pkt = Packet(uid=uid, fid=1, ptype="cbr", size=100, src=0, sport=0,
                     seq=uid, birth=0, sink=sink)
        eng.schedule(uid * 300, lambda pkt=pkt: net.forward(0, pkt))
    eng.run_until(seconds(1))
    writer.close_flush()
    times = [parse_time_fixed(parse_line(l, i)[1])
             for i, l in enumerate(path.read_text().splitlines(), 1)]
    assert times == sorted(times)
    assert len(times) == 15  # +, -, r per packet
