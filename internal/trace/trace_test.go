package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.On() {
		t.Fatal("nil tracer reports On")
	}
	tr.Emit(Event{Plane: PlaneSched, Kind: KindDispatch}) // must not panic
	if tr.Count() != 0 {
		t.Fatalf("nil tracer Count = %d", tr.Count())
	}
	if New(nil, nil) != nil {
		t.Fatal("New(nil sink) should return the nil tracer")
	}
}

func TestTracerStampsOrdAndTime(t *testing.T) {
	var rec Recorder
	now := 5 * time.Second
	tr := New(&rec, func() time.Duration { return now })
	tr.Emit(Event{Plane: PlaneTrust, Kind: KindUpdate, Node: "10.0.0.1", Peer: "10.0.0.2", V0: 0.4, V1: 0.38})
	now = 6 * time.Second
	tr.Emit(Event{Plane: PlaneSched, Kind: KindDispatch, V0: 7})
	if tr.Count() != 2 || rec.Len() != 2 {
		t.Fatalf("counts: tracer %d recorder %d", tr.Count(), rec.Len())
	}
	evs, err := readEvents(bytes.NewReader(rec.NDJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if evs[0].Ord != 1 || evs[0].T != 5*time.Second || evs[0].V1 != 0.38 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Ord != 2 || evs[1].T != 6*time.Second {
		t.Fatalf("event 1 = %+v", evs[1])
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	cases := []Event{
		{Ord: 1, T: 0, Plane: PlaneSched, Kind: KindDispatch},
		{Ord: 2, T: time.Millisecond, Plane: PlaneNet, Kind: KindSend, Node: "10.0.0.1", Msg: "olsr"},
		{Ord: 3, T: 90 * time.Second, Plane: PlaneDetect, Kind: KindVerdict,
			Node: "10.0.0.1", Peer: "10.0.0.5", Msg: "intruder", V0: -0.875, V1: 3},
		{Ord: 18446744073709551615, T: -time.Second, Plane: "p\"la\\ne", Kind: "k\nind",
			Node: "日本", Msg: "ctrl\x01chars\ttab", V0: 1e-300, V1: -0.1},
	}
	for _, e := range cases {
		line := e.AppendNDJSON(nil)
		if !json.Valid(bytes.TrimSuffix(line, []byte("\n"))) {
			t.Fatalf("invalid JSON: %s", line)
		}
		got, err := DecodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("decode %s: %v", line, err)
		}
		if got != e {
			t.Fatalf("round trip: got %+v want %+v", got, e)
		}
	}
}

func TestWriterSink(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tr := New(w, func() time.Duration { return time.Second })
	tr.Emit(Event{Plane: PlaneOLSR, Kind: KindHelloTx, Node: "10.0.0.3", V0: 2})
	if w.Err() != nil || w.Events() != 1 {
		t.Fatalf("writer: err=%v events=%d", w.Err(), w.Events())
	}
	evs, err := readEvents(&buf)
	if err != nil || len(evs) != 1 || evs[0].Node != "10.0.0.3" {
		t.Fatalf("read back: %v %+v", err, evs)
	}
}

func TestDiffIdentical(t *testing.T) {
	a := "{\"ord\":1,\"t\":0,\"plane\":\"sched\",\"kind\":\"dispatch\"}\n"
	d, err := Diff(strings.NewReader(a), strings.NewReader(a))
	if err != nil || d != nil {
		t.Fatalf("identical traces: d=%v err=%v", d, err)
	}
}

func TestDiffFirstDivergence(t *testing.T) {
	var ra, rb Recorder
	ta := New(&ra, func() time.Duration { return 0 })
	tb := New(&rb, func() time.Duration { return 0 })
	ta.Emit(Event{Plane: PlaneSched, Kind: KindDispatch, V0: 1})
	tb.Emit(Event{Plane: PlaneSched, Kind: KindDispatch, V0: 1})
	ta.Emit(Event{Plane: PlaneTrust, Kind: KindUpdate, Node: "10.0.0.1", V0: 0.4, V1: 0.5})
	tb.Emit(Event{Plane: PlaneTrust, Kind: KindUpdate, Node: "10.0.0.1", V0: 0.4, V1: 0.3})
	d, err := Diff(bytes.NewReader(ra.NDJSON()), bytes.NewReader(rb.NDJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Line != 2 {
		t.Fatalf("divergence = %+v", d)
	}
	if d.A == nil || d.B == nil || d.A.V1 != 0.5 || d.B.V1 != 0.3 {
		t.Fatalf("decoded divergence: %+v / %+v", d.A, d.B)
	}
	if !strings.Contains(d.String(), "line 2") {
		t.Fatalf("String: %s", d.String())
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	var ra, rb Recorder
	ta := New(&ra, func() time.Duration { return 0 })
	tb := New(&rb, func() time.Duration { return 0 })
	ta.Emit(Event{Plane: PlaneSched, Kind: KindDispatch})
	tb.Emit(Event{Plane: PlaneSched, Kind: KindDispatch})
	tb.Emit(Event{Plane: PlaneNet, Kind: KindSend, Node: "10.0.0.1"})
	d, err := Diff(bytes.NewReader(ra.NDJSON()), bytes.NewReader(rb.NDJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Line != 2 || d.ARaw != "" || d.B == nil {
		t.Fatalf("divergence = %+v", d)
	}
}

func TestComputeStats(t *testing.T) {
	var rec Recorder
	now := time.Duration(0)
	tr := New(&rec, func() time.Duration { return now })
	tr.Emit(Event{Plane: PlaneSched, Kind: KindDispatch})
	now = 10 * time.Second
	tr.Emit(Event{Plane: PlaneDetect, Kind: KindEvidence, Node: "10.0.0.1", Peer: "10.0.0.5", V0: -1, V1: 0.4})
	now = 25 * time.Second
	tr.Emit(Event{Plane: PlaneDetect, Kind: KindVerdict, Node: "10.0.0.1", Peer: "10.0.0.5",
		Msg: "intruder", V0: -0.9, V1: 4})
	st, err := ComputeStats(bytes.NewReader(rec.NDJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 3 || st.Planes[PlaneDetect] != 2 || st.Kinds["sched/dispatch"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.LastNS != int64(25*time.Second) {
		t.Fatalf("LastNS = %d", st.LastNS)
	}
	if len(st.Detections) != 1 {
		t.Fatalf("detections = %+v", st.Detections)
	}
	d := st.Detections[0]
	if d.Node != "10.0.0.5" || d.LatencyNS != int64(15*time.Second) || d.Rounds != 4 {
		t.Fatalf("detection = %+v", d)
	}
	if st.MeanLatencyNS != d.LatencyNS {
		t.Fatalf("mean latency = %d", st.MeanLatencyNS)
	}
}

func TestScannerRejectsGarbage(t *testing.T) {
	_, err := readEvents(strings.NewReader("not json\n"))
	if err == nil {
		t.Fatal("garbage line did not error")
	}
}

// readEvents decodes a whole NDJSON stream through Scanner.Next.
func readEvents(r io.Reader) ([]Event, error) {
	sc := NewScanner(r)
	var out []Event
	for {
		e, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

func TestReadAllEmpty(t *testing.T) {
	evs, err := readEvents(strings.NewReader(""))
	if err != nil || len(evs) != 0 {
		t.Fatalf("empty stream: %v %v", evs, err)
	}
	if _, err := io.ReadAll(strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
}
