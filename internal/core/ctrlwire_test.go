package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/auditlog"
	"repro/internal/detect"
)

// sampleCtrlMsgs covers every optional section of the envelope: bare
// requests, proof-carrying replies, tree-head gossip with and without a
// consistency proof.
func sampleCtrlMsgs() []*ctrlMsg {
	h1 := auditlog.TreeHead{Size: 42, Root: auditlog.Hash{1, 2, 3, 31: 9}}
	h2 := auditlog.TreeHead{Size: 99, Root: auditlog.Hash{0xff, 31: 0xee}}
	proof := auditlog.Proof{Path: []auditlog.Hash{{7, 31: 8}, {9, 31: 10}}}
	return []*ctrlMsg{
		{
			Kind: ctrlVerifyReq, From: 1, To: 5, TTL: 16,
			Avoid: []addr.Node{3, 9},
			Req: &detect.VerifyRequest{
				ID: 7, Investigator: 1, Responder: 5, Suspect: 3, Link: 9,
				Advertised: true, Avoid: []addr.Node{3, 9},
			},
		},
		{
			Kind: ctrlVerifyReq, From: 2, To: 6, TTL: 1,
			Req: &detect.VerifyRequest{
				ID: 8, Investigator: 2, Responder: 6, Suspect: 4, Link: 10,
				KnownHead: &h1,
			},
		},
		{
			Kind: ctrlVerifyRep, From: 5, To: 1, TTL: 15,
			Avoid: []addr.Node{3},
			Rep: &detect.VerifyReply{
				ID: 7, Responder: 5, Suspect: 3, Link: 9,
				Answered: true, LinkExists: false, FirstHand: true,
				Head: &h2, Consistency: &proof,
				Citations: []detect.Citation{
					{Index: 4, Record: "t=1s node=5 kind=hello_rx from=3", Proof: proof},
					{Index: 9, Record: "", Proof: auditlog.Proof{}},
				},
			},
		},
		{
			Kind: ctrlTreeHead, From: 4, To: addr.Broadcast, TTL: 16,
			Origin: 4, Head: &h1,
		},
		{
			Kind: ctrlTreeHead, From: 4, To: addr.Broadcast, TTL: 3,
			Origin: 4, Head: &h2, HeadPrev: 42, HeadProof: &proof,
		},
	}
}

func TestCtrlBinaryRoundTrip(t *testing.T) {
	for i, m := range sampleCtrlMsgs() {
		enc := appendCtrlMsg(nil, m)
		if enc[0] != ctrlBinaryMagic {
			t.Fatalf("msg %d: missing magic byte", i)
		}
		dec, err := decodeCtrlMsg(enc, new(ctrlScratch))
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(m, dec) {
			t.Errorf("msg %d: round trip diverged:\n in: %+v\nout: %+v", i, m, dec)
		}
	}
}

func TestCtrlBinaryRejectsTruncation(t *testing.T) {
	for _, m := range sampleCtrlMsgs() {
		enc := appendCtrlMsg(nil, m)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeCtrlMsg(enc[:cut], new(ctrlScratch)); err == nil {
				t.Fatalf("decode accepted a %d/%d-byte prefix", cut, len(enc))
			}
		}
		if _, err := decodeCtrlMsg(append(append([]byte{}, enc...), 0), new(ctrlScratch)); err == nil {
			t.Fatal("decode accepted trailing garbage")
		}
		enc[0] = '{'
		if _, err := decodeCtrlMsg(enc, new(ctrlScratch)); err == nil {
			t.Fatal("decode accepted an envelope without its format tag")
		}
	}
}

// TestCtrlDecodeRejectsNonCanonicalBool holds the decoder to one
// encoding per envelope: a flag byte other than 0 or 1 is malformed, not
// "true".
func TestCtrlDecodeRejectsNonCanonicalBool(t *testing.T) {
	m := sampleCtrlMsgs()[0]
	if !m.Req.Advertised {
		t.Fatal("sample request must be advertised")
	}
	on := appendCtrlMsg(nil, m)
	req := *m.Req
	req.Advertised = false
	plain := *m
	plain.Req = &req
	off := appendCtrlMsg(nil, &plain)

	// The two encodings differ only in the Advertised byte.
	flag := -1
	for i := range on {
		if on[i] != off[i] {
			flag = i
		}
	}
	if flag < 0 || on[flag] != 1 || off[flag] != 0 {
		t.Fatalf("no single Advertised flag byte found (index %d)", flag)
	}
	on[flag] = 2
	if dec, err := decodeCtrlMsg(on, new(ctrlScratch)); err == nil {
		t.Fatalf("decode accepted flag byte 2 at offset %d: %+v", flag, dec.Req)
	}
}

// hugeCitationCountFrame is a 45-byte reply envelope whose citation
// count claims 65535 citations with no bytes left for any of them.
func hugeCitationCountFrame() []byte {
	b := []byte{ctrlBinaryMagic, byte(ctrlVerifyRep)}
	b = append(b, make([]byte, 4+4+4+2)...) // from, to, TTL, empty avoid list
	b = append(b, 0, 1)                     // no request; a reply follows
	b = append(b, make([]byte, 8+3*4+3)...) // ID, responder, suspect, link, three flags
	b = append(b, 0, 0)                     // no head, no consistency proof
	return append(b, 0xff, 0xff)            // the citation count
}

// TestCtrlDecodeBoundsCitationCount holds the decoder to sizing the
// citation slice only from a count the frame's bytes can back: a frame
// claiming 65535 citations with none present is truncated, and decoding
// it allocates next to nothing.
func TestCtrlDecodeBoundsCitationCount(t *testing.T) {
	frame := hugeCitationCountFrame()
	if len(frame) != 45 {
		t.Fatalf("frame is %d bytes, want 45", len(frame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeCtrlMsg(frame, new(ctrlScratch))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errCtrlTruncated) {
		t.Fatalf("decode error %v, want %v", err, errCtrlTruncated)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("decode allocated %d bytes, want under 64 KiB", got)
	}
}

// FuzzCtrlDecode holds the control-envelope decoder to two properties on
// arbitrary bytes: it never panics, and any input it accepts re-encodes
// to exactly the same bytes (the codec is canonical).
func FuzzCtrlDecode(f *testing.F) {
	for _, m := range sampleCtrlMsgs() {
		enc := appendCtrlMsg(nil, m)
		f.Add(enc)
		untagged := bytes.Clone(enc)
		untagged[0] = '{'
		f.Add(untagged)
	}
	f.Add(hugeCitationCountFrame())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCtrlMsg(data, new(ctrlScratch))
		if err != nil {
			return
		}
		if enc := appendCtrlMsg(nil, m); !bytes.Equal(enc, data) {
			t.Fatalf("accepted input does not re-encode to itself:\n in: %x\nout: %x", data, enc)
		}
	})
}

// investigatingNetwork returns an unstarted evidence-plane network
// whose node 1 investigates suspect 9 about the link to 99 that 9
// advertised in a HELLO: request 1 to responder 99 is pending, and the
// round closes after the detector's answer timeout.
func investigatingNetwork() (*Network, *Node) {
	w := NewNetwork(Config{Seed: 1, Evidence: true})
	n := w.AddNode(NodeSpec{ID: addr.NodeAt(1), Detector: &detect.Config{}})
	hearHello(n, addr.NodeAt(9), addr.NodeAt(99))
	n.Detector.OpenInvestigation(addr.NodeAt(9), "test")
	return w, n
}

// ctrlState renders what a node and its network kept of the envelopes
// handled so far: the detector's reports and late replies, the heads
// recorded from gossip, and the ctrl counters.
func ctrlState(w *Network, n *Node) string {
	return fmt.Sprintf("reports %+v late %d heads %v ctrl %+v",
		n.Detector.Reports(), n.Detector.LateReplies(), n.heads, w.CtrlStats())
}

// FuzzCtrlScratchDecode holds the one-scratch decode of every envelope
// kind to the handlers that read it. Input a is decoded into the
// network's scratch and must re-encode to a. A node with a detector, an
// open investigation and a responder then handles a. Input b is decoded
// into the same scratch: it must re-encode to b, whatever a left behind,
// and nothing the node kept of a may change, neither at once nor once
// the investigation's round has closed, against a twin network that
// never decoded b.
func FuzzCtrlScratchDecode(f *testing.F) {
	var encs [][]byte
	for _, m := range sampleCtrlMsgs() {
		encs = append(encs, appendCtrlMsg(nil, m))
	}
	long := auditlog.Proof{Path: []auditlog.Hash{{1}, {2}, {3}, {4}}}
	longHead := appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlTreeHead, From: 3, To: addr.Broadcast,
		TTL: 2, Avoid: []addr.Node{5, 6, 7}, Origin: 3, Head: &auditlog.TreeHead{Size: 9, Root: auditlog.Hash{9}},
		HeadPrev: 4, HeadProof: &long})
	encs = append(encs, longHead)
	// Envelopes for investigatingNetwork's node 1: the awaited reply,
	// plain, with a citation that fails its proof, and with two and then
	// one citation over proof paths of other lengths, and a request it
	// answers.
	self, suspect, responder := addr.NodeAt(1), addr.NodeAt(9), addr.NodeAt(99)
	head := auditlog.TreeHead{Size: 3, Root: auditlog.Hash{3}}
	evidenceReply := func(cons auditlog.Proof, cites ...detect.Citation) []byte {
		return appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlVerifyRep, From: responder, To: self, TTL: 4,
			Rep: &detect.VerifyReply{ID: 1, Responder: responder, Suspect: suspect, Link: responder,
				Answered: true, FirstHand: true, Head: &head, Consistency: &cons, Citations: cites}})
	}
	short := auditlog.Proof{Path: []auditlog.Hash{{5}}}
	encs = append(encs,
		evidenceReply(short,
			detect.Citation{Index: 2, Record: "t=1s node=10.0.0.99 kind=hello_rx from=10.0.0.9", Proof: long},
			detect.Citation{Index: 0, Record: "t=0s node=10.0.0.99 kind=hello_tx", Proof: short}),
		evidenceReply(long,
			detect.Citation{Index: 1, Record: "x", Proof: auditlog.Proof{Path: []auditlog.Hash{{6}, {7}}}}),
	)
	encs = append(encs,
		appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlVerifyRep, From: responder, To: self, TTL: 4,
			Avoid: []addr.Node{suspect}, Rep: &detect.VerifyReply{ID: 1, Responder: responder,
				Suspect: suspect, Link: responder, Answered: true, FirstHand: true}}),
		appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlVerifyRep, From: responder, To: self, TTL: 4,
			Avoid: []addr.Node{suspect}, Rep: &detect.VerifyReply{ID: 1, Responder: responder,
				Suspect: suspect, Link: responder, Answered: true, Head: &head,
				Citations: []detect.Citation{{Index: 1, Record: "not a record", Proof: long}}}}),
		appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlVerifyReq, From: suspect, To: self, TTL: 4,
			Avoid: []addr.Node{5, 6}, Req: &detect.VerifyRequest{ID: 4, Investigator: suspect,
				Responder: self, Suspect: 3, Link: 5, Advertised: true, Avoid: []addr.Node{3}, KnownHead: &head}}),
	)
	for _, a := range encs {
		for _, b := range encs {
			f.Add(a, b)
		}
	}
	f.Add(longHead, []byte{ctrlBinaryMagic, byte(ctrlTreeHead)})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		w, n := investigatingNetwork()
		twin, twinNode := investigatingNetwork()
		s := &w.ctrlScratch

		m, err := decodeCtrlMsg(a, s)
		if err == nil {
			if enc := appendCtrlMsg(nil, m); !bytes.Equal(enc, a) {
				t.Fatalf("a does not re-encode to itself:\n in: %x\nout: %x", a, enc)
			}
			var gossiped *auditlog.TreeHead
			if m.Kind == ctrlTreeHead && m.Head != nil && m.Origin != addr.None && m.Origin != n.ID {
				h := *m.Head
				gossiped = &h
			}
			n.handleCtrl(a)
			twinNode.handleCtrl(a)
			if gossiped != nil && n.heads[m.Origin] != *gossiped {
				t.Fatalf("node recorded %v from origin %v, want %v", n.heads[m.Origin], m.Origin, *gossiped)
			}
		}
		kept := ctrlState(w, n)

		if m, err := decodeCtrlMsg(b, s); err == nil {
			if enc := appendCtrlMsg(nil, m); !bytes.Equal(enc, b) {
				t.Fatalf("b decoded into a's scratch re-encodes to itself no more:\n in: %x\nout: %x", b, enc)
			}
		}
		if got := ctrlState(w, n); got != kept {
			t.Fatalf("decoding b changed what the node kept of a:\n got %s\nwant %s", got, kept)
		}
		w.RunFor(5 * time.Second)
		twin.RunFor(5 * time.Second)
		if got, want := ctrlState(w, n), ctrlState(twin, twinNode); got != want {
			t.Fatalf("decoding b changed the round a took part in:\n got %s\nwant %s", got, want)
		}
	})
}
