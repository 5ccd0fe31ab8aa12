package core

import (
	"bytes"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"testing"

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
		dec, err := decodeCtrlMsg(enc, nil)
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
			if _, err := decodeCtrlMsg(enc[:cut], nil); err == nil {
				t.Fatalf("decode accepted a %d/%d-byte prefix", cut, len(enc))
			}
		}
		if _, err := decodeCtrlMsg(append(append([]byte{}, enc...), 0), nil); err == nil {
			t.Fatal("decode accepted trailing garbage")
		}
		enc[0] = '{'
		if _, err := decodeCtrlMsg(enc, nil); err == nil {
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
	if dec, err := decodeCtrlMsg(on, nil); err == nil {
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
	_, err := decodeCtrlMsg(frame, nil)
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
		m, err := decodeCtrlMsg(data, nil)
		if err != nil {
			return
		}
		if enc := appendCtrlMsg(nil, m); !bytes.Equal(enc, data) {
			t.Fatalf("accepted input does not re-encode to itself:\n in: %x\nout: %x", data, enc)
		}
	})
}

// FuzzCtrlScratchDecode holds the tree-head scratch decode to the fresh
// one. Input a is decoded both ways, and both must fail or both
// re-encode to a. A node then handles a, if it is a tree head. Input b
// is decoded into the same scratch: it must re-encode to b, whatever a
// left behind, and the heads the node recorded from a must not change.
func FuzzCtrlScratchDecode(f *testing.F) {
	var encs [][]byte
	for _, m := range sampleCtrlMsgs() {
		encs = append(encs, appendCtrlMsg(nil, m))
	}
	long := auditlog.Proof{Path: []auditlog.Hash{{1}, {2}, {3}, {4}}}
	encs = append(encs, appendCtrlMsg(nil, &ctrlMsg{Kind: ctrlTreeHead, From: 3, To: addr.Broadcast,
		TTL: 2, Avoid: []addr.Node{5, 6, 7}, Origin: 3, Head: &auditlog.TreeHead{Size: 9, Root: auditlog.Hash{9}},
		HeadPrev: 4, HeadProof: &long}))
	for _, a := range encs {
		for _, b := range encs {
			f.Add(a, b)
		}
	}
	f.Add(encs[len(encs)-1], []byte{ctrlBinaryMagic, byte(ctrlTreeHead)})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		w := NewNetwork(Config{Seed: 1, Evidence: true})
		n := w.AddNode(NodeSpec{ID: addr.NodeAt(1)})
		s := w.ctrlScratch

		fresh, err := decodeCtrlMsg(a, nil)
		m, serr := decodeCtrlMsg(a, s)
		if (err == nil) != (serr == nil) {
			t.Fatalf("fresh decode error %v, scratch decode error %v", err, serr)
		}
		if err == nil {
			if enc := appendCtrlMsg(nil, m); !bytes.Equal(enc, a) {
				t.Fatalf("scratch decode re-encodes to %x, fresh to %x", enc, appendCtrlMsg(nil, fresh))
			}
			if fresh.Kind == ctrlTreeHead {
				n.handleCtrl(a)
			}
		}
		recorded := maps.Clone(n.heads)
		if err == nil && fresh.Head != nil && fresh.Kind == ctrlTreeHead &&
			fresh.Origin != addr.None && fresh.Origin != n.ID && recorded[fresh.Origin] != *fresh.Head {
			t.Fatalf("node recorded %v from origin %v, want %v", recorded[fresh.Origin], fresh.Origin, *fresh.Head)
		}

		if m, err := decodeCtrlMsg(b, s); err == nil {
			if enc := appendCtrlMsg(nil, m); !bytes.Equal(enc, b) {
				t.Fatalf("b decoded into a's scratch re-encodes to itself no more:\n in: %x\nout: %x", b, enc)
			}
		}
		if !maps.Equal(n.heads, recorded) {
			t.Fatalf("decoding b changed the heads recorded from a: %v, want %v", n.heads, recorded)
		}
	})
}
