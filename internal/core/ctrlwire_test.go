package core

import (
	"bytes"
	"reflect"
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
		dec, err := decodeCtrlMsg(enc)
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
			if _, err := decodeCtrlMsg(enc[:cut]); err == nil {
				t.Fatalf("decode accepted a %d/%d-byte prefix", cut, len(enc))
			}
		}
		if _, err := decodeCtrlMsg(append(append([]byte{}, enc...), 0)); err == nil {
			t.Fatal("decode accepted trailing garbage")
		}
		enc[0] = '{'
		if _, err := decodeCtrlMsg(enc); err == nil {
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
	if dec, err := decodeCtrlMsg(on); err == nil {
		t.Fatalf("decode accepted flag byte 2 at offset %d: %+v", flag, dec.Req)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeCtrlMsg(data)
		if err != nil {
			return
		}
		if enc := appendCtrlMsg(nil, m); !bytes.Equal(enc, data) {
			t.Fatalf("accepted input does not re-encode to itself:\n in: %x\nout: %x", data, enc)
		}
	})
}
