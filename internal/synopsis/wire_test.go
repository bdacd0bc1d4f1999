package synopsis

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
)

// TestEncodedSizeMatchesAppendRecord pins the arithmetic EncodedSize to the
// encoder's actual output, traced and untraced, across varied shapes.
func TestEncodedSizeMatchesAppendRecord(t *testing.T) {
	for i := 0; i < 500; i++ {
		s := sampleSynopsis(i)
		if i%3 == 0 {
			s.Trace = &trace.Span{Emit: int64(i) * 1e9, Send: int64(i)*1e9 + 5}
		}
		if got, want := EncodedSize(s), len(AppendRecord(nil, s)); got != want {
			t.Fatalf("synopsis %d: EncodedSize=%d, len(AppendRecord)=%d", i, got, want)
		}
	}
	empty := &Synopsis{Start: time.UnixMicro(0).UTC()}
	if got, want := EncodedSize(empty), len(AppendRecord(nil, empty)); got != want {
		t.Fatalf("empty synopsis: EncodedSize=%d, len(AppendRecord)=%d", got, want)
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 32, 1<<64 - 1} {
		var buf [10]byte
		if got, want := uvarintLen(v), putUvarintLen(buf[:], v); got != want {
			t.Fatalf("uvarintLen(%d)=%d, PutUvarint wrote %d", v, got, want)
		}
	}
}

func putUvarintLen(buf []byte, v uint64) int {
	n := 0
	for v >= 0x80 {
		buf[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = byte(v)
	return n + 1
}

// roundTripV2 encodes batches with enc and decodes everything back.
func roundTripV2(t *testing.T, enc *BatchEncoder, batches [][]*Synopsis) []*Synopsis {
	t.Helper()
	var wire []byte
	for _, b := range batches {
		wire = enc.AppendFrames(wire, b)
	}
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	var out []*Synopsis
	for {
		var s Synopsis
		err := dec.Decode(&s)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decode record %d: %v", len(out), err)
		}
		out = append(out, s.Clone())
	}
	return out
}

func TestBatchRoundTrip(t *testing.T) {
	enc := NewBatchEncoder()
	var want []*Synopsis
	var batches [][]*Synopsis
	for b := 0; b < 7; b++ {
		var batch []*Synopsis
		for i := 0; i < 50+b; i++ {
			s := sampleSynopsis(b*100 + i)
			if (b+i)%5 == 0 {
				s.Trace = &trace.Span{Emit: 100 + int64(i), Send: 200 + int64(i)}
			}
			batch = append(batch, s)
			want = append(want, s)
		}
		batches = append(batches, batch)
	}
	got := roundTripV2(t, enc, batches)
	if len(got) != len(want) {
		t.Fatalf("decoded %d synopses, want %d", len(got), len(want))
	}
	for i := range want {
		assertEqualSynopsis(t, i, got[i], want[i])
	}
	if enc.InternedRefs() == 0 {
		t.Fatal("expected interned header refs after repeated (host,stage) groups")
	}
}

func assertEqualSynopsis(t *testing.T, i int, got, want *Synopsis) {
	t.Helper()
	if got.Stage != want.Stage || got.Host != want.Host || got.TaskID != want.TaskID {
		t.Fatalf("synopsis %d header mismatch: got %v want %v", i, got, want)
	}
	if !got.Start.Equal(want.Start) || got.Duration != want.Duration {
		t.Fatalf("synopsis %d time mismatch: got %v/%v want %v/%v", i, got.Start, got.Duration, want.Start, want.Duration)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("synopsis %d point count mismatch: got %d want %d", i, len(got.Points), len(want.Points))
	}
	for j := range want.Points {
		if got.Points[j] != want.Points[j] {
			t.Fatalf("synopsis %d point %d mismatch: got %v want %v", i, j, got.Points[j], want.Points[j])
		}
	}
	if (got.Trace == nil) != (want.Trace == nil) {
		t.Fatalf("synopsis %d trace presence mismatch", i)
	}
	if want.Trace != nil && (got.Trace.Emit != want.Trace.Emit || got.Trace.Send != want.Trace.Send) {
		t.Fatalf("synopsis %d trace stamps mismatch: got %+v want %+v", i, got.Trace, want.Trace)
	}
}

// TestBatchInterning verifies repeated group headers shrink to one uvarint:
// the second batch of the same group must be strictly smaller than the
// first, and a Reset must re-emit the inline definition.
func TestBatchInterning(t *testing.T) {
	mk := func(n int) []*Synopsis {
		out := make([]*Synopsis, n)
		for i := range out {
			out[i] = &Synopsis{
				Stage: 7, Host: 3, TaskID: uint64(i),
				Start:  time.UnixMicro(1000).UTC(),
				Points: []PointCount{{Point: 5, Count: 1}},
			}
		}
		return out
	}
	enc := NewBatchEncoder()
	first := len(enc.AppendFrames(nil, mk(10)))
	second := len(enc.AppendFrames(nil, mk(10)))
	if second >= first {
		t.Fatalf("interned batch (%dB) not smaller than defining batch (%dB)", second, first)
	}
	enc.Reset()
	third := len(enc.AppendFrames(nil, mk(10)))
	if third != first {
		t.Fatalf("post-Reset batch %dB, want the defining size %dB again", third, first)
	}
}

// TestBatchDecoderRejectsStaleRef proves the decoder refuses an intern ref
// it never saw a definition for — the reconnect/reset safety property.
func TestBatchDecoderRejectsStaleRef(t *testing.T) {
	enc := NewBatchEncoder()
	warm := enc.AppendFrames(nil, []*Synopsis{sampleSynopsis(1)})
	// Same encoder, table now warm: this frame uses a bare ref.
	refOnly := enc.AppendFrames(nil, []*Synopsis{sampleSynopsis(1)})
	_ = warm
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(refOnly)))
	var s Synopsis
	if err := dec.Decode(&s); err == nil {
		t.Fatal("decoder accepted an intern ref with an empty table (simulated reconnect without reset)")
	}
}

func TestBatchFrameSplitting(t *testing.T) {
	enc := NewBatchEncoder()
	batch := make([]*Synopsis, MaxBatchRecords+5)
	for i := range batch {
		batch[i] = sampleSynopsis(i)
	}
	wire := enc.AppendFrames(nil, batch)
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
	frames := 0
	dec.SetFrameHook(func(int) { frames++ })
	n := 0
	for {
		var s Synopsis
		err := dec.Decode(&s)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(batch) {
		t.Fatalf("decoded %d records, want %d", n, len(batch))
	}
	if frames < 2 {
		t.Fatalf("batch of %d records produced %d frames, want a split", len(batch), frames)
	}
}

func TestBatchDecoderCorruptInputs(t *testing.T) {
	enc := NewBatchEncoder()
	good := enc.AppendFrames(nil, []*Synopsis{sampleSynopsis(3), sampleSynopsis(4)})

	// Every truncation of a valid stream must error (or EOF at offset 0).
	for cut := 0; cut < len(good); cut++ {
		dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(good[:cut])))
		var s Synopsis
		var err error
		for err == nil {
			err = dec.Decode(&s)
		}
		if errors.Is(err, io.EOF) && cut != 0 {
			t.Fatalf("truncation at %d/%d decoded as clean EOF", cut, len(good))
		}
	}

	// An oversized frame length must be rejected before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // ~34 GB
	dec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(huge)))
	var s Synopsis
	if err := dec.Decode(&s); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	hello := AppendHello(nil, MaxProtocolVersion)
	br := bufio.NewReader(bytes.NewReader(hello))
	maxVer, err := PeekHello(br)
	if err != nil || maxVer != MaxProtocolVersion {
		t.Fatalf("PeekHello = (%d, %v), want (%d, nil)", maxVer, err, MaxProtocolVersion)
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("hello not fully consumed: %v", err)
	}
	// A newer client is served the newest version this build speaks.
	newer := AppendHello(nil, MaxProtocolVersion+1)
	if v, err := PeekHello(bufio.NewReader(bytes.NewReader(newer))); err != nil || v != MaxProtocolVersion {
		t.Fatalf("PeekHello(newer client) = (%d, %v), want (%d, nil)", v, err, MaxProtocolVersion)
	}

	ack := AppendHelloAck(nil, ProtocolV2)
	ver, err := ReadHelloAck(bufio.NewReader(bytes.NewReader(ack)))
	if err != nil || ver != ProtocolV2 {
		t.Fatalf("ReadHelloAck = (%d, %v), want (%d, nil)", ver, err, ProtocolV2)
	}
}

// TestHelloRequired: a stream that opens with a bare record (short or
// multi-byte length prefix) instead of the hello, or whose hello or ack
// names a version below 2, is rejected with ErrBadHello.
func TestHelloRequired(t *testing.T) {
	big := sampleSynopsis(9)
	for i := 0; i < 40; i++ { // push the record length past 128 bytes
		big.Points = append(big.Points, PointCount{Point: logpoint.ID(300 + i*3), Count: 2})
	}
	big.Normalize()
	for name, wire := range map[string][]byte{
		"short-record":   AppendRecord(nil, sampleSynopsis(1)),
		"long-record":    AppendRecord(nil, big),
		"hello-version1": AppendHello(nil, 1),
		"hello-version0": AppendHello(nil, 0),
	} {
		if _, err := PeekHello(bufio.NewReader(bytes.NewReader(wire))); !errors.Is(err, ErrBadHello) {
			t.Errorf("%s: PeekHello err = %v, want ErrBadHello", name, err)
		}
	}
	for _, v := range []int{0, 1, MaxProtocolVersion + 1} {
		ack := AppendHelloAck(nil, v)
		if _, err := ReadHelloAck(bufio.NewReader(bytes.NewReader(ack))); !errors.Is(err, ErrBadHello) {
			t.Errorf("ack version %d: err = %v, want ErrBadHello", v, err)
		}
	}
}

func TestPool(t *testing.T) {
	p := NewPool(2)
	s := p.Get()
	s.Stage, s.Host, s.TaskID = 3, 4, 5
	s.Points = append(s.Points, PointCount{Point: 9, Count: 2})
	s.Trace = &trace.Span{}
	p.Put(s)
	got := p.Get()
	if got != s {
		t.Fatal("pool did not recycle the released synopsis")
	}
	if got.Stage != 0 || got.Host != 0 || got.TaskID != 0 || got.Trace != nil || len(got.Points) != 0 {
		t.Fatalf("recycled synopsis not reset: %+v", got)
	}
	if cap(got.Points) == 0 {
		t.Fatal("recycled synopsis lost its point capacity")
	}
	// nil pool degrades to allocation, never panics.
	var np *Pool
	if np.Get() == nil {
		t.Fatal("nil pool Get returned nil")
	}
	np.Put(&Synopsis{})
}
