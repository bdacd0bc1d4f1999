package synopsis

import (
	"bufio"
	"bytes"
	"testing"
)

// BenchmarkAppendRecord measures the record encode hot path. It must report
// 0 allocs/op: AppendRecord is append-only into the caller's buffer.
func BenchmarkAppendRecord(b *testing.B) {
	s := sampleSynopsis(7)
	dst := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendRecord(dst[:0], s)
	}
	if len(dst) == 0 {
		b.Fatal("empty encoding")
	}
}

// BenchmarkDecodeRecord measures the record decode hot path into a reused
// synopsis. It must report 0 allocs/op.
func BenchmarkDecodeRecord(b *testing.B) {
	wire := AppendRecord(nil, sampleSynopsis(7))
	var s Synopsis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeRecord(wire, &s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFrames measures v2 batch encode with a warm intern table.
func BenchmarkAppendFrames(b *testing.B) {
	batch := make([]*Synopsis, 128)
	for i := range batch {
		batch[i] = sampleSynopsis(i)
	}
	enc := NewBatchEncoder()
	dst := enc.AppendFrames(nil, batch) // warm table + scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = enc.AppendFrames(dst[:0], batch)
	}
	b.SetBytes(int64(len(dst)))
}

// BenchmarkDecodeBatch measures v2 batch decode into a reused synopsis.
func BenchmarkDecodeBatch(b *testing.B) {
	batch := make([]*Synopsis, 128)
	for i := range batch {
		batch[i] = sampleSynopsis(i)
	}
	// The stream is a defining frame followed by an all-refs frame, so the
	// decoder's intern table is valid from the first byte and the steady
	// state exercises the interned path.
	enc := NewBatchEncoder()
	wire := enc.AppendFrames(nil, batch)
	wire = enc.AppendFrames(wire, batch)
	r := bytes.NewReader(wire)
	br := bufio.NewReader(r)
	dec := NewBatchDecoder(br)
	var s Synopsis
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Decode(&s); err != nil {
			b.StopTimer()
			// Rewind: a fresh decoder must re-see the defining frame, so
			// rebuild the two-frame stream (define + refs) outside the timer.
			full := NewBatchEncoder()
			first := full.AppendFrames(nil, batch)
			both := full.AppendFrames(first, batch)
			r = bytes.NewReader(both)
			br.Reset(r)
			dec = NewBatchDecoder(br)
			b.StartTimer()
			i--
			continue
		}
		n++
	}
	if b.N > 0 && n == 0 {
		b.Fatal("no records decoded")
	}
}
