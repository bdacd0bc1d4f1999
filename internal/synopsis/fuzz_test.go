package synopsis

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
)

// synopsisFromFuzz derives a normalized synopsis from fuzzer-chosen
// primitives. ptSeed drives a small deterministic point-list generator so
// the corpus explores empty, single and multi-point shapes.
func synopsisFromFuzz(stage, host uint16, task uint64, startUs, durUs int64, npts uint8, ptSeed uint64, traced bool) *Synopsis {
	if startUs < 0 {
		startUs = -startUs
	}
	if durUs < 0 {
		durUs = -durUs
	}
	s := &Synopsis{
		Stage:    logpoint.StageID(stage),
		Host:     host,
		TaskID:   task,
		Start:    time.UnixMicro(startUs % (1 << 48)).UTC(),
		Duration: time.Duration(durUs%(1<<40)) * time.Microsecond,
	}
	n := int(npts % 32)
	for i := 0; i < n; i++ {
		ptSeed = ptSeed*6364136223846793005 + 1442695040888963407
		s.Points = append(s.Points, PointCount{
			Point: logpoint.ID(ptSeed >> 48),
			Count: uint32(ptSeed>>16)%1000 + 1,
		})
	}
	s.Normalize()
	if traced {
		s.Trace = &trace.Span{
			Emit: int64(ptSeed % (1 << 50)),
			Send: int64((ptSeed >> 3) % (1 << 50)),
		}
	}
	return s
}

// FuzzRecordRoundTrip drives the same synopsis through both encodings — a
// length-prefixed record and a v2 batch (encoded twice, so the second copy
// exercises the interned-ref path) — and requires byte-exact field
// equality on every decode.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint16(1), uint16(2), uint64(3), int64(4), int64(5), uint8(3), uint64(6), false)
	f.Add(uint16(40), uint16(0), uint64(1<<60), int64(1<<40), int64(77), uint8(0), uint64(9), true)
	f.Add(uint16(0), uint16(65535), uint64(0), int64(0), int64(0), uint8(31), uint64(1), true)
	f.Fuzz(func(t *testing.T, stage, host uint16, task uint64, startUs, durUs int64, npts uint8, ptSeed uint64, traced bool) {
		want := synopsisFromFuzz(stage, host, task, startUs, durUs, npts, ptSeed, traced)

		// Length-prefixed single record.
		var got1 Synopsis
		if err := DecodeRecord(AppendRecord(nil, want), &got1); err != nil {
			t.Fatalf("record decode: %v", err)
		}
		assertEqualSynopsis(t, 0, &got1, want)

		// v2: two batches from one connection-scoped encoder; the first
		// defines the (stage, host) group inline, the second refs it.
		enc := NewBatchEncoder()
		wire := enc.AppendFrames(nil, []*Synopsis{want})
		wire = enc.AppendFrames(wire, []*Synopsis{want})
		bdec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(wire)))
		for i := 0; i < 2; i++ {
			var got2 Synopsis
			if err := bdec.Decode(&got2); err != nil {
				t.Fatalf("v2 decode copy %d: %v", i, err)
			}
			assertEqualSynopsis(t, i, &got2, want)
		}
		if enc.InternedRefs() != 1 {
			t.Fatalf("interned refs = %d, want exactly 1 (second copy)", enc.InternedRefs())
		}
	})
}

// FuzzDecodeCorrupt feeds arbitrary bytes to the record decoder, the batch
// decoder and the hello reader: they must terminate without panicking and
// without unbounded allocation, surfacing an error (or clean EOF) in
// bounded records.
func FuzzDecodeCorrupt(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, sampleSynopsis(1)))
	f.Add(NewBatchEncoder().AppendFrames(nil, []*Synopsis{sampleSynopsis(2), sampleSynopsis(3)}))
	f.Add(AppendHello(nil, MaxProtocolVersion))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRecords = 1 << 16

		var s Synopsis
		if err := DecodeRecord(data, &s); err == nil && len(s.Points) > len(data) {
			t.Fatalf("record decoder produced %d points from %d input bytes", len(s.Points), len(data))
		}
		if v, err := PeekHello(bufio.NewReader(bytes.NewReader(data))); err == nil && v < ProtocolV2 {
			t.Fatalf("hello reader accepted version %d", v)
		}

		bdec := NewBatchDecoder(bufio.NewReader(bytes.NewReader(data)))
		for i := 0; ; i++ {
			if i > maxRecords {
				t.Fatalf("v2 decoder yielded more than %d records from %d bytes", maxRecords, len(data))
			}
			if err := bdec.Decode(&s); err != nil {
				break // clean EOF or a surfaced corruption error — both fine
			}
			if len(s.Points) > len(data) {
				t.Fatalf("v2 decoder produced %d points from %d input bytes", len(s.Points), len(data))
			}
		}
	})
}
