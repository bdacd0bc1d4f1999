package synopsis

import (
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"saad/internal/logpoint"
)

func sampleSynopsis(i int) *Synopsis {
	s := &Synopsis{
		Stage:    logpoint.StageID(i%40 + 1),
		Host:     uint16(i % 4),
		TaskID:   uint64(i),
		Start:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond),
		Duration: time.Duration(i%100+1) * 37 * time.Microsecond,
		Points: []PointCount{
			{Point: logpoint.ID(i%7 + 1), Count: uint32(i%3 + 1)},
			{Point: logpoint.ID(i%7 + 10), Count: 1},
			{Point: logpoint.ID(i%7 + 200), Count: uint32(i%50 + 1)},
		},
	}
	s.Normalize()
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	const n = 1000
	var got Synopsis // reused across records, as a decoder's caller would
	var rec []byte
	for i := 0; i < n; i++ {
		want := sampleSynopsis(i)
		rec = AppendRecord(rec[:0], want)
		if len(rec) != EncodedSize(want) {
			t.Fatalf("record %d: %d bytes, EncodedSize says %d", i, len(rec), EncodedSize(want))
		}
		if err := DecodeRecord(rec, &got); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.Stage != want.Stage || got.Host != want.Host || got.TaskID != want.TaskID {
			t.Fatalf("record %d header = %+v, want %+v", i, got, want)
		}
		if !got.Start.Equal(want.Start) {
			t.Fatalf("record %d start = %v, want %v", i, got.Start, want.Start)
		}
		if got.Duration != want.Duration {
			t.Fatalf("record %d duration = %v, want %v", i, got.Duration, want.Duration)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("record %d points = %v", i, got.Points)
		}
		for j := range want.Points {
			if got.Points[j] != want.Points[j] {
				t.Fatalf("record %d point %d = %v, want %v", i, j, got.Points[j], want.Points[j])
			}
		}
	}
	if err := DecodeRecord(nil, &got); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("empty buffer: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestCodecEmptyPoints(t *testing.T) {
	s := &Synopsis{Stage: 1, TaskID: 9, Start: time.UnixMicro(12345).UTC()}
	var got Synopsis
	got.Points = []PointCount{{1, 1}} // must be reset by decode
	if err := DecodeRecord(AppendRecord(nil, s), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 0 {
		t.Fatalf("points = %v, want empty", got.Points)
	}
}

func TestCodecCompactness(t *testing.T) {
	// A typical synopsis (5 log points) must stay within a few tens of
	// bytes — the property Figure 8's volume reduction rests on.
	s := &Synopsis{
		Stage: 12, Host: 3, TaskID: 123456,
		Start:    time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC),
		Duration: 18 * time.Millisecond,
		Points:   []PointCount{{11, 1}, {12, 25}, {13, 24}, {14, 25}, {15, 1}},
	}
	size := EncodedSize(s)
	if size > 48 {
		t.Fatalf("encoded size = %d bytes, want <= 48", size)
	}
	if size < 10 {
		t.Fatalf("encoded size = %d bytes, implausibly small", size)
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := AppendRecord(nil, sampleSynopsis(1))
	for cut := 1; cut < len(full); cut++ {
		var s Synopsis
		if err := DecodeRecord(full[:cut], &s); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
}

// TestDecodeRecordExactLength: a record must fill its buffer exactly, so
// trailing bytes and a length prefix that disagrees with the body are both
// rejected rather than silently ignored.
func TestDecodeRecordExactLength(t *testing.T) {
	rec := AppendRecord(nil, sampleSynopsis(3))
	var s Synopsis
	if err := DecodeRecord(append(append([]byte(nil), rec...), 0x01), &s); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// The prefix is one byte for this record; shrink it by one so the
	// body's last byte becomes trailing, and grow it by one so the body
	// comes up short.
	if rec[0]&0x80 != 0 {
		t.Fatalf("test record needs a one-byte length prefix, got %#x", rec[0])
	}
	short := append([]byte(nil), rec...)
	short[0]--
	if err := DecodeRecord(short, &s); err == nil {
		t.Fatal("length prefix one short of the body accepted")
	}
	long := append([]byte(nil), rec...)
	long[0]++
	if err := DecodeRecord(long, &s); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("length prefix one past the body: got %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestDecodeOversizedRecordRejected(t *testing.T) {
	var hdr []byte
	hdr = binary.AppendUvarint(hdr, maxRecordSize+1)
	var s Synopsis
	if err := DecodeRecord(hdr, &s); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

func TestDecodeBogusPointCount(t *testing.T) {
	// Craft a body claiming more points than bytes remain.
	var body []byte
	for i := 0; i < 5; i++ { // stage, host, task, start, duration
		body = binary.AppendUvarint(body, 1)
	}
	body = binary.AppendUvarint(body, 1<<30) // absurd point count
	var rec []byte
	rec = binary.AppendUvarint(rec, uint64(len(body)))
	rec = append(rec, body...)
	var s Synopsis
	if err := DecodeRecord(rec, &s); err == nil {
		t.Fatal("bogus point count accepted")
	}
}

// Property: encode/decode round-trips arbitrary normalized synopses.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(stage uint16, host uint16, task uint64, startUs uint32, durUs uint32, rawPts []uint16, counts []uint8) bool {
		s := &Synopsis{
			Stage:    logpoint.StageID(stage),
			Host:     host,
			TaskID:   task,
			Start:    time.UnixMicro(int64(startUs)).UTC(),
			Duration: time.Duration(durUs) * time.Microsecond,
		}
		for i, p := range rawPts {
			c := uint32(1)
			if i < len(counts) {
				c = uint32(counts[i]) + 1
			}
			s.Points = append(s.Points, PointCount{Point: logpoint.ID(p), Count: c})
		}
		s.Normalize()
		var got Synopsis
		if err := DecodeRecord(AppendRecord(nil, s), &got); err != nil {
			return false
		}
		if got.Stage != s.Stage || got.Host != s.Host || got.TaskID != s.TaskID ||
			!got.Start.Equal(s.Start) || got.Duration != s.Duration || len(got.Points) != len(s.Points) {
			return false
		}
		for i := range s.Points {
			if got.Points[i] != s.Points[i] {
				return false
			}
		}
		return got.Signature() == s.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
