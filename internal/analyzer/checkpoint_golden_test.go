package analyzer

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/trace"
	"saad/internal/vtime"
)

// goldenCheckpoint is a small checkpoint written from a fixed-seed stream.
// Its example synopses are armored with the length-prefixed record codec,
// including the trace and ring-epoch extensions; the file pins that armor
// byte for byte. Regenerate (only for a deliberate format change) with
// SAAD_UPDATE_GOLDEN=1 go test -run TestCheckpointGolden ./internal/analyzer/
const goldenCheckpoint = "testdata/checkpoint-golden.json"

// goldenDetector feeds a short fixed-seed stream that leaves every kind of
// example evidence in an open window (new signature, flow outlier, perf
// outlier), some of it traced or ring-epoch stamped, plus one closed
// window in the history.
func goldenDetector(t *testing.T) *Detector {
	t.Helper()
	det := NewDetector(trainedModel(t))
	rng := vtime.NewRNG(7)
	ts := epoch
	for i := 0; i < 24; i++ {
		dur := 9*time.Millisecond + time.Duration(rng.Intn(int(2*time.Millisecond)))
		pts := []logpoint.ID{1, 2, 4, 5}
		switch i % 6 {
		case 1:
			pts = []logpoint.ID{1} // never seen in training
			dur = time.Millisecond
		case 3:
			pts = []logpoint.ID{1, 2, 3, 4, 5} // rare flow
		case 5:
			dur = 40 * time.Millisecond // perf outlier
		}
		s := makeSyn(1, uint16(1+i%2), ts, dur, pts...)
		s.TaskID = uint64(1000 + i)
		if i%4 == 1 {
			s.Trace = &trace.Span{Stage: 1, Host: s.Host, TaskID: s.TaskID,
				Emit: ts.UnixNano(), Send: ts.UnixNano() + int64(3*time.Microsecond)}
		}
		if i%5 == 0 {
			s.RingEpoch = uint64(3 + i)
		}
		det.Feed(s)
		ts = ts.Add(time.Millisecond)
		if i == 11 {
			ts = ts.Add(det.model.Config.Window) // close the first windows
		}
	}
	return det
}

// TestCheckpointGolden pins the checkpoint format: the fixed-seed detector
// writes the committed fixture exactly, and restoring the fixture and
// writing it again reproduces it byte for byte.
func TestCheckpointGolden(t *testing.T) {
	var fresh bytes.Buffer
	if _, err := goldenDetector(t).WriteCheckpoint(&fresh); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("SAAD_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenCheckpoint), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCheckpoint, fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), golden) {
		t.Fatalf("fixed-seed checkpoint differs from %s:\n%s", goldenCheckpoint, fresh.String())
	}
	restored, err := ReadCheckpoint(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := restored.WriteCheckpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatalf("restored checkpoint re-writes differently from %s:\n%s", goldenCheckpoint, again.String())
	}
	if len(restored.open) == 0 || len(restored.WindowHistory()) == 0 {
		t.Fatal("fixture lacks open windows or history; the pin is vacuous")
	}
}

// TestCheckpointRejectsLooseExampleArmor: an armored example must be
// exactly one record. Trailing bytes after it, or a length prefix that
// disagrees with the body, make the checkpoint unreadable instead of being
// ignored.
func TestCheckpointRejectsLooseExampleArmor(t *testing.T) {
	golden, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	tamper := map[string]func(rec []byte) []byte{
		"trailing-bytes": func(rec []byte) []byte { return append(rec, 0x00, 0x01) },
		"prefix-short":   func(rec []byte) []byte { rec[0]--; return rec },
		"prefix-long":    func(rec []byte) []byte { rec[0]++; return rec },
	}
	for name, fn := range tamper {
		var raw checkpointJSON
		if err := json.Unmarshal(golden, &raw); err != nil {
			t.Fatal(err)
		}
		var w *windowJSON
		for i := range raw.Windows {
			if len(raw.Windows[i].FlowExamples) > 0 {
				w = &raw.Windows[i]
				break
			}
		}
		if w == nil {
			t.Fatal("fixture has no flow examples to tamper with")
		}
		rec, err := hex.DecodeString(w.FlowExamples[0])
		if err != nil {
			t.Fatal(err)
		}
		if rec[0]&0x80 != 0 {
			t.Fatalf("example needs a one-byte length prefix, got %#x", rec[0])
		}
		w.FlowExamples[0] = hex.EncodeToString(fn(rec))
		var buf bytes.Buffer
		if _, err := writeCheckpointJSON(&buf, raw); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(&buf); err == nil {
			t.Errorf("%s: tampered example armor accepted", name)
		}
	}
}
