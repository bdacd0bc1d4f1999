package stream

import (
	"testing"
	"time"

	"saad/internal/logpoint"
	"saad/internal/metrics"
	"saad/internal/synopsis"
)

// interopSyn builds a deterministic untraced synopsis; untraced so a
// decoded copy must equal the original field-for-field (trace spans gain
// Send/Recv stamps in flight).
func interopSyn(i int) *synopsis.Synopsis {
	s := &synopsis.Synopsis{
		Stage:    logpoint.StageID(1 + i%5),
		Host:     uint16(i % 3),
		TaskID:   uint64(i),
		Start:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Millisecond),
		Duration: time.Duration(1+i%40) * time.Millisecond,
	}
	for p := 0; p <= i%4; p++ {
		s.Points = append(s.Points, synopsis.PointCount{Point: logpoint.ID(1 + p), Count: uint32(1 + i%7)})
	}
	s.Normalize()
	return s
}

// keyOf identifies a synopsis uniquely within an interop stream.
func keyOf(s *synopsis.Synopsis) uint64 { return s.TaskID }

// assertSameAsDirect compares every received synopsis byte-for-byte (module
// trace stamps, which the senders are built without) against what feeding
// the originals directly would have delivered.
func assertSameAsDirect(t *testing.T, got []*synopsis.Synopsis, want []*synopsis.Synopsis) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("received %d synopses, want %d", len(got), len(want))
	}
	byID := make(map[uint64]*synopsis.Synopsis, len(want))
	for _, s := range want {
		byID[keyOf(s)] = s
	}
	for _, g := range got {
		w := byID[keyOf(g)]
		if w == nil {
			t.Fatalf("received unknown task %d", g.TaskID)
		}
		if g.Stage != w.Stage || g.Host != w.Host || !g.Start.Equal(w.Start) || g.Duration != w.Duration {
			t.Fatalf("task %d header mismatch: got %+v want %+v", g.TaskID, g, w)
		}
		if len(g.Points) != len(w.Points) {
			t.Fatalf("task %d: %d points, want %d", g.TaskID, len(g.Points), len(w.Points))
		}
		for j := range w.Points {
			if g.Points[j] != w.Points[j] {
				t.Fatalf("task %d point %d: got %v want %v", g.TaskID, j, g.Points[j], w.Points[j])
			}
		}
	}
}

func drainN(t *testing.T, ch *Channel, n int) []*synopsis.Synopsis {
	t.Helper()
	out := make([]*synopsis.Synopsis, 0, n)
	deadline := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case s := <-ch.C():
			out = append(out, s.Clone())
		case <-deadline:
			t.Fatalf("timed out with %d/%d synopses", len(out), n)
		}
	}
	return out
}

// TestProtocolInteropMatrix drives a client and a server over real TCP and
// requires the stream to deliver exactly what a direct feed would have.
// Both ends speak v2, the only protocol; TestServerSurvivesMalformedFrames
// covers peers that skip the hello or offer version 1.
func TestProtocolInteropMatrix(t *testing.T) {
	const n = 400
	want := make([]*synopsis.Synopsis, n)
	for i := range want {
		want[i] = interopSyn(i)
	}

	t.Run("v2-client_v2-server", func(t *testing.T) {
		got := NewChannel(2 * n)
		srv, err := Listen("127.0.0.1:0", got)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cm := metrics.NewTCPClientMetrics(metrics.NewRegistry())
		cli, err := Dial(srv.Addr(), 0, WithClientMetrics(cm))
		if err != nil {
			t.Fatal(err)
		}
		if v := cm.ProtocolVersion.Value(); v != synopsis.ProtocolV2 {
			t.Fatalf("negotiated v%v, want v%d", v, synopsis.ProtocolV2)
		}
		for _, s := range want {
			cli.Emit(s)
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		assertSameAsDirect(t, drainN(t, got, n), want)

		if _, counts := srv.ProtocolStats(); counts[synopsis.ProtocolV2] == 0 {
			t.Fatalf("server protocol counts = %v, want a v2 connection", counts)
		}
	})
}

// TestProtocolInteropReconnectReset is the interning-reset interop leg: a
// reconnecting v2 client keeps emitting while the server is killed and
// restarted mid-stream. The fresh connection must renegotiate and redefine
// every interned group (the server's table died with the old connection);
// every delivered record must still decode exactly as a direct feed.
func TestProtocolInteropReconnectReset(t *testing.T) {
	got := NewChannel(8192)
	srv, err := Listen("127.0.0.1:0", got)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	cli, err := Dial(addr, 0, WithReconnect(ReconnectConfig{
		InitialBackoff: 5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		SpillCapacity:  8192,
		BatchSize:      64,
	}))
	if err != nil {
		t.Fatal(err)
	}

	const n = 3000
	want := make([]*synopsis.Synopsis, n)
	for i := range want {
		want[i] = interopSyn(i)
	}
	for i, s := range want {
		cli.Emit(s)
		if i == n/3 {
			// Quiet point: let the pre-kill backlog drain so nothing is in
			// flight when the connection dies, then restart on the same
			// address. The reconnect lands on a server whose intern table is
			// empty — a stale ref would kill the connection (see
			// TestBatchDecoderRejectsStaleRef), so delivery continuing at all
			// proves the client reset its encoder table.
			waitUntil(t, 5*time.Second, "pre-kill backlog to drain", func() bool { return got.Len() >= i+1 })
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			// Let the client's death probe observe the FIN so no batch is
			// written into the dead socket (the chaos suite covers lossy
			// mid-flight kills; this test pins decode exactness).
			time.Sleep(50 * time.Millisecond)
			if srv, err = Listen(addr, got); err != nil {
				t.Fatal(err)
			}
		}
		if i%100 == 99 {
			time.Sleep(time.Millisecond)
		}
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	received := drainN(t, got, n)
	assertSameAsDirect(t, received, want)
	_, counts := srv.ProtocolStats()
	if counts[synopsis.ProtocolV2] == 0 {
		t.Fatalf("restarted server protocol counts = %v, want a renegotiated v2 connection", counts)
	}
}
