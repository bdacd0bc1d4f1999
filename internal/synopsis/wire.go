package synopsis

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"saad/internal/logpoint"
)

// Protocol v2 — the batched, interning wire format (DESIGN §15).
//
// Every connection opens with a client hello, then carries batch frames:
//
//	uvarint frameLen | byte kind | uvarint n | n × record
//
// where each record is self-delimiting (no per-record length prefix):
//
//	uvarint groupRef          0 ⇒ inline def follows: uvarint stage, uvarint
//	                          host — the pair is appended to the
//	                          per-connection intern table (both sides apply
//	                          the same "append while the table has room"
//	                          rule, so no table synchronization is needed);
//	                          k>0 ⇒ the pair is intern table entry k-1
//	uvarint taskID
//	uvarint startUnixMicro
//	uvarint durationMicro
//	uvarint npts | npts × (uvarint pointDelta, uvarint count)
//	uvarint extCount | extCount × (uvarint extID, uvarint extLen, payload)
//
// The intern table is connection state: it starts empty on every connection
// and is never carried across reconnects — a resync resets the dictionary
// on both ends by construction, so a server joining mid-stream (or a client
// replaying spilled records after an outage) needs no resynchronization
// protocol.
//
// Hello: the client opens with
//
//	uvarint helloMagic | uvarint maxVersion | uvarint flags
//
// and waits for the server's ack (same three fields, version = chosen). The
// hello is required: a server drops a stream that does not open with the
// magic, or that offers a version below 2. The version field stays so a
// future v3 can negotiate; after the ack the stream is strictly one-way.

const (
	// ProtocolV2 is the batched framing with header interning.
	ProtocolV2 = 2
	// MaxProtocolVersion is the newest protocol this build speaks.
	MaxProtocolVersion = ProtocolV2

	// helloMagic opens every hello and hello ack ("SAAD").
	helloMagic = 0x53414144 // "SAAD"

	// maxFrameSize bounds one v2 batch frame (corrupt length prefixes must
	// not allocate unbounded memory).
	maxFrameSize = 1 << 22
	// maxFrameBody is the soft cap batch encoders split frames at, leaving
	// headroom for the frame header itself.
	maxFrameBody = maxFrameSize - 64
	// MaxBatchRecords bounds the records carried by one batch frame.
	MaxBatchRecords = 4096
	// maxInternEntries bounds the per-connection intern table; once full,
	// further groups are sent inline forever (both sides stop appending at
	// the same point, keeping the tables identical).
	maxInternEntries = 1 << 16
	// maxRecordExtensions bounds the trailing extensions one v2 record may
	// carry.
	maxRecordExtensions = 16

	// frameBatch is the only v2 frame kind so far.
	frameBatch = 1
)

// ErrFrameTooLarge is returned when a v2 frame length exceeds maxFrameSize.
var ErrFrameTooLarge = errors.New("synopsis: frame exceeds size limit")

// ErrBadHello is returned when a hello or hello ack is malformed.
var ErrBadHello = errors.New("synopsis: malformed hello")

// AppendHello appends the client hello to dst: magic, the newest version
// the client speaks, and a zero flags word reserved for future use.
func AppendHello(dst []byte, maxVersion int) []byte {
	dst = binary.AppendUvarint(dst, helloMagic)
	dst = binary.AppendUvarint(dst, uint64(maxVersion))
	return binary.AppendUvarint(dst, 0)
}

// AppendHelloAck appends the server ack to dst: magic, the version chosen
// for the connection, and a zero flags word.
func AppendHelloAck(dst []byte, version int) []byte {
	dst = binary.AppendUvarint(dst, helloMagic)
	dst = binary.AppendUvarint(dst, uint64(version))
	return binary.AppendUvarint(dst, 0)
}

// ReadHelloAck reads the server's hello ack and returns the chosen
// protocol version, which must be one this build speaks.
func ReadHelloAck(r io.ByteReader) (int, error) {
	ver, err := readHello(r, "hello ack")
	if err != nil {
		return 0, err
	}
	if ver > MaxProtocolVersion {
		return 0, fmt.Errorf("%w: hello ack version %d", ErrBadHello, ver)
	}
	return int(ver), nil
}

// PeekHello reads the client hello that must open every stream and returns
// the version to serve: the newest the client speaks, capped at
// MaxProtocolVersion. A stream that does not open with the magic, or whose
// hello offers a version below 2, fails with ErrBadHello. A read failure
// (timeout, EOF, ...) is returned unchanged.
func PeekHello(r io.ByteReader) (int, error) {
	ver, err := readHello(r, "hello")
	if err != nil {
		return 0, err
	}
	return int(min(ver, MaxProtocolVersion)), nil
}

// readHello reads one hello or hello ack (what names which, for errors)
// and returns its version, at least ProtocolV2. An error reading the magic
// is returned unchanged so callers can tell a timeout or EOF from a bad
// peer.
func readHello(r io.ByteReader, what string) (uint64, error) {
	magic, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if magic != helloMagic {
		return 0, fmt.Errorf("%w: %s magic %#x", ErrBadHello, what, magic)
	}
	ver, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("synopsis: read %s version: %w", what, err)
	}
	if _, err := binary.ReadUvarint(r); err != nil { // flags (reserved)
		return 0, fmt.Errorf("synopsis: read %s flags: %w", what, err)
	}
	if ver < ProtocolV2 {
		return 0, fmt.Errorf("%w: %s version %d", ErrBadHello, what, ver)
	}
	return ver, nil
}

// internKey is one (stage, host) group header.
type internKey struct {
	stage logpoint.StageID
	host  uint16
}

// BatchEncoder builds v2 batch frames with per-connection header
// interning. It is connection state: allocate one per connection (or Reset
// on reconnect) so encoder and decoder tables stay in lockstep. Not safe
// for concurrent use.
type BatchEncoder struct {
	ids      map[internKey]uint32
	body     []byte // reusable record-section scratch
	interned uint64
	// lastKey/lastID cache the most recent lookup: synopses arrive in
	// per-stage bursts, so a one-entry cache strips the map from most
	// records' hot path.
	lastKey internKey
	lastID  uint32
	lastOK  bool
}

// NewBatchEncoder returns an encoder with an empty intern table.
func NewBatchEncoder() *BatchEncoder {
	return &BatchEncoder{ids: make(map[internKey]uint32)}
}

// Reset clears the intern table for a new connection.
func (e *BatchEncoder) Reset() {
	clear(e.ids)
	e.lastOK = false
}

// InternedRefs returns how many record headers were emitted as one-uvarint
// intern references (rather than inline stage+host) since construction.
func (e *BatchEncoder) InternedRefs() uint64 { return e.interned }

// appendRecordV2 appends one self-delimiting v2 record to dst, updating
// the intern table.
//
//saad:hotpath
func (e *BatchEncoder) appendRecordV2(dst []byte, s *Synopsis) []byte {
	key := internKey{stage: s.Stage, host: s.Host}
	if e.lastOK && key == e.lastKey {
		dst = binary.AppendUvarint(dst, uint64(e.lastID)+1)
		e.interned++
	} else if id, ok := e.ids[key]; ok {
		dst = binary.AppendUvarint(dst, uint64(id)+1)
		e.interned++
		e.lastKey, e.lastID, e.lastOK = key, id, true
	} else {
		dst = binary.AppendUvarint(dst, 0)
		dst = binary.AppendUvarint(dst, uint64(s.Stage))
		dst = binary.AppendUvarint(dst, uint64(s.Host))
		if len(e.ids) < maxInternEntries {
			id := uint32(len(e.ids))
			e.ids[key] = id
			e.lastKey, e.lastID, e.lastOK = key, id, true
		}
	}
	dst = binary.AppendUvarint(dst, s.TaskID)
	dst = binary.AppendUvarint(dst, uint64(s.Start.UnixMicro()))
	dst = binary.AppendUvarint(dst, uint64(s.Duration.Microseconds()))
	dst = binary.AppendUvarint(dst, uint64(len(s.Points)))
	var prev logpoint.ID
	for _, pc := range s.Points {
		dst = binary.AppendUvarint(dst, uint64(pc.Point-prev))
		dst = binary.AppendUvarint(dst, uint64(pc.Count))
		prev = pc.Point
	}
	var extCount uint64
	if s.Trace != nil {
		extCount++
	}
	if s.RingEpoch != 0 {
		extCount++
	}
	dst = binary.AppendUvarint(dst, extCount)
	if sp := s.Trace; sp != nil {
		dst = binary.AppendUvarint(dst, extTrace)
		dst = binary.AppendUvarint(dst, uint64(tracePayloadSize(sp)))
		dst = binary.AppendUvarint(dst, uint64(sp.Emit))
		dst = binary.AppendUvarint(dst, uint64(sp.Send))
	}
	if s.RingEpoch != 0 {
		dst = binary.AppendUvarint(dst, extRingEpoch)
		dst = binary.AppendUvarint(dst, uint64(uvarintLen(s.RingEpoch)))
		dst = binary.AppendUvarint(dst, s.RingEpoch)
	}
	return dst
}

// AppendFrames appends batch to dst as one or more v2 batch frames,
// splitting whenever the accumulated record section would exceed the frame
// size bound, and returns the extended slice. With sufficient capacity in
// dst and the encoder's scratch, steady-state encoding performs no
// allocation.
//
//saad:hotpath
func (e *BatchEncoder) AppendFrames(dst []byte, batch []*Synopsis) []byte {
	for len(batch) > 0 {
		body := e.body[:0]
		n := 0
		for _, s := range batch {
			body = e.appendRecordV2(body, s)
			n++
			if n == MaxBatchRecords || len(body) >= maxFrameBody {
				break
			}
		}
		e.body = body
		batch = batch[n:]
		// frameLen covers the kind byte, the record count and the records.
		frameLen := 1 + uvarintLen(uint64(n)) + len(body)
		dst = binary.AppendUvarint(dst, uint64(frameLen))
		dst = append(dst, frameBatch)
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = append(dst, body...)
	}
	return dst
}

// BatchDecoder reads v2 batch frames from a stream, mirroring the
// encoder's intern table. Decode yields one synopsis per call and io.EOF
// at a clean end of stream on a frame boundary. Not safe for concurrent
// use.
type BatchDecoder struct {
	r      *bufio.Reader
	groups []internKey // decoder-side intern table
	buf    []byte      // whole-frame scratch, reused
	body   []byte      // unconsumed record bytes of the current frame
	left   int         // records left in the current frame
	// frameHook, when set, is called at each frame header with the record
	// count it announces (metrics: batch-size histogram).
	frameHook func(records int)
	interned  uint64
}

// NewBatchDecoder returns a decoder reading v2 frames from br. The caller
// hands over the buffered reader it read the hello from so no buffered
// bytes are lost.
func NewBatchDecoder(br *bufio.Reader) *BatchDecoder {
	return &BatchDecoder{r: br}
}

// SetFrameHook registers fn to observe each frame's record count.
func (d *BatchDecoder) SetFrameHook(fn func(records int)) { d.frameHook = fn }

// InternedRefs returns how many record headers arrived as intern
// references since construction.
func (d *BatchDecoder) InternedRefs() uint64 { return d.interned }

// Remaining reports how many records of the current frame are still
// undecoded. Zero means the next Decode will read a fresh frame — i.e. the
// last Decode completed a frame, which is the natural batch boundary for
// handing decoded records downstream.
func (d *BatchDecoder) Remaining() int { return d.left }

// nextFrame reads one frame into the scratch buffer and prepares its
// record section. io.EOF means a clean end of stream at a frame boundary.
func (d *BatchDecoder) nextFrame() error {
	frameLen, err := binary.ReadUvarint(d.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("synopsis: read frame length: %w", err)
	}
	if frameLen > maxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, frameLen)
	}
	if frameLen < 2 {
		return fmt.Errorf("synopsis: frame length %d below header size", frameLen)
	}
	if cap(d.buf) < int(frameLen) {
		d.buf = make([]byte, frameLen)
	}
	d.buf = d.buf[:frameLen]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return fmt.Errorf("synopsis: read frame: %w", err)
	}
	kind := d.buf[0]
	if kind != frameBatch {
		return fmt.Errorf("synopsis: unknown frame kind %d", kind)
	}
	rest := d.buf[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return fmt.Errorf("synopsis: decode frame record count: %w", io.ErrUnexpectedEOF)
	}
	rest = rest[n:]
	if count == 0 || count > MaxBatchRecords {
		return fmt.Errorf("synopsis: frame record count %d out of range", count)
	}
	// Each record needs at least 6 bytes (six mandatory uvarints).
	if count > uint64(len(rest)) {
		return fmt.Errorf("synopsis: %d records exceed remaining %d frame bytes", count, len(rest))
	}
	d.body = rest
	d.left = int(count)
	if d.frameHook != nil {
		d.frameHook(int(count))
	}
	return nil
}

// Decode reads the next record into s, pulling the next batch frame off
// the stream when the current one is exhausted. Decoding into a reused s
// (or one drawn from a Pool) performs no steady-state allocation: the
// frame scratch, the intern table and s.Points are all reused.
//
//saad:hotpath
func (d *BatchDecoder) Decode(s *Synopsis) error {
	if d.left == 0 {
		if err := d.nextFrame(); err != nil {
			return err
		}
	}
	if err := d.decodeRecordV2(s); err != nil {
		// A malformed record poisons the whole frame; drop the remainder so
		// a resumed caller cannot misparse from mid-record.
		d.left, d.body = 0, nil
		return err
	}
	d.left--
	if d.left == 0 && len(d.body) != 0 {
		n := len(d.body)
		d.body = nil
		return fmt.Errorf("synopsis: %d trailing bytes after last record in frame", n)
	}
	return nil
}

// uvarint decodes one uvarint at the head of buf, returning the value and
// the remainder; ok is false on truncation or overflow. The one-byte fast
// path is taken by nearly every field of a steady-state record (interned
// refs, deltas, counts), keeping the whole call inlinable.
//
//saad:hotpath
func uvarint(buf []byte) (v uint64, rest []byte, ok bool) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), buf[1:], true
	}
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, buf, false
	}
	return v, buf[n:], true
}

//saad:hotpath
func (d *BatchDecoder) decodeRecordV2(s *Synopsis) error {
	buf := d.body
	var ok bool
	var ref uint64
	if ref, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode group ref: %w", io.ErrUnexpectedEOF)
	}
	var key internKey
	if ref == 0 {
		var stage, host uint64
		if stage, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode stage: %w", io.ErrUnexpectedEOF)
		}
		if host, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode host: %w", io.ErrUnexpectedEOF)
		}
		key = internKey{stage: logpoint.StageID(stage), host: uint16(host)}
		if len(d.groups) < maxInternEntries {
			d.groups = append(d.groups, key)
		}
	} else {
		if ref > uint64(len(d.groups)) {
			return fmt.Errorf("synopsis: group ref %d beyond intern table size %d", ref, len(d.groups))
		}
		key = d.groups[ref-1]
		d.interned++
	}
	var task, startUs, durUs, npts uint64
	if task, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode task id: %w", io.ErrUnexpectedEOF)
	}
	if startUs, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode start: %w", io.ErrUnexpectedEOF)
	}
	if durUs, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode duration: %w", io.ErrUnexpectedEOF)
	}
	if npts, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode point count: %w", io.ErrUnexpectedEOF)
	}
	if npts > uint64(len(buf)) { // each point needs >= 2 bytes; cheap sanity bound
		return fmt.Errorf("synopsis: %d points exceeds remaining %d bytes", npts, len(buf))
	}
	s.Stage = key.stage
	s.Host = key.host
	s.TaskID = task
	s.Start = time.UnixMicro(int64(startUs)).UTC()
	s.Duration = time.Duration(durUs) * time.Microsecond
	s.Trace = nil // decoders reuse s; a prior record's span must not leak
	s.RingEpoch = 0
	if cap(s.Points) < int(npts) {
		s.Points = make([]PointCount, npts)
	}
	s.Points = s.Points[:npts]
	var prev logpoint.ID
	for i := range s.Points {
		var delta, count uint64
		if delta, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode point %d id: %w", i, io.ErrUnexpectedEOF)
		}
		if count, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode point %d count: %w", i, io.ErrUnexpectedEOF)
		}
		prev += logpoint.ID(delta)
		s.Points[i] = PointCount{Point: prev, Count: uint32(count)}
	}
	var extCount uint64
	if extCount, buf, ok = uvarint(buf); !ok {
		return fmt.Errorf("synopsis: decode extension count: %w", io.ErrUnexpectedEOF)
	}
	if extCount > maxRecordExtensions {
		return fmt.Errorf("synopsis: extension count %d out of range", extCount)
	}
	for i := uint64(0); i < extCount; i++ {
		var extID, extLen uint64
		if extID, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode extension id: %w", io.ErrUnexpectedEOF)
		}
		if extLen, buf, ok = uvarint(buf); !ok {
			return fmt.Errorf("synopsis: decode extension length: %w", io.ErrUnexpectedEOF)
		}
		if extLen > uint64(len(buf)) {
			return fmt.Errorf("synopsis: extension %d length %d exceeds remaining %d bytes", extID, extLen, len(buf))
		}
		payload := buf[:extLen]
		buf = buf[extLen:]
		if err := applyExtension(s, extID, payload); err != nil {
			return err
		}
	}
	d.body = buf
	return nil
}

// Pool is a bounded free list of Synopsis values for zero-allocation
// receive paths: the stream server draws from it per decoded record and
// the analyzer engine releases each synopsis back once its shard core is
// done. All methods are nil-safe — a nil *Pool degrades to plain
// allocation — and safe for concurrent use.
//
// The free list is a mutex-guarded stack rather than a channel: at
// millions of records per second the two channel operations per record
// dominate the receive loop, while a stack pop is a fraction of the cost
// and GetN amortizes even that across a whole refill chunk.
type Pool struct {
	mu   sync.Mutex
	free []*Synopsis
}

// NewPool returns a pool holding at most capacity idle synopses.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{free: make([]*Synopsis, 0, capacity)}
}

// Get returns an idle synopsis (fields zeroed, point capacity retained) or
// a fresh one when the pool is empty or nil.
//
//saad:hotpath
func (p *Pool) Get() *Synopsis {
	if p == nil {
		return &Synopsis{}
	}
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return &Synopsis{}
}

// GetN fills every element of dst with an idle or fresh synopsis under a
// single lock — the receive loop's bulk refill, so per-record pool cost
// amortizes to near zero.
//
//saad:hotpath
func (p *Pool) GetN(dst []*Synopsis) {
	if p == nil {
		for i := range dst {
			dst[i] = &Synopsis{}
		}
		return
	}
	p.mu.Lock()
	n := len(p.free)
	take := len(dst)
	if take > n {
		take = n
	}
	for i := 0; i < take; i++ {
		dst[i] = p.free[n-1-i]
		p.free[n-1-i] = nil
	}
	p.free = p.free[:n-take]
	p.mu.Unlock()
	for i := take; i < len(dst); i++ {
		dst[i] = &Synopsis{}
	}
}

// Put recycles s. The caller must not touch s afterwards. When the pool is
// full (or nil) s is left to the garbage collector.
//
//saad:hotpath
func (p *Pool) Put(s *Synopsis) {
	if p == nil || s == nil {
		return
	}
	pts := s.Points[:0]
	*s = Synopsis{Points: pts}
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// PutN recycles a batch under a single lock. The caller must not touch the
// elements (or the slice, which is cleared) afterwards; synopses beyond
// the pool's capacity are left to the garbage collector.
//
//saad:hotpath
func (p *Pool) PutN(batch []*Synopsis) {
	if p == nil {
		return
	}
	for _, s := range batch {
		if s == nil {
			continue
		}
		pts := s.Points[:0]
		*s = Synopsis{Points: pts}
	}
	p.mu.Lock()
	for i, s := range batch {
		if s == nil {
			continue
		}
		if len(p.free) == cap(p.free) {
			break
		}
		p.free = append(p.free, s)
		batch[i] = nil
	}
	p.mu.Unlock()
	clear(batch)
}
