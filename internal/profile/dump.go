// Persistent binary traces: the intern table makes a compact dump format
// natural — the string tables are written once, and every event travels
// as the same 16-byte {entityID, nameID, t} record the columnar store
// keeps in memory. A 100k-task run (a few million events) serialises in
// tens of MB and round-trips losslessly, so traces can be archived and
// analysed offline (entk-run -record writes one).
package profile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// ErrNotEmpty is wrapped by ReadFrom when the destination profiler has
// already interned or recorded anything; callers can test for it with
// errors.Is (or avoid it up front with Empty).
var ErrNotEmpty = errors.New("profile: ReadFrom needs an empty profiler")

// Dump format, little-endian throughout:
//
//	[8]  magic "ENTKPROF"
//	u32  version (currently 1)
//	u32  entity count, then per entity: u32 length + bytes (id order)
//	u32  name count, same encoding (id order)
//	u64  event count
//	per event: u32 entityID, u32 nameID, i64 t  (16 bytes)
//
// Ids in the records index the two string tables directly; preserving
// table order on read reproduces the in-memory ids exactly, so queries
// against a reloaded profiler answer identically.
const (
	dumpMagic   = "ENTKPROF"
	dumpVersion = 1
	// dumpMaxString bounds one interned string in a dump. Entity keys
	// and event names are tens of bytes; the cap only exists so a
	// corrupted length field fails cleanly instead of asking the
	// allocator for up to 4 GiB before the truncation is detected.
	dumpMaxString = 1 << 20
)

// countingWriter counts the bytes that actually reach the wrapped
// writer, so WriteTo can honour the io.WriterTo contract (n = bytes
// written to w) across a buffering layer even on partial failure.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	m, err := c.w.Write(p)
	c.n += int64(m)
	return m, err
}

// WriteTo serialises the profiler's intern tables and full event log.
// It implements io.WriterTo. The profiler must be quiescent: recorders
// racing the dump may be partially included.
func (p *Profiler) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	write := func(v any) error {
		return binary.Write(bw, binary.LittleEndian, v)
	}
	var key []byte
	writeKey := func(t *interner, id uint32) error {
		s, n, unit := t.slot(id)
		if unit {
			key = appendUnitKey(key[:0], n)
			if err := write(uint32(len(key))); err != nil {
				return err
			}
			_, err := bw.Write(key)
			return err
		}
		if err := write(uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}

	if _, err := bw.WriteString(dumpMagic); err != nil {
		return cw.n, err
	}
	if err := write(uint32(dumpVersion)); err != nil {
		return cw.n, err
	}
	for _, table := range []*interner{&p.ents, &p.names} {
		count := table.count()
		if err := write(uint32(count)); err != nil {
			return cw.n, err
		}
		for id := 0; id < count; id++ {
			if err := writeKey(table, uint32(id)); err != nil {
				return cw.n, err
			}
		}
	}
	if err := write(uint64(p.store.count())); err != nil {
		return cw.n, err
	}
	var werr error
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		if werr != nil {
			return
		}
		var rec [16]byte
		binary.LittleEndian.PutUint32(rec[0:], eid)
		binary.LittleEndian.PutUint32(rec[4:], nid)
		binary.LittleEndian.PutUint64(rec[8:], uint64(t))
		if _, err := bw.Write(rec[:]); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return cw.n, werr
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadFrom loads a dump produced by WriteTo into an empty profiler
// (either storage layout), reproducing the intern ids and the event log
// so every query answers as it did on the original. It implements
// io.ReaderFrom.
func (p *Profiler) ReadFrom(r io.Reader) (int64, error) {
	if !p.Empty() {
		return 0, fmt.Errorf("%w (%d entities, %d names, %d events already present)",
			ErrNotEmpty, p.ents.count(), p.names.count(), p.store.count())
	}
	br := bufio.NewReader(r)
	var n int64
	read := func(v any) error {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}

	magic := make([]byte, len(dumpMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return n, err
	}
	n += int64(len(magic))
	if string(magic) != dumpMagic {
		return n, fmt.Errorf("profile: bad dump magic %q", magic)
	}
	var version uint32
	if err := read(&version); err != nil {
		return n, err
	}
	if version != dumpVersion {
		return n, fmt.Errorf("profile: dump version %d, want %d", version, dumpVersion)
	}
	for _, table := range []*interner{&p.ents, &p.names} {
		var count uint32
		if err := read(&count); err != nil {
			return n, err
		}
		buf := make([]byte, 0, 64)
		for id := uint32(0); id < count; id++ {
			var length uint32
			if err := read(&length); err != nil {
				return n, err
			}
			if length > dumpMaxString {
				return n, fmt.Errorf("profile: dump string length %d exceeds cap %d (corrupt dump?)", length, dumpMaxString)
			}
			if cap(buf) < int(length) {
				buf = make([]byte, length)
			}
			buf = buf[:length]
			if _, err := io.ReadFull(br, buf); err != nil {
				return n, err
			}
			n += int64(length)
			// Interning in table order reassigns the dense ids 0..count-1
			// exactly as the original profiler allocated them.
			if got := table.intern(string(buf)); got != id {
				return n, fmt.Errorf("profile: dump id %d resolved to %d (duplicate table entry?)", id, got)
			}
		}
	}
	var events uint64
	if err := read(&events); err != nil {
		return n, err
	}
	ents := uint32(p.ents.count())
	names := uint32(p.names.count())
	var rec [16]byte
	for i := uint64(0); i < events; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return n, err
		}
		n += 16
		eid := binary.LittleEndian.Uint32(rec[0:])
		nid := binary.LittleEndian.Uint32(rec[4:])
		t := time.Duration(binary.LittleEndian.Uint64(rec[8:]))
		if eid >= ents || nid >= names {
			return n, fmt.Errorf("profile: event %d references id outside tables (%d/%d)", i, eid, nid)
		}
		p.store.record(eid, nid, t)
	}
	return n, nil
}
