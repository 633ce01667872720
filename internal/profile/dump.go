// Persistent binary traces: the intern table makes a compact dump format
// natural — the string tables are written once, and every event travels
// as a 16-byte {entityID, nameID, t} record, the columnar store's
// 12-byte record with its time resolved against its chunk's base. A
// 100k-task run (a few million events) serialises in tens of MB and
// round-trips losslessly, so traces can be archived and analysed
// offline (entk-run -record writes one).
package profile

import (
	"errors"
	"fmt"
	"io"
	"time"

	"entk/internal/wire"
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

// WriteTo serialises the profiler's intern tables and full event log.
// It implements io.WriterTo. The profiler must be quiescent: recorders
// racing the dump may be partially included.
func (p *Profiler) WriteTo(w io.Writer) (int64, error) {
	out := wire.NewWriter(w)
	out.Bytes([]byte(dumpMagic))
	out.U32(dumpVersion)
	var key []byte
	for _, table := range []*interner{&p.ents, &p.names} {
		count := table.count()
		out.U32(uint32(count))
		for id := 0; id < count; id++ {
			s, n, unit := table.slot(uint32(id))
			if unit {
				key = appendUnitKey(key[:0], n)
				out.U32(uint32(len(key)))
				out.Bytes(key)
			} else {
				out.String(s)
			}
		}
	}
	out.U64(uint64(p.store.count()))
	p.store.forEach(func(eid, nid uint32, t time.Duration) {
		out.U32(eid)
		out.U32(nid)
		out.U64(uint64(t))
	})
	return out.Flush()
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
	in := wire.NewReader(r, "profile: dump", dumpMaxString)
	var magic [len(dumpMagic)]byte
	if in.Bytes(magic[:]); in.Err() == nil && string(magic[:]) != dumpMagic {
		return in.N(), fmt.Errorf("profile: bad dump magic %q", magic)
	}
	if version := in.U32(); in.Err() == nil && version != dumpVersion {
		return in.N(), fmt.Errorf("profile: dump version %d, want %d", version, dumpVersion)
	}
	for _, table := range []*interner{&p.ents, &p.names} {
		count := in.U32()
		if table == &p.names && in.Err() == nil && count > maxNames {
			return in.N(), fmt.Errorf("profile: dump declares %d event names, the table holds %d", count, maxNames)
		}
		for id := uint32(0); id < count && in.Err() == nil; id++ {
			s := in.String()
			if in.Err() != nil {
				break
			}
			// Interning in table order reassigns the dense ids 0..count-1
			// exactly as the original profiler allocated them.
			if got := table.intern(s); got != id {
				return in.N(), fmt.Errorf("profile: dump id %d resolved to %d (duplicate table entry?)", id, got)
			}
		}
	}
	events := in.U64()
	ents := uint32(p.ents.count())
	names := uint32(p.names.count())
	for i := uint64(0); i < events && in.Err() == nil; i++ {
		eid, nid, t := in.U32(), in.U32(), time.Duration(in.U64())
		if in.Err() != nil {
			break
		}
		if eid >= ents || nid >= names {
			return in.N(), fmt.Errorf("profile: event %d references id outside tables (%d/%d)", i, eid, nid)
		}
		p.store.record(eid, nid, t)
	}
	return in.N(), in.Err()
}
