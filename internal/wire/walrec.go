package wire

// WAL record codec: the durable layer's log entries in the same compact
// varint style as the session wire format.
//
// The durable layer owns the record *kinds* (they are log-format, not
// wire-protocol, surface); this file owns the byte layout. Every record
// leads with WALMagic, and a record that does not is rejected: recovery
// fails rather than skip a record it cannot read.

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vv"
)

// WALMagic is the first byte of every varint-encoded WAL record. Distinct
// from the connection Magic (0xEB) so a WAL segment byte-copied into a
// frame (or vice versa) cannot be mistaken for the other format. It names
// the record layout too, since a record has no version byte: 0xE2 led the
// records whose propagations named a key in every tail record, and
// recovery refuses them rather than misparse them.
const WALMagic = 0xE3

// WALRecord is one durable log entry: which protocol action ran and the
// inputs replay needs to reproduce it. Field use by kind mirrors
// internal/durable's record layout; unused fields stay zero and cost one
// flag bit on the wire.
//
//epi:notshared codec value assembled or decoded by one goroutine
type WALRecord struct {
	Kind   uint8
	Key    string
	Op     op.Op
	HasOp  bool // Kind 0 is not a valid op encoding, so presence is explicit
	Prop   *core.Propagation
	Items  []core.ItemPayload
	OOB    *core.OOBReply
	Source int

	// Pruning-pass inputs: the ack table, peer set and cap at the moment
	// of the pass (see durable's Prune).
	Acked      []vv.VV
	PrunePeers []int
	LogCap     int
}

// WAL record flag bits.
const (
	walHasOp = 1 << iota
	walHasProp
	walHasItems
	walHasOOB
	walHasAcked
	walHasPeers
)

// AppendWALRecord appends the binary encoding of rec to buf. Runs once
// per durable action inside the write-ahead ordering lock, so its
// allocation profile is gated.
//
//epi:hotpath
func AppendWALRecord(buf []byte, rec *WALRecord) []byte {
	var flags byte
	if rec.HasOp {
		flags |= walHasOp
	}
	if rec.Prop != nil {
		flags |= walHasProp
	}
	if len(rec.Items) > 0 {
		flags |= walHasItems
	}
	if rec.OOB != nil {
		flags |= walHasOOB
	}
	if len(rec.Acked) > 0 {
		flags |= walHasAcked
	}
	if len(rec.PrunePeers) > 0 {
		flags |= walHasPeers
	}
	buf = append(buf, WALMagic, rec.Kind, flags)
	buf = appendString(buf, rec.Key)
	buf = binary.AppendVarint(buf, int64(rec.Source))
	buf = binary.AppendVarint(buf, int64(rec.LogCap))
	if rec.HasOp {
		buf = rec.Op.Marshal(buf)
	}
	if rec.Prop != nil {
		buf = appendPropagation(buf, rec.Prop)
	}
	if len(rec.Items) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Items)))
		for i := range rec.Items {
			buf = appendItem(buf, &rec.Items[i])
		}
	}
	if rec.OOB != nil {
		buf = appendOOB(buf, rec.OOB)
	}
	if len(rec.Acked) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(rec.Acked)))
		for _, v := range rec.Acked {
			buf = v.AppendBinary(buf)
		}
	}
	if len(rec.PrunePeers) > 0 {
		buf = binary.AppendUvarint(buf, uint64(len(rec.PrunePeers)))
		for _, j := range rec.PrunePeers {
			buf = binary.AppendVarint(buf, int64(j))
		}
	}
	return buf
}

// DecodeWALRecord decodes one record from buf, which must contain exactly
// one encoded record (the WAL frames records, so the boundary is known).
// Every field of rec is overwritten. Decoded buffers never alias buf, so
// the caller may reuse its replay buffer; a decoded propagation is marked
// Owned for the same reason (replay applies each record exactly once and
// may adopt the copies).
func DecodeWALRecord(buf []byte, rec *WALRecord) error {
	d := decoder{buf: buf}
	if m := d.byte(); d.err == nil && m != WALMagic {
		d.fail("wal record magic %#x, want %#x", m, WALMagic)
	}
	rec.Kind = d.byte()
	flags := d.byte()
	rec.Key = d.string()
	rec.Source = int(d.varint())
	rec.LogCap = int(d.varint())
	rec.HasOp = flags&walHasOp != 0
	if rec.HasOp {
		rec.Op = d.op()
	} else {
		rec.Op = op.Op{}
	}
	rec.Prop = nil
	if flags&walHasProp != 0 && d.err == nil {
		rec.Prop = d.propagation()
		if rec.Prop != nil {
			rec.Prop.Owned = true
		}
	}
	rec.Items = nil
	if flags&walHasItems != 0 && d.err == nil {
		n := d.count()
		items := make([]core.ItemPayload, 0, min(n, 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			items = append(items, d.item())
		}
		rec.Items = items
	}
	rec.OOB = nil
	if flags&walHasOOB != 0 && d.err == nil {
		o := d.oob()
		rec.OOB = &o
	}
	rec.Acked = nil
	if flags&walHasAcked != 0 && d.err == nil {
		n := d.count()
		acked := make([]vv.VV, 0, min(n, 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			acked = append(acked, d.vv())
		}
		rec.Acked = acked
	}
	rec.PrunePeers = nil
	if flags&walHasPeers != 0 && d.err == nil {
		n := d.count()
		peers := make([]int, 0, min(n, 1024))
		for i := uint64(0); i < n && d.err == nil; i++ {
			peers = append(peers, int(d.varint()))
		}
		rec.PrunePeers = peers
	}
	return d.finish("wal record")
}
