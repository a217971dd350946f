package wire

// Checkpoint codec: the durable layer's base and delta files, in the same
// varint style as the WAL records. A file holds one checkpoint: the magic
// byte, the body, then a CRC-32 (IEEE, little-endian) of everything before
// it, so a file damaged at rest fails recovery instead of restoring a
// different replica.

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/vv"
)

// CheckpointMagic is the first byte of every checkpoint file. Distinct
// from the connection Magic and from WALMagic, so that no file of one
// kind decodes as another.
const CheckpointMagic = 0xE4

// Checkpoint flag bits.
const (
	ckptConflicted = 1 << iota
	ckptDelta
)

// Item image flag bits.
const (
	imageAux = 1 << iota
)

// AppendCheckpoint appends the file encoding of c to buf.
func AppendCheckpoint(buf []byte, c *core.Checkpoint) []byte {
	start := len(buf)
	var flags byte
	if c.Conflicted {
		flags |= ckptConflicted
	}
	if c.Delta {
		flags |= ckptDelta
	}
	buf = append(buf, CheckpointMagic, flags)
	buf = binary.AppendUvarint(buf, c.Floor)
	buf = binary.AppendUvarint(buf, c.Prev)
	buf = binary.AppendVarint(buf, int64(c.ID))
	buf = binary.AppendVarint(buf, int64(c.N))
	buf = c.DBVV.AppendBinary(buf)
	buf = c.Pruned.AppendBinary(buf)
	buf = c.Trunc.AppendBinary(buf)
	buf = binary.AppendUvarint(buf, uint64(len(c.Acked)))
	for _, v := range c.Acked {
		buf = v.AppendBinary(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.PrunePeers)))
	for _, j := range c.PrunePeers {
		buf = binary.AppendVarint(buf, int64(j))
	}
	buf = binary.AppendVarint(buf, int64(c.LogCap))
	buf = binary.AppendUvarint(buf, uint64(len(c.Aux)))
	for i := range c.Aux {
		rec := &c.Aux[i]
		buf = appendString(buf, rec.Key)
		buf = rec.Pre.AppendBinary(buf)
		buf = rec.Op.Marshal(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Items)))
	for i := range c.Items {
		buf = appendImage(buf, &c.Items[i])
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

func appendImage(buf []byte, img *core.ItemImage) []byte {
	var flags byte
	if img.HasAux {
		flags |= imageAux
	}
	buf = append(buf, flags)
	buf = appendString(buf, img.Key)
	buf = appendBytes(buf, img.Value)
	buf = img.IVV.AppendBinary(buf)
	if img.HasAux {
		buf = appendBytes(buf, img.AuxValue)
		buf = img.AuxIVV.AppendBinary(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(img.Deltas)))
	for _, d := range img.Deltas {
		buf = binary.AppendVarint(buf, int64(d.Origin))
		buf = d.Pre.AppendBinary(buf)
		buf = d.Op.Marshal(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(img.Seqs)))
	for _, s := range img.Seqs {
		buf = binary.AppendUvarint(buf, s)
	}
	return buf
}

// DecodeCheckpoint decodes one checkpoint file. The file must hold exactly
// one checkpoint with an intact checksum. Decoded buffers never alias buf.
func DecodeCheckpoint(buf []byte) (*core.Checkpoint, error) {
	if len(buf) < 5 {
		d := decoder{}
		d.fail("checkpoint of %d bytes", len(buf))
		return nil, d.finish("checkpoint")
	}
	body := buf[:len(buf)-4]
	d := decoder{buf: body}
	if sum := binary.LittleEndian.Uint32(buf[len(body):]); crc32.ChecksumIEEE(body) != sum {
		d.fail("checkpoint checksum mismatch")
		return nil, d.finish("checkpoint")
	}
	if m := d.byte(); m != CheckpointMagic {
		d.fail("checkpoint magic %#x, want %#x", m, CheckpointMagic)
	}
	flags := d.byte()
	c := &core.Checkpoint{
		Conflicted: flags&ckptConflicted != 0,
		Delta:      flags&ckptDelta != 0,
		Floor:      d.uvarint(),
		Prev:       d.uvarint(),
		ID:         int(d.varint()),
		N:          int(d.varint()),
		DBVV:       d.vv(),
		Pruned:     d.vv(),
		Trunc:      d.vv(),
	}
	if n := d.count(); n > 0 {
		c.Acked = make([]vv.VV, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			c.Acked = append(c.Acked, d.vv())
		}
	}
	if n := d.count(); n > 0 {
		c.PrunePeers = make([]int, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			c.PrunePeers = append(c.PrunePeers, int(d.varint()))
		}
	}
	c.LogCap = int(d.varint())
	if n := d.count(); n > 0 {
		c.Aux = make([]core.AuxRecord, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			c.Aux = append(c.Aux, core.AuxRecord{Key: d.string(), Pre: d.vv(), Op: d.op()})
		}
	}
	if n := d.count(); n > 0 {
		c.Items = make([]core.ItemImage, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			c.Items = append(c.Items, d.image())
		}
	}
	if err := d.finish("checkpoint"); err != nil {
		return nil, err
	}
	return c, nil
}

func (d *decoder) image() core.ItemImage {
	flags := d.byte()
	img := core.ItemImage{
		Key:   d.string(),
		Value: d.bytes(),
		IVV:   d.vv(),
	}
	if flags&imageAux != 0 {
		img.HasAux = true
		img.AuxValue = d.bytes()
		img.AuxIVV = d.vv()
	}
	if n := d.count(); n > 0 {
		img.Deltas = make([]store.Delta, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			origin := int(d.varint())
			img.Deltas = append(img.Deltas, store.Delta{Origin: origin, Pre: d.vv(), Op: d.op()})
		}
	}
	if n := d.count(); n > 0 {
		img.Seqs = make([]uint64, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			img.Seqs = append(img.Seqs, d.uvarint())
		}
	}
	return img
}
