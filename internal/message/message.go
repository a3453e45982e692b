// Package message implements the data plane of packetized multicast: the
// wire format of multicast packets (the header a smart NI inspects to
// identify and forward multicast traffic), message fragmentation into
// fixed-size packets, and in-order reassembly at destinations.
//
// The timing packages (sim, flitsim) model when packets move; this package
// models what they carry, so an end-to-end test can verify that a
// multicast delivers byte-identical messages to every destination in
// packet order (FPFS preserves order by construction — the reassembler
// nevertheless handles gaps defensively and reports protocol violations).
package message

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// HeaderSize is the encoded header length in bytes.
const HeaderSize = 20

// Header is the per-packet control block the NI coprocessor reads. The
// Multicast flag is what distinguishes packets the smart NI must replicate
// to its children (paper Section 2.4).
type Header struct {
	MsgID     uint32 // message identifier, unique per (source, message)
	Source    uint16 // source host
	Seq       uint16 // packet index within the message, 0-based
	Total     uint16 // packets in the message
	Multicast bool   // smart-NI forwarding flag
	Payload   uint16 // payload bytes in this packet
	// Checksum is CRC-32C over the encoded header (with this field
	// zeroed) followed by the payload, so corruption anywhere in the
	// packet — control fields included — is detected, not just payload
	// damage. CRC-32C runs on the SSE4.2/ARMv8 CRC instructions and
	// detects every single-bit error and every burst of up to 32 bits.
	Checksum uint32
	// Epoch is the membership epoch the packet was (re)transmitted under;
	// 0 means epoch fencing is not armed. The field sits in previously
	// reserved header bytes and is covered by the checksum, so a damaged
	// epoch is rejected like any other corruption.
	Epoch uint16
}

// PacketChecksum computes the checksum a valid packet with this header and
// payload must carry: CRC-32C over the canonical header encoding with the
// checksum field zeroed, continued over the payload bytes.
func (h Header) PacketChecksum(payload []byte) uint32 {
	h.Checksum = 0
	var buf [HeaderSize]byte
	return CRC32C(h.Encode(buf[:0]), payload)
}

// castagnoli is the CRC-32C table. MakeTable hands back hash/crc32's own
// table for this polynomial, which is what routes crc32.Update on it to
// the hardware instruction.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the CRC-32C of head followed by payload, equal to
// crc32.Checksum(head‖payload, Castagnoli). crc32.Update dispatches
// through a function variable, so every slice passed to it escapes to the
// heap; head — a short fixed-size header callers build on the stack — is
// therefore folded here in software over the same table, and only
// payload, already heap-resident, takes the hardware path.
func CRC32C(head, payload []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range head {
		crc = castagnoli[byte(crc)^b] ^ crc>>8
	}
	return crc32.Update(^crc, castagnoli, payload)
}

// Encode appends the binary header to dst and returns the result.
func (h Header) Encode(dst []byte) []byte {
	var buf [HeaderSize]byte
	binary.BigEndian.PutUint32(buf[0:], h.MsgID)
	binary.BigEndian.PutUint16(buf[4:], h.Source)
	binary.BigEndian.PutUint16(buf[6:], h.Seq)
	binary.BigEndian.PutUint16(buf[8:], h.Total)
	if h.Multicast {
		buf[10] = 1
	}
	binary.BigEndian.PutUint16(buf[12:], h.Payload)
	binary.BigEndian.PutUint32(buf[14:], h.Checksum)
	binary.BigEndian.PutUint16(buf[18:], h.Epoch)
	// byte 11 reserved
	return append(dst, buf[:]...)
}

// DecodeHeader parses a header from the start of b.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("message: short header: %d bytes", len(b))
	}
	h := Header{
		MsgID:     binary.BigEndian.Uint32(b[0:]),
		Source:    binary.BigEndian.Uint16(b[4:]),
		Seq:       binary.BigEndian.Uint16(b[6:]),
		Total:     binary.BigEndian.Uint16(b[8:]),
		Multicast: b[10] == 1,
		Payload:   binary.BigEndian.Uint16(b[12:]),
		Checksum:  binary.BigEndian.Uint32(b[14:]),
		Epoch:     binary.BigEndian.Uint16(b[18:]),
	}
	if h.Total == 0 {
		return Header{}, fmt.Errorf("message: zero-packet message")
	}
	if h.Seq >= h.Total {
		return Header{}, fmt.Errorf("message: seq %d >= total %d", h.Seq, h.Total)
	}
	return h, nil
}

// Packetize fragments data into multicast packets of at most packetBytes
// total size (header included). Zero-length messages produce one empty
// packet so the destination still learns the message completed.
func Packetize(msgID uint32, source int, data []byte, packetBytes int) ([][]byte, error) {
	if packetBytes <= HeaderSize {
		return nil, fmt.Errorf("message: packet size %d <= header size %d", packetBytes, HeaderSize)
	}
	if source < 0 || source > 0xFFFF {
		return nil, fmt.Errorf("message: source %d out of uint16 range", source)
	}
	payload := packetBytes - HeaderSize
	total := (len(data) + payload - 1) / payload
	if total == 0 {
		total = 1
	}
	if total > 0xFFFF {
		return nil, fmt.Errorf("message: %d packets exceed uint16 sequence space", total)
	}
	packets := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		lo := i * payload
		hi := lo + payload
		if hi > len(data) {
			hi = len(data)
		}
		chunk := data[lo:hi]
		h := Header{
			MsgID:     msgID,
			Source:    uint16(source),
			Seq:       uint16(i),
			Total:     uint16(total),
			Multicast: true,
			Payload:   uint16(len(chunk)),
		}
		h.Checksum = h.PacketChecksum(chunk)
		pkt := h.Encode(make([]byte, 0, HeaderSize+len(chunk)))
		pkt = append(pkt, chunk...)
		packets = append(packets, pkt)
	}
	return packets, nil
}

// WithEpoch returns a copy of pkt re-stamped with the given transmission
// epoch, checksum recomputed so the copy still verifies. The input packet
// must itself be valid. When the epoch already matches, the original slice
// is returned unchanged (and unaliased copies are not needed: the fast
// path is read-only).
func WithEpoch(pkt []byte, epoch uint16) ([]byte, error) {
	h, err := DecodeHeader(pkt)
	if err != nil {
		return nil, err
	}
	if h.Epoch == epoch {
		return pkt, nil
	}
	body := pkt[HeaderSize:]
	h.Epoch = epoch
	h.Checksum = h.PacketChecksum(body)
	out := h.Encode(make([]byte, 0, len(pkt)))
	return append(out, body...), nil
}

// Reassembler rebuilds one message from its packets, defensively: it
// tolerates out-of-order arrival, rejects duplicates, cross-message mixes,
// and corrupted payloads.
type Reassembler struct {
	msgID   uint32
	source  uint16
	total   int
	got     int
	chunks  [][]byte
	started bool
}

// NewReassembler returns an empty reassembler; the first packet fixes the
// message identity.
func NewReassembler() *Reassembler { return &Reassembler{} }

// Add consumes one packet. It returns true when the message is complete.
func (r *Reassembler) Add(pkt []byte) (bool, error) {
	h, err := DecodeHeader(pkt)
	if err != nil {
		return false, err
	}
	body := pkt[HeaderSize:]
	if len(body) != int(h.Payload) {
		return false, fmt.Errorf("message: payload length %d, header says %d", len(body), h.Payload)
	}
	if h.PacketChecksum(body) != h.Checksum {
		return false, fmt.Errorf("message: checksum mismatch on packet %d", h.Seq)
	}
	if !r.started {
		r.started = true
		r.msgID = h.MsgID
		r.source = h.Source
		r.total = int(h.Total)
		r.chunks = make([][]byte, r.total)
	}
	if h.MsgID != r.msgID || h.Source != r.source || int(h.Total) != r.total {
		return false, fmt.Errorf("message: packet from message %d/%d mixed into %d/%d",
			h.MsgID, h.Source, r.msgID, r.source)
	}
	if r.chunks[h.Seq] != nil {
		return false, fmt.Errorf("message: duplicate packet %d", h.Seq)
	}
	r.chunks[h.Seq] = append([]byte(nil), body...)
	r.got++
	return r.got == r.total, nil
}

// Complete reports whether all packets have arrived.
func (r *Reassembler) Complete() bool { return r.started && r.got == r.total }

// Bytes returns the reassembled message. It panics if incomplete.
func (r *Reassembler) Bytes() []byte {
	if !r.Complete() {
		panic("message: reassembly incomplete")
	}
	size := 0
	for _, c := range r.chunks {
		size += len(c)
	}
	out := make([]byte, 0, size)
	for _, c := range r.chunks {
		out = append(out, c...)
	}
	return out
}

// Progress returns received and total packet counts.
func (r *Reassembler) Progress() (got, total int) { return r.got, r.total }
