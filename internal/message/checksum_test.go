package message

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCRC32CKnownAnswer pins CRC32C to the standard: the CRC-32C check
// value of "123456789" is 0xE3069283 at every head/payload split, and any
// split of random bytes equals crc32.Checksum over the whole.
func TestCRC32CKnownAnswer(t *testing.T) {
	check := []byte("123456789")
	for cut := 0; cut <= len(check); cut++ {
		if got := CRC32C(check[:cut], check[cut:]); got != 0xE3069283 {
			t.Fatalf("split at %d: CRC-32C %#08x, want 0xe3069283", cut, got)
		}
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	data := make([]byte, 4096+HeaderSize)
	for i := range data {
		data[i] = byte(i*131 + i>>7)
	}
	for _, cut := range []int{0, 1, HeaderSize, 64, len(data)} {
		if got, want := CRC32C(data[:cut], data[cut:]), crc32.Checksum(data, tab); got != want {
			t.Fatalf("split at %d: %#08x, crc32.Checksum %#08x", cut, got, want)
		}
	}
}

// TestPacketChecksumIsCRC32C: a packet's checksum is crc32.Checksum
// (Castagnoli) over the encoded header with the checksum field zeroed,
// followed by the payload.
func TestPacketChecksumIsCRC32C(t *testing.T) {
	tab := crc32.MakeTable(crc32.Castagnoli)
	data := bytes.Repeat([]byte("known answer "), 400)
	for _, size := range []int{HeaderSize + 1, 64, 1200, 4096} {
		pkts, err := Packetize(0xABCD, 17, data, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			h, err := DecodeHeader(p)
			if err != nil {
				t.Fatal(err)
			}
			zeroed := append([]byte(nil), p...)
			clear(zeroed[14:18])
			if want := crc32.Checksum(zeroed, tab); h.Checksum != want {
				t.Fatalf("%d-byte packet %d: checksum %#08x, want %#08x", size, h.Seq, h.Checksum, want)
			}
		}
	}
}

// TestReassemblerRejectsEverySingleBitFlip flips every bit of a 64-byte
// and an MTU-sized packet. Each flip must be rejected by Add — except in
// byte 11, the reserved header byte, which the decoder ignores and the
// checksum covers as zero: such a packet is semantically the original
// and must reassemble to the original bytes.
func TestReassemblerRejectsEverySingleBitFlip(t *testing.T) {
	const reserved = 11
	for _, size := range []int{64, 1200} {
		data := make([]byte, size-HeaderSize)
		for i := range data {
			data[i] = byte(i * 7)
		}
		pkts, err := Packetize(3, 1, data, size)
		if err != nil || len(pkts) != 1 || len(pkts[0]) != size {
			t.Fatalf("packetize %d: %d packets, err %v", size, len(pkts), err)
		}
		mut := append([]byte(nil), pkts[0]...)
		for bit := 0; bit < 8*size; bit++ {
			mut[bit/8] ^= 1 << (bit % 8)
			r := NewReassembler()
			_, err := r.Add(mut)
			switch {
			case bit/8 == reserved:
				if err != nil || !bytes.Equal(r.Bytes(), data) {
					t.Fatalf("%d-byte packet: reserved-byte flip changed the message (err %v)", size, err)
				}
			case err == nil:
				t.Fatalf("%d-byte packet: flip of bit %d (byte %d) accepted", size, bit%8, bit/8)
			}
			mut[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// TestPacketChecksumAllocs gates PacketChecksum at zero allocations: the
// encoded header lives in a stack buffer that must never reach the
// escaping hardware CRC path.
func TestPacketChecksumAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x42}, 4096)
	h := Header{MsgID: 1, Source: 2, Seq: 3, Total: 4, Multicast: true, Payload: 4096}
	var sink uint32
	if n := testing.AllocsPerRun(100, func() { sink += h.PacketChecksum(payload) }); n != 0 {
		t.Errorf("PacketChecksum: %.1f allocs, want 0", n)
	}
	_ = sink
}

// TestReassemblerCorpusSeeds keeps the checked-in FuzzReassemblerAdd
// seeds on the paths their names promise: the packet seeds are accepted
// and the corrupted ones rejected, so a checksum change that forgets to
// regenerate them fails here.
func TestReassemblerCorpusSeeds(t *testing.T) {
	dir := "testdata/fuzz/FuzzReassemblerAdd"
	for name, accept := range map[string]bool{
		"first-of-two-fragments": true,
		"minimal-empty-message":  true,
		"single-packet-message":  true,
		"checksum-corrupted":     false,
		"truncated-body":         false,
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := NewReassembler().Add([]byte(lit)); (err == nil) != accept {
			t.Errorf("%s: Add error %v, want accepted=%v", name, err, accept)
		}
	}
}

// BenchmarkPacketChecksum prices one packet checksum (header fold plus
// payload), the check every NI and reassembler runs per packet.
func BenchmarkPacketChecksum(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"64B", 64}, {"4KiB", 4096}} {
		b.Run(c.name, func(b *testing.B) {
			payload := bytes.Repeat([]byte{0xA5}, c.size)
			h := Header{MsgID: 1, Source: 2, Total: 1, Multicast: true, Payload: uint16(c.size)}
			var sink uint32
			b.SetBytes(int64(c.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink += h.PacketChecksum(payload)
			}
			_ = sink
		})
	}
}
