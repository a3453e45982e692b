package link

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestDatagramChecksumKnownAnswer pins the checksum construction: the
// stored field is plain CRC-32C (crc32.Checksum with the Castagnoli
// table) over the header with the field zeroed followed by the payload,
// whatever split between software header fold and hardware payload
// update the encoder uses.
func TestDatagramChecksumKnownAnswer(t *testing.T) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	rng := workload.NewRNG(0xC3C3_0002)
	for _, size := range []int{0, 1, 7, 64, 1024, DefaultUDPMTU - dgHeaderSize} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		dg := appendDatagram(nil, dgHeader{
			Kind: dgData, From: 5, To: 6, Session: rng.Uint64(), Epoch: 3, Seq: 99, Frag: 1, Frags: 2,
		}, payload)
		zeroed := append([]byte(nil), dg...)
		clear(zeroed[dgSumOff:dgHeaderSize])
		want := crc32.Checksum(zeroed, castagnoli)
		if got := binary.BigEndian.Uint32(dg[dgSumOff:]); got != want {
			t.Fatalf("%d-byte payload: checksum %#08x, crc32.Checksum over the datagram gives %#08x", size, got, want)
		}
	}
}

// TestDatagramSingleBitFlipsRejected flips every bit of a 64-byte and an
// MTU-sized datagram, header and payload alike; the decoder must reject
// each one. CRC-32C detects every single-bit error, so no flip can land
// on another valid datagram.
func TestDatagramSingleBitFlipsRejected(t *testing.T) {
	for _, size := range []int{64, DefaultUDPMTU} {
		payload := bytes.Repeat([]byte{0x5A}, size-dgHeaderSize)
		good := appendDatagram(nil, dgHeader{
			Kind: dgData, From: 1, To: 2, Session: 0xFEED, Epoch: 7, Seq: 40, Frag: 2, Frags: 5,
		}, payload)
		if len(good) != size {
			t.Fatalf("built a %d-byte datagram, want %d", len(good), size)
		}
		mut := append([]byte(nil), good...)
		for bit := 0; bit < 8*size; bit++ {
			mut[bit/8] ^= 1 << (bit % 8)
			if _, _, err := decodeDatagram(mut); err == nil {
				t.Fatalf("%d-byte datagram: flip of bit %d (byte %d) accepted", size, bit%8, bit/8)
			}
			mut[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// TestDatagramCodecAllocs gates the codec's allocation budget at zero:
// encoding into a pre-sized buffer and decoding allocate nothing. The
// checksum's hardware path takes its slice through a function variable,
// which makes the slice escape; this test fails if a stack header buffer
// ever reaches it and moves to the heap.
func TestDatagramCodecAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x33}, 1024)
	h := dgHeader{Kind: dgData, From: 1, To: 2, Session: 9, Epoch: 4, Seq: 17, Frags: 1}
	buf := make([]byte, 0, dgHeaderSize+len(payload))
	dg := appendDatagram(nil, h, payload)
	if n := testing.AllocsPerRun(100, func() { buf = appendDatagram(buf[:0], h, payload) }); n != 0 {
		t.Errorf("appendDatagram into a pre-sized buffer: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := decodeDatagram(dg); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Errorf("decodeDatagram: %.1f allocs, want 0", n)
	}
}

// readCorpusBytes parses a one-value `go test fuzz v1` corpus file
// holding a []byte literal.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-[]byte fuzz corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestFuzzCorpusValidSeedsDecode keeps the checked-in accept-path seeds
// honest: every valid-* datagram under testdata must decode. A wire
// format change that forgets to regenerate them fails here instead of
// silently turning them into reject seeds.
func TestFuzzCorpusValidSeedsDecode(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzDecodeDatagram/valid-*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no valid-* seeds found (err %v)", err)
	}
	for _, p := range paths {
		if _, _, err := decodeDatagram(readCorpusBytes(t, p)); err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
		}
	}
}

// BenchmarkDatagramCodec prices one hop's framing work on a fragment:
// encode into a reused buffer, then decode and verify.
func BenchmarkDatagramCodec(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"64B", 64}, {"1KiB", 1024}, {"MTU", DefaultUDPMTU - dgHeaderSize}} {
		b.Run(c.name, func(b *testing.B) {
			payload := bytes.Repeat([]byte{0xA5}, c.size)
			h := dgHeader{Kind: dgData, From: 1, To: 2, Session: 9, Epoch: 4, Frags: 1}
			buf := make([]byte, 0, dgHeaderSize+c.size)
			b.SetBytes(int64(c.size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Seq = uint32(i)
				buf = appendDatagram(buf[:0], h, payload)
				if _, _, err := decodeDatagram(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
