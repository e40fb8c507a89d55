package memdev

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"

	"asap/internal/arch"
)

// Image is the byte content of persistent memory as actually persisted:
// only WPQ-accepted writes that drained (or were flushed by ADR on a crash)
// appear here. Crash recovery reads and repairs this image.
//
// Lines are stored in slabs of 64 adjacent lines, so persisting a line
// allocates only when its slab is new, and the map holds one entry per
// slab instead of one per line.
type Image struct {
	slabs map[arch.LineAddr]*slab // keyed by the slab's first line
	n     int                     // lines ever written
}

// slabLines is the number of adjacent lines one slab holds.
const slabLines = 64

// slab is slabLines adjacent lines; has marks the ones ever written.
type slab struct {
	has  uint64
	data [slabLines * arch.LineSize]byte
}

// slabOf splits line into its slab's key and its index within the slab.
func slabOf(line arch.LineAddr) (arch.LineAddr, int) {
	i := int(uint64(line)>>arch.LineShift) % slabLines
	return line - arch.LineAddr(i*arch.LineSize), i
}

// line returns the i-th line's bytes. The capacity ends at the line, so
// no append through the slice can reach a neighbouring line.
func (s *slab) line(i int) []byte {
	return s.data[i*arch.LineSize : (i+1)*arch.LineSize : (i+1)*arch.LineSize]
}

// NewImage returns an empty persisted image.
func NewImage() *Image {
	return &Image{slabs: make(map[arch.LineAddr]*slab)}
}

// Write stores a 64 B payload at line. The payload is copied.
func (im *Image) Write(line arch.LineAddr, payload []byte) {
	key, i := slabOf(line)
	s := im.slabs[key]
	if s == nil {
		s = new(slab)
		im.slabs[key] = s
	}
	if s.has&(1<<i) == 0 {
		s.has |= 1 << i
		im.n++
	}
	copy(s.line(i), payload)
}

// Read returns the 64 B content of line. Never-written lines read as zero.
// The returned slice is a copy.
func (im *Image) Read(line arch.LineAddr) []byte {
	out := make([]byte, arch.LineSize)
	key, i := slabOf(line)
	if s := im.slabs[key]; s != nil {
		copy(out, s.line(i))
	}
	return out
}

// Has reports whether line has ever been written.
func (im *Image) Has(line arch.LineAddr) bool {
	key, i := slabOf(line)
	s := im.slabs[key]
	return s != nil && s.has&(1<<i) != 0
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := &Image{slabs: make(map[arch.LineAddr]*slab, len(im.slabs)), n: im.n}
	for key, s := range im.slabs {
		cp := *s
		out.slabs[key] = &cp
	}
	return out
}

// GobEncode implements gob.GobEncoder so crash images can be saved to disk
// and recovered in another process. The encoding is a gob map from line
// address to its 64 B payload.
func (im *Image) GobEncode() ([]byte, error) {
	lines := make(map[arch.LineAddr][]byte, im.n)
	im.Lines(func(line arch.LineAddr, payload []byte) { lines[line] = payload })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(lines); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder. A line whose payload is not
// exactly 64 B is an error: the input is malformed.
func (im *Image) GobDecode(data []byte) error {
	lines := make(map[arch.LineAddr][]byte)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&lines); err != nil {
		return err
	}
	*im = *NewImage()
	for line, payload := range lines {
		if len(payload) != arch.LineSize {
			return fmt.Errorf("memdev: image line %#x holds %d bytes, want %d", uint64(line), len(payload), arch.LineSize)
		}
		im.Write(line, payload)
	}
	return nil
}

// Lines iterates the persisted lines in unspecified order. payload is the
// image's own storage for the line.
func (im *Image) Lines(fn func(line arch.LineAddr, payload []byte)) {
	for key, s := range im.slabs {
		for has := s.has; has != 0; has &= has - 1 {
			i := bits.TrailingZeros64(has)
			fn(key+arch.LineAddr(i*arch.LineSize), s.line(i))
		}
	}
}
