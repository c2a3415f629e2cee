package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"radshield/internal/ecc"
)

// flatDRAM is the reference model for the paged DRAM: the same device
// semantics over one flat data array and one flat check array, written
// the direct way with no paging.
type flatDRAM struct {
	data, check []byte
	ecc         bool
	stats       Stats
	next        uint64
}

func newFlatDRAM(size uint64, withECC bool) *flatDRAM {
	size = (size + wordSize - 1) / wordSize * wordSize
	return &flatDRAM{data: make([]byte, size), check: make([]byte, size/wordSize), ecc: withECC}
}

func (f *flatDRAM) bounds(addr uint64, n int) error {
	size := uint64(len(f.data))
	if n < 0 || addr+uint64(n) > size || addr+uint64(n) < addr {
		return &BoundsError{Device: "dram", Addr: addr, Len: n, Size: size}
	}
	return nil
}

func (f *flatDRAM) Alloc(n uint64) (uint64, error) {
	base := (f.next + 63) / 64 * 64
	if base+n > uint64(len(f.data)) {
		return 0, fmt.Errorf("exhausted")
	}
	f.next = base + n
	return base, nil
}

func (f *flatDRAM) verify(w uint64) error {
	data, res := ecc.Decode(binary.LittleEndian.Uint64(f.data[w*wordSize:]), f.check[w])
	switch res {
	case ecc.OK:
	case ecc.CorrectedData:
		binary.LittleEndian.PutUint64(f.data[w*wordSize:], data)
		f.stats.Corrected++
	case ecc.CorrectedCheck:
		f.check[w] = ecc.Encode(data)
		f.stats.Corrected++
	default:
		f.stats.Uncorrectable++
		return &UncorrectableError{Device: "dram", Addr: w * wordSize}
	}
	return nil
}

func (f *flatDRAM) Read(addr uint64, dst []byte) error {
	if err := f.bounds(addr, len(dst)); err != nil {
		return err
	}
	f.stats.Reads++
	if len(dst) == 0 {
		return nil
	}
	if f.ecc {
		for w := addr / wordSize; w <= (addr+uint64(len(dst))-1)/wordSize; w++ {
			if err := f.verify(w); err != nil {
				return err
			}
		}
	}
	copy(dst, f.data[addr:])
	return nil
}

func (f *flatDRAM) Write(addr uint64, src []byte) error {
	if err := f.bounds(addr, len(src)); err != nil {
		return err
	}
	f.stats.Writes++
	if len(src) == 0 {
		return nil
	}
	end := addr + uint64(len(src))
	first, last := addr/wordSize, (end-1)/wordSize
	if f.ecc {
		if addr%wordSize != 0 {
			if err := f.verify(first); err != nil {
				return err
			}
		}
		if end%wordSize != 0 && last != first {
			if err := f.verify(last); err != nil {
				return err
			}
		}
	}
	copy(f.data[addr:], src)
	for w := first; w <= last; w++ {
		f.check[w] = ecc.Encode(binary.LittleEndian.Uint64(f.data[w*wordSize:]))
	}
	return nil
}

func (f *flatDRAM) FlipBit(addr uint64, bit uint) error {
	if err := f.bounds(addr, 1); err != nil {
		return err
	}
	f.data[addr] ^= 1 << (bit & 7)
	f.stats.FlipsInjected++
	return nil
}

// sameError reports whether the paged and reference devices failed the
// same way: both succeeded, or both returned equal bounds or
// uncorrectable errors.
func sameError(got, want error) bool {
	var gb, wb *BoundsError
	var gu, wu *UncorrectableError
	switch {
	case got == nil || want == nil:
		return got == nil && want == nil
	case errors.As(want, &wb):
		return errors.As(got, &gb) && *gb == *wb
	case errors.As(want, &wu):
		return errors.As(got, &gu) && *gu == *wu
	default:
		return got.Error() != "" // allocator exhaustion: any error
	}
}

// FuzzDRAMPaged runs random Alloc/Write/Read/FlipBit sequences against
// a paged DRAM and the flat reference model, and requires equal bytes,
// equal errors and equal Stats after every operation. Addresses are
// drawn near page boundaries so accesses often straddle pages, and the
// device ends in a partial page.
func FuzzDRAMPaged(f *testing.F) {
	f.Add(true, []byte{1, 0, 0x10, 0x20, 0xff, 3, 0, 0x0f, 0xfc, 7, 2, 0, 0x10, 0x30, 0x00})
	f.Add(false, []byte{3, 1, 0x00, 0x00, 0x01, 1, 1, 0xff, 0xf8, 0xab, 2, 2, 0x00, 0x08, 0x10})
	f.Fuzz(func(t *testing.T, withECC bool, ops []byte) {
		const size = 3*pageSize + 1000
		d, ref := NewDRAM(size, withECC), newFlatDRAM(size, withECC)
		next := func() uint64 {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return uint64(b)
		}
		// addr lands within ±32 KiB of one of the page boundaries
		// (including the device end) or just past it.
		addr := func() uint64 {
			base := next() % 5 * pageSize
			delta := next()<<8 | next()
			return base + delta - 1<<15
		}
		for step := 0; len(ops) > 0; step++ {
			op, a := next()%4, addr()
			var got, want error
			switch op {
			case 0:
				n := next() << 8
				ga, gerr := d.Alloc(n)
				wa, werr := ref.Alloc(n)
				if ga != wa || (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d Alloc(%d) = %d, %v; reference %d, %v", step, n, ga, gerr, wa, werr)
				}
			case 1:
				src := make([]byte, next()<<4|next()>>4)
				for i := range src {
					src[i] = byte(i) ^ byte(step)
				}
				got, want = d.Write(a, src), ref.Write(a, src)
			case 2:
				n := next()<<9 | next()
				gdst, wdst := make([]byte, n), make([]byte, n)
				got, want = d.Read(a, gdst), ref.Read(a, wdst)
				if !bytes.Equal(gdst, wdst) {
					t.Fatalf("step %d Read(%#x, %d): bytes differ from reference", step, a, n)
				}
			case 3:
				bit := uint(next())
				got, want = d.FlipBit(a, bit), ref.FlipBit(a, bit)
			}
			if !sameError(got, want) {
				t.Fatalf("step %d op %d at %#x: error %v, reference %v", step, op, a, got, want)
			}
			if d.Stats() != ref.stats {
				t.Fatalf("step %d op %d at %#x: stats %+v, reference %+v", step, op, a, d.Stats(), ref.stats)
			}
		}
		// Without ECC the whole array must match; with it, a word the
		// reference would fail to decode makes a full read fail the
		// same way on both.
		gall, wall := make([]byte, d.Size()), make([]byte, d.Size())
		if got, want := d.Read(0, gall), ref.Read(0, wall); !sameError(got, want) || !bytes.Equal(gall, wall) {
			t.Fatalf("final full read: error %v, reference %v; bytes equal %v", got, want, bytes.Equal(gall, wall))
		}
	})
}
