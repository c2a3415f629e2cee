package mem

import (
	"encoding/binary"
	"fmt"

	"radshield/internal/ecc"
)

// Memory is the raw byte-addressed device interface shared by DRAM and
// Storage. Reads and writes are bounds-checked; ECC devices verify and
// scrub on read.
type Memory interface {
	// Read fills dst with len(dst) bytes starting at addr.
	Read(addr uint64, dst []byte) error
	// Write stores src starting at addr.
	Write(addr uint64, src []byte) error
	// Size returns the device capacity in bytes.
	Size() uint64
}

// UncorrectableError reports a double-bit (or worse) error that SECDED
// detected but could not correct — the hardware analogue is a machine
// check / bus abort.
type UncorrectableError struct {
	Device string
	Addr   uint64
}

func (e *UncorrectableError) Error() string {
	return fmt.Sprintf("mem: uncorrectable ECC error on %s at %#x", e.Device, e.Addr)
}

// BoundsError reports an access outside the device.
type BoundsError struct {
	Device string
	Addr   uint64
	Len    int
	Size   uint64
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("mem: %s access [%#x, %#x) outside device of %d bytes",
		e.Device, e.Addr, e.Addr+uint64(e.Len), e.Size)
}

// Stats counts ECC and fault-injection events on a device.
type Stats struct {
	Corrected     uint64 // single-bit errors fixed by SECDED
	Uncorrectable uint64 // double-bit errors detected (read failed)
	FlipsInjected uint64 // bit flips injected by the fault injector
	Reads         uint64 // Read calls
	Writes        uint64 // Write calls
}

const wordSize = 8 // SECDED granule: 64-bit word + 8 check bits

// Devices are backed by fixed-size pages created on first write or
// injected flip. A word on a missing page reads as zero with a zero
// check byte, which is a valid SECDED codeword (Encode(0) == 0), so a
// device costs only its page table until something touches it: a
// 256 MiB array that holds a 32 KiB dataset allocates 32 KiB of table
// plus the pages the dataset lands on.
const (
	pageShift = 16
	pageSize  = 1 << pageShift // bytes per page
	pageWords = pageSize / wordSize
)

// page keeps a span's data bytes and their check bytes together. The
// check bytes stay zero (and unread) on a device without ECC.
type page struct {
	data  [pageSize]byte
	check [pageWords]byte
}

// word returns the 64-bit little-endian word at page-local index i.
func (p *page) word(i uint64) uint64 {
	return binary.LittleEndian.Uint64(p.data[i*wordSize:])
}

// DRAM is a byte-addressable volatile memory. With ECC enabled every
// 64-bit word carries SECDED check bits that are verified (and scrubbed)
// on read; without ECC, injected bit flips silently corrupt data — the
// paper's unprotected-DRAM configuration (e.g. the Snapdragon 801).
type DRAM struct {
	pages []*page // nil until first written or struck
	size  uint64
	ecc   bool
	stats Stats
	next  uint64 // bump-allocator watermark
}

// NewDRAM returns a DRAM of the given size (rounded up to a multiple of
// 8 bytes) with or without SECDED ECC.
func NewDRAM(size uint64, withECC bool) *DRAM {
	size = (size + wordSize - 1) / wordSize * wordSize
	return &DRAM{pages: make([]*page, (size+pageSize-1)/pageSize), size: size, ecc: withECC}
}

// HasECC reports whether the device verifies SECDED codes on read.
func (d *DRAM) HasECC() bool { return d.ecc }

// Size returns the capacity in bytes.
func (d *DRAM) Size() uint64 { return d.size }

// Stats returns a snapshot of the device's event counters.
func (d *DRAM) Stats() Stats { return d.stats }

// Alloc reserves n bytes (cache-line aligned) and returns the base
// address. It fails when the device is exhausted. DRAM is the arena the
// EMR runtime allocates datasets, replicas, and output buffers from.
func (d *DRAM) Alloc(n uint64) (uint64, error) {
	const align = 64
	base := (d.next + align - 1) / align * align
	if base+n > d.Size() {
		return 0, fmt.Errorf("mem: DRAM exhausted: need %d bytes at %#x, size %d", n, base, d.Size())
	}
	d.next = base + n
	return base, nil
}

// AllocBytes allocates space for src, copies it in, and returns the base
// address.
func (d *DRAM) AllocBytes(src []byte) (uint64, error) {
	addr, err := d.Alloc(uint64(len(src)))
	if err != nil {
		return 0, err
	}
	if err := d.Write(addr, src); err != nil {
		return 0, err
	}
	return addr, nil
}

// pageAt returns the page holding addr, creating it when missing.
func (d *DRAM) pageAt(addr uint64) *page {
	pg := d.pages[addr>>pageShift]
	if pg == nil {
		pg = new(page)
		d.pages[addr>>pageShift] = pg
	}
	return pg
}

// Read implements Memory. On an ECC device every touched word is decoded:
// single-bit errors are corrected in place (scrubbing, as DRAM
// controllers do) and counted; double-bit errors abort the read with
// *UncorrectableError.
func (d *DRAM) Read(addr uint64, dst []byte) error {
	if err := d.bounds(addr, len(dst)); err != nil {
		return err
	}
	d.stats.Reads++
	if len(dst) == 0 {
		return nil
	}
	end := addr + uint64(len(dst))
	if d.ecc {
		// Words on a missing page are zero codewords: nothing to verify.
		for w, last := addr/wordSize, (end-1)/wordSize; w <= last; {
			stop := min(last+1, (w/pageWords+1)*pageWords)
			if pg := d.pages[w/pageWords]; pg != nil {
				for ; w < stop; w++ {
					if err := d.verify(pg, w); err != nil {
						return err
					}
				}
			}
			w = stop
		}
	}
	for a := addr; a < end; {
		off := a & (pageSize - 1)
		n := min(end-a, pageSize-off)
		out := dst[a-addr : a-addr+n]
		if pg := d.pages[a>>pageShift]; pg != nil {
			copy(out, pg.data[off:])
		} else {
			clear(out)
		}
		a += n
	}
	return nil
}

// Write implements Memory. On an ECC device the check bytes of every
// touched word are recomputed (after verifying partially-overwritten
// boundary words so pre-existing corruption is not silently re-encoded).
func (d *DRAM) Write(addr uint64, src []byte) error {
	if err := d.bounds(addr, len(src)); err != nil {
		return err
	}
	d.stats.Writes++
	if len(src) == 0 {
		return nil
	}
	end := addr + uint64(len(src))
	if d.ecc {
		first, last := addr/wordSize, (end-1)/wordSize
		// Partial boundary words: verify before read-modify-write.
		if addr%wordSize != 0 {
			if err := d.verifyWord(first); err != nil {
				return err
			}
		}
		if end%wordSize != 0 && last != first {
			if err := d.verifyWord(last); err != nil {
				return err
			}
		}
	}
	for a := addr; a < end; {
		off := a & (pageSize - 1)
		n := min(end-a, pageSize-off)
		pg := d.pageAt(a)
		copy(pg.data[off:], src[a-addr:a-addr+n])
		if d.ecc {
			for i, last := off/wordSize, (off+n-1)/wordSize; i <= last; i++ {
				pg.check[i] = ecc.Encode(pg.word(i))
			}
		}
		a += n
	}
	return nil
}

// FlipBit inverts one stored bit without touching the ECC code,
// simulating a particle strike on the DRAM array. bit selects within the
// byte (0..7).
func (d *DRAM) FlipBit(addr uint64, bit uint) error {
	if err := d.bounds(addr, 1); err != nil {
		return err
	}
	d.pageAt(addr).data[addr&(pageSize-1)] ^= 1 << (bit & 7)
	d.stats.FlipsInjected++
	return nil
}

// verifyWord decodes word w wherever it lives, scrubbing single-bit
// errors. A word on a missing page is a zero codeword and always OK.
func (d *DRAM) verifyWord(w uint64) error {
	if pg := d.pages[w/pageWords]; pg != nil {
		return d.verify(pg, w)
	}
	return nil
}

// verify decodes word w on its page pg, scrubbing single-bit errors.
func (d *DRAM) verify(pg *page, w uint64) error {
	i := w % pageWords
	data, res := ecc.Decode(pg.word(i), pg.check[i])
	switch res {
	case ecc.OK:
		return nil
	case ecc.CorrectedData:
		binary.LittleEndian.PutUint64(pg.data[i*wordSize:], data)
		d.stats.Corrected++
		return nil
	case ecc.CorrectedCheck:
		pg.check[i] = ecc.Encode(data)
		d.stats.Corrected++
		return nil
	default:
		d.stats.Uncorrectable++
		return &UncorrectableError{Device: "dram", Addr: w * wordSize}
	}
}

func (d *DRAM) bounds(addr uint64, n int) error {
	if n < 0 || addr+uint64(n) > d.Size() || addr+uint64(n) < addr {
		return &BoundsError{Device: "dram", Addr: addr, Len: n, Size: d.Size()}
	}
	return nil
}

var _ Memory = (*DRAM)(nil)
