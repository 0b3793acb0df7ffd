package shmnet

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Shared-memory region layout (one file per network):
//
//	┌────────────────────────────────────────────────────────────────┐
//	│ file header (128 B): magic, version, size, streams, ringBytes, │
//	│                      init word (0 empty / 1 busy / 2 ready)    │
//	├────────────────────────────────────────────────────────────────┤
//	│ rank slots (size × 64 B): attach word per rank                 │
//	│                      (0 free / 1 attached / 2 closed)          │
//	├────────────────────────────────────────────────────────────────┤
//	│ lanes (size² × streams), each:                                 │
//	│   lane header (128 B):                                         │
//	│     +0   tail  — producer cursor, monotonic uint64             │
//	│     +64  head  — consumer cursor, monotonic uint64             │
//	│   ring data (ringBytes, power of two)                          │
//	└────────────────────────────────────────────────────────────────┘
//
// tail and head sit in separate 64-byte cache lines so the producer's
// tail store never invalidates the line the consumer is spinning on (and
// vice versa). Both are monotonic — positions are cursor & (ringBytes-1) —
// so full/empty never alias and uint64 wraparound is a non-issue at any
// achievable rate.
const (
	magicWord = 0x61696163632d7368 // "aiacc-sh"
	// layoutVersion 2: frames start 4-byte aligned, and a skip word keeps a
	// frame of at most half the ring from straddling its end.
	layoutVersion = 2

	fileHdrBytes  = 128
	rankSlotBytes = 64
	laneHdrBytes  = 128

	offMagic   = 0
	offVersion = 8
	offSize    = 16
	offStreams = 24
	offRing    = 32
	offInit    = 40

	initEmpty = 0
	initBusy  = 1
	initReady = 2

	rankFree     = 0
	rankAttached = 1
	rankClosed   = 2

	laneTailOff = 0
	laneHeadOff = 64
)

// region is one process's mapping of the shared file.
type region struct {
	mem       []byte
	size      int
	streams   int
	ringBytes int
}

func (r *region) word(off int) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&r.mem[off]))
}

func (r *region) rankState(rank int) *atomic.Uint64 {
	return r.word(fileHdrBytes + rank*rankSlotBytes)
}

func (r *region) laneOff(from, to, stream int) int {
	lane := (from*r.size+to)*r.streams + stream
	return fileHdrBytes + r.size*rankSlotBytes + lane*(laneHdrBytes+r.ringBytes)
}

func regionBytes(size, streams, ringBytes int) int {
	return fileHdrBytes + size*rankSlotBytes + size*size*streams*(laneHdrBytes+ringBytes)
}

// mapRegion maps the file and runs the init handshake: whichever attacher
// wins the CAS on the init word writes the geometry; everyone else waits for
// "ready" and verifies their geometry matches, so workers may start in any
// order and a misconfigured straggler fails loudly instead of corrupting the
// rings.
func mapRegion(f *os.File, size, streams, ringBytes int) (*region, error) {
	total := regionBytes(size, streams, ringBytes)
	if st, err := f.Stat(); err != nil {
		return nil, fmt.Errorf("shmnet: stat %s: %w", f.Name(), err)
	} else if st.Size() < int64(total) {
		// Grow only: a second attacher with mismatched geometry must not
		// shrink the file under an established mapping (SIGBUS); the header
		// check below reports its mismatch instead.
		if err := f.Truncate(int64(total)); err != nil {
			return nil, fmt.Errorf("shmnet: truncate %s: %w", f.Name(), err)
		}
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, total,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shmnet: mmap %s: %w", f.Name(), err)
	}
	r := &region{mem: mem, size: size, streams: streams, ringBytes: ringBytes}
	init := r.word(offInit)
	if init.CompareAndSwap(initEmpty, initBusy) {
		r.word(offMagic).Store(magicWord)
		r.word(offVersion).Store(layoutVersion)
		r.word(offSize).Store(uint64(size))
		r.word(offStreams).Store(uint64(streams))
		r.word(offRing).Store(uint64(ringBytes))
		init.Store(initReady)
	} else {
		deadline := time.Now().Add(5 * time.Second)
		for init.Load() != initReady {
			if time.Now().After(deadline) {
				r.unmap()
				return nil, fmt.Errorf("shmnet: %s: init never completed", f.Name())
			}
			runtime.Gosched()
		}
		if magic, v := r.word(offMagic).Load(), r.word(offVersion).Load(); magic != magicWord || v != layoutVersion {
			r.unmap()
			return nil, fmt.Errorf("shmnet: %s: not a layout-%d region (magic %#x, version %d)",
				f.Name(), layoutVersion, magic, v)
		}
		if r.word(offSize).Load() != uint64(size) || r.word(offStreams).Load() != uint64(streams) ||
			r.word(offRing).Load() != uint64(ringBytes) {
			got := fmt.Sprintf("size=%d streams=%d ring=%d",
				r.word(offSize).Load(), r.word(offStreams).Load(), r.word(offRing).Load())
			r.unmap()
			return nil, fmt.Errorf("shmnet: %s: geometry mismatch: file has %s, caller wants size=%d streams=%d ring=%d",
				f.Name(), got, size, streams, ringBytes)
		}
	}
	return r, nil
}

func (r *region) unmap() {
	if r.mem != nil {
		_ = syscall.Munmap(r.mem)
		r.mem = nil
	}
}
