package core

import (
	"fmt"
	"unsafe"
)

// Fields is the typed snapshot view of a Record's mutable fields, produced
// by Process.LLXFields: nw uint64 words and np raw pointers captured
// atomically (correctness property C2). Reading a snapshot value is an
// array index, and capturing one performs no heap allocation for records up
// to maxInlineWidth fields per kind.
//
// A Fields value is caller-owned scratch: LLXFields overwrites it wholesale,
// so one value can be reused across any number of LLXs (the template engine
// keeps a small array of them per handle). The zero value is ready to use.
type Fields struct {
	nw, np uint8
	words  [maxInlineWidth]uint64
	ptrs   [maxInlineWidth]unsafe.Pointer
	wspill []uint64
	pspill []unsafe.Pointer
}

// NumWords returns the number of captured word fields.
func (f *Fields) NumWords() int { return int(f.nw) }

// NumPtrs returns the number of captured pointer fields.
func (f *Fields) NumPtrs() int { return int(f.np) }

// Word returns captured word field i.
func (f *Fields) Word(i int) uint64 {
	if i < 0 || i >= int(f.nw) {
		panic(fmt.Sprintf("core: snapshot word index %d out of range [0,%d)", i, f.nw))
	}
	if f.wspill != nil {
		return f.wspill[i]
	}
	return f.words[i]
}

// Ptr returns captured pointer field i.
func (f *Fields) Ptr(i int) unsafe.Pointer {
	if i < 0 || i >= int(f.np) {
		panic(fmt.Sprintf("core: snapshot pointer index %d out of range [0,%d)", i, f.np))
	}
	if f.pspill != nil {
		return f.pspill[i]
	}
	return f.ptrs[i]
}

// copyFrom copies src's captured values into dst. The inline arrays copy
// as two fixed-size (branch-free) block moves, which the benchmarks showed
// beats both a whole-struct copy and width-bounded loops for the
// one-to-two-field records every structure here uses (the link table
// copies a Fields per LLX).
func (dst *Fields) copyFrom(src *Fields) {
	dst.nw, dst.np = src.nw, src.np
	dst.wspill, dst.pspill = src.wspill, src.pspill
	dst.words = src.words
	dst.ptrs = src.ptrs
}

// captureInto loads every mutable field of r into f (paper Figure 4 line 8;
// the caller validates with the line-9 info re-read). Wide records allocate
// their spill slices here, once per capture.
func (r *Record) captureInto(f *Fields) {
	f.nw, f.np = r.nw, r.np
	f.wspill, f.pspill = nil, nil
	if r.nw > maxInlineWidth {
		f.wspill = make([]uint64, r.nw)
		for i := range f.wspill {
			f.wspill[i] = r.wordSpill[i].Load()
		}
	} else {
		for i := 0; i < int(r.nw); i++ {
			f.words[i] = r.wordsInline[i].Load()
		}
	}
	if r.np > maxInlineWidth {
		f.pspill = make([]unsafe.Pointer, r.np)
		for i := range f.pspill {
			f.pspill[i] = r.ptrSpill[i].Load()
		}
	} else {
		for i := 0; i < int(r.np); i++ {
			f.ptrs[i] = r.ptrsInline[i].Load()
		}
	}
}
