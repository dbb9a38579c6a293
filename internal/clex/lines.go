package clex

// Lines is struct-of-arrays storage for a token stream split into logical
// lines: one flat token array plus a parallel offset array, with lines
// exposed as zero-copy views. It replaces the [][]Token shape whose
// per-line backing arrays dominated the front end's allocation profile —
// splitting an N-line buffer now costs two allocations, not N.
//
// Views returned by Line are capped at the line boundary, so a consumer
// appending to a view can never clobber the next line; consumers must still
// treat the tokens themselves as immutable (header lines are shared by
// every translation unit of a run, and macro bodies alias them). A Lines
// can be recycled (Tokenize into it again after Reset), which is how the
// preprocessor pools the lines of the files it lexes itself.
type Lines struct {
	// Toks is the flat token array, newline tokens excluded.
	Toks []Token
	// Off holds len+1 offsets into Toks: line i is Toks[Off[i]:Off[i+1]].
	Off []int32
}

// Len returns the number of lines.
func (ln *Lines) Len() int { return len(ln.Off) - 1 }

// Line returns line i as a zero-copy, capacity-capped view into Toks.
func (ln *Lines) Line(i int) []Token {
	lo, hi := ln.Off[i], ln.Off[i+1]
	return ln.Toks[lo:hi:hi]
}

// TokenizeLines lexes src directly into line-split SoA form in fresh
// storage (see Lines.Tokenize).
func TokenizeLines(file, src string, stats *Stats) (*Lines, []error) {
	ln := &Lines{}
	errs := ln.Tokenize(file, src, stats)
	return ln, errs
}

// Tokenize lexes src into ln, replacing its contents and reusing its
// storage, which grows to a presize from the source length when too small.
// Newline tokens mark line boundaries without ever being stored. Semantics
// match Tokenize(KeepNewlines)+line splitting exactly — empty lines are
// present (and empty), a trailing partial line is kept, a trailing newline
// adds no empty line. Stats accounting matches the Tokenize path: every
// lexed token counts, including the discarded newlines.
func (ln *Lines) Tokenize(file, src string, stats *Stats) []error {
	// Kernel C averages ~4.5 bytes per stored token and ~19 per line, so
	// these presizes rarely grow.
	if n := len(src)/4 + 8; cap(ln.Toks) < n {
		ln.Toks = make([]Token, 0, n)
	}
	if n := len(src)/16 + 8; cap(ln.Off) < n {
		ln.Off = make([]int32, 0, n)
	}
	ln.Toks, ln.Off = ln.Toks[:0], append(ln.Off[:0], 0)
	l := New(file, src, Config{KeepNewlines: true})
	lexed := int64(0)
	for {
		t := l.Next()
		if t.Kind == EOF {
			break
		}
		lexed++
		if t.Kind == Newline {
			ln.Off = append(ln.Off, int32(len(ln.Toks)))
			continue
		}
		ln.Toks = append(ln.Toks, t)
	}
	if int(ln.Off[len(ln.Off)-1]) != len(ln.Toks) {
		ln.Off = append(ln.Off, int32(len(ln.Toks)))
	}
	if stats != nil {
		stats.Tokens.Add(lexed)
		stats.Errors.Add(int64(len(l.errs)))
	}
	return l.errs
}

// Reset empties ln and zeroes its tokens, keeping the storage: a recycled
// Lines then pins no source strings or origin chains.
func (ln *Lines) Reset() {
	clear(ln.Toks)
	ln.Toks, ln.Off = ln.Toks[:0], ln.Off[:0]
}
