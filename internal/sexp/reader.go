package sexp

import (
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"strings"
	"unicode"
)

// Reader parses S-expressions from text. Supported syntax: symbols
// (downcased; `|...|` preserves case), fixnums/bignums, ratios (`n/d`),
// flonums, strings, characters (`#\x`), lists and dotted pairs, `'`
// quote, `#'` function, “ ` “/`,`/`,@` quasiquote, `#(...)` vectors and
// `;` line comments plus `#|...|#` block comments.
type Reader struct {
	src []rune
	pos int
	// line and lineStart track the current source line (1-based) and the
	// rune index where it begins, so every error carries a column.
	line      int
	lineStart int
	// depth is the current form-nesting depth; maxNestingDepth bounds it
	// so pathological inputs fail with a syntax error instead of
	// unbounded recursion.
	depth int
}

// maxNestingDepth bounds form nesting ("(((...": lists, quotes,
// vectors). Real programs sit far below it; fuzzers do not.
const maxNestingDepth = 10_000

// SyntaxError describes a reader failure with its source line and
// column (both 1-based).
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sexp: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// NewReader returns a Reader over src.
func NewReader(src string) *Reader {
	return &Reader{src: []rune(src), line: 1}
}

// col is the 1-based column of the reader's current position.
func (r *Reader) col() int { return r.pos - r.lineStart + 1 }

// bumpLine records a newline whose '\n' sits at rune index pos.
func (r *Reader) bumpLine(pos int) {
	r.line++
	r.lineStart = pos + 1
}

// errHere builds a SyntaxError at the current position.
func (r *Reader) errHere(msg string) *SyntaxError {
	return &SyntaxError{Line: r.line, Col: r.col(), Msg: msg}
}

// readSafe is Read with a recover barrier: the reader must never take
// down its caller, so an internal panic (an invariant bug, not a user
// error) degrades into a positioned SyntaxError.
func (r *Reader) readSafe() (v Value, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			v, err = nil, r.errHere(fmt.Sprintf("reader panic: %v", rec))
		}
	}()
	return r.Read()
}

// ReadAll parses every form in src, stopping at the first error.
func ReadAll(src string) ([]Value, error) {
	r := NewReader(src)
	var out []Value
	for {
		v, err := r.readSafe()
		if err != nil {
			return nil, err
		}
		if v == nil {
			return out, nil
		}
		out = append(out, v)
	}
}

// Form is a top-level form annotated with the position of its first
// character (1-based line and column).
type Form struct {
	Val  Value
	Line int
	Col  int
}

// ReadAllRecover parses every top-level form in src, recovering from
// syntax errors: each error is recorded with its position, the reader
// resynchronizes to the next plausible top-level form (the next '('
// that is the first non-blank rune on its line), and parsing continues.
// The good forms and all errors are returned together, so a load can
// compile every healthy unit while reporting every sick one.
func ReadAllRecover(src string) ([]Form, []*SyntaxError) {
	r := NewReader(src)
	var forms []Form
	var errs []*SyntaxError
	for {
		r.skipSpace()
		if r.pos >= len(r.src) {
			return forms, errs
		}
		start, line, col := r.pos, r.line, r.col()
		v, err := r.readSafe()
		if err != nil {
			se, ok := err.(*SyntaxError)
			if !ok {
				se = &SyntaxError{Line: r.line, Col: r.col(), Msg: err.Error()}
			}
			errs = append(errs, se)
			if !r.resync(start) {
				return forms, errs
			}
			continue
		}
		if v == nil {
			return forms, errs
		}
		forms = append(forms, Form{Val: v, Line: line, Col: col})
	}
}

// resync advances past a syntax error to the next '(' that is the
// first non-blank rune on its line, strictly beyond from (the start of
// the broken form, guaranteeing progress). Reports false when the input
// is exhausted first.
func (r *Reader) resync(from int) bool {
	if r.pos <= from {
		r.pos = from + 1
	}
	atLineStart := false
	for ; r.pos < len(r.src); r.pos++ {
		c := r.src[r.pos]
		switch {
		case c == '\n':
			r.bumpLine(r.pos)
			atLineStart = true
		case atLineStart && c == '(':
			return true
		case !unicode.IsSpace(c):
			atLineStart = false
		}
	}
	return false
}

// ReadOne parses exactly one form from src, failing on trailing junk.
func ReadOne(src string) (Value, error) {
	r := NewReader(src)
	v, err := r.readSafe()
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, r.errHere("empty input")
	}
	if tail, err := r.readSafe(); err != nil {
		return nil, err
	} else if tail != nil {
		return nil, r.errHere("trailing form " + Print(tail))
	}
	return v, nil
}

// Read returns the next form, or (nil, nil) at end of input.
func (r *Reader) Read() (Value, error) {
	r.skipSpace()
	if r.pos >= len(r.src) {
		return nil, nil
	}
	c := r.src[r.pos]
	switch c {
	case '(':
		r.pos++
		return r.readList(')')
	case ')':
		return nil, r.errHere("unexpected )")
	case '\'':
		r.pos++
		return r.readWrapped(SymQuote)
	case '`':
		r.pos++
		return r.readWrapped(Intern("quasiquote"))
	case ',':
		r.pos++
		if r.pos < len(r.src) && r.src[r.pos] == '@' {
			r.pos++
			return r.readWrapped(Intern("unquote-splicing"))
		}
		return r.readWrapped(Intern("unquote"))
	case '"':
		r.pos++
		return r.readString()
	case '#':
		return r.readHash()
	case ';':
		r.skipLineComment()
		return r.Read()
	default:
		return r.readAtom()
	}
}

func (r *Reader) readWrapped(head *Symbol) (Value, error) {
	if r.depth++; r.depth > maxNestingDepth {
		r.depth--
		return nil, r.errHere("form nested too deeply")
	}
	v, err := r.Read()
	r.depth--
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, r.errHere("end of input after " + head.Name)
	}
	return List(head, v), nil
}

func (r *Reader) readHash() (Value, error) {
	r.pos++ // past '#'
	if r.pos >= len(r.src) {
		return nil, r.errHere("end of input after #")
	}
	switch r.src[r.pos] {
	case '\'':
		r.pos++
		return r.readWrapped(SymFunction)
	case '(':
		r.pos++
		lst, err := r.readList(')')
		if err != nil {
			return nil, err
		}
		items, err := ListToSlice(lst)
		if err != nil {
			return nil, err
		}
		return &Vector{Items: items}, nil
	case '\\':
		r.pos++
		return r.readCharacter()
	case '|':
		r.pos++
		if err := r.skipBlockComment(); err != nil {
			return nil, err
		}
		return r.Read()
	}
	return nil, r.errHere(fmt.Sprintf("unknown dispatch #%c", r.src[r.pos]))
}

func (r *Reader) readCharacter() (Value, error) {
	start := r.pos
	for r.pos < len(r.src) && !isDelimiter(r.src[r.pos]) {
		r.pos++
	}
	name := string(r.src[start:r.pos])
	switch strings.ToLower(name) {
	case "space":
		return Character(' '), nil
	case "newline":
		return Character('\n'), nil
	case "tab":
		return Character('\t'), nil
	}
	runes := []rune(name)
	if len(runes) != 1 {
		return nil, r.errHere("bad character name #\\" + name)
	}
	return Character(runes[0]), nil
}

func (r *Reader) readList(close rune) (Value, error) {
	if r.depth++; r.depth > maxNestingDepth {
		r.depth--
		return nil, r.errHere("form nested too deeply")
	}
	defer func() { r.depth-- }()
	var items []Value
	var tail Value = Nil
	for {
		r.skipSpace()
		if r.pos >= len(r.src) {
			return nil, r.errHere("unterminated list")
		}
		if r.src[r.pos] == close {
			r.pos++
			break
		}
		if r.src[r.pos] == '.' && r.pos+1 < len(r.src) && isDelimiter(r.src[r.pos+1]) {
			if len(items) == 0 {
				return nil, r.errHere("dot at head of list")
			}
			r.pos++
			v, err := r.Read()
			if err != nil {
				return nil, err
			}
			if v == nil {
				return nil, r.errHere("end of input after dot")
			}
			tail = v
			r.skipSpace()
			if r.pos >= len(r.src) || r.src[r.pos] != close {
				return nil, r.errHere("expected ) after dotted tail")
			}
			r.pos++
			break
		}
		v, err := r.Read()
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, r.errHere("unterminated list")
		}
		items = append(items, v)
	}
	out := tail
	for i := len(items) - 1; i >= 0; i-- {
		out = NewCons(items[i], out)
	}
	return out, nil
}

func (r *Reader) readString() (Value, error) {
	var b strings.Builder
	for {
		if r.pos >= len(r.src) {
			return nil, r.errHere("unterminated string")
		}
		c := r.src[r.pos]
		r.pos++
		switch c {
		case '"':
			return String(b.String()), nil
		case '\\':
			if r.pos >= len(r.src) {
				return nil, r.errHere("unterminated string escape")
			}
			e := r.src[r.pos]
			r.pos++
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteRune(e)
			}
		case '\n':
			r.bumpLine(r.pos - 1)
			b.WriteRune(c)
		default:
			b.WriteRune(c)
		}
	}
}

func (r *Reader) readAtom() (Value, error) {
	if r.src[r.pos] == '|' {
		r.pos++
		start := r.pos
		for r.pos < len(r.src) && r.src[r.pos] != '|' {
			if r.src[r.pos] == '\n' {
				r.bumpLine(r.pos)
			}
			r.pos++
		}
		if r.pos >= len(r.src) {
			return nil, r.errHere("unterminated |symbol|")
		}
		name := string(r.src[start:r.pos])
		r.pos++
		return Intern(name), nil
	}
	start := r.pos
	for r.pos < len(r.src) && !isDelimiter(r.src[r.pos]) {
		r.pos++
	}
	tok := string(r.src[start:r.pos])
	if v, ok := parseNumber(tok); ok {
		return v, nil
	}
	return Intern(strings.ToLower(tok)), nil
}

// parseNumber recognizes fixnums, bignums, ratios and flonums.
func parseNumber(tok string) (Value, bool) {
	if tok == "" || tok == "+" || tok == "-" || tok == "." || tok == "..." {
		return nil, false
	}
	body := tok
	if body[0] == '+' || body[0] == '-' {
		body = body[1:]
		if body == "" {
			return nil, false
		}
	}
	if !strings.ContainsAny(body[:1], "0123456789.") {
		return nil, false
	}
	if i := strings.IndexByte(tok, '/'); i > 0 {
		num, ok1 := new(big.Int).SetString(tok[:i], 10)
		den, ok2 := new(big.Int).SetString(tok[i+1:], 10)
		if !ok1 || !ok2 || den.Sign() == 0 {
			return nil, false
		}
		return normRat(new(big.Rat).SetFrac(num, den)), true
	}
	// Integers that fit a fixnum parse without a bignum; only overflow
	// goes through math/big.
	n, err := strconv.ParseInt(tok, 10, 64)
	if err == nil {
		return Fixnum(n), true
	}
	if errors.Is(err, strconv.ErrRange) {
		if x, ok := new(big.Int).SetString(tok, 10); ok {
			return normBig(x), true
		}
	}
	// isFloatToken admits only digits, signs, one dot and one exponent
	// marker, so ParseFloat never sees the hex, inf/nan or underscore
	// spellings it would otherwise accept. An exponent too large for a
	// float64 (ErrRange) leaves the token a symbol; one too small reads
	// as zero.
	if strings.ContainsAny(tok, ".eE") && isFloatToken(tok) {
		if f, err := strconv.ParseFloat(tok, 64); err == nil {
			return Flonum(f), true
		}
	}
	return nil, false
}

func isFloatToken(tok string) bool {
	seenDot, seenExp := false, false
	for i, c := range tok {
		switch {
		case c >= '0' && c <= '9':
		case c == '+' || c == '-':
			if i != 0 && !(seenExp && (tok[i-1] == 'e' || tok[i-1] == 'E')) {
				return false
			}
		case c == '.':
			if seenDot || seenExp {
				return false
			}
			seenDot = true
		case c == 'e' || c == 'E':
			if seenExp || i == 0 || i == len(tok)-1 {
				return false
			}
			seenExp = true
		default:
			return false
		}
	}
	return true
}

func (r *Reader) skipSpace() {
	for r.pos < len(r.src) {
		c := r.src[r.pos]
		switch {
		case c == '\n':
			r.bumpLine(r.pos)
			r.pos++
		case unicode.IsSpace(c):
			r.pos++
		case c == ';':
			r.skipLineComment()
		case c == '#' && r.pos+1 < len(r.src) && r.src[r.pos+1] == '|':
			r.pos += 2
			_ = r.skipBlockComment()
		default:
			return
		}
	}
}

func (r *Reader) skipLineComment() {
	for r.pos < len(r.src) && r.src[r.pos] != '\n' {
		r.pos++
	}
}

func (r *Reader) skipBlockComment() error {
	depth := 1
	for r.pos < len(r.src) {
		if r.src[r.pos] == '\n' {
			r.bumpLine(r.pos)
		}
		if r.pos+1 < len(r.src) {
			if r.src[r.pos] == '|' && r.src[r.pos+1] == '#' {
				depth--
				r.pos += 2
				if depth == 0 {
					return nil
				}
				continue
			}
			if r.src[r.pos] == '#' && r.src[r.pos+1] == '|' {
				depth++
				r.pos += 2
				continue
			}
		}
		r.pos++
	}
	return r.errHere("unterminated block comment")
}

func isDelimiter(c rune) bool {
	return unicode.IsSpace(c) || strings.ContainsRune("()\";'`,", c)
}
