package analysis

import (
	"encoding/json"
	"strconv"
	"time"
)

// DecodeResult decodes a results export: the JSON form of ExamResult that
// encoding/json writes, indented or not. It parses that canonical form in one
// pass without reflection, handing only the problems array to json.Unmarshal.
// Anything else — a string with an escape or a non-ASCII byte, a key that is
// not an exact field name or repeats, null, a number strconv rejects, an
// unexpected token — falls back to json.Unmarshal of the whole input, so the
// result and the error are always json.Unmarshal's.
func DecodeResult(data []byte) (*ExamResult, error) {
	d := resultDecoder{data: data}
	if e, ok := d.result(); ok {
		return e, nil
	}
	var e ExamResult
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// resultDecoder is the fast path of DecodeResult. Each method returns false
// on the first input it does not take.
type resultDecoder struct {
	data []byte
	pos  int
	// resps is scratch space for one student's responses, copied out at
	// the array's end so each student holds an exactly sized slice.
	resps []Response
}

func (d *resultDecoder) result() (*ExamResult, bool) {
	e := &ExamResult{}
	var seen uint8
	ok := d.object(func(key []byte) bool {
		switch string(key) {
		case "examId":
			return d.once(&seen, 1) && d.str(&e.ExamID)
		case "problems":
			return d.once(&seen, 2) && d.problems(e)
		case "students":
			return d.once(&seen, 4) && d.students(e)
		case "testTimeNanos":
			return d.once(&seen, 8) && d.duration(&e.TestTime)
		}
		return false
	})
	d.ws()
	return e, ok && d.pos == len(d.data)
}

func (d *resultDecoder) students(e *ExamResult) bool {
	e.Students = []StudentResult{}
	return d.array(func() bool {
		var s StudentResult
		var seen uint8
		ok := d.object(func(key []byte) bool {
			switch string(key) {
			case "studentId":
				return d.once(&seen, 1) && d.str(&s.StudentID)
			case "responses":
				return d.once(&seen, 2) && d.responses(&s)
			}
			return false
		})
		e.Students = append(e.Students, s)
		return ok
	})
}

func (d *resultDecoder) responses(s *StudentResult) bool {
	d.resps = d.resps[:0]
	ok := d.array(func() bool {
		var r Response
		var seen uint8
		ok := d.object(func(key []byte) bool {
			switch string(key) {
			case "studentId":
				return d.once(&seen, 1) && d.str(&r.StudentID)
			case "problemId":
				return d.once(&seen, 2) && d.str(&r.ProblemID)
			case "option":
				return d.once(&seen, 4) && d.str(&r.Option)
			case "credit":
				return d.once(&seen, 8) && d.float(&r.Credit)
			case "answered":
				return d.once(&seen, 16) && d.boolean(&r.Answered)
			case "timeSpentNanos":
				return d.once(&seen, 32) && d.duration(&r.TimeSpent)
			}
			return false
		})
		d.resps = append(d.resps, r)
		return ok
	})
	s.Responses = append(make([]Response, 0, len(d.resps)), d.resps...)
	return ok
}

// problems hands the problems array to json.Unmarshal: it is small, and
// item.Problem is a wide type the fast path does not mirror.
func (d *resultDecoder) problems(e *ExamResult) bool {
	start := d.pos
	if !d.skipArray() {
		return false
	}
	return json.Unmarshal(d.data[start:d.pos], &e.Problems) == nil
}

// once records a field's bit in seen and reports whether it was new: a
// repeated key leaves the fast path, since json.Unmarshal merges repeats.
func (d *resultDecoder) once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (d *resultDecoder) ws() {
	data, i := d.data, d.pos
	// Every whitespace byte is <= ' ', so one compare passes a token.
	for i < len(data) && data[i] <= ' ' &&
		(data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	d.pos = i
}

// consume skips whitespace and then the byte c.
func (d *resultDecoder) consume(c byte) bool {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// object parses {"key": value, ...}, calling field with the cursor on each
// value (after the colon).
func (d *resultDecoder) object(field func(key []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		d.ws()
		key, ok := d.strBytes()
		if !ok || !d.consume(':') || !field(key) {
			return false
		}
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// array parses [value, ...], calling elem with the cursor on each value.
func (d *resultDecoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.consume(']') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// strBytes returns the contents of a string holding only printable ASCII
// with no escapes, aliasing the input.
func (d *resultDecoder) strBytes() ([]byte, bool) {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, false
	}
	data, start := d.data, d.pos+1
	for i := start; i < len(data); i++ {
		if c := data[i]; !plainByte[c] {
			if c != '"' {
				return nil, false
			}
			d.pos = i + 1
			return data[start:i], true
		}
	}
	return nil, false
}

// plainByte marks the bytes a fast-path string may hold: printable ASCII
// other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (d *resultDecoder) str(dst *string) bool {
	v, ok := d.strBytes()
	if ok {
		*dst = string(v)
	}
	return ok
}

func (d *resultDecoder) boolean(dst *bool) bool {
	d.ws()
	rest := d.data[d.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*dst = true
		d.pos += 4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*dst = false
		d.pos += 5
	default:
		return false
	}
	return true
}

// number returns a literal matching JSON's number grammar.
func (d *resultDecoder) number() ([]byte, bool) {
	d.ws()
	start, i, n := d.pos, d.pos, len(d.data)
	digits := func() bool {
		j := i
		for i < n && d.data[i] >= '0' && d.data[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < n && d.data[i] == '-' {
		i++
	}
	switch {
	case i < n && d.data[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < n && d.data[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < n && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < n && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	d.pos = i
	return d.data[start:i], true
}

func (d *resultDecoder) float(dst *float64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (d *resultDecoder) duration(dst *time.Duration) bool {
	// ParseInt rejects a fraction or an exponent, as json.Unmarshal does
	// for an integer field.
	lit, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = time.Duration(v)
	return err == nil
}

// skipArray moves past one array without decoding it, tracking nesting and
// strings. It checks no more than that; json.Unmarshal validates the span.
func (d *resultDecoder) skipArray() bool {
	d.ws()
	if d.pos >= len(d.data) || d.data[d.pos] != '[' {
		return false
	}
	depth := 0
	for i := d.pos; i < len(d.data); i++ {
		switch d.data[i] {
		case '"':
			for i++; i < len(d.data) && d.data[i] != '"'; i++ {
				if d.data[i] == '\\' {
					i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			depth--
			if depth == 0 {
				d.pos = i + 1
				return true
			}
		}
	}
	return false
}
