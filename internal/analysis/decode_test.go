package analysis

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
)

// fastPath reports whether DecodeResult's one-pass parser takes data
// without falling back to json.Unmarshal.
func fastPath(data []byte) bool {
	d := resultDecoder{data: data}
	_, ok := d.result()
	return ok
}

// checkDecode asserts DecodeResult agrees with json.Unmarshal on data: the
// same error, or the same result.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := DecodeResult(data)
	var want ExamResult
	wantErr := json.Unmarshal(data, &want)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("DecodeResult error %v, json.Unmarshal error %v\ninput: %q", gotErr, wantErr, data)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("DecodeResult error %q, json.Unmarshal error %q\ninput: %q", gotErr, wantErr, data)
		}
	case !reflect.DeepEqual(got, &want):
		t.Fatalf("DecodeResult %+v\njson.Unmarshal %+v\ninput: %q", got, &want, data)
	}
}

// marshalled returns random results as encoding/json writes them, plain
// and indented. Each keeps its last keep problems (the true/false and
// completion items are the smallest) and the first keep responses of each
// sitting, so fuzz seeds can stay small.
func marshalled(t testing.TB, seed int64, students, keep int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var out [][]byte
	for _, uniqueIDs := range []bool{true, false} {
		e := randomResult(rng, students, uniqueIDs)
		e.TestTime = 1800e9
		e.Problems = e.Problems[max(0, len(e.Problems)-keep):]
		for i := range e.Students {
			rs := e.Students[i].Responses
			e.Students[i].Responses = rs[:min(keep, len(rs))]
		}
		plain, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, plain, indented)
	}
	return out
}

func TestDecodeResultTakesCanonicalExports(t *testing.T) {
	for _, data := range marshalled(t, 1, 40, 10) {
		if !fastPath(data) {
			t.Errorf("canonical export fell back to json.Unmarshal: %.200s", data)
		}
		checkDecode(t, data)
	}
	if !fastPath([]byte(`{"examId":"x","students":[]}`)) {
		t.Error("an export with no problems and no students fell back")
	}
}

// decodeEdgeCases are inputs off the canonical form; each must decode
// exactly as json.Unmarshal decodes it.
var decodeEdgeCases = []string{
	``, `{}`, `[]`, `null`, ` {"examId":"x"} `, `{"examId":"x",}`, `{"examId" "x"}`,
	// escapes, surrogates, invalid UTF-8, control bytes
	`{"examId":"a\"b\\c\/d\n"}`,
	`{"examId":"😀"}`,
	`{"examId":"\ud83d"}`,
	`{"students":[{"studentId":"s1","responses":[{"studentId":"s1","option":"A"}]}]}`,
	"{\"examId\":\"\xff\xfe\"}",
	"{\"examId\":\"caf\xc3\xa9\"}",
	"{\"examId\":\"a\tb\"}",
	// case-variant, escaped and unknown keys
	`{"ExamID":"x"}`,
	`{"students":[{"StudentId":"s","Responses":[{"ProblemID":"q","CREDIT":1}]}]}`,
	`{"exam\u0049d":"x"}`,
	`{"extra":[1,{"a":null}],"examId":"x"}`,
	// duplicate keys
	`{"examId":"a","examId":"b"}`,
	`{"students":[{"studentId":"a"}],"students":[{"responses":[]}]}`,
	`{"students":[{"responses":[{"option":"A","credit":0.5}],"responses":[{"credit":1}]}]}`,
	`{"students":[{"responses":[{"credit":1,"credit":0}]}]}`,
	// numbers
	`{"students":[{"responses":[{"credit":1e0,"answered":true}]}]}`,
	`{"students":[{"responses":[{"credit":-0.0e+00,"timeSpentNanos":-0}]}]}`,
	`{"students":[{"responses":[{"credit":1e400}]}]}`,
	`{"students":[{"responses":[{"credit":01}]}]}`,
	`{"students":[{"responses":[{"credit":1.}]}]}`,
	`{"students":[{"responses":[{"credit":-}]}]}`,
	`{"students":[{"responses":[{"credit":"1"}]}]}`,
	`{"students":[{"responses":[{"timeSpentNanos":1.5}]}]}`,
	`{"students":[{"responses":[{"timeSpentNanos":1e3}]}]}`,
	`{"testTimeNanos":99999999999999999999}`,
	`{"testTimeNanos":-9223372036854775808}`,
	// nulls and wrong types
	`{"examId":null}`, `{"problems":null}`, `{"students":null}`, `{"students":[null]}`,
	`{"students":[{"responses":null}]}`, `{"students":[{"responses":[null]}]}`,
	`{"students":[{"responses":[{"answered":null}]}]}`,
	`{"students":[{"responses":[{"answered":tru}]}]}`,
	`{"students":{}}`, `{"examId":1}`,
	// the problems span
	`{"problems":[{"id":"p\"]}","style":"TrueFalse","answer":"true"}],"students":[]}`,
	`{"problems":[{"id":"p"}}],"students":[]}`,
	`{"problems":[1,2]}`, `{"problems":[{"id":"p"}`, `{"problems":[]}`,
	// trailing bytes
	`{"examId":"x"} x`, `{"examId":"x"}{}`, "{\"examId\":\"x\"}\n", `{"examId":"x"}]`,
}

func TestDecodeResultEdgeCases(t *testing.T) {
	for _, s := range decodeEdgeCases {
		checkDecode(t, []byte(s))
	}
}

// FuzzDecodeResult differentially tests DecodeResult against json.Unmarshal.
func FuzzDecodeResult(f *testing.F) {
	// Small seeds: the fuzzer spends up to a minute minimizing each new
	// input it finds, and minimizing takes time quadratic in its length.
	for _, data := range marshalled(f, 2, 1, 1) {
		f.Add(data)
	}
	for _, s := range decodeEdgeCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}
