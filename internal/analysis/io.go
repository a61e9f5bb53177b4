package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Result persistence: sittings are written as JSON so analyses can be rerun
// later (or on another machine) without re-administering the exam. The
// format is the ExamResult structure itself; problems travel with the
// responses so a result file is self-contained.

// WriteResult streams the result as indented JSON.
func WriteResult(w io.Writer, e *ExamResult) error {
	if err := e.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		return fmt.Errorf("analysis: encode result: %w", err)
	}
	return nil
}

// ReadResult decodes and validates a result produced by WriteResult.
func ReadResult(r io.Reader) (*ExamResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("analysis: read result: %w", err)
	}
	return parseResult(data)
}

// parseResult decodes a result with DecodeResult and validates it.
func parseResult(data []byte) (*ExamResult, error) {
	e, err := DecodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("analysis: decode result: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// SaveResult writes the result to a file.
func SaveResult(path string, e *ExamResult) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("analysis: create %s: %w", path, err)
	}
	if err := WriteResult(f, e); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("analysis: close %s: %w", path, err)
	}
	return nil
}

// LoadResult reads a result file.
func LoadResult(path string) (*ExamResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: open %s: %w", path, err)
	}
	return parseResult(data)
}
