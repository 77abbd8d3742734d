package task

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ReadJSONL parses a workload file holding one JSON-encoded Task per line.
// Blank lines and lines starting with '#' are skipped; tasks without an ID
// get one from gen.
func ReadJSONL(r io.Reader, gen *IDGen) ([]Task, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Task
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var t Task
		if err := json.Unmarshal([]byte(text), &t); err != nil {
			return nil, fmt.Errorf("task: line %d: %w", line, err)
		}
		if t.ID == 0 {
			t.ID = gen.Next()
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("task: no tasks in workload")
	}
	return out, nil
}
