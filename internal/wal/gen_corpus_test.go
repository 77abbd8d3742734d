package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestGenCorpus(t *testing.T) {
	if os.Getenv("WAL_GEN_CORPUS") == "" {
		t.Skip("set WAL_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range journalSeeds() {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
