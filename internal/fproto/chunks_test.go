package fproto

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"falkon/internal/jsonwire"
	"falkon/internal/task"
)

// An executor decodes its grants through a reader it keeps
// (GetWorkReply.DecodeKept): grant after grant fills the same chunks, so a
// chunk must never be written where it has handed something out. Through one
// kept reader, 100,000 one-task grants and then 1,000 of 64 tasks — some with
// an escaped argument, a value larger than a kept chunk or more arguments
// than one holds, which are allocated by themselves — are decoded into one
// held reply, and after every decode disturb overwrites the body and appends
// to every task's Args. Every Args value handed out earlier must still read
// what it was sent as, and the reader's chunks must stay within their 4 KiB
// size classes.
func TestKeptChunksNeverRewriteWhatTheyHandedOut(t *testing.T) {
	type handed struct {
		args []string
		want []string
	}
	var (
		rd    jsonwire.Reader
		reply GetWorkReply
		buf   []byte
		all   []handed
		id    task.ID
	)
	check := func(from int) {
		t.Helper()
		for _, h := range all[from:] {
			if !slices.Equal(h.args, h.want) {
				t.Fatalf("Args handed out as %q read %q after %d grants", h.want, h.args, id)
			}
		}
	}
	const window = 300 // more Args values than the chunks in use hold: 256 of 16 bytes
	grant := func(n int) {
		t.Helper()
		sent := GetWorkReply{Assignments: make([]Assignment, n)}
		for i := range sent.Assignments {
			id++
			args := []string{fmt.Sprintf("%016x", uint64(id))}
			switch {
			case id%997 == 0:
				args = append(args, "tab\tand \"quote\"") // unescaped into the reader's scratch first
			case id%7919 == 0:
				args = append(args, strings.Repeat("x", 5000)) // over a kept chunk: by itself
			case id%9973 == 0:
				for len(args) <= 300 { // more headers than a kept chunk holds: by itself
					args = append(args, fmt.Sprint(len(args)))
				}
			}
			sent.Assignments[i] = Assignment{EPR: "falkon-instance-1", Task: task.Task{ID: id, Command: "sleep", Args: args}}
		}
		buf = sent.AppendJSON(buf[:0])
		if err := reply.DecodeKept(buf, &rd); err != nil || len(reply.Assignments) != n {
			t.Fatalf("grant of %d decoded %d assignments: %v", n, len(reply.Assignments), err)
		}
		for i := range reply.Assignments {
			all = append(all, handed{reply.Assignments[i].Task.Args, sent.Assignments[i].Task.Args})
		}
		disturb(&reply, buf)
		if held := rd.Chunks(); held > 4096+255*16 {
			t.Fatalf("after %d grants the kept reader holds %d bytes of chunks, want at most %d", id, held, 4096+255*16)
		}
		check(max(len(all)-window, 0))
		if id%10000 < task.ID(n) {
			check(0)
		}
	}
	for range 100000 {
		grant(1)
	}
	for range 1000 {
		grant(64)
	}
	check(0)
}
