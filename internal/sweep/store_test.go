package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// mkResult fabricates a successful stored result for grid point i with a
// distinguishable throughput value.
func mkResult(i int, gbps float64) Result {
	spec := Spec{Kind: KindNIC, Cores: i + 1, MHz: 200, Banks: 4, UDPSize: 1472, Ordering: "sw", Parallelism: "frame"}
	r := &core.Report{TotalGbps: gbps, IPC: 0.7}
	r.Cfg.Cores = spec.Cores
	return Result{ID: fmt.Sprintf("grid/c%d", i+1), Hash: spec.Hash(), Spec: spec, Report: r}
}

func TestTornMiddleLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Put(mkResult(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Tear the MIDDLE line in half — a lost sector after a crash, not just
	// an interrupt on the final append.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("store has %d lines, want 3", len(lines))
	}
	lines[1] = lines[1][:len(lines[1])/2]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("reopened store has %d results, want 2 (torn middle line skipped)", st2.Len())
	}
	for _, i := range []int{0, 2} {
		if _, ok := st2.Get(mkResult(i, 1).Hash); !ok {
			t.Errorf("intact line %d lost on reload", i)
		}
	}
	if _, ok := st2.Get(mkResult(1, 1).Hash); ok {
		t.Error("torn line must not resolve to a result")
	}
}

func TestDuplicateHashLinesFirstWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	first, _ := json.Marshal(mkResult(0, 1.0))
	second, _ := json.Marshal(mkResult(0, 9.9)) // same spec hash, different report
	content := string(first) + "\n" + string(second) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1 {
		t.Fatalf("store has %d results, want 1", st.Len())
	}
	got, ok := st.Get(mkResult(0, 1).Hash)
	if !ok {
		t.Fatal("duplicated hash missing")
	}
	if got.Report.TotalGbps != 1.0 {
		t.Errorf("TotalGbps = %v, want 1.0 (first valid line wins, matching Put's append-once)", got.Report.TotalGbps)
	}
}

func TestPutErrorCountsStoreError(t *testing.T) {
	path := filepath.Join(t.TempDir(), StoreFileName)
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	st.f.Close() // sabotage the descriptor: every append now fails

	r := &Runner{Run: fakeRun(nil), Workers: 1, Store: st}
	rs, err := r.Sweep(context.Background(), grid(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rs {
		if !res.OK() {
			t.Errorf("a store error must not fail the job: %s", res.Err)
		}
	}
	if s := r.Stats(); s.StoreErrors != 2 {
		t.Errorf("stats = %+v, want 2 store errors", s)
	}
}
