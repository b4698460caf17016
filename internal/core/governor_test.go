package core

import (
	"math/rand"
	"sync"
	"testing"
)

// recordingGovernor grants a fixed worker count and records what was asked.
type recordingGovernor struct {
	mu       sync.Mutex
	grant    int
	requests []int
	releases int
}

func (g *recordingGovernor) Acquire(want int) (int, func()) {
	g.mu.Lock()
	g.requests = append(g.requests, want)
	g.mu.Unlock()
	return g.grant, func() {
		g.mu.Lock()
		g.releases++
		g.mu.Unlock()
	}
}

func TestFoldObjectiveGrantIndependent(t *testing.T) {
	// 3×2048 records plan 3 shards at parallelism 3; a grant sizes only the
	// pool working through them, so every grant from 1 to 3 folds the bits
	// of the full-grant run, in one request and one release.
	ds := randomTaskDataset(t, LinearTask{}, 3*2048, 3, 99)
	want := FoldObjective(LinearTask{}, ds, Options{Parallelism: 3})
	for grant := 1; grant <= 3; grant++ {
		gov := &recordingGovernor{grant: grant}
		got := FoldObjective(LinearTask{}, ds, Options{Parallelism: 3, Governor: gov})
		if len(gov.requests) != 1 || gov.requests[0] != 3 {
			t.Fatalf("grant %d: governor saw requests %v, want one request for 3 workers", grant, gov.requests)
		}
		if gov.releases != 1 {
			t.Fatalf("grant %d: governor released %d times, want exactly 1", grant, gov.releases)
		}
		if worst, ok := quadraticsClose(got, want, 0); !ok {
			t.Fatalf("grant %d: objective differs from the full-grant run by %v, want bit-identical", grant, worst)
		}
	}
}

func TestFoldObjectiveNeverWidensBeyondRequest(t *testing.T) {
	// A buggy governor granting more than asked must not widen the pool: a
	// grant only narrows, so the result stays bit-identical to the
	// ungoverned run at the requested parallelism.
	ds := randomTaskDataset(t, LinearTask{}, 2*2048, 3, 5)
	gov := &recordingGovernor{grant: 64}
	got := FoldObjective(LinearTask{}, ds, Options{Parallelism: 2, Governor: gov})
	want := FoldObjective(LinearTask{}, ds, Options{Parallelism: 2})
	if worst, ok := quadraticsClose(got, want, 0); !ok {
		t.Fatalf("over-granted objective differs from parallelism-2 run by %v", worst)
	}
}

func TestFoldObjectiveNilGovernor(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 100, 3, 1)
	got := FoldObjective(LinearTask{}, ds, Options{Parallelism: 1, Governor: nil})
	want := LinearTask{}.Objective(ds)
	if worst, ok := quadraticsClose(got, want, 0); !ok {
		t.Fatalf("nil-governor objective differs from the serial Objective by %v", worst)
	}
}

func TestRunThreadsGovernorThroughOptions(t *testing.T) {
	ds := randomTaskDataset(t, LinearTask{}, 3*2048, 3, 42)
	gov := &recordingGovernor{grant: 2}
	if _, err := Run(LinearTask{}, ds, 1.0, rand.New(rand.NewSource(1)), Options{Governor: gov, Parallelism: 3}); err != nil {
		t.Fatal(err)
	}
	if len(gov.requests) != 1 {
		t.Fatalf("governor saw %d requests, want 1", len(gov.requests))
	}
	if gov.releases != 1 {
		t.Fatalf("governor released %d times, want 1", gov.releases)
	}
}
