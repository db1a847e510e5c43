package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/core"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

// The streamed transforms against the reference implementations in
// export_test.go. Stream(l).Flatten() must deep-equal the reference for
// every launch, so the engine, pulling segments, runs exactly the
// reference's ops.

func streamApps(t *testing.T) []*workloads.App {
	if raceEnabled || testing.Short() {
		// A small app that has streaming-hinted loads for CLU+BPS.
		app, err := workloads.New("BKP")
		if err != nil {
			t.Fatal(err)
		}
		return []*workloads.App{app}
	}
	return workloads.Table2()
}

func TestAgentStreamMatchesReference(t *testing.T) {
	for _, ar := range arch.All() {
		for _, app := range streamApps(t) {
			cfgs := map[string]core.AgentConfig{
				"CLU":     {Arch: ar, Indexing: app.Partition()},
				"CLU+TOT": {Arch: ar, Indexing: app.Partition(), ActiveAgents: 1},
				"CLU+BPS": {Arch: ar, Indexing: app.Partition(), Bypass: true},
				"CLU+PFH": {Arch: ar, Indexing: app.Partition(), Prefetch: true},
			}
			for scheme, cfg := range cfgs {
				ref, err := core.NewAgent(app, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.NewAgent(app, cfg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/%s", ar.Name, app.Name(), scheme)
				skipped := 0
				for _, l := range core.AgentLaunches(got, ar.SMs) {
					want := core.RefAgentWork(ref, l)
					have := got.Stream(l).Flatten()
					if !reflect.DeepEqual(have, want) {
						t.Fatalf("%s: launch %+v: Stream(l).Flatten() differs from the reference Work", name, l)
					}
					if have.Skip {
						skipped++
					}
				}
				if scheme == "CLU+TOT" && got.MaxAgents() > 1 && skipped == 0 {
					t.Errorf("%s: throttled to 1 agent but no agent was skipped", name)
				}
			}
		}
	}
}

func TestRedirectStreamMatchesReference(t *testing.T) {
	for _, ar := range arch.All() {
		for _, app := range streamApps(t) {
			rd, err := core.Redirect(app, ar.SMs, app.Partition(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range core.OriginalLaunches(rd) {
				if !reflect.DeepEqual(rd.Stream(l).Flatten(), core.RefRedirectWork(rd, l)) {
					t.Fatalf("%s/%s: CTA %d: Stream(l).Flatten() differs from the reference Work", ar.Name, app.Name(), l.CTA)
				}
			}
		}
	}
}

// workCounter counts Work calls per original CTA.
type workCounter struct {
	kernel.Kernel
	calls map[int]int
}

func (c *workCounter) Work(l kernel.Launch) kernel.CTAWork {
	c.calls[l.CTA]++
	return c.Kernel.Work(l)
}

// Under Prefetch the successor's trace, generated for the preload, is
// reused as that task's trace: each task is generated exactly once.
func TestAgentPrefetchGeneratesEachTaskOnce(t *testing.T) {
	for _, name := range []string{"MM", "KMN", "BFS"} {
		app, err := workloads.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ar := arch.TeslaK40()
		wc := &workCounter{Kernel: app, calls: map[int]int{}}
		ag, err := core.NewAgent(wc, core.AgentConfig{Arch: ar, Indexing: app.Partition(), Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range core.AgentLaunches(ag, ar.SMs) {
			ag.Stream(l).Flatten()
		}
		total := app.GridDim().Count()
		if len(wc.calls) != total {
			t.Fatalf("%s: Work called for %d distinct CTAs, want %d", name, len(wc.calls), total)
		}
		for cta, n := range wc.calls {
			if n != 1 {
				t.Fatalf("%s: Work called %d times for CTA %d, want once", name, n, cta)
			}
		}
	}
}
