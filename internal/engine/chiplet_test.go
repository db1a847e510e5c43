package engine_test

// The chiplet engine wall. Monolithic equivalence —
// arch.WithChiplets(ar, 0) must be byte-identical to the untouched
// descriptor: deep-equal Results, identical rescache keys, and a
// byte-identical profiler stream, so the chiplet code cannot perturb
// the monolithic model by even one cycle. On a real chiplet descriptor
// the interposer model must be engaged and visible in the prof stream.

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/engine"
	"ctacluster/internal/prof"
	"ctacluster/internal/rescache"
	"ctacluster/internal/swizzle"
	"ctacluster/internal/workloads"
)

// chipletOf derives a chiplet variant or fails the test.
func chipletOf(t *testing.T, base *arch.Arch, dies int) *arch.Arch {
	t.Helper()
	a, err := arch.WithChiplets(base, dies)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestChipletZeroMonolithicEquivalence is the byte-identity golden:
// WithChiplets(ar, 0) against the untouched descriptor, comparing the
// full Result, the rescache key and a full-mask profiler stream.
func TestChipletZeroMonolithicEquivalence(t *testing.T) {
	apps := []string{"MM", "ATX"}
	arches := []*arch.Arch{arch.TeslaK40(), arch.GTX980()}
	if raceEnabled || testing.Short() {
		apps = apps[:1]
		arches = arches[:1]
	}
	for _, ar := range arches {
		zero := chipletOf(t, ar, 0)
		if *zero != *ar {
			t.Fatalf("%s: WithChiplets(_, 0) changed the descriptor", ar.Name)
		}
		for _, name := range apps {
			app, err := workloads.New(name)
			if err != nil {
				t.Fatal(err)
			}
			run := func(a *arch.Arch) (*engine.Result, *prof.Trace) {
				tr := prof.NewTrace(prof.TraceConfig{
					Kernel: name, Arch: a.Name, SMs: a.SMs,
					Events: prof.MaskAll, SampleInterval: 5000,
				})
				cfg := engine.DefaultConfig(a)
				cfg.Profiler = tr
				res, err := engine.Run(cfg, app)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, a.Name, err)
				}
				return res, tr
			}
			base, baseTr := run(ar)
			got, gotTr := run(zero)
			if !reflect.DeepEqual(base, got) {
				t.Errorf("%s/%s: Chiplets=0 result differs from monolithic (cycles %d vs %d)",
					name, ar.Name, base.Cycles, got.Cycles)
			}
			if !reflect.DeepEqual(baseTr.Events(), gotTr.Events()) ||
				!reflect.DeepEqual(baseTr.Snapshots(), gotTr.Snapshots()) {
				t.Errorf("%s/%s: Chiplets=0 prof stream differs from monolithic", name, ar.Name)
			}
		}
		if rescache.ConfigKey("x", "", engine.DefaultConfig(ar)) != rescache.ConfigKey("x", "", engine.DefaultConfig(zero)) {
			t.Errorf("%s: Chiplets=0 rescache key differs from monolithic — cache entries would fragment", ar.Name)
		}
	}
}

// TestChipletDieblockChangesPlacementOnly sanity-checks the study's
// instrument: on a chiplet descriptor the dieblock swizzle must change
// the interposer traffic (it exists to move it) while conserving the
// work multiset — same CTA count, same total L2 read+write transaction
// volume shape is NOT required, but the grid and CTA records must line
// up one-to-one. The plain run must also engage the interposer model
// and flag its remote L2 transactions in the prof stream.
func TestChipletDieblockChangesPlacementOnly(t *testing.T) {
	ar := chipletOf(t, arch.TeslaK40(), 2)
	app, err := workloads.New("MM")
	if err != nil {
		t.Fatal(err)
	}
	swz, err := swizzle.WrapFor("dieblock", app, ar)
	if err != nil {
		t.Fatal(err)
	}
	tr := prof.NewTrace(prof.TraceConfig{
		Kernel: app.Name(), Arch: ar.Name, SMs: ar.SMs, Events: prof.MaskL2,
	})
	cfg := engine.DefaultConfig(ar)
	cfg.Profiler = tr
	base, err := engine.Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	if base.Mem.RemoteL2Transactions == 0 {
		t.Errorf("zero remote transactions on %s — the chiplet model is not engaged", ar.Name)
	}
	var remotes uint64
	for _, e := range tr.Events() {
		if e.Kind == prof.EvL2Transaction && e.Remote {
			remotes++
		}
	}
	if remotes != base.Mem.RemoteL2Transactions {
		t.Errorf("%d Remote-flagged L2 transaction events, want %d — the observer plumbing is broken", remotes, base.Mem.RemoteL2Transactions)
	}
	got, err := engine.Run(engine.DefaultConfig(ar), swz)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CTAs) != len(base.CTAs) {
		t.Fatalf("dieblock changed the CTA count: %d vs %d", len(got.CTAs), len(base.CTAs))
	}
	if got.Mem.InterposerBytes == base.Mem.InterposerBytes {
		t.Error("dieblock left interposer traffic exactly unchanged — the remap is not reaching placement")
	}
}
