package swizzle

import (
	"reflect"
	"testing"

	"ctacluster/internal/arch"
	"ctacluster/internal/kernel"
	"ctacluster/internal/workloads"
)

// refPrependCompute inserts a compute op of c cycles at the head of
// every warp trace, copying the traces.
func refPrependCompute(warps [][]kernel.Op, c int) [][]kernel.Op {
	out := make([][]kernel.Op, len(warps))
	for i, ops := range warps {
		w := make([]kernel.Op, 0, len(ops)+1)
		w = append(w, kernel.Compute(c))
		w = append(w, ops...)
		out[i] = w
	}
	return out
}

// refWork is the materializing Work the swizzle had before its trace
// was streamed: the reference Stream(l).Flatten() must equal.
func refWork(k *Kernel, l kernel.Launch) kernel.CTAWork {
	target := k.Target(l.CTA)
	if target == l.CTA && k.cost == 0 {
		return k.orig.Work(l)
	}
	inner := l
	inner.CTA = target
	work := k.orig.Work(inner)
	if k.cost > 0 {
		work.Warps = refPrependCompute(work.Warps, k.cost)
	}
	return work
}

// Every swizzle of every Table-2 app: the grid-only variants once, the
// die-aware one on each platform and its 2-die variant, where its
// permutation is not the identity.
func TestStreamMatchesReference(t *testing.T) {
	apps := workloads.Table2()
	if raceEnabled || testing.Short() {
		apps = apps[:1]
	}
	var kernels []*Kernel
	for _, app := range apps {
		for _, name := range Names() {
			sk, err := Wrap(name, app)
			if err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, sk)
		}
		for _, ar := range arch.All() {
			die2, err := arch.WithChiplets(ar, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []*arch.Arch{ar, die2} {
				sk, err := WrapFor("dieblock", app, a)
				if err != nil {
					t.Fatal(err)
				}
				kernels = append(kernels, sk)
			}
		}
	}
	for _, sk := range kernels {
		for u := 0; u < sk.GridDim().Count(); u++ {
			l := kernel.Launch{CTA: u}
			if !reflect.DeepEqual(sk.Stream(l).Flatten(), refWork(sk, l)) {
				t.Fatalf("%s: CTA %d: Stream(l).Flatten() differs from the reference Work", sk.Name(), u)
			}
		}
	}
}
