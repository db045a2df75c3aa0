package registry_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"algspec/internal/registry"
	"algspec/internal/speclib"
)

const counterSrc = `spec Counter
  uses Bool, Nat
  ops
    start : -> Counter
    inc   : Counter -> Counter
    value : Counter -> Nat
  vars
    c : Counter
  axioms
    [v1] value(start) = zero
    [v2] value(inc(c)) = succ(value(c))
end
`

func newRegistry(t testing.TB) *registry.Registry {
	t.Helper()
	r, err := registry.New(speclib.Sources)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Version ids are content addresses that persisted stores and cluster
// shard keys depend on; they must not move when the way an upload is
// compiled changes.
func TestVersionIDsPinned(t *testing.T) {
	r := newRegistry(t)
	if got, want := r.Base().ID, "sha256:5cab2b2d77b05b61a4c106dfe7f497a68c14d6272bafb55b3acc2f0388330f27"; got != want {
		t.Errorf("base id = %s, want %s", got, want)
	}
	v, created, err := r.Register(counterSrc)
	if err != nil || !created {
		t.Fatalf("Register = %v, created %v", err, created)
	}
	if got, want := v.ID, "sha256:a4d48b6e2fb2882a4890e36652dd9fac2bb22942edaa09f967c78c4d9f9d1dc7"; got != want {
		t.Errorf("upload id = %s, want %s", got, want)
	}
	if !slices.Equal(v.Specs, []string{"Counter"}) {
		t.Errorf("upload specs = %v", v.Specs)
	}
	// Reformatting the same source lands on the same version.
	again, created, err := r.Register("  " + strings.ReplaceAll(counterSrc, "\n", "\n\n"))
	if err != nil || created || again != v {
		t.Errorf("re-register = %v, created %v, same %v", err, created, again == v)
	}
}

// An upload's environment is cloned from the base's: it sees the whole
// library, and nothing loaded into it leaks back into the base.
func TestUploadEnvIsolatedFromBase(t *testing.T) {
	r := newRegistry(t)
	baseNames := r.Base().Env.Names()
	v, _, err := r.Register(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Env.Load("spec Extra\n  uses Counter\nend\n"); err != nil {
		t.Fatal(err)
	}
	if got := r.Base().Env.Names(); !slices.Equal(got, baseNames) {
		t.Errorf("base names changed: %v, want %v", got, baseNames)
	}
	if _, ok := r.Base().Env.Get("Counter"); ok {
		t.Error("upload spec visible in the base env")
	}
	if got, want := v.Env.Names(), append(slices.Clone(baseNames), "Counter", "Extra"); !slices.Equal(got, want) {
		t.Errorf("upload names = %v, want %v", got, want)
	}
	nf, err := v.Env.Eval("Counter", "value(inc(inc(start)))")
	if err != nil || nf.String() != "succ(succ(zero))" {
		t.Errorf("eval in upload = %v, %v", nf, err)
	}
}

// Each version compiles its own systems, so canonical-term pointers
// from different versions never share an interner.
func TestUploadOwnsSystemsAndInterners(t *testing.T) {
	r := newRegistry(t)
	v, _, err := r.Register(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	baseSys, err := r.Base().Env.System("Queue")
	if err != nil {
		t.Fatal(err)
	}
	upSys, err := v.Env.System("Queue")
	if err != nil {
		t.Fatal(err)
	}
	if baseSys == upSys {
		t.Fatal("upload version reuses the base version's Queue system")
	}
	if baseSys.Interner() == upSys.Interner() {
		t.Fatal("upload version shares the base version's Queue interner")
	}
	baseSp, _ := r.Base().Env.Get("Queue")
	upSp, _ := v.Env.Get("Queue")
	if baseSp != upSp {
		t.Error("upload version re-checked the library instead of sharing its specs")
	}
}

func TestRegisterErrors(t *testing.T) {
	r := newRegistry(t)
	for _, tc := range []struct{ src, want string }{
		{"spec Stack\n  uses Bool\n  ops\n    empty : -> Stack\nend\n", "core: specification Stack already loaded"},
		{"spec Bad\n  uses Nope\nend\n", "spec Bad: 2:8: uses unknown specification Nope"},
	} {
		_, _, err := r.Register(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Register(%q) = %v, want %q", tc.src, err, tc.want)
		}
	}
	if r.Len() != 1 {
		t.Errorf("failed uploads were registered: %d versions", r.Len())
	}
}

// Uploads compile while base-version requests run; the race detector
// checks that cloning the base env shares nothing mutable.
func TestConcurrentRegisterAndBaseUse(t *testing.T) {
	r := newRegistry(t)
	const uploads = 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*uploads)
	for i := 0; i < uploads; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			src := strings.ReplaceAll(counterSrc, "Counter", fmt.Sprintf("Counter%d", i))
			v, created, err := r.Register(src)
			if err != nil || !created {
				errs <- fmt.Errorf("upload %d: %v, created %v", i, err, created)
				return
			}
			if _, err := v.Env.Eval(v.Specs[0], "value(inc(start))"); err != nil {
				errs <- err
			}
		}(i)
		go func() {
			defer wg.Done()
			sys, err := r.Base().Env.System("Queue")
			if err != nil {
				errs <- err
				return
			}
			q, err := r.Base().Env.ParseTerm("Queue", "front(add(add(new, 'x), 'y))")
			if err != nil {
				errs <- err
				return
			}
			nf, err := sys.Fork().Normalize(q)
			if err != nil || nf.String() != "'x" {
				errs <- fmt.Errorf("base normalize = %v, %v", nf, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r.Len() != 1+uploads {
		t.Errorf("Len = %d, want %d", r.Len(), 1+uploads)
	}
}
