package subst

import (
	"testing"

	"algspec/internal/term"
)

func bOp(name string, args ...*term.Term) *term.Term { return term.NewOp(name, "Queue", args...) }

func TestMatchBindAgreesWithMatch(t *testing.T) {
	q := term.NewVar("q", "Queue")
	i := term.NewVar("i", "Item")
	pat := bOp("remove", bOp("add", q, i))
	cases := []*term.Term{
		bOp("remove", bOp("add", bOp("new"), term.NewAtom("x", "Item"))),
		bOp("remove", bOp("new")),
		bOp("front", bOp("add", bOp("new"), term.NewAtom("x", "Item"))),
		bOp("remove", bOp("add", term.NewErr("Queue"), term.NewAtom("x", "Item"))),
	}
	for _, c := range cases {
		m := TryMatch(pat, c)
		b, ok := MatchBind(pat, c, nil)
		if (m != nil) != ok {
			t.Fatalf("MatchBind(%s) = %v, Match = %v", c, ok, m != nil)
		}
		if !ok {
			continue
		}
		if len(b) != len(m) {
			t.Fatalf("binding counts differ on %s: %d vs %d", c, len(b), len(m))
		}
		for name, want := range m {
			got, found := b.Lookup(name)
			if !found || !got.Equal(want) {
				t.Fatalf("binding %s differs on %s: %s vs %s", name, c, got, want)
			}
		}
	}
}

func TestMatchBindNonLinear(t *testing.T) {
	x := term.NewVar("x", "Item")
	pat := term.NewOp("pair", "Queue", x, x)
	same := term.NewOp("pair", "Queue", term.NewAtom("a", "Item"), term.NewAtom("a", "Item"))
	diff := term.NewOp("pair", "Queue", term.NewAtom("a", "Item"), term.NewAtom("b", "Item"))
	if _, ok := MatchBind(pat, same, nil); !ok {
		t.Fatal("repeated variable must match equal subterms")
	}
	if _, ok := MatchBind(pat, diff, nil); ok {
		t.Fatal("repeated variable must reject different subterms")
	}
}

func TestMatchBindBufferReuse(t *testing.T) {
	q := term.NewVar("q", "Queue")
	pat := bOp("remove", q)
	var buf Bindings
	for i := 0; i < 3; i++ {
		var ok bool
		buf, ok = MatchBind(pat, bOp("remove", bOp("new")), buf[:0])
		if !ok || len(buf) != 1 {
			t.Fatalf("round %d: ok=%v len=%d", i, ok, len(buf))
		}
	}
}

// Build copies an argument vector only from its first changed child on:
// the result agrees with Subst.Apply, and every subtree without a bound
// variable is the pattern's own node, not a copy.
func TestBuildCopyOnWrite(t *testing.T) {
	q := term.NewVar("q", "Queue")
	free := term.NewVar("free", "Item")
	ground := bOp("new")
	rhs := bOp("pair", ground, bOp("remove", q), free)
	val := bOp("add", bOp("new"), term.NewAtom("x", "Item"))
	b := Bindings{{Name: "q", Term: val}}
	out := b.Build(rhs)
	if want := (Subst{"q": val}).Apply(rhs); !out.Equal(want) {
		t.Fatalf("Build = %s, Apply = %s", out, want)
	}
	if out.Args[0] != ground || out.Args[2] != free {
		t.Fatal("unchanged children must be shared, not copied")
	}
	if out.Args[1].Args[0] != val {
		t.Fatal("a bound variable must be replaced by its binding itself")
	}
	if got := b.Build(ground); got != ground {
		t.Fatal("a subtree without bound variables must be returned as is")
	}
	if rhs.Args[1].Args[0] != q {
		t.Fatal("Build must not write into the pattern")
	}
}

func TestApplyIn(t *testing.T) {
	in := term.NewInterner()
	q := term.NewVar("q", "Queue")
	rhs := bOp("remove", q)
	s := Subst{"q": bOp("new")}
	plain := s.Apply(rhs)
	interned := s.ApplyIn(in, rhs)
	if !plain.Equal(interned) {
		t.Fatalf("ApplyIn differs from Apply: %s vs %s", interned, plain)
	}
	if !in.Interned(interned) {
		t.Fatal("ApplyIn must intern rebuilt nodes")
	}
}
