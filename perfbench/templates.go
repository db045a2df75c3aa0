package main

import (
	"fmt"
	"strings"
)

// Verdict is a template's known answer from POST /v1/check, per
// uploaded spec: the two static checkers and the two ground-term
// checkers at the server's default depth.
type Verdict struct {
	OK               bool
	Complete         bool
	Consistent       bool
	DynamicComplete  bool
	GroundConsistent bool
}

// template is a spec source with its name abstracted as "T", the
// verdict the checkers give it, and a grammar for ground terms over it.
type template struct {
	name    string
	source  string
	verdict Verdict
	term    func(r *chainRand, length int) string
}

// instantiate renames the template's spec (and its sort) to name.
func (tp *template) instantiate(name string) string {
	return strings.ReplaceAll(tp.source, "@T", name)
}

// templates are the authors' edits spec_edit uploads. They cover a
// clean spec, a conditional one, an incomplete one and an inconsistent
// one, so a check verdict of "not ok" is part of the traffic.
var templates = []template{
	{
		name: "Counter",
		source: `spec @T
  uses Bool, Nat
  ops
    start : -> @T
    inc   : @T -> @T
    undo  : @T -> @T
    value : @T -> Nat
  vars
    c : @T
  axioms
    [u1] undo(start) = error
    [u2] undo(inc(c)) = c
    [v1] value(start) = zero
    [v2] value(inc(c)) = succ(value(c))
end
`,
		verdict: Verdict{OK: true, Complete: true, Consistent: true, DynamicComplete: true, GroundConsistent: true},
		term: func(r *chainRand, n int) string {
			c, depth := "start", 0
			for i := 0; i < n; i++ {
				if depth > 0 && r.Intn(3) == 0 {
					c, depth = "undo("+c+")", depth-1
				} else {
					c, depth = "inc("+c+")", depth+1
				}
			}
			return "value(" + c + ")"
		},
	},
	{
		name: "PQueue",
		source: `spec @T
  uses Bool, Nat
  ops
    emptypq    : -> @T
    insertpq   : @T, Nat -> @T
    minpq      : @T -> Nat
    deleteMin  : @T -> @T
    isEmptyPQ? : @T -> Bool
  vars
    q : @T
    n : Nat
  axioms
    [e1] isEmptyPQ?(emptypq) = true
    [e2] isEmptyPQ?(insertpq(q, n)) = false
    [m1] minpq(emptypq) = error
    [m2] minpq(insertpq(q, n)) = if isEmptyPQ?(q) then n else if ltN(n, minpq(q)) then n else minpq(q)
    [d1] deleteMin(emptypq) = error
    [d2] deleteMin(insertpq(q, n)) = if isEmptyPQ?(q) then emptypq else if ltN(n, minpq(q)) then q else insertpq(deleteMin(q), n)
end
`,
		verdict: Verdict{OK: true, Complete: true, Consistent: true, DynamicComplete: true, GroundConsistent: true},
		term: func(r *chainRand, n int) string {
			q := "emptypq"
			for i := 0; i < n; i++ {
				q = "insertpq(" + q + ", " + r.nat(6) + ")"
			}
			return r.pick("minpq("+q+")", "minpq(deleteMin("+q+"))", "isEmptyPQ?(deleteMin("+q+"))")
		},
	},
	{
		name: "Toggle",
		source: `spec @T
  uses Bool
  ops
    off   : -> @T
    flip  : @T -> @T
    isOn? : @T -> Bool
  vars
    t : @T
  axioms
    [o1] isOn?(off) = false
end
`,
		verdict: Verdict{OK: false, Complete: false, Consistent: true, DynamicComplete: false, GroundConsistent: true},
		term: func(r *chainRand, n int) string {
			t := "off"
			for i := 0; i < n; i++ {
				t = "flip(" + t + ")"
			}
			return r.pick("isOn?("+t+")", "isOn?(off)", t)
		},
	},
	{
		name: "Level",
		source: `spec @T
  uses Bool, Nat
  ops
    ground : -> @T
    up     : @T -> @T
    level  : @T -> Nat
  vars
    t : @T
  axioms
    [l1] level(ground) = zero
    [l2] level(up(t)) = succ(level(t))
    [l3] level(ground) = succ(zero)
end
`,
		verdict: Verdict{OK: false, Complete: true, Consistent: false, DynamicComplete: true, GroundConsistent: true},
		term: func(r *chainRand, n int) string {
			t := "ground"
			for i := 0; i < n; i++ {
				t = "up(" + t + ")"
			}
			return fmt.Sprintf("level(%s)", t)
		},
	},
}
