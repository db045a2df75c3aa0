package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"algspec/internal/corpus"
)

// The four workloads. Their names are cited by later changes, so they
// are fixed.
const (
	wlWarm      = "normalize_warm"
	wlCold      = "normalize_cold"
	wlOutermost = "normalize_outermost"
	wlSpecEdit  = "spec_edit"
)

var workloadNames = []string{wlWarm, wlCold, wlOutermost, wlSpecEdit}

// opsPerSecond sizes each workload's op list: a run of --seconds S
// issues opsPerSecond*S ops, about what a two-core 2.1 GHz machine
// completes in S seconds. The list length is fixed by (workload,
// seconds) alone, so the work in a run depends only on the seed, never
// on how fast the server happened to be.
var opsPerSecond = map[string]int{
	wlWarm:      14000,
	wlCold:      3600,
	wlOutermost: 5200,
	wlSpecEdit:  220,
}

// NormReq is one POST /v1/normalize. WantNF and WantSteps are the
// offline oracle, filled in by computeOracles.
type NormReq struct {
	Spec     string
	Term     string
	Strategy string // "" (innermost) or "outermost"
	Pinned   bool   // pin the version minted by this op's upload

	WantNF    string
	WantSteps int
}

// Op is one workload unit: a single normalize, or one author's edit
// cycle (upload, check, a few pinned normalizes).
type Op struct {
	ID     int
	Source string // spec_edit: the uploaded source ("" otherwise)
	Specs  []string
	Want   *Verdict // spec_edit: the template's known check verdict
	Norms  []NormReq
}

// Generate returns the op list of a workload: a pure function of
// (workload, seed, n).
func Generate(workload string, seed int64, n int) ([]Op, error) {
	h := fnv.New64a()
	h.Write([]byte(workload))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
	switch workload {
	case wlWarm:
		return genWarm(rng, n), nil
	case wlCold:
		return genChains(rng, n, "", innermostSizes), nil
	case wlOutermost:
		return genChains(rng, n, "outermost", outermostSizes), nil
	case wlSpecEdit:
		return genSpecEdit(rng, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
}

// battery flattens the golden corpus into (spec, term) pairs in a
// deterministic order.
func battery() []NormReq {
	var out []NormReq
	for _, name := range corpus.BatterySpecs() {
		for _, t := range corpus.Battery(name) {
			out = append(out, NormReq{Spec: name, Term: t})
		}
	}
	return out
}

// blocks draws indices in [0, k) in shuffled blocks of k: each index
// appears once per block, in a seeded order. Every seed then sends the
// same mix of specs or templates, and seeds differ only in order and
// content, which keeps the mix from moving the figures between seeds.
type blocks struct {
	rng  *rand.Rand
	k    int
	perm []int
}

func (b *blocks) next() int {
	if len(b.perm) == 0 {
		b.perm = b.rng.Perm(b.k)
	}
	i := b.perm[0]
	b.perm = b.perm[1:]
	return i
}

func genWarm(rng *rand.Rand, n int) []Op {
	b := battery()
	draw := &blocks{rng: rng, k: len(b)}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{ID: i, Norms: []NormReq{b[draw.next()]}}
	}
	return ops
}

// genChains draws n pairwise distinct chain terms, none of them a
// battery term, cycling through the collection specs in shuffled
// blocks. A drawn duplicate is drawn again, so distinctness holds by
// construction.
func genChains(rng *rand.Rand, n int, strategy string, sizes map[string][2]int) []Op {
	seen := make(map[string]bool, n+128)
	for _, b := range battery() {
		seen[b.Spec+"\x00"+b.Term] = true
	}
	ops := make([]Op, 0, n)
	draw := &blocks{rng: rng, k: len(chainSpecs)}
	c := chainSpecs[draw.next()]
	for len(ops) < n {
		sz := sizes[c.spec]
		length := sz[0] + rng.Intn(sz[1]-sz[0]+1)
		t := c.gen(&chainRand{rng}, length)
		key := c.spec + "\x00" + t
		if seen[key] {
			continue // draw again from the same spec
		}
		seen[key] = true
		ops = append(ops, Op{ID: len(ops), Norms: []NormReq{{Spec: c.spec, Term: t, Strategy: strategy}}})
		c = chainSpecs[draw.next()]
	}
	return ops
}

// genSpecEdit instantiates a seeded template per op. Each op's spec
// name carries the op index, so the sources are pairwise distinct and
// every upload mints a new version.
func genSpecEdit(rng *rand.Rand, n int) []Op {
	ops := make([]Op, n)
	draw := &blocks{rng: rng, k: len(templates)}
	for i := range ops {
		tp := &templates[draw.next()]
		name := fmt.Sprintf("%s%d", tp.name, i)
		op := Op{ID: i, Source: tp.instantiate(name), Specs: []string{name}, Want: &tp.verdict}
		seen := map[string]bool{}
		for len(op.Norms) < normsPerEdit {
			t := tp.term(&chainRand{rng}, 2+rng.Intn(6))
			if seen[t] {
				continue
			}
			seen[t] = true
			op.Norms = append(op.Norms, NormReq{Spec: name, Term: t, Pinned: true})
		}
		ops[i] = op
	}
	return ops
}

// normsPerEdit is the number of pinned normalizes in one edit cycle.
const normsPerEdit = 3

// chainRand adds the small draws the chain grammars need.
type chainRand struct{ *rand.Rand }

// atom draws an atom literal from a pool of 1000 spellings per prefix.
func (r *chainRand) atom(prefix string) string {
	return fmt.Sprintf("'%s%d", prefix, r.Intn(1000))
}

// nat renders a Peano numeral below max.
func (r *chainRand) nat(max int) string {
	k := r.Intn(max)
	return strings.Repeat("succ(", k) + "zero" + strings.Repeat(")", k)
}

func (r *chainRand) pick(xs ...string) string { return xs[r.Intn(len(xs))] }

// chainSpec generates terms of one collection spec: a chain of length
// constructor and modifier applications, then an observer.
type chainSpec struct {
	spec string
	gen  func(r *chainRand, length int) string
}

// innermostSizes bounds chain lengths per spec under innermost, where
// cost grows polynomially with length.
var innermostSizes = map[string][2]int{
	"Queue": {6, 18}, "BoundedQueue": {2, 6}, "Symboltable": {6, 18},
	"Array": {6, 18}, "Stack": {4, 12}, "SymtabImpl": {4, 12},
	"ListSymtabImpl": {6, 18}, "SymboltableKnows": {6, 16}, "Set": {4, 12},
	"List": {4, 12}, "Bag": {4, 12}, "BST": {3, 9}, "Map": {4, 12},
}

// outermostSizes bounds chain lengths under outermost, where a Queue
// or BoundedQueue chain costs exponentially many steps in its removes;
// the bounds keep any one spec from supplying most engine steps.
var outermostSizes = map[string][2]int{
	"Queue": {3, 8}, "BoundedQueue": {2, 5}, "Symboltable": {6, 14},
	"Array": {6, 14}, "Stack": {3, 8}, "SymtabImpl": {3, 7},
	"ListSymtabImpl": {6, 14}, "SymboltableKnows": {5, 12}, "Set": {3, 7},
	"List": {3, 7}, "Bag": {3, 8}, "BST": {2, 6}, "Map": {3, 8},
}

var chainSpecs = []chainSpec{
	{"Queue", func(r *chainRand, n int) string {
		q, size := "new", 0
		for i := 0; i < n; i++ {
			if size > 0 && r.Intn(3) == 0 {
				q, size = "remove("+q+")", size-1
			} else {
				q, size = "add("+q+", "+r.atom("q")+")", size+1
			}
		}
		return r.pick("front("+q+")", "isEmpty?("+q+")", "remove("+q+")", q)
	}},
	{"BoundedQueue", func(r *chainRand, n int) string {
		q, size := "emptyq", 0
		for i := 0; i < n; i++ {
			if size > 0 && r.Intn(3) == 0 {
				q, size = "removeq("+q+")", size-1
			} else {
				q, size = "addq("+q+", "+r.atom("b")+")", size+1
			}
		}
		return r.pick("frontq("+q+")", "sizeq("+q+")", "isFullQ?("+q+")", "isEmptyQ?("+q+")")
	}},
	{"Symboltable", func(r *chainRand, n int) string {
		return symtabChain(r, n, "init", "enterblock(%s)", "leaveblock(%s)", "add(%s, %s, %s)",
			"retrieve(%s, %s)", "isInblock?(%s, %s)")
	}},
	{"SymtabImpl", func(r *chainRand, n int) string {
		return symtabChain(r, n, "init'", "enterblock'(%s)", "leaveblock'(%s)", "add'(%s, %s, %s)",
			"retrieve'(%s, %s)", "isInblock'?(%s, %s)")
	}},
	{"ListSymtabImpl", func(r *chainRand, n int) string {
		return symtabChain(r, n, "init2", "enterblock2(%s)", "leaveblock2(%s)", "add2(%s, %s, %s)",
			"retrieve2(%s, %s)", "isInblock2?(%s, %s)")
	}},
	{"SymboltableKnows", func(r *chainRand, n int) string {
		klist := "create"
		for k := r.Intn(3); k > 0; k-- {
			klist = "append(" + klist + ", " + idAtom(r) + ")"
		}
		return symtabChain(r, n, "init", "enterblock(%s, "+klist+")", "leaveblock(%s)", "add(%s, %s, %s)",
			"retrieve(%s, %s)", "isInblock?(%s, %s)")
	}},
	{"Array", func(r *chainRand, n int) string {
		a := "empty"
		for i := 0; i < n; i++ {
			a = "assign(" + a + ", " + idAtom(r) + ", " + r.atom("v") + ")"
		}
		return fmt.Sprintf(r.pick("read(%s, %s)", "isUndefined?(%s, %s)"), a, idAtom(r))
	}},
	{"Stack", func(r *chainRand, n int) string {
		s, depth := "newstack", 0
		arr := func() string {
			return "assign(empty, " + idAtom(r) + ", " + r.atom("v") + ")"
		}
		for i := 0; i < n; i++ {
			switch {
			case depth > 0 && r.Intn(4) == 0:
				s, depth = "pop("+s+")", depth-1
			case depth > 0 && r.Intn(3) == 0:
				s = "replace(" + s + ", " + arr() + ")"
			default:
				s, depth = "push("+s+", "+arr()+")", depth+1
			}
		}
		return r.pick("top("+s+")", "isNewstack?("+s+")", "read(top("+s+"), "+idAtom(r)+")")
	}},
	{"Set", func(r *chainRand, n int) string {
		s := "emptyset"
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				s = "delete(" + s + ", " + elemAtom(r) + ")"
			} else {
				s = "insert(" + s + ", " + elemAtom(r) + ")"
			}
		}
		return fmt.Sprintf(r.pick("isMember?(%[1]s, %[2]s)", "card(%[1]s)", "isEmptySet?(%[1]s)"), s, elemAtom(r))
	}},
	{"List", func(r *chainRand, n int) string {
		l := "nil"
		for i := 0; i < n; i++ {
			l = "cons(" + elemAtom(r) + ", " + l + ")"
		}
		return fmt.Sprintf(r.pick("head(reverseL(%[1]s))", "lengthL(appendL(%[1]s, %[1]s))", "memberL?(%[1]s, %[2]s)", "reverseL(%[1]s)", "tail(%[1]s)"), l, elemAtom(r))
	}},
	{"Bag", func(r *chainRand, n int) string {
		b := "emptybag"
		for i := 0; i < n; i++ {
			if r.Intn(4) == 0 {
				b = "deleteb(" + b + ", " + elemAtom(r) + ")"
			} else {
				b = "insertb(" + b + ", " + elemAtom(r) + ")"
			}
		}
		return fmt.Sprintf(r.pick("countb(%[1]s, %[2]s)", "memberB?(%[1]s, %[2]s)", "sizeb(%[1]s)"), b, elemAtom(r))
	}},
	{"BST", func(r *chainRand, n int) string {
		t := "emptyt"
		for i := 0; i < n; i++ {
			t = "insertT(" + t + ", " + r.nat(8) + ")"
		}
		return fmt.Sprintf(r.pick("memberT?(%[1]s, %[2]s)", "minT(%[1]s)", "sizeT(%[1]s)", "isEmptyT?(%[1]s)"), t, r.nat(8))
	}},
	{"Map", func(r *chainRand, n int) string {
		m := "emptymap"
		for i := 0; i < n; i++ {
			if r.Intn(5) == 0 {
				m = "removeKey(" + m + ", " + elemAtom(r) + ")"
			} else {
				m = "put(" + m + ", " + elemAtom(r) + ", " + r.atom("v") + ")"
			}
		}
		return fmt.Sprintf(r.pick("get(%[1]s, %[2]s)", "hasKey?(%[1]s, %[2]s)", "sizeM(%[1]s)"), m, elemAtom(r))
	}},
}

// idAtom and elemAtom draw from small pools, so lookups in a chain hit
// an earlier binding often enough to exercise both branches.
func idAtom(r *chainRand) string   { return fmt.Sprintf("'i%d", r.Intn(6)) }
func elemAtom(r *chainRand) string { return fmt.Sprintf("'e%d", r.Intn(6)) }

// symtabChain builds a block-structured symbol-table chain in any of
// the three symbol-table spellings, never leaving more blocks than it
// entered.
func symtabChain(r *chainRand, n int, init, enter, leave, add, retrieve, inblock string) string {
	s, depth := init, 0
	for i := 0; i < n; i++ {
		switch k := r.Intn(6); {
		case k == 0:
			s, depth = fmt.Sprintf(enter, s), depth+1
		case k == 1 && depth > 0:
			s, depth = fmt.Sprintf(leave, s), depth-1
		default:
			s = fmt.Sprintf(add, s, idAtom(r), r.atom("a"))
		}
	}
	return fmt.Sprintf(r.pick(retrieve, inblock), s, idAtom(r))
}
