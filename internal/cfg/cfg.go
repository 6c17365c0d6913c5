// Package cfg builds control flow graphs, dominator trees, and natural
// loops over assembly units, for the write-check elimination analysis of §4.
//
// Functions are delimited by the compiler's `.stabs "...", func` records.
// Each function's instructions are partitioned into basic blocks; back edges
// (whose targets dominate their sources) identify natural loops, processed
// inner-to-outer by the optimizer so checks hoisted out of an inner loop can
// be hoisted again (§4.3.2).
package cfg

import (
	"fmt"
	"sort"

	"databreak/internal/asm"
	"databreak/internal/sparc"
)

// Func is one function's instruction range within a unit.
type Func struct {
	Name  string
	Unit  *asm.Unit
	Start int // first item index (the function label)
	End   int // one past the last item

	// Instrs lists the item indices of instructions, in order.
	Instrs []int
	// PosOf maps item index -> position in Instrs.
	PosOf map[int]int

	Blocks []*Block
	// BlockOf maps instruction position -> owning block.
	BlockOf []int

	Loops []*Loop
}

// Block is a basic block of instruction positions [Start, End).
type Block struct {
	ID    int
	Start int // position in Func.Instrs
	End   int
	Succs []int
	Preds []int
	// IDom is the immediate dominator block id (-1 for entry).
	IDom int
	// FallthroughSucc is the textually next block if control can fall into
	// it (-1 otherwise).
	FallthroughSucc int
}

// Loop is a natural loop.
type Loop struct {
	Header int          // block id
	Blocks map[int]bool // block ids in the loop (including header)
	Depth  int          // nesting depth (1 = outermost)
	Parent *Loop
}

// Contains reports whether the loop contains block b.
func (l *Loop) Contains(b int) bool { return l.Blocks[b] }

// SplitFunctions finds functions in a unit via its func symbol records.
func SplitFunctions(u *asm.Unit) ([]*Func, error) {
	// Collect function names and label positions.
	labelPos := make(map[string]int)
	for i := range u.Items {
		if it := &u.Items[i]; it.Kind == asm.ItemLabel {
			labelPos[it.Label] = i
		}
	}
	type fn struct {
		name string
		pos  int
	}
	var fns []fn
	for i := range u.Items {
		if it := &u.Items[i]; it.Kind == asm.ItemSymRec {
			sym := it.Sym()
			if sym.Kind != asm.SymFunc {
				continue
			}
			pos, ok := labelPos[sym.Label]
			if !ok {
				return nil, fmt.Errorf("cfg: func record %q names unknown label", sym.Name)
			}
			fns = append(fns, fn{sym.Name, pos})
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].pos < fns[j].pos })
	var out []*Func
	for i, f := range fns {
		end := len(u.Items)
		if i+1 < len(fns) {
			end = fns[i+1].pos
		}
		fun, err := Build(u, f.name, f.pos, end)
		if err != nil {
			return nil, err
		}
		out = append(out, fun)
	}
	return out, nil
}

// Build constructs the CFG for the instructions of u.Items[start:end].
func Build(u *asm.Unit, name string, start, end int) (*Func, error) {
	f := &Func{Name: name, Unit: u, Start: start, End: end, PosOf: make(map[int]int)}

	// Map local labels to the position of the next instruction.
	labelAt := make(map[string]int) // label -> instruction position
	var pendingLabels []string
	for i := start; i < end; i++ {
		it := &u.Items[i]
		switch it.Kind {
		case asm.ItemLabel:
			pendingLabels = append(pendingLabels, it.Label)
		case asm.ItemInstr:
			pos := len(f.Instrs)
			f.PosOf[i] = pos
			f.Instrs = append(f.Instrs, i)
			for _, l := range pendingLabels {
				labelAt[l] = pos
			}
			pendingLabels = nil
		}
	}
	n := len(f.Instrs)
	if n == 0 {
		return nil, fmt.Errorf("cfg: function %q has no instructions", name)
	}

	// Successor positions per instruction; -1 entries trimmed.
	succs := make([][]int, n)
	isLeader := make([]bool, n)
	isLeader[0] = true
	for p := 0; p < n; p++ {
		in := u.Items[f.Instrs[p]].Instr
		tgt := func() (int, bool) {
			name := u.Items[f.Instrs[p]].TargetSym
			t, ok := labelAt[name]
			return t, ok
		}
		switch {
		case in.Op == sparc.Br:
			t, ok := tgt()
			if !ok {
				// Branch out of the function: treat as exit.
				if p+1 < n && in.Cond != sparc.BA {
					succs[p] = []int{p + 1}
				}
			} else {
				if in.Cond == sparc.BA {
					succs[p] = []int{t}
				} else if p+1 < n {
					succs[p] = []int{t, p + 1}
				} else {
					succs[p] = []int{t}
				}
				isLeader[t] = true
			}
			if p+1 < n {
				isLeader[p+1] = true
			}
		case in.Op == sparc.Jmpl:
			// Indirect jump (including ret/retl): function exit.
			if p+1 < n {
				isLeader[p+1] = true
			}
		case in.Op == sparc.Ta && in.Imm == 0:
			// Program exit.
			if p+1 < n {
				isLeader[p+1] = true
			}
		default:
			// Calls return; everything else falls through.
			if p+1 < n {
				succs[p] = []int{p + 1}
			}
		}
	}
	for _, t := range labelAt {
		isLeader[t] = true
	}

	// Form blocks.
	f.BlockOf = make([]int, n)
	for p := 0; p < n; p++ {
		if p == 0 || isLeader[p] {
			f.Blocks = append(f.Blocks, &Block{ID: len(f.Blocks), Start: p, IDom: -1, FallthroughSucc: -1})
		}
		f.BlockOf[p] = len(f.Blocks) - 1
		f.Blocks[len(f.Blocks)-1].End = p + 1
	}
	// Block edges from the last instruction of each block.
	for _, b := range f.Blocks {
		last := b.End - 1
		for _, sp := range succs[last] {
			sb := f.BlockOf[sp]
			b.Succs = append(b.Succs, sb)
			f.Blocks[sb].Preds = append(f.Blocks[sb].Preds, b.ID)
			if sp == b.End && sp < n && f.Blocks[sb].Start == sp {
				b.FallthroughSucc = sb
			}
		}
		// A block that ends mid-way (next is a leader) falls through when
		// its last instruction has a fallthrough successor; covered above.
	}

	f.computeDominators()
	f.findLoops()
	return f, nil
}

// computeDominators runs the iterative algorithm (Cooper/Harvey/Kennedy)
// over a reverse postorder.
func (f *Func) computeDominators() {
	n := len(f.Blocks)
	rpo := f.reversePostorder()
	order := make([]int, n) // block id -> rpo index
	for i, b := range rpo {
		order[b] = i
	}
	f.Blocks[rpo[0]].IDom = rpo[0]
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom = -1
			for _, p := range f.Blocks[b].Preds {
				if f.Blocks[p].IDom == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = f.intersect(p, newIdom, order)
				}
			}
			if newIdom != -1 && f.Blocks[b].IDom != newIdom {
				f.Blocks[b].IDom = newIdom
				changed = true
			}
		}
	}
	// Entry's conventional self-idom becomes -1 for callers.
	f.Blocks[rpo[0]].IDom = -1
}

func (f *Func) intersect(a, b int, order []int) int {
	for a != b {
		for order[a] > order[b] {
			a = f.Blocks[a].IDom
			if a == -1 {
				return b
			}
		}
		for order[b] > order[a] {
			b = f.Blocks[b].IDom
			if b == -1 {
				return a
			}
		}
	}
	return a
}

func (f *Func) reversePostorder() []int {
	seen := make([]bool, len(f.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range f.Blocks[b].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	// Unreachable blocks are appended so every block has an order.
	for b := range f.Blocks {
		if !seen[b] {
			post = append(post, b)
		}
	}
	rpo := make([]int, len(post))
	for i := range post {
		rpo[len(post)-1-i] = post[i]
	}
	return rpo
}

// Dominates reports whether block a dominates block b.
func (f *Func) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		if b == 0 {
			return a == 0
		}
		b = f.Blocks[b].IDom
	}
	return false
}

// findLoops discovers natural loops from back edges and computes nesting.
func (f *Func) findLoops() {
	byHeader := make(map[int]*Loop)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !f.Dominates(s, b.ID) {
				continue
			}
			// Back edge b -> s.
			l, ok := byHeader[s]
			if !ok {
				l = &Loop{Header: s, Blocks: map[int]bool{s: true}}
				byHeader[s] = l
			}
			// Collect nodes reaching b without passing through s.
			var stack []int
			if !l.Blocks[b.ID] {
				l.Blocks[b.ID] = true
				stack = append(stack, b.ID)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range f.Blocks[x].Preds {
					if !l.Blocks[p] {
						l.Blocks[p] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}
	for _, l := range byHeader {
		f.Loops = append(f.Loops, l)
	}
	// Sort by body size so inner loops come first; compute nesting.
	sort.Slice(f.Loops, func(i, j int) bool {
		if len(f.Loops[i].Blocks) != len(f.Loops[j].Blocks) {
			return len(f.Loops[i].Blocks) < len(f.Loops[j].Blocks)
		}
		return f.Loops[i].Header < f.Loops[j].Header
	})
	for i, l := range f.Loops {
		for j := i + 1; j < len(f.Loops); j++ {
			outer := f.Loops[j]
			if outer.Blocks[l.Header] && len(outer.Blocks) > len(l.Blocks) {
				l.Parent = outer
				break
			}
		}
	}
	for _, l := range f.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
}

// EntryEdgesFallthrough reports whether every edge entering the loop header
// from outside the loop is a textual fallthrough (required for pre-header
// insertion directly before the header label).
func (f *Func) EntryEdgesFallthrough(l *Loop) bool {
	h := f.Blocks[l.Header]
	for _, p := range h.Preds {
		if l.Blocks[p] {
			continue // back edge
		}
		if f.Blocks[p].FallthroughSucc != l.Header {
			return false
		}
	}
	return true
}

// InstrItem returns the unit item index for instruction position p.
func (f *Func) InstrItem(p int) int { return f.Instrs[p] }

// Instruction returns the instruction at position p.
func (f *Func) Instruction(p int) sparc.Instr {
	return f.Unit.Items[f.Instrs[p]].Instr
}
