// Package cfg builds per-function control-flow graphs from Go ASTs and
// solves forward dataflow problems over them, dependency-free like the rest
// of internal/analysis.
//
// The graph is deliberately simple: a Block is a run of statements (and
// condition expressions) with no internal branching, and edges follow the
// statement-level control flow of if/for/range/switch/select, return,
// break/continue (labeled or not), goto, and fallthrough. Two constructs
// are handled conservatively:
//
//   - A statement that certainly panics or exits (a call to the panic
//     builtin or os.Exit as an expression statement) terminates its block
//     with no successors. Panic paths therefore never reach Exit, so a
//     must-hold-at-return analysis does not demand its fact on them.
//   - Expressions are not decomposed: short-circuit evaluation, function
//     literals, and panics hidden inside calls are invisible. Analyzers
//     built on this package must treat whole statements as atomic.
//
// On top of the graph, Solve runs a classic iterative forward dataflow
// analysis: facts are gen'd and killed by a per-node Transfer function and
// merged at join points either by intersection (must facts: a fact holds
// only if it holds on every incoming path) or by union (may facts: it holds
// if it holds on some path). Visit then replays the solution so an analyzer
// can observe the fact set in force immediately before each node.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Block is one basic block: Nodes execute in order, then control moves to
// one of Succs. A block with no successors ends the function (return, panic,
// or the synthetic Exit).
type Block struct {
	// Nodes holds the statements and condition expressions of the block in
	// execution order. Condition expressions (if/for conditions, switch
	// tags, range operands) appear as bare ast.Expr nodes.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every block, Entry first. Unreachable blocks (code after
	// a terminating statement) are present but never reached from Entry.
	Blocks []*Block
	// Entry is executed first; Exit is the synthetic block every return
	// (and the fall-off-the-end path) leads to. Exit has no nodes.
	Entry, Exit *Block
}

// New builds the control-flow graph of a function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: make(map[string]*labelScope)}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmt(body)
	if b.cur != nil {
		b.edge(b.cur, g.Exit) // fall off the end
	}
	for _, p := range b.gotos {
		if target, ok := b.labelBlocks[p.label]; ok {
			b.edge(p.from, target)
		} else {
			// A goto to a label the builder never saw (malformed input):
			// conservatively continue at Exit.
			b.edge(p.from, g.Exit)
		}
	}
	return g
}

// labelScope remembers the jump targets a labeled loop/switch/select makes
// available to labeled break and continue.
type labelScope struct {
	breakTo    *Block
	continueTo *Block // nil for switch/select labels
}

type gotoPatch struct {
	from  *Block
	label string
}

type builder struct {
	g *Graph
	// cur is the block under construction; nil after a terminating
	// statement (subsequent statements are unreachable and get a fresh,
	// predecessor-less block).
	cur *Block

	// breakTo/continueTo are the innermost unlabeled jump targets.
	breakTo    *Block
	continueTo *Block
	// labels maps an active label to its loop's jump targets.
	labels map[string]*labelScope
	// pendingLabel is the label attached to the next loop/switch/select.
	pendingLabel string
	// labelBlocks maps every label to the block its statement starts, for
	// goto resolution; gotos collects forward references to patch at the
	// end.
	labelBlocks map[string]*Block
	gotos       []gotoPatch
}

func (b *builder) newBlock() *Block {
	blk := &Block{}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// current returns the block under construction, starting a fresh
// unreachable one if the previous statement terminated control flow.
func (b *builder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) add(n ast.Node) { b.current().Nodes = append(b.current().Nodes, n) }

// stmt translates one statement into blocks and edges.
func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		head := b.current()
		join := b.newBlock()
		// Then branch.
		thenBlk := b.newBlock()
		b.edge(head, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
		// Else branch (or fall through past the if).
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(head, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.current(), head)
		exit := b.newBlock()
		body := b.newBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, exit)
		}
		b.edge(head, body)

		post := head
		if s.Post != nil {
			post = b.newBlock()
			b.cur = post
			b.stmt(s.Post)
			b.edge(b.cur, head)
		}
		b.loopBody(s.Body, body, exit, post)
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock()
		head.Nodes = append(head.Nodes, s.X)
		b.edge(b.current(), head)
		exit := b.newBlock()
		body := b.newBlock()
		b.edge(head, exit) // zero iterations
		b.edge(head, body)
		b.loopBody(s.Body, body, exit, head)
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.stmt(s.Assign)
		b.switchBody(s.Body)

	case *ast.SelectStmt:
		head := b.current()
		join := b.newBlock()
		saveBreak := b.breakTo
		b.breakTo = join
		b.enterLabel(join, nil)
		hasDefault := false
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm == nil {
				hasDefault = true
			} else {
				b.stmt(comm.Comm)
			}
			for _, st := range comm.Body {
				b.stmt(st)
			}
			if b.cur != nil {
				b.edge(b.cur, join)
			}
		}
		// A select with no cases at all blocks forever.
		if len(s.Body.List) == 0 && !hasDefault {
			// head keeps no edge to join: nothing follows.
		}
		b.breakTo = saveBreak
		b.cur = join

	case *ast.LabeledStmt:
		// Record the label both for goto and, when the labeled statement is
		// a loop/switch/select, for labeled break/continue.
		start := b.current()
		if b.labelBlocks == nil {
			b.labelBlocks = make(map[string]*Block)
		}
		// The labeled statement begins in a fresh block so a goto can land
		// exactly at it.
		target := b.newBlock()
		b.edge(start, target)
		b.cur = target
		b.labelBlocks[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		b.add(s)
		cur := b.current()
		switch s.Tok {
		case token.BREAK:
			to := b.breakTo
			if s.Label != nil {
				if ls := b.labels[s.Label.Name]; ls != nil {
					to = ls.breakTo
				}
			}
			if to != nil {
				b.edge(cur, to)
			} else {
				b.edge(cur, b.g.Exit)
			}
			b.cur = nil
		case token.CONTINUE:
			to := b.continueTo
			if s.Label != nil {
				if ls := b.labels[s.Label.Name]; ls != nil && ls.continueTo != nil {
					to = ls.continueTo
				}
			}
			if to != nil {
				b.edge(cur, to)
			} else {
				b.edge(cur, b.g.Exit)
			}
			b.cur = nil
		case token.GOTO:
			b.gotos = append(b.gotos, gotoPatch{from: cur, label: s.Label.Name})
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by switchBody, which wires the edge to the next case.
			b.cur = nil
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.current(), b.g.Exit)
		b.cur = nil

	default:
		// Straight-line statements, including defer/go (their calls run
		// later or elsewhere; analyzers see the statement node itself) and
		// declarations.
		b.add(s)
		if terminates(s) {
			b.cur = nil
		}
	}
}

// loopBody builds a loop body with break/continue wired to exit/cont, honoring
// a pending label.
func (b *builder) loopBody(body *ast.BlockStmt, start, exit, cont *Block) {
	saveBreak, saveCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = exit, cont
	b.enterLabel(exit, cont)
	b.cur = start
	b.stmt(body)
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	b.breakTo, b.continueTo = saveBreak, saveCont
}

// enterLabel binds the pending label (if any) to the given jump targets.
func (b *builder) enterLabel(breakTo, continueTo *Block) {
	if b.pendingLabel == "" {
		return
	}
	b.labels[b.pendingLabel] = &labelScope{breakTo: breakTo, continueTo: continueTo}
	b.pendingLabel = ""
}

// switchBody wires the case clauses of a (type) switch whose init/tag nodes
// are already in the current block.
func (b *builder) switchBody(body *ast.BlockStmt) {
	head := b.current()
	join := b.newBlock()
	saveBreak := b.breakTo
	b.breakTo = join
	b.enterLabel(join, nil)

	clauses := body.List
	caseBlocks := make([]*Block, len(clauses))
	for i := range clauses {
		caseBlocks[i] = b.newBlock()
	}
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(head, caseBlocks[i])
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fellThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(clauses) {
					b.edge(b.current(), caseBlocks[i+1])
				}
				fellThrough = true
				b.cur = nil
				continue
			}
			b.stmt(st)
		}
		if !fellThrough && b.cur != nil {
			b.edge(b.cur, join)
		}
	}
	if !hasDefault {
		b.edge(head, join) // no case matched
	}
	b.breakTo = saveBreak
	b.cur = join
}

// terminates reports whether a straight-line statement certainly stops
// control flow: a bare call to the panic builtin or to os.Exit. Calls that
// merely may panic are not terminators — that is the conservative choice
// for must-analyses, which otherwise would accept a missing fact on any
// path containing any call.
func terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}
