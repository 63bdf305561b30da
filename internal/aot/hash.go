package aot

// hash.go — the content address of a compiled Force program: a sha256
// over a canonical encoding of the checked AST plus every
// semantics-affecting option.  The encoding deliberately skips source
// line numbers, so programs differing only in whitespace, comments or
// blank lines share one cache entry (runtime-error line numbers then
// report the lines of whichever variant was built first — the accepted
// cost of the sharing).  Declarations and subroutines are hashed in
// name order, so reordering declarations — which cannot change observable
// behaviour — does not fork the cache.  np is excluded: it is a runtime
// flag of the generated binary, and one entry serves every force size.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"

	"repro/internal/forcelang"
	"repro/internal/sched"
)

// formatVersion invalidates the whole cache whenever the generated
// code's shape changes.  Bump it on any codegen change that alters the
// emitted Go for an unchanged AST, and on any change to the runtime
// packages a built binary links (core, engine, asyncvar, barrier,
// reduce, sched, ...) that alters what the binary does: the key hashes
// the program and the options, not the runtime library, so a warm
// cache would otherwise keep serving binaries linked against the old
// runtime.  Version 3: asynchronous variables and the Askfor pool wait
// through poison.Await.
const formatVersion = 3

// normalizeOpts applies the same defaulting codegen does, so an unset
// option and its explicit default produce one key.
func normalizeOpts(opts Options) Options {
	if opts.Selfsched == sched.Kind(0) {
		opts.Selfsched = sched.DefaultSelfsched
	}
	if opts.Chunk < 0 {
		opts.Chunk = 0
	}
	return opts
}

// Key returns the hex cache key of prog under opts.
func Key(prog *forcelang.Program, opts Options) string {
	return keyAt(formatVersion, prog, opts)
}

// keyAt is Key under a given format version.
func keyAt(version uint64, prog *forcelang.Program, opts Options) string {
	opts = normalizeOpts(opts)
	w := &hasher{h: sha256.New()}
	w.num(version)
	w.str(opts.Selfsched.String())
	w.str(opts.Reduce.String())
	w.str(opts.Barrier.String())
	w.str(opts.Askfor.String())
	w.num(uint64(opts.Chunk))
	w.program(prog)
	return hex.EncodeToString(w.h.Sum(nil))
}

type hasher struct{ h hash.Hash }

func (w *hasher) num(n uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n)
	w.h.Write(b[:])
}

// str writes a length-prefixed string, making the encoding prefix-free.
func (w *hasher) str(s string) {
	w.num(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w *hasher) program(p *forcelang.Program) {
	w.str(p.Name)
	w.str(p.NPVar)
	w.str(p.MeVar)
	w.decls(p.Decls)
	subs := append([]*forcelang.Subroutine(nil), p.Subs...)
	sort.Slice(subs, func(i, j int) bool { return subs[i].Name < subs[j].Name })
	w.num(uint64(len(subs)))
	for _, s := range subs {
		w.str(s.Name)
		w.num(uint64(len(s.Params)))
		for _, p := range s.Params {
			w.str(p)
		}
		w.decls(s.Decls)
		w.stmts(s.Body)
	}
	w.stmts(p.Body)
}

// decls hashes declarations in name order — Unit and Slot are derived
// by the checker from declaration order and are skipped, as is Line.
func (w *hasher) decls(ds []forcelang.Decl) {
	sorted := append([]forcelang.Decl(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	w.num(uint64(len(sorted)))
	for _, d := range sorted {
		w.num(uint64(d.Class))
		w.num(uint64(d.Type))
		w.str(d.Name)
		w.num(uint64(len(d.Dims)))
		for _, dim := range d.Dims {
			w.num(uint64(dim))
		}
	}
}

func (w *hasher) stmts(ss []forcelang.Stmt) {
	w.num(uint64(len(ss)))
	for _, s := range ss {
		w.stmt(s)
	}
}

func (w *hasher) stmt(s forcelang.Stmt) {
	switch t := s.(type) {
	case *forcelang.Assign:
		w.str("assign")
		w.ref(&t.Target)
		w.expr(t.Expr)
	case *forcelang.If:
		w.str("if")
		w.expr(t.Cond)
		w.stmts(t.Then)
		w.stmts(t.Else)
	case *forcelang.SeqDo:
		w.str("seqdo")
		w.str(t.Var)
		w.expr(t.From)
		w.expr(t.To)
		w.optExpr(t.Step)
		w.stmts(t.Body)
	case *forcelang.WhileDo:
		w.str("whiledo")
		w.expr(t.Cond)
		w.stmts(t.Body)
	case *forcelang.ParDo:
		w.str("pardo")
		w.num(uint64(t.Sched))
		w.str(t.Var)
		w.expr(t.From)
		w.expr(t.To)
		w.optExpr(t.Step)
		if t.Inner != nil {
			w.str("inner")
			w.str(t.Inner.Var)
			w.expr(t.Inner.From)
			w.expr(t.Inner.To)
			w.optExpr(t.Inner.Step)
		} else {
			w.str("noinner")
		}
		w.stmts(t.Body)
	case *forcelang.BarrierStmt:
		w.str("barrier")
		w.stmts(t.Section)
	case *forcelang.CriticalStmt:
		w.str("critical")
		w.str(t.Name)
		w.stmts(t.Body)
	case *forcelang.PcaseStmt:
		w.str("pcase")
		if t.Selfsched {
			w.num(1)
		} else {
			w.num(0)
		}
		w.num(uint64(len(t.Blocks)))
		for _, b := range t.Blocks {
			w.optExpr(b.Cond)
			w.stmts(b.Body)
		}
	case *forcelang.AskforStmt:
		w.str("askfor")
		w.str(t.Var)
		w.expr(t.Seed)
		w.stmts(t.Body)
	case *forcelang.PutStmt:
		w.str("put")
		w.expr(t.Expr)
	case *forcelang.ReduceStmt:
		w.str("reduce")
		w.num(uint64(t.Op))
		w.ref(&t.Target)
		w.expr(t.Expr)
	case *forcelang.ProduceStmt:
		w.str("produce")
		w.str(t.Var)
		w.optExpr(t.Sub)
		w.expr(t.Expr)
	case *forcelang.ConsumeStmt:
		w.str("consume")
		w.str(t.Var)
		w.optExpr(t.Sub)
		w.ref(&t.Target)
	case *forcelang.CopyStmt:
		w.str("copy")
		w.str(t.Var)
		w.optExpr(t.Sub)
		w.ref(&t.Target)
	case *forcelang.VoidStmt:
		w.str("void")
		w.str(t.Var)
		w.optExpr(t.Sub)
	case *forcelang.PrintStmt:
		w.str("print")
		w.num(uint64(len(t.Items)))
		for _, it := range t.Items {
			w.expr(it)
		}
	case *forcelang.CallStmt:
		w.str("call")
		w.str(t.Name)
		w.num(uint64(len(t.Args)))
		for i := range t.Args {
			w.ref(&t.Args[i])
		}
	default:
		// A node kind this walk does not know cannot be keyed safely.
		panic(fmt.Sprintf("aot: unhashed statement %T", s))
	}
}

// optExpr hashes a possibly-nil expression with an explicit presence
// tag, keeping the encoding unambiguous.
func (w *hasher) optExpr(e forcelang.Expr) {
	if e == nil {
		w.str("nil")
		return
	}
	w.str("some")
	w.expr(e)
}

func (w *hasher) ref(r *forcelang.Ref) {
	w.str("ref")
	w.str(r.Name)
	w.num(uint64(len(r.Subs)))
	for _, s := range r.Subs {
		w.expr(s)
	}
}

func (w *hasher) expr(e forcelang.Expr) {
	switch t := e.(type) {
	case *forcelang.IntLit:
		w.str("int")
		w.num(uint64(t.Value))
	case *forcelang.RealLit:
		w.str("real")
		w.num(math.Float64bits(t.Value))
	case *forcelang.BoolLit:
		w.str("bool")
		if t.Value {
			w.num(1)
		} else {
			w.num(0)
		}
	case *forcelang.StrLit:
		w.str("str")
		w.str(t.Value)
	case *forcelang.Ref:
		w.ref(t)
	case *forcelang.Bin:
		w.str("bin")
		w.num(uint64(t.Op))
		w.expr(t.L)
		w.expr(t.R)
	case *forcelang.Un:
		w.str("un")
		if t.Neg {
			w.num(1)
		} else {
			w.num(0)
		}
		w.expr(t.X)
	case *forcelang.Intrinsic:
		w.str("intrinsic")
		w.str(t.Name)
		w.num(uint64(len(t.Args)))
		for _, a := range t.Args {
			w.expr(a)
		}
	default:
		panic(fmt.Sprintf("aot: unhashed expression %T", e))
	}
}
