package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// FactsVersion names the serialized facts format. Any change to the fact
// schema, to how facts are computed, or to an analyzer that consumes them
// must bump it: the vet cache and CI's facts cache key on this string, so a
// bump invalidates every cached .vetx file at once.
const FactsVersion = "srclint-facts/v4"

// PackageFacts is one package's exported analysis summary — the modular
// layer that lets contracts declared in one package (internal/netblock's
// stale-epoch error, internal/src's hot path) be enforced against callers
// in another. The driver computes facts for every in-module dependency and
// hands them to analyzers through Pass.DepFacts.
//
// Determinism is part of the contract: Encode output is byte-identical for
// the same package regardless of file parse order or dependency load
// order. Everything is sorted, and positions inside fact strings use
// basename:line (never absolute paths or token.Pos values).
type PackageFacts struct {
	// Path is the package's import path, normalized (test variants fold
	// into the base package).
	Path string
	// Version is FactsVersion; Decode rejects mismatches so stale cached
	// facts can never silently feed a newer analyzer.
	Version string
	// ContractErrors lists the package-level error variables annotated
	// //srclint:contracterr <contract>, sorted by name.
	ContractErrors []ContractError `json:",omitempty"`
	// Funcs holds one fact per function, sorted by Name. The in-memory
	// form carries every function (intra-package analysis needs
	// unexported ones); Encode keeps only the exported entries, which is
	// all a cross-package caller can reach.
	Funcs []FuncFact `json:",omitempty"`
}

// ContractError names one package-level error variable bound to a
// protocol contract, e.g. {Name: "ErrStaleEpoch", Contract: "staleepoch"}.
type ContractError struct {
	Name     string
	Contract string
}

// FuncFact is one function's summary. Name follows the callgraph package's
// convention: "Func" for package functions, "Recv.Method" for methods
// (pointer receivers stripped), "Encl$N" for the N'th literal inside Encl.
type FuncFact struct {
	Name     string
	Exported bool `json:",omitempty"`

	// Surfaces lists contracts whose error this function can return —
	// declared by //srclint:surfaces <contract> or inferred when the body
	// constructs a contract error outside an errors.Is/As guard. Sorted.
	Surfaces []string `json:",omitempty"`
	// Handles lists contracts this function is an annotated handler for
	// (//srclint:handles <contract>). The staleepoch analyzer verifies the
	// annotation against the body. Sorted.
	Handles []string `json:",omitempty"`

	// Dials marks dial/connect-shaped functions (by name, or a direct
	// call to one): the boundedretry analyzer's trigger for retry loops.
	Dials bool `json:",omitempty"`
	// ConsultsBudget marks functions that consult a retry budget or
	// deadline (by name, or a direct call to one): calling one inside a
	// retry loop satisfies the boundedretry contract.
	ConsultsBudget bool `json:",omitempty"`

	// Hotpath marks an //srclint:hotpath root; Coldpath marks a declared
	// slow path (//srclint:coldpath <reason>) that stops hot-path
	// infection at calls to it.
	Hotpath  bool `json:",omitempty"`
	Coldpath bool `json:",omitempty"`
	// HotUnsafe is empty when the function (transitively, through its
	// non-cold callees) is free of hot-path violations; otherwise it
	// describes the first violation, e.g. "slice composite literal
	// (segment.go:144)". A hot caller in another package reports any call
	// to a HotUnsafe function.
	HotUnsafe string `json:",omitempty"`

	// Calls lists cross-package callees that themselves have facts, as
	// "importpath.Name" strings, sorted and deduplicated — the
	// cross-package half of the callgraph.
	Calls []string `json:",omitempty"`

	// SendsOnParams and ClosesOnParams export the callgraph package's
	// channel summaries by unified parameter index (receiver first).
	SendsOnParams  []int `json:",omitempty"`
	ClosesOnParams []int `json:",omitempty"`
}

// Func looks a fact up by name, nil if absent.
func (f *PackageFacts) Func(name string) *FuncFact {
	if f == nil {
		return nil
	}
	i := sort.Search(len(f.Funcs), func(i int) bool { return f.Funcs[i].Name >= name })
	if i < len(f.Funcs) && f.Funcs[i].Name == name {
		return &f.Funcs[i]
	}
	return nil
}

// Contract returns the contract bound to the named error variable, or "".
func (f *PackageFacts) Contract(errName string) string {
	if f == nil {
		return ""
	}
	for _, ce := range f.ContractErrors {
		if ce.Name == errName {
			return ce.Contract
		}
	}
	return ""
}

// Normalize sorts every slice so Encode is canonical and Func's binary
// search works. Compute calls it; Decode trusts the wire bytes were
// produced by Encode but normalizes anyway (defense against hand-edits).
func (f *PackageFacts) Normalize() {
	sort.Slice(f.ContractErrors, func(i, j int) bool { return f.ContractErrors[i].Name < f.ContractErrors[j].Name })
	for i := range f.Funcs {
		ff := &f.Funcs[i]
		sort.Strings(ff.Surfaces)
		sort.Strings(ff.Handles)
		sort.Strings(ff.Calls)
		sort.Ints(ff.SendsOnParams)
		sort.Ints(ff.ClosesOnParams)
	}
	sort.Slice(f.Funcs, func(i, j int) bool { return f.Funcs[i].Name < f.Funcs[j].Name })
}

// Encode serializes the exported view of the facts canonically: fixed field
// order (struct order), every list sorted, exported functions only, one
// trailing newline. Byte-identical across file and package load order.
func (f *PackageFacts) Encode() ([]byte, error) {
	out := PackageFacts{Path: f.Path, Version: f.Version, ContractErrors: f.ContractErrors}
	for _, ff := range f.Funcs {
		if ff.Exported {
			out.Funcs = append(out.Funcs, ff)
		}
	}
	out.Normalize()
	data, err := json.Marshal(&out)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeFacts parses Encode output. Empty input (the placeholder .vetx a
// facts-free tool run writes) and version mismatches return nil facts with
// no error: a consumer falls back to "no facts", never to wrong facts.
func DecodeFacts(data []byte) (*PackageFacts, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var f PackageFacts
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decoding package facts: %v", err)
	}
	if f.Version != FactsVersion {
		return nil, nil
	}
	f.Normalize()
	return &f, nil
}
