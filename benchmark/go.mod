// The benchmark is a module of its own so that it builds from this directory
// alone: `go run -C benchmark srccache/benchmark`. Its path is under
// srccache/, which is what lets it import srccache/internal/...; the replace
// points at the repository it sits in. Standard library and this repository
// only — no go.sum is needed.
module srccache/benchmark

go 1.22

require srccache v0.0.0

replace srccache => ../
