// Package databreak reproduces "Practical Data Breakpoints: Design and
// Implementation" (Wahbe, Lucco, Graham; PLDI 1993) as a Go library and
// experiment suite.
//
// The paper's contribution — a monitored region service built on segmented
// bitmap write checks and data-flow write-check elimination — lives in
// internal/monitor + internal/patch + internal/elim (the instruction-level
// pipeline on the simulated SPARC machine). internal/core offers the same
// region interface to Go hosts that run the debuggee themselves. See
// README.md for the architecture and EXPERIMENTS.md for the reproduction of
// every table and figure.
//
// The benchmarks in bench_test.go regenerate the paper's evaluation:
//
//	go test -bench=Table1 .
//	go test -bench=Table2 .
//	go test -bench=Figure3 .
//	go test -bench=Strategies .
//
// or run the full harness: go run ./cmd/mrsbench -table all
package databreak
