// Package lib declares the names TestCallerScanFixture holds the caller scan
// to.
package lib

// Kinder is the interface Dev implements through a promoted method.
type Kinder interface{ Kind() string }

type base struct{}

// Kind has no caller by name, but Dev implements Kinder with it, promoted
// from base: it counts as called.
func (*base) Kind() string { return "dev" }

// Dev embeds base.
type Dev struct{ base }

// NewDev is called from cmd/app.
func NewDev() Kinder { return &Dev{} }

// Stack is generic.
type Stack[T any] struct{ items []T }

// Push is called only through Stack[int]: it counts as called.
func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

// TestOnly is called only from lib_test.go: it has no caller.
func TestOnly() {}

// BenchOnly is called only from bench/: it counts as called.
func BenchOnly() {}

// Listed has no caller; the fixture's table lists it.
func Listed() {}

// Opts is a struct of options cmd/app sets one of.
type Opts struct {
	// Set is set by cmd/app's literal.
	Set int
	// TestSet is set only in lib_test.go: nothing sets it.
	TestSet int
}

// sizer is an unexported interface.
type sizer interface{ size() int }

type box struct{}

// size has no caller by name, but box implements sizer with it: it counts as
// called.
func (box) size() int { return 1 }

// Total is called from cmd/app, and calls size through sizer.
func Total() int {
	var s sizer = box{}
	return s.size()
}

// testHelper is called only from lib_test.go: it has no caller.
func testHelper() {}
